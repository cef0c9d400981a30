//! The command surface — the role the paper's REST "User Interface"
//! component plays (§III-A, Fig. 2 step 1/8): receive inputs, dispatch to
//! the system, render results with probabilities.
//!
//! There is one interpreter, and everything that speaks to a [`Quepa`] in
//! text goes through it: the `quepa-cli` REPL, a `COMMAND` frame on the
//! wire (each connection's reader thread owns one processor), and test
//! transcripts — so a CLI transcript *is* a wire test. The command list is
//! [`HELP`], which the `HELP` command prints; it is written down nowhere
//! else.
//!
//! A line that arrives in a frame is input from outside the program: a
//! [`CommandProcessor::remote`] processor refuses the commands `HELP`
//! marks *local only* — a peer does not name paths on the server's
//! filesystem nor rewrite the configuration every other client runs under.

use std::fmt::{Display, Write as _};

use quepa_aindex::serial;
use quepa_core::{
    AugmenterKind, DecisionReason, ExplorationSession, GroupStrategy, Quepa, QuepaConfig,
};
use quepa_pdm::Pushdown;

/// One command line, its verb recognised and its arguments still text:
/// one variant per `HELP` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command<'a> {
    Help,
    Stores,
    Stats,
    Index,
    Metrics(&'a str),
    Config(&'a str),
    Search(&'a str),
    Explain(&'a str),
    Explore(&'a str),
    Pick(&'a str),
    Back,
    End,
    Save(&'a str),
    Load(&'a str),
    Checkpoint,
    /// A verb `HELP` does not list.
    Unknown(&'a str),
}

impl<'a> Command<'a> {
    /// Splits the verb off a line; `None` for a blank line.
    pub fn parse(line: &'a str) -> Option<Command<'a>> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        Some(match verb.to_ascii_uppercase().as_str() {
            "" => return None,
            "HELP" => Command::Help,
            "STORES" => Command::Stores,
            "STATS" => Command::Stats,
            "INDEX" => Command::Index,
            "METRICS" => Command::Metrics(rest),
            "CONFIG" => Command::Config(rest),
            "SEARCH" => Command::Search(rest),
            "EXPLAIN" => Command::Explain(rest),
            "EXPLORE" => Command::Explore(rest),
            "PICK" => Command::Pick(rest),
            "BACK" => Command::Back,
            "END" => Command::End,
            "SAVE" => Command::Save(rest),
            "LOAD" => Command::Load(rest),
            "CHECKPOINT" => Command::Checkpoint,
            _ => Command::Unknown(verb),
        })
    }

    /// Whether the command does query work — runs a native query or an
    /// augmentation — and therefore passes admission control when it
    /// arrives in a frame. Everything else is control plane: cheap, never
    /// shed, answered while the query plane is overloaded.
    pub fn query_plane(&self) -> bool {
        use Command::*;
        matches!(self, Search(_) | Explain(_) | Explore(_) | Pick(_))
    }

    /// Whether a [`remote`](CommandProcessor::remote) processor refuses it.
    fn local_only(&self) -> bool {
        match self {
            Command::Save(_) | Command::Load(_) => true,
            Command::Config(args) => !args.is_empty(),
            _ => false,
        }
    }
}

/// What a command answers: the rendered answer, or the rendered error —
/// the text to show either way, and all the wire needs to choose between
/// `OK` and `ERROR`.
type Rendered = Result<String, String>;

/// Renders a failed call the way the shell always has.
fn failed(e: impl Display) -> String {
    format!("error: {e}\n")
}

/// A stateful command processor bound to one QUEPA instance. Its state is
/// the exploration session — at most one, as large as one answer — and
/// it dies with the processor: it is not durable, and a client that
/// reconnects starts over with `EXPLORE`.
pub struct CommandProcessor<'q> {
    quepa: &'q Quepa,
    session: Option<ExplorationSession<'q>>,
    remote: bool,
}

impl<'q> CommandProcessor<'q> {
    /// A processor for input typed at this process (the REPL, tests).
    pub fn new(quepa: &'q Quepa) -> Self {
        CommandProcessor { quepa, session: None, remote: false }
    }

    /// A processor for lines that arrive from a peer: the same commands,
    /// minus the ones `HELP` marks local only.
    pub fn remote(quepa: &'q Quepa) -> Self {
        CommandProcessor { remote: true, ..Self::new(quepa) }
    }

    /// True when an exploration session is open.
    pub fn exploring(&self) -> bool {
        self.session.is_some()
    }

    /// Handles one input line and returns the text to show the user.
    /// Errors are rendered, not raised — a UI never crashes on bad input.
    pub fn handle(&mut self, line: &str) -> String {
        match Command::parse(line) {
            Some(command) => self.run(command, false).unwrap_or_else(|error| error),
            None => String::new(),
        }
    }

    /// Runs one parsed command; `Err` carries the rendered error. `clamp`
    /// is the admission gate's *degrade* verdict: a `SEARCH` then answers
    /// at level 0 (exact, unaugmented); no other command has a cheaper
    /// shape to fall back to.
    pub fn run(&mut self, command: Command<'_>, clamp: bool) -> Result<String, String> {
        if self.remote && command.local_only() {
            return Err("local only: a server does not take SAVE, LOAD or CONFIG <args…> \
                        from a peer\n"
                .into());
        }
        match command {
            Command::Help => Ok(HELP.to_owned()),
            Command::Stores => Ok(self.stores()),
            Command::Stats => Ok(self.stats()),
            Command::Index => Ok(self.index_info()),
            Command::Metrics(format) => self.metrics(format),
            Command::Config(args) => self.config(args),
            Command::Search(args) => self.search(args, clamp),
            Command::Explain(args) => self.explain(args),
            Command::Explore(args) => self.explore(args),
            Command::Pick(args) => self.pick(args),
            Command::Back => self.frontier(),
            Command::End => self.end(),
            Command::Save(path) => self.save(path),
            Command::Load(path) => self.load(path),
            Command::Checkpoint => self.checkpoint(),
            Command::Unknown(verb) => Err(format!("unknown command {verb:?}; try HELP")),
        }
    }

    fn stores(&self) -> String {
        let mut out = String::new();
        for name in self.quepa.polystore().database_names() {
            let c = self.quepa.polystore().connector(name).expect("listed");
            let _ = writeln!(
                out,
                "{:<20} {:<12} {:>8} objects  collections: {}",
                name.as_str(),
                c.kind().name(),
                c.object_count(),
                c.collections().iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", "),
            );
        }
        out
    }

    fn stats(&self) -> String {
        let s = self.quepa.polystore().stats();
        let (hits, misses) = self.quepa.cache().stats();
        format!(
            "queries: {}  round-trips: {}  objects moved: {}  simulated network: {:?}\n\
             cache: {} entries, {hits} hits / {misses} misses\n",
            s.queries,
            s.round_trips,
            s.objects_returned,
            s.simulated_network,
            self.quepa.cache().len(),
        )
    }

    fn index_info(&self) -> String {
        let mut out = format!("{:?}\n", self.quepa.index().stats());
        for s in self.quepa.index_shard_stats() {
            out.push_str(&format!(
                "shard {:>2}: {} entries, overlay {}, {} bytes, {} compactions, {} swaps\n",
                s.shard, s.entries, s.overlay_depth, s.resident_bytes, s.compactions, s.swaps
            ));
        }
        out
    }

    fn metrics(&self, format: &str) -> Rendered {
        let snapshot = self.quepa.metrics_snapshot();
        match format.to_ascii_uppercase().as_str() {
            "" | "PROM" | "PROMETHEUS" => {
                let mut out = quepa_obs::prometheus_text(&snapshot);
                if !self.quepa.config().observability {
                    out.push_str("# observability is off; CONFIG OBS ON to record stages\n");
                }
                Ok(out)
            }
            "JSON" => Ok(quepa_obs::json(&snapshot) + "\n"),
            other => Err(format!("unknown metrics format {other:?}; METRICS [JSON]")),
        }
    }

    fn config(&self, args: &str) -> Rendered {
        let current = self.quepa.config();
        let parts: Vec<&str> = args.split_whitespace().collect();
        let config = match parts.as_slice() {
            [] => return Ok(format!("{current}\n")),
            [knob, toggle] => {
                let knob = knob.to_ascii_uppercase();
                let on = match toggle.to_ascii_uppercase().as_str() {
                    "ON" => true,
                    "OFF" => false,
                    _ => return Err(format!("usage: CONFIG {knob} ON|OFF")),
                };
                match knob.as_str() {
                    "OBS" => QuepaConfig { observability: on, ..current },
                    "PUSH" => QuepaConfig { pushdown: on, ..current },
                    other => return Err(format!("unknown config knob {other:?}; OBS or PUSH")),
                }
            }
            [aug, batch, threads, cache] => {
                let augmenter = AugmenterKind::parse(aug).ok_or_else(|| {
                    format!(
                        "unknown augmenter {aug:?}; one of {}",
                        AugmenterKind::ALL.map(|k| k.name()).join(", ")
                    )
                })?;
                let parse = |s: &str| s.parse::<usize>().ok();
                let (Some(batch_size), Some(threads_size), Some(cache_size)) =
                    (parse(batch), parse(threads), parse(cache))
                else {
                    return Err("batch/threads/cache must be integers".into());
                };
                QuepaConfig { augmenter, batch_size, threads_size, cache_size, ..current }
            }
            _ => {
                return Err("usage: CONFIG <augmenter> <batch> <threads> <cache> | \
                            CONFIG OBS|PUSH ON|OFF"
                    .into())
            }
        };
        self.quepa.set_config(config);
        Ok(format!("configured: {}\n", self.quepa.config()))
    }

    fn search(&self, args: &str, clamp: bool) -> Rendered {
        const USAGE: &str = "usage: SEARCH <db> <level> <query…> [:: <filter>]";
        let (db, level, query, filter) = leveled_query(args, USAGE)?;
        let level = if clamp { 0 } else { level };
        let answer = match &filter {
            Some(f) => self.quepa.augmented_search_filtered(db, query, level, f),
            None => self.quepa.augmented_search(db, query, level),
        }
        .map_err(failed)?;
        let mut out = answer.render();
        let _ = writeln!(
            out,
            "({} original + {} augmented in {:?}, {} cache hits)",
            answer.original.len(),
            answer.augmented.len(),
            answer.duration,
            answer.cache_hits,
        );
        if let Some(f) = &filter {
            let _ = writeln!(out, "(filter: {f})");
        }
        Ok(out)
    }

    fn explain(&self, args: &str) -> Rendered {
        const USAGE: &str = "usage: EXPLAIN <db> <level> <query…> :: <filter>";
        let (db, level, query, filter) = leveled_query(args, USAGE)?;
        let filter = filter.ok_or(USAGE)?;
        let decisions = self.quepa.explain_search(db, query, level, &filter).map_err(failed)?;
        if decisions.is_empty() {
            return Ok("no augmentation groups to plan at this level\n".into());
        }
        let mut out = format!("filter: {filter}\n");
        for d in &decisions {
            let strategy = match d.strategy {
                GroupStrategy::Pushdown => "PUSHDOWN",
                GroupStrategy::FetchAll => "FETCH-ALL",
            };
            let reason = match d.reason {
                DecisionReason::Chosen => "planner chose pushdown",
                DecisionReason::Disabled => "pushdown disabled by config",
                DecisionReason::Declined => "connector declined the filter",
                DecisionReason::Predicted => "planner predicted fetch-all faster",
            };
            let _ = writeln!(
                out,
                "{:<28} {:>4} keys  {:<9} {reason}",
                format!("{}.{}", d.database, d.collection),
                d.keys,
                strategy,
            );
        }
        Ok(out)
    }

    fn explore(&mut self, args: &str) -> Rendered {
        let (db, query) =
            args.split_once(char::is_whitespace).ok_or("usage: EXPLORE <db> <query…>")?;
        let session = self.quepa.explore(db, query.trim()).map_err(failed)?;
        let mut out = String::new();
        for (i, o) in session.results().iter().enumerate() {
            let _ = writeln!(out, "[{i}] {o}");
        }
        let _ = writeln!(out, "PICK <i> to expand a result.");
        self.session = Some(session);
        Ok(out)
    }

    fn pick(&mut self, args: &str) -> Rendered {
        let session = self.session.as_mut().ok_or("no exploration in progress; EXPLORE first")?;
        let i = args.parse::<usize>().map_err(|_| "usage: PICK <index>")?;
        // The first pick selects a result, every later one follows a link;
        // a pick that fails leaves the session where it was.
        let picked = if session.steps() == 0 { session.select(i) } else { session.step(i) };
        picked.map_err(failed)?;
        self.frontier()
    }

    fn frontier(&self) -> Rendered {
        let session = self.session.as_ref().ok_or("no exploration in progress")?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "path: {}",
            session.path().iter().map(|k| k.to_string()).collect::<Vec<_>>().join(" → ")
        );
        for (i, link) in session.frontier().iter().enumerate() {
            let _ = writeln!(out, "[{i}] ⇒ {} [p={}]", link.object, link.probability);
        }
        if session.frontier().is_empty() {
            let _ = writeln!(out, "(no further links)");
        }
        Ok(out)
    }

    fn end(&mut self) -> Rendered {
        let session = self.session.take().ok_or("no exploration in progress")?;
        let steps = session.steps();
        let promoted = session.finish().map_err(failed)?;
        Ok(format!(
            "exploration closed after {steps} steps{}\n",
            if promoted { "; a shortcut p-relation was promoted" } else { "" }
        ))
    }

    fn checkpoint(&self) -> Rendered {
        let Some(lsn) = self.quepa.checkpoint_durable().map_err(failed)? else {
            return Err("not a durable instance; start quepa-cli with --data-dir DIR\n".into());
        };
        let status = self.quepa.durability_status().expect("durable");
        Ok(format!(
            "checkpoint cut written at LSN {lsn} in {} ({} cuts, {} records this session)\n",
            status.dir.display(),
            status.cuts_written,
            status.records_appended,
        ))
    }

    fn save(&self, path: &str) -> Rendered {
        if path.is_empty() {
            return Err("usage: SAVE <path>".into());
        }
        let text = serial::to_string(&self.quepa.index_snapshot());
        std::fs::write(path, text).map_err(failed)?;
        Ok(format!("A' index saved to {path}\n"))
    }

    fn load(&self, path: &str) -> Rendered {
        if path.is_empty() {
            return Err("usage: LOAD <path>".into());
        }
        let text = std::fs::read_to_string(path).map_err(failed)?;
        self.quepa.replace_index(serial::from_str(&text).map_err(failed)?).map_err(failed)?;
        Ok(format!("A' index loaded from {path}: {:?}\n", self.quepa.index().stats()))
    }
}

/// Parses `<db> <level> <query…> [:: <filter>]`, the argument shape
/// `SEARCH` and `EXPLAIN` share.
fn leveled_query<'a>(
    args: &'a str,
    usage: &str,
) -> Result<(&'a str, usize, &'a str, Option<Pushdown>), String> {
    let (head, filter) = match args.split_once("::") {
        None => (args, None),
        Some((head, filter)) => {
            let filter =
                Pushdown::parse(filter.trim()).map_err(|e| format!("bad filter: {e}\n"))?;
            (head.trim(), Some(filter))
        }
    };
    let mut parts = head.splitn(3, char::is_whitespace);
    let (Some(db), Some(level), Some(query)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(usage.to_owned());
    };
    let level = level.parse().map_err(|_| "level must be a non-negative integer")?;
    Ok((db, level, query, filter))
}

/// The command list — the only one. An entry starts at column 2 with its
/// verb; `(local only)` marks what a server refuses from a peer.
pub const HELP: &str = "\
QUEPA commands:
  SEARCH <db> <level> <query…> [:: <filter>]
                                 augmented search in the store's native language;
                                 the optional predicate restricts augmented objects
  EXPLAIN <db> <level> <query…> :: <filter>
                                 dry-run the per-store pushdown plan for a filter
  EXPLORE <db> <query…>          start an augmented exploration
  PICK <i>                       expand result/link i
  BACK                           show the current frontier again
  END                            close the exploration (paths may promote)
  CONFIG                         show the configuration
  CONFIG <augmenter> <batch> <threads> <cache>     set it (local only)
  CONFIG OBS ON|OFF              toggle the observability layer (local only)
  CONFIG PUSH ON|OFF             toggle predicate pushdown planning (local only)
  METRICS [JSON]                 export metrics (Prometheus text by default)
  STORES                         list the stores of the polystore
  STATS                          round-trip and cache counters
  INDEX                          A' index statistics, per shard
  SAVE <path>                    persist the A' index (local only)
  LOAD <path>                    restore the A' index (local only)
  CHECKPOINT                     force a durable checkpoint cut (--data-dir mode)
  HELP                           this list
";

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_polystore::Deployment;
    use quepa_workload::{BuiltPolystore, WorkloadConfig};

    fn quepa() -> Quepa {
        BuiltPolystore::build(WorkloadConfig {
            albums: 60,
            replica_sets: 0,
            deployment: Deployment::InProcess,
            seed: 77,
        })
        .into_quepa()
    }

    #[test]
    fn search_renders_answer() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("SEARCH transactions 0 SELECT * FROM inventory WHERE seq < 2");
        assert!(out.contains("transactions.inventory.a0"), "{out}");
        assert!(out.contains('⇒'), "{out}");
        assert!(out.contains("augmented in"), "{out}");
    }

    #[test]
    fn search_errors_are_rendered() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("SEARCH transactions 0 SELECT COUNT(*) FROM inventory");
        assert!(out.contains("error"), "{out}");
        let out = p.handle("SEARCH nosuchdb 0 SELECT * FROM t");
        assert!(out.contains("error"), "{out}");
        let out = p.handle("SEARCH transactions x SELECT * FROM t");
        assert!(out.contains("level must be"), "{out}");
    }

    #[test]
    fn filtered_search_and_explain() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle(
            "SEARCH transactions 1 SELECT * FROM inventory WHERE seq < 2 :: key contains \"9\"",
        );
        assert!(out.contains("augmented in"), "{out}");
        assert!(out.contains("filter: key contains \"9\""), "{out}");
        let out = p.handle("SEARCH transactions 1 SELECT * FROM t :: key ?? x");
        assert!(out.contains("bad filter"), "{out}");

        let out = p.handle(
            "EXPLAIN transactions 1 SELECT * FROM inventory WHERE seq < 2 :: key contains \"9\"",
        );
        assert!(out.contains("filter: key contains \"9\""), "{out}");
        assert!(out.contains("PUSHDOWN") || out.contains("FETCH-ALL"), "{out}");
        assert!(p.handle("EXPLAIN transactions 1 SELECT * FROM t").contains("usage: EXPLAIN"));

        let out = p.handle("CONFIG PUSH OFF");
        assert!(out.contains("no-pushdown"), "{out}");
        let out = p.handle(
            "EXPLAIN transactions 1 SELECT * FROM inventory WHERE seq < 2 :: key contains \"9\"",
        );
        assert!(out.contains("FETCH-ALL"), "{out}");
        assert!(out.contains("disabled"), "{out}");
        let out = p.handle("CONFIG PUSH ON");
        assert!(!out.contains("no-pushdown"), "{out}");
        assert!(p.handle("CONFIG PUSH maybe").contains("usage: CONFIG PUSH"));
    }

    #[test]
    fn explore_pick_end_flow() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("EXPLORE transactions SELECT * FROM sales WHERE seq < 2");
        assert!(out.contains("[0]"), "{out}");
        assert!(p.exploring());
        let out = p.handle("PICK 0");
        assert!(out.contains("path: transactions.sales.s0"), "{out}");
        assert!(out.contains("[0] ⇒"), "{out}");
        let out = p.handle("PICK 0");
        assert!(out.contains('→'), "{out}");
        let out = p.handle("END");
        assert!(out.contains("closed after 2 steps"), "{out}");
        assert!(!p.exploring());
        assert_eq!(q.paths().tracked_paths(), 0, "2-node path is too short for D_P");
    }

    #[test]
    fn pick_without_session() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        assert!(p.handle("PICK 0").contains("no exploration"));
        assert!(p.handle("END").contains("no exploration"));
        assert!(p.handle("BACK").contains("no exploration"));
    }

    #[test]
    fn config_roundtrip() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("CONFIG BATCH 128 2 500");
        assert!(out.contains("BATCH(batch=128"), "{out}");
        assert_eq!(q.config().batch_size, 128);
        assert!(p.handle("CONFIG").contains("BATCH"));
        assert!(p.handle("CONFIG WRONG 1 1 1").contains("unknown augmenter"));
        assert!(p.handle("CONFIG BATCH x 1 1").contains("must be integers"));
    }

    #[test]
    fn stores_and_stats() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("STORES");
        assert!(out.contains("transactions"), "{out}");
        assert!(out.contains("key-value"), "{out}");
        p.handle("SEARCH transactions 0 SELECT * FROM inventory WHERE seq < 2");
        let out = p.handle("STATS");
        assert!(out.contains("round-trips"), "{out}");
        let out = p.handle("INDEX");
        assert!(out.contains("IndexStats"), "{out}");
    }

    #[test]
    fn save_and_load() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let path = std::env::temp_dir().join("quepa-cli-test.aindex");
        let path_str = path.to_str().unwrap();
        let before = q.index().stats();
        let out = p.handle(&format!("SAVE {path_str}"));
        assert!(out.contains("saved"), "{out}");
        let out = p.handle(&format!("LOAD {path_str}"));
        assert!(out.contains("loaded"), "{out}");
        // The graph round-trips exactly; lineage flattens (inferred → direct).
        let after = q.index().stats();
        assert_eq!(after.nodes, before.nodes);
        assert_eq!(after.identity_edges, before.identity_edges);
        assert_eq!(after.matching_edges, before.matching_edges);
        std::fs::remove_file(path).ok();
        assert!(p.handle("LOAD /no/such/file").contains("error"));
    }

    #[test]
    fn metrics_export_and_obs_toggle() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("METRICS");
        assert!(out.contains("observability is off"), "{out}");
        let out = p.handle("CONFIG OBS ON");
        assert!(out.contains("obs"), "{out}");
        assert!(q.config().observability);
        p.handle("SEARCH transactions 1 SELECT * FROM inventory WHERE seq < 2");
        let out = p.handle("METRICS");
        assert!(out.contains("quepa_stage_spans_total"), "{out}");
        assert!(out.contains("le=\"+Inf\""), "{out}");
        let out = p.handle("METRICS JSON");
        assert!(out.contains("\"stages\""), "{out}");
        assert!(p.handle("METRICS XML").contains("unknown metrics format"));
        assert!(p.handle("CONFIG OBS maybe").contains("usage: CONFIG OBS"));
        let out = p.handle("CONFIG OBS OFF");
        assert!(!out.contains("obs"), "{out}");
    }

    #[test]
    fn config_preserves_observability() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        p.handle("CONFIG OBS ON");
        p.handle("CONFIG BATCH 128 2 500");
        assert!(q.config().observability, "CONFIG must not silently drop the obs flag");
    }

    #[test]
    fn checkpoint_on_a_volatile_instance_points_at_data_dir() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("CHECKPOINT");
        assert!(out.contains("--data-dir"), "{out}");
    }

    #[test]
    fn checkpoint_on_a_durable_instance_reports_the_lsn() {
        let dir =
            std::env::temp_dir().join(format!("quepa-cli-checkpoint-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let built = BuiltPolystore::build(WorkloadConfig {
            albums: 40,
            replica_sets: 0,
            deployment: Deployment::InProcess,
            seed: 77,
        });
        let q = Quepa::create_durable(
            built.polystore,
            built.index,
            QuepaConfig::default(),
            &dir,
            quepa_core::SyncPolicy::Buffered,
        )
        .unwrap();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("CHECKPOINT");
        assert!(out.contains("cut written at LSN"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `HELP` is the command list: what it lists is dispatched, what is
    /// dispatched is listed, and what a peer may not send is marked.
    #[test]
    fn help_lists_exactly_the_dispatched_commands() {
        // An entry starts at column 2 with its usage — verb, arguments —
        // and a description follows after two or more spaces.
        let entries = HELP.lines().filter(|l| l.starts_with("  ") && !l.starts_with("   "));
        // Exhaustive on purpose: a new variant does not compile until it
        // is named here, and then has to be in `HELP`.
        let verb = |command: Command<'_>| match command {
            Command::Help => "HELP",
            Command::Stores => "STORES",
            Command::Stats => "STATS",
            Command::Index => "INDEX",
            Command::Metrics(_) => "METRICS",
            Command::Config(_) => "CONFIG",
            Command::Search(_) => "SEARCH",
            Command::Explain(_) => "EXPLAIN",
            Command::Explore(_) => "EXPLORE",
            Command::Pick(_) => "PICK",
            Command::Back => "BACK",
            Command::End => "END",
            Command::Save(_) => "SAVE",
            Command::Load(_) => "LOAD",
            Command::Checkpoint => "CHECKPOINT",
            Command::Unknown(_) => "(unknown)",
        };
        let mut listed = std::collections::BTreeSet::new();
        for entry in entries {
            let usage = entry.trim().split("  ").next().unwrap();
            let command = Command::parse(usage).expect("an entry is not blank");
            let named = usage.split(' ').next().unwrap();
            assert_eq!(verb(command), named, "HELP lists {named}, which is not dispatched");
            assert_eq!(entry.contains("(local only)"), command.local_only(), "mark of {entry:?}");
            listed.insert(named);
        }
        assert_eq!(listed.len(), 15, "one of the fifteen dispatched verbs has no HELP entry");
    }

    #[test]
    fn a_remote_processor_refuses_what_help_marks_local_only() {
        let q = quepa();
        let mut p = CommandProcessor::remote(&q);
        let before = (q.config(), q.index().stats());
        let path = std::env::temp_dir().join("quepa-cli-remote-refused.aindex");
        for line in [
            format!("SAVE {}", path.display()),
            format!("LOAD {}", path.display()),
            "CONFIG OBS ON".into(),
            "CONFIG BATCH 128 2 500".into(),
        ] {
            let refused = p.run(Command::parse(&line).unwrap(), false).unwrap_err();
            assert!(refused.contains("local only"), "{line}: {refused}");
        }
        assert!(!path.exists(), "a refused SAVE wrote a file");
        assert_eq!((q.config(), q.index().stats()), before);
        // Reading the configuration is not rewriting it.
        assert!(p.handle("CONFIG").contains("BATCH"));
    }

    #[test]
    fn a_failed_pick_leaves_the_session_where_it_was() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        p.handle("EXPLORE transactions SELECT * FROM sales WHERE seq < 2");
        // Out of range on the very first pick: still a *first* pick next time.
        assert!(p.handle("PICK 99").contains("out of range"));
        assert!(p.handle("PICK x").contains("usage: PICK"));
        let first = p.handle("PICK 0");
        assert!(first.contains("path: transactions.sales.s0\n"), "{first}");
        assert!(p.handle("PICK 9999").contains("out of range"));
        assert_eq!(p.handle("BACK"), first, "a failed PICK moved the frontier");
    }

    #[test]
    fn unknown_and_empty_commands() {
        let q = quepa();
        let mut p = CommandProcessor::new(&q);
        assert!(p.handle("FROBNICATE").contains("unknown command"));
        assert_eq!(p.handle("   "), "");
        assert!(p.handle("HELP").contains("SEARCH"));
    }
}
