//! A text front-end for QUEPA — the role the paper's REST "User Interface"
//! component plays (§III-A, Fig. 2 step 1/8): receive inputs, dispatch to
//! the system, render results with probabilities.
//!
//! The protocol is line-based so it is equally usable as a REPL
//! (`cargo run --bin quepa-cli`), over a socket, or from tests:
//!
//! ```text
//! SEARCH <db> <level> <query…> [:: <filter>]
//!                                   augmented search (Definition 3); the
//!                                   optional predicate restricts the
//!                                   augmented objects (pushed down to
//!                                   stores that support it)
//! EXPLAIN <db> <level> <query…> :: <filter>
//!                                   dry-run the per-store pushdown plan
//! EXPLORE <db> <query…>             open an exploration (Definition 4)
//! PICK <i>                          select a result / follow a link
//! BACK                              show the current frontier again
//! END                               close the exploration (may promote)
//! CONFIG [<augmenter> <batch> <threads> <cache>]
//! STORES | STATS | INDEX | HELP
//! SAVE <path> | LOAD <path>         persist / restore the A' index
//! CHECKPOINT                        force a durable checkpoint cut
//! ```

use std::fmt::Write as _;

use crate::aindex::serial;
use crate::core::{
    AugmenterKind, DecisionReason, ExplorationSession, GroupStrategy, Quepa, QuepaConfig,
};
use crate::pdm::Pushdown;

/// A stateful command processor bound to one QUEPA instance.
pub struct CommandProcessor<'q> {
    quepa: &'q Quepa,
    session: Option<ExplorationSession<'q>>,
    /// Whether the last PICK was the first of the session (select vs step).
    started: bool,
}

impl<'q> CommandProcessor<'q> {
    /// Creates a processor over a system.
    pub fn new(quepa: &'q Quepa) -> Self {
        CommandProcessor { quepa, session: None, started: false }
    }

    /// True when an exploration session is open.
    pub fn exploring(&self) -> bool {
        self.session.is_some()
    }

    /// Handles one input line, returning the text to show the user.
    /// Errors are rendered, not raised — a UI never crashes on bad input.
    pub fn handle(&mut self, line: &str) -> String {
        let line = line.trim();
        if line.is_empty() {
            return String::new();
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "HELP" => HELP.to_owned(),
            "STORES" => self.stores(),
            "STATS" => self.stats(),
            "METRICS" => self.metrics(rest),
            "INDEX" => self.index_info(),
            "CONFIG" => self.config(rest),
            "SEARCH" => self.search(rest),
            "EXPLAIN" => self.explain(rest),
            "EXPLORE" => self.explore(rest),
            "PICK" => self.pick(rest),
            "BACK" => self.frontier(),
            "END" => self.end(),
            "SAVE" => self.save(rest),
            "LOAD" => self.load(rest),
            "CHECKPOINT" => self.checkpoint(),
            other => format!("unknown command {other:?}; try HELP"),
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

    fn metrics(&self, rest: &str) -> String {
        let snapshot = self.quepa.metrics_snapshot();
        match rest.to_ascii_uppercase().as_str() {
            "" | "PROM" | "PROMETHEUS" => {
                let mut out = crate::obs::prometheus_text(&snapshot);
                if !self.quepa.config().observability {
                    out.push_str("# observability is off; CONFIG OBS ON to record stages\n");
                }
                out
            }
            "JSON" => {
                let mut out = crate::obs::json(&snapshot);
                out.push('\n');
                out
            }
            other => format!("unknown metrics format {other:?}; METRICS [JSON]"),
        }
    }

    fn config(&self, rest: &str) -> String {
        if rest.is_empty() {
            return format!("{}\n", self.quepa.config());
        }
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if let [knob, toggle] = parts.as_slice() {
            let on = match toggle.to_ascii_uppercase().as_str() {
                "ON" => true,
                "OFF" => false,
                _ => return format!("usage: CONFIG {} ON|OFF", knob.to_ascii_uppercase()),
            };
            match knob.to_ascii_uppercase().as_str() {
                "OBS" => {
                    self.quepa.set_config(QuepaConfig { observability: on, ..self.quepa.config() })
                }
                "PUSH" => {
                    self.quepa.set_config(QuepaConfig { pushdown: on, ..self.quepa.config() })
                }
                other => return format!("unknown config knob {other:?}; OBS or PUSH"),
            }
            return format!("configured: {}\n", self.quepa.config());
        }
        let [aug, batch, threads, cache] = parts.as_slice() else {
            return "usage: CONFIG <augmenter> <batch> <threads> <cache> | CONFIG OBS|PUSH ON|OFF"
                .into();
        };
        let Some(augmenter) = AugmenterKind::parse(aug) else {
            return format!(
                "unknown augmenter {aug:?}; one of {}",
                AugmenterKind::ALL.map(|k| k.name()).join(", ")
            );
        };
        let parse = |s: &str| s.parse::<usize>().ok();
        match (parse(batch), parse(threads), parse(cache)) {
            (Some(batch_size), Some(threads_size), Some(cache_size)) => {
                self.quepa.set_config(QuepaConfig {
                    augmenter,
                    batch_size,
                    threads_size,
                    cache_size,
                    ..self.quepa.config()
                });
                format!("configured: {}\n", self.quepa.config())
            }
            _ => "batch/threads/cache must be integers".into(),
        }
    }

    fn search(&mut self, rest: &str) -> String {
        let (rest, filter) = match split_filter(rest) {
            Ok(split) => split,
            Err(e) => return e,
        };
        let mut parts = rest.splitn(3, char::is_whitespace);
        let (Some(db), Some(level), Some(query)) = (parts.next(), parts.next(), parts.next())
        else {
            return "usage: SEARCH <db> <level> <query…> [:: <filter>]".into();
        };
        let Ok(level) = level.parse::<usize>() else {
            return "level must be a non-negative integer".into();
        };
        let result = match &filter {
            Some(f) => self.quepa.augmented_search_filtered(db, query, level, f),
            None => self.quepa.augmented_search(db, query, level),
        };
        match result {
            Ok(answer) => {
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
                out
            }
            Err(e) => format!("error: {e}\n"),
        }
    }

    fn explain(&self, rest: &str) -> String {
        let (rest, filter) = match split_filter(rest) {
            Ok(split) => split,
            Err(e) => return e,
        };
        let Some(filter) = filter else {
            return "usage: EXPLAIN <db> <level> <query…> :: <filter>".into();
        };
        let mut parts = rest.splitn(3, char::is_whitespace);
        let (Some(db), Some(level), Some(query)) = (parts.next(), parts.next(), parts.next())
        else {
            return "usage: EXPLAIN <db> <level> <query…> :: <filter>".into();
        };
        let Ok(level) = level.parse::<usize>() else {
            return "level must be a non-negative integer".into();
        };
        match self.quepa.explain_search(db, query, level, &filter) {
            Ok(decisions) => {
                if decisions.is_empty() {
                    return "no augmentation groups to plan at this level\n".into();
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
                out
            }
            Err(e) => format!("error: {e}\n"),
        }
    }

    fn explore(&mut self, rest: &str) -> String {
        let Some((db, query)) = rest.split_once(char::is_whitespace) else {
            return "usage: EXPLORE <db> <query…>".into();
        };
        match self.quepa.explore(db, query.trim()) {
            Ok(session) => {
                let mut out = String::new();
                for (i, o) in session.results().iter().enumerate() {
                    let _ = writeln!(out, "[{i}] {o}");
                }
                let _ = writeln!(out, "PICK <i> to expand a result.");
                self.session = Some(session);
                self.started = false;
                out
            }
            Err(e) => format!("error: {e}\n"),
        }
    }

    fn pick(&mut self, rest: &str) -> String {
        let Some(session) = self.session.as_mut() else {
            return "no exploration in progress; EXPLORE first".into();
        };
        let Ok(i) = rest.trim().parse::<usize>() else {
            return "usage: PICK <index>".into();
        };
        let result = if self.started { session.step(i) } else { session.select(i) };
        self.started = true;
        match result {
            Ok(_) => self.frontier(),
            Err(e) => format!("error: {e}\n"),
        }
    }

    fn frontier(&self) -> String {
        let Some(session) = self.session.as_ref() else {
            return "no exploration in progress".into();
        };
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
        out
    }

    fn end(&mut self) -> String {
        match self.session.take() {
            None => "no exploration in progress".into(),
            Some(session) => {
                let steps = session.steps();
                let promoted = session.finish();
                self.started = false;
                format!(
                    "exploration closed after {steps} steps{}\n",
                    if promoted { "; a shortcut p-relation was promoted" } else { "" }
                )
            }
        }
    }

    fn checkpoint(&self) -> String {
        match self.quepa.checkpoint_durable() {
            Ok(Some(lsn)) => {
                let status = self.quepa.durability_status().expect("durable");
                format!(
                    "checkpoint cut written at LSN {lsn} in {} ({} cuts, {} records this session)\n",
                    status.dir.display(),
                    status.cuts_written,
                    status.records_appended,
                )
            }
            Ok(None) => "not a durable instance; start quepa-cli with --data-dir DIR\n".into(),
            Err(e) => format!("error: {e}\n"),
        }
    }

    fn save(&self, rest: &str) -> String {
        if rest.is_empty() {
            return "usage: SAVE <path>".into();
        }
        let text = serial::to_string(&self.quepa.index_snapshot());
        match std::fs::write(rest, text) {
            Ok(()) => format!("A' index saved to {rest}\n"),
            Err(e) => format!("error: {e}\n"),
        }
    }

    fn load(&self, rest: &str) -> String {
        if rest.is_empty() {
            return "usage: LOAD <path>".into();
        }
        let text = match std::fs::read_to_string(rest) {
            Ok(t) => t,
            Err(e) => return format!("error: {e}\n"),
        };
        match serial::from_str(&text) {
            Ok(index) => {
                self.quepa.replace_index(index);
                format!("A' index loaded from {rest}: {:?}\n", self.quepa.index().stats())
            }
            Err(e) => format!("error: {e}\n"),
        }
    }
}

/// Splits an optional ` :: <filter>` suffix off a command tail and
/// parses the pushdown predicate.
fn split_filter(rest: &str) -> Result<(&str, Option<Pushdown>), String> {
    match rest.split_once("::") {
        None => Ok((rest.trim(), None)),
        Some((head, filt)) => match Pushdown::parse(filt.trim()) {
            Ok(f) => Ok((head.trim(), Some(f))),
            Err(e) => Err(format!("bad filter: {e}\n")),
        },
    }
}

const HELP: &str = "\
QUEPA commands:
  SEARCH <db> <level> <query…> [:: <filter>]
                                 augmented search in the store's native language;
                                 the optional predicate restricts augmented objects
  EXPLAIN <db> <level> <query…> :: <filter>
                                 dry-run the per-store pushdown plan for a filter
  EXPLORE <db> <query…>          start an augmented exploration
  PICK <i>                       expand result/link i       BACK  show frontier
  END                            close the exploration (paths may promote)
  CONFIG [<augmenter> <batch> <threads> <cache>]   show or set the configuration
  CONFIG OBS ON|OFF              toggle the observability layer
  CONFIG PUSH ON|OFF             toggle predicate pushdown planning
  METRICS [JSON]                 export metrics (Prometheus text by default)
  STORES / STATS / INDEX         inspect the polystore / counters / A' index
  SAVE <path> / LOAD <path>      persist or restore the A' index
  CHECKPOINT                     force a durable checkpoint cut (--data-dir mode)
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polystore::Deployment;
    use crate::workload::{BuiltPolystore, WorkloadConfig};

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
            crate::core::QuepaConfig::default(),
            &dir,
            crate::core::SyncPolicy::Buffered,
        )
        .unwrap();
        let mut p = CommandProcessor::new(&q);
        let out = p.handle("CHECKPOINT");
        assert!(out.contains("checkpoint cut written at LSN"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
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
