//! The four workloads: what each builds, which requests it sends and
//! what the right answers are.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use quepa_core::{AugmentedAnswer, AugmenterKind, Quepa, QuepaConfig, SyncPolicy};
use quepa_pdm::{PushOp, Pushdown};
use quepa_polystore::{Deployment, Polystore};
use quepa_workload::{BuiltPolystore, MusicData, WorkloadConfig};

use crate::rng::{mix, Rng, Zipf};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdFanout,
    WanFiltered,
    ServePaced,
    MixedDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdFanout, Workload::WanFiltered, Workload::ServePaced, Workload::MixedDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFanout => "cold-fanout",
            Workload::WanFiltered => "wan-filtered",
            Workload::ServePaced => "serve-paced",
            Workload::MixedDurable => "mixed-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed shape of one workload. `--smoke` shrinks the data so the
/// unit tests can run every workload in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub albums: usize,
    pub deployment: Deployment,
    pub cache_size: usize,
    /// Width of every `seq` window a request selects.
    pub window: usize,
    /// Distinct requests (each has a precomputed expected answer).
    pub pool: usize,
    /// Closed-loop clients; TCP connections on `serve-paced`; paced
    /// callers on `mixed-durable`.
    pub clients: usize,
    /// How many times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Offered load of the open loop, requests per second over all
    /// connections.
    pub paced_rate: f64,
}

impl Spec {
    pub fn of(workload: Workload, smoke: bool) -> Spec {
        let shrink = if smoke { 10 } else { 1 };
        // `setup_s` is the median of these; a 2000-album set-up takes a
        // sixth of the time of a 10 000-album one.
        let setups = match (smoke, workload) {
            (true, _) => 1,
            (false, Workload::ColdFanout) => 5,
            (false, _) => 9,
        };
        // A debug build under `cargo test` must keep up with the open loop.
        let paced_rate = if smoke { 50.0 } else { 500.0 };
        match workload {
            // Working set (every object of 10 stores) far above the cache:
            // parse, scan, plan, fan-out and merge do the work.
            Workload::ColdFanout => Spec {
                workload,
                albums: 10_000 / shrink,
                deployment: Deployment::InProcess,
                cache_size: 4096,
                window: 40,
                pool: 512 / shrink,
                clients: 1,
                setups,
                paced_rate,
            },
            // Simulated WAN links: round trips dominate.
            Workload::WanFiltered => Spec {
                workload,
                albums: 2000 / shrink,
                deployment: Deployment::Distributed,
                cache_size: 4096,
                window: 20,
                pool: 512 / shrink,
                clients: 2,
                setups,
                paced_rate,
            },
            // Everything fits the cache; Zipf over disjoint tiles.
            Workload::ServePaced | Workload::MixedDurable => Spec {
                workload,
                albums: 2000 / shrink,
                deployment: Deployment::InProcess,
                cache_size: 65_536,
                window: 20,
                pool: 100 / shrink,
                clients: 2,
                setups,
                paced_rate,
            },
        }
    }

    pub fn config(&self) -> QuepaConfig {
        QuepaConfig { cache_size: self.cache_size, ..QuepaConfig::default() }
    }

    fn zipf(&self) -> Option<Zipf> {
        match self.workload {
            Workload::ServePaced | Workload::MixedDurable => Some(Zipf::new(self.pool, 1.1)),
            _ => None,
        }
    }
}

/// One request of a workload's pool.
#[derive(Debug, Clone)]
pub struct Request {
    pub database: &'static str,
    pub query: String,
    pub level: usize,
    pub filter: Option<Pushdown>,
}

impl Request {
    pub fn run(&self, quepa: &Quepa) -> quepa_core::Result<AugmentedAnswer> {
        match &self.filter {
            Some(filter) => {
                quepa.augmented_search_filtered(self.database, &self.query, self.level, filter)
            }
            None => quepa.augmented_search(self.database, &self.query, self.level),
        }
    }
}

fn sql_window(lo: usize, hi: usize) -> String {
    format!("SELECT * FROM inventory WHERE seq >= {lo} AND seq < {hi}")
}

/// The workload's distinct requests, drawn from the seed.
pub fn request_pool(spec: &Spec, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, "pool");
    let starts = spec.albums - spec.window + 1;
    match spec.workload {
        Workload::ColdFanout => (0..spec.pool)
            .map(|i| {
                let lo = rng.below(starts);
                let hi = lo + spec.window;
                // Equal thirds per language, and per level within each.
                let (database, query) = match i % 3 {
                    0 => ("transactions", sql_window(lo, hi)),
                    1 => (
                        "catalogue",
                        format!(r#"db.albums.find({{"seq":{{"$gte":{lo},"$lt":{hi}}}}})"#),
                    ),
                    _ => (
                        "similar",
                        format!("MATCH (n:Album) WHERE n.seq >= {lo} AND n.seq < {hi} RETURN n"),
                    ),
                };
                Request { database, query, level: (i / 3) % 3, filter: None }
            })
            .collect(),
        Workload::WanFiltered => (0..spec.pool)
            .map(|i| {
                let lo = rng.below(starts);
                // Every fourth request carries the predicate.
                let filter = (i % 4 == 3).then(|| Pushdown::key(PushOp::Contains, "9"));
                Request {
                    database: "transactions",
                    query: sql_window(lo, lo + spec.window),
                    level: 1,
                    filter,
                }
            })
            .collect(),
        Workload::ServePaced | Workload::MixedDurable => {
            // Disjoint tiles; the seed decides which tile is the hot one.
            let tiles = spec.albums / spec.window;
            let mut order: Vec<usize> = (0..tiles).collect();
            for i in (1..tiles).rev() {
                order.swap(i, rng.below(i + 1));
            }
            order
                .into_iter()
                .take(spec.pool)
                .map(|tile| Request {
                    database: "transactions",
                    query: sql_window(tile * spec.window, (tile + 1) * spec.window),
                    level: 1,
                    filter: None,
                })
                .collect()
        }
    }
}

/// An endless seeded sequence of indices into the request pool.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    zipf: Option<Zipf>,
    pool: usize,
}

impl Stream {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed, &format!("stream-{client}")),
            zipf: spec.zipf(),
            pool: spec.pool,
        }
    }

    pub fn next_index(&mut self) -> usize {
        match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.below(self.pool),
        }
    }
}

/// A hash of the pool and the first requests of client 0's stream: two
/// runs with one seed must print the same value.
pub fn stream_hash(spec: &Spec, pool: &[Request], seed: u64) -> u64 {
    let mut h = 0u64;
    for r in pool {
        for b in r.database.bytes().chain(r.query.bytes()) {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ r.level as u64 ^ ((r.filter.is_some() as u64) << 8));
    }
    let mut stream = Stream::new(spec, seed, 0);
    for _ in 0..4096 {
        h = mix(h ^ stream.next_index() as u64);
    }
    h
}

/// An order-independent digest of an answer: cheap enough to check every
/// measured in-process answer without paying for the text rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    originals: usize,
    augmented: usize,
    missing: usize,
    sum: u64,
}

pub fn fingerprint(answer: &AugmentedAnswer) -> Fingerprint {
    let sum = answer.augmented.iter().fold(0u64, |acc, a| {
        let entry = a.object.key().precomputed_hash()
            ^ a.probability.get().to_bits().rotate_left(17)
            ^ (a.distance as u64).rotate_left(53);
        acc.wrapping_add(mix(entry))
    });
    Fingerprint {
        originals: answer.original.len(),
        augmented: answer.augmented.len(),
        missing: answer.missing.len(),
        sum,
    }
}

/// What the reference run answered for one pool request.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The `AnswerNormalForm` text, which is also the wire payload.
    pub text: String,
    pub fingerprint: Fingerprint,
}

/// Answers every pool request on a serial, cache-off, pushdown-off
/// configuration (the BATCH augmenter runs on the calling thread), then
/// restores the workload's configuration with cold caches and zeroed
/// counters.
pub fn oracle(quepa: &Quepa, spec: &Spec, pool: &[Request]) -> Vec<Expected> {
    let config = spec.config();
    quepa.set_config(QuepaConfig {
        augmenter: AugmenterKind::Batch,
        cache_size: 0,
        pushdown: false,
        ..config
    });
    let expected = pool
        .iter()
        .map(|request| {
            let answer = request.run(quepa).expect("the reference run answers every request");
            assert_eq!(answer.original.len(), spec.window, "a window selects `window` objects");
            assert!(answer.missing.is_empty(), "generated stores lose no object");
            Expected { text: answer.normal_form().to_string(), fingerprint: fingerprint(&answer) }
        })
        .collect();
    quepa.set_config(config);
    quepa.drop_caches();
    quepa.cache().reset_stats();
    quepa.polystore().reset_stats();
    quepa.take_logs();
    expected
}

/// A scratch directory under the build's target directory; removed on drop.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = output_dir().join(format!("scratch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `<target dir>/benchmark/`: result files, traces and durable scratch.
/// Derived from the executable's place (`<target dir>/<profile>/`), so it
/// is inside the checkout wherever the build put its target directory.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let mut dir = exe.parent().expect("the executable is in a directory").to_path_buf();
    // Test binaries sit one level deeper, in `deps/`.
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.pop();
    dir.join("benchmark")
}

/// A system ready to measure, and what building it cost.
pub struct Ready {
    pub quepa: Arc<Quepa>,
    /// A second handle on the same stores (recovery builds new instances).
    pub polystore: Polystore,
    pub data: MusicData,
    /// Holds the durable directory of `mixed-durable`.
    pub durable_dir: Option<ScratchDir>,
    pub setup_s: f64,
    pub generate_s: f64,
    pub assemble_s: f64,
}

fn assemble(
    spec: &Spec,
    built: BuiltPolystore,
    dir: Option<&Path>,
) -> (Quepa, Polystore, MusicData) {
    let BuiltPolystore { polystore, index, data, .. } = built;
    let keep = polystore.clone();
    let quepa = match dir {
        Some(dir) => {
            Quepa::create_durable(polystore, index, spec.config(), dir, SyncPolicy::Buffered)
                .expect("a fresh scratch directory holds no durable state")
        }
        None => Quepa::with_config(polystore, index, spec.config()),
    };
    quepa.set_optimizer(None);
    (quepa, keep, data)
}

/// Builds the workload's polystore and system `spec.setups` times and
/// keeps the last one. Set-up is everything a user waits for before the
/// first answer: generating and loading the stores, wiring the A' index,
/// assembling the system (and its durable directory), and one first
/// query per language so lazy initialisation is paid here.
pub fn set_up(spec: &Spec, seed: u64, first_queries: &[&Request]) -> Ready {
    let mut totals = Vec::new();
    let mut generates = Vec::new();
    let mut assembles = Vec::new();
    let mut last = None;
    for round in 0..spec.setups {
        drop(last.take());
        let durable_dir = (spec.workload == Workload::MixedDurable)
            .then(|| ScratchDir::new(&format!("{}-{round}", spec.workload.name())));
        let start = Instant::now();
        let built = BuiltPolystore::build(WorkloadConfig {
            albums: spec.albums,
            replica_sets: 2,
            deployment: spec.deployment,
            seed,
        });
        let generate_s = start.elapsed().as_secs_f64();
        let (quepa, polystore, data) =
            assemble(spec, built, durable_dir.as_ref().map(|d| d.0.as_path()));
        let assemble_s = start.elapsed().as_secs_f64() - generate_s;
        for request in first_queries {
            request.run(&quepa).expect("first query");
        }
        totals.push(start.elapsed().as_secs_f64());
        generates.push(generate_s);
        assembles.push(assemble_s);
        last = Some((quepa, polystore, data, durable_dir));
    }
    let (quepa, polystore, data, durable_dir) = last.expect("at least one set-up");
    Ready {
        quepa: Arc::new(quepa),
        polystore,
        data,
        durable_dir,
        setup_s: median(&mut totals),
        generate_s: median(&mut generates),
        assemble_s: median(&mut assembles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_hash() {
        for workload in Workload::ALL {
            let spec = Spec::of(workload, false);
            let hash = |seed| stream_hash(&spec, &request_pool(&spec, seed), seed);
            assert_eq!(hash(11), hash(11), "{}", workload.name());
            assert_ne!(hash(11), hash(12), "{}", workload.name());
        }
    }

    #[test]
    fn pools_have_the_declared_shape() {
        let cold = Spec::of(Workload::ColdFanout, false);
        let pool = request_pool(&cold, 5);
        assert_eq!(pool.len(), 512);
        for (database, level) in [("transactions", 0), ("catalogue", 1), ("similar", 2)] {
            assert!(pool.iter().any(|r| r.database == database && r.level == level));
        }
        let wan = Spec::of(Workload::WanFiltered, false);
        let pool = request_pool(&wan, 5);
        assert_eq!(pool.iter().filter(|r| r.filter.is_some()).count() * 4, pool.len());
        let paced = Spec::of(Workload::ServePaced, false);
        let pool = request_pool(&paced, 5);
        let distinct: std::collections::BTreeSet<&str> =
            pool.iter().map(|r| r.query.as_str()).collect();
        assert_eq!(distinct.len(), 100, "tiles are disjoint");
        assert_eq!(Workload::parse("mixed-durable"), Some(Workload::MixedDurable));
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fingerprint_ignores_order_and_sees_changes() {
        let spec = Spec::of(Workload::ColdFanout, true);
        let pool = request_pool(&spec, 3);
        let ready = set_up(&spec, 3, &[]);
        let answer = pool[3].run(&ready.quepa).unwrap();
        assert!(answer.augmented.len() > spec.window);
        let mut reversed = answer.clone();
        reversed.augmented.reverse();
        assert_eq!(fingerprint(&answer), fingerprint(&reversed));
        let mut shorter = answer.clone();
        shorter.augmented.pop();
        assert_ne!(fingerprint(&answer), fingerprint(&shorter));
        let mut nudged = answer.clone();
        nudged.augmented[0].distance += 1;
        assert_ne!(fingerprint(&answer), fingerprint(&nudged));
    }
}
