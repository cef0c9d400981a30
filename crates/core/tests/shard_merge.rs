//! Concurrency determinism: the shard-local sinks the concurrent
//! augmenters merge after join must yield an outcome identical to the
//! sequential augmenter's — same objects (key, probability, distance, in
//! the same order) and same missing-key list — across thread counts,
//! batch sizes, cache states, and repeated runs (different thread
//! interleavings).

use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use quepa_aindex::{AIndex, IndexView};
use quepa_core::augmenter::{self, AugmentationOutcome, FetchRuntime};
use quepa_core::cache::ObjectCache;
use quepa_core::{
    AugmenterKind, FlightTable, GroupStrategy, MissingReason, QuepaConfig, ResilienceConfig,
    WorkerPool,
};
use quepa_kvstore::KvStore;
use quepa_pdm::{CollectionName, GlobalKey, LocalKey, Probability, PushOp, Pushdown};
use quepa_polystore::retry::BreakerSet;
use quepa_polystore::{
    Connector, FaultPlan, FaultyConnector, KvConnector, LatencyModel, Layer, Layered, PolyError,
    Polystore, Result as PolyResult,
};

const STORES: usize = 4;
const KEYS_PER_STORE: usize = 16;

fn key(s: usize, k: usize) -> GlobalKey {
    format!("db{s}.c.k{k}").parse().unwrap()
}

/// A polystore plus an A' index that also references keys the stores do
/// not hold (k16..k19), so every strategy exercises the missing path.
fn build() -> (Polystore, IndexView) {
    let mut polystore = Polystore::new();
    for s in 0..STORES {
        let mut kv = KvStore::new(format!("db{s}"));
        for k in 0..KEYS_PER_STORE {
            kv.set(format!("k{k}"), format!("v{s}-{k}"));
        }
        polystore.register(Arc::new(KvConnector::new(kv, "c", LatencyModel::FREE)));
    }
    let mut index = AIndex::new();
    // A dense deterministic graph: ring within each store, chords across
    // stores, and a few edges into keys the stores never held.
    for s in 0..STORES {
        for k in 0..KEYS_PER_STORE {
            let p = Probability::of(0.2 + 0.8 * ((s * 31 + k * 7) % 13) as f64 / 13.0);
            index.insert_matching(&key(s, k), &key(s, (k + 1) % KEYS_PER_STORE), p);
            let q = Probability::of(0.15 + 0.8 * ((s * 17 + k * 11) % 11) as f64 / 11.0);
            index.insert_matching(&key(s, k), &key((s + 1) % STORES, (k * 3) % KEYS_PER_STORE), q);
        }
    }
    for k in 16..20 {
        // Indexed but absent from the store: lazy-deletion candidates.
        index.insert_matching(&key(0, 0), &key(k % STORES, k), Probability::of(0.5));
        index.insert_matching(
            &key(1, k % KEYS_PER_STORE),
            &key(k % STORES, k + 10),
            Probability::of(0.4),
        );
    }
    (polystore, IndexView::of(&index))
}

fn run_with(
    polystore: &Polystore,
    plan: &augmenter::AugmentPlan,
    kind: AugmenterKind,
    batch: usize,
    threads: usize,
    warm: bool,
) -> AugmentationOutcome {
    let cache = Arc::new(ObjectCache::new(1024));
    let config = QuepaConfig {
        augmenter: kind,
        batch_size: batch,
        threads_size: threads,
        cache_size: 1024,
        ..QuepaConfig::default()
    };
    let breakers = Arc::new(BreakerSet::new(config.resilience.breaker));
    let runtime = FetchRuntime { breakers: &breakers, obs: None, pool: None, flight: None };
    if warm {
        augmenter::run_planned_with(polystore, &cache, plan, &config, &runtime).unwrap();
    }
    augmenter::run_planned_with(polystore, &cache, plan, &config, &runtime).unwrap()
}

fn projected(outcome: &AugmentationOutcome) -> Vec<(String, Probability, usize)> {
    outcome
        .objects
        .iter()
        .map(|a| (a.object.key().to_string(), a.probability, a.distance))
        .collect()
}

#[test]
fn shard_merged_outcome_equals_sequential() {
    let (polystore, index) = build();
    let seeds: Vec<GlobalKey> = (0..KEYS_PER_STORE).map(|k| key(0, k)).collect();

    for level in 0..3 {
        let plan = augmenter::plan(&index, &seeds, level);
        assert!(!plan.augmented.is_empty(), "graph must produce work at level {level}");
        let baseline = run_with(&polystore, &plan, AugmenterKind::Sequential, 4, 1, false);
        assert!(
            !baseline.missing.is_empty(),
            "the phantom keys must surface as missing at level {level}"
        );

        for kind in [
            AugmenterKind::Batch,
            AugmenterKind::Inner,
            AugmenterKind::Outer,
            AugmenterKind::OuterBatch,
            AugmenterKind::OuterInner,
        ] {
            for threads in [2, 3, 8] {
                for batch in [1, 4, 64] {
                    for warm in [false, true] {
                        let got = run_with(&polystore, &plan, kind, batch, threads, warm);
                        assert_eq!(
                            projected(&got),
                            projected(&baseline),
                            "{kind} t={threads} b={batch} warm={warm} level={level}: objects diverged"
                        );
                        assert_eq!(
                            got.missing, baseline.missing,
                            "{kind} t={threads} b={batch} warm={warm} level={level}: missing diverged"
                        );
                    }
                }
            }
        }
    }
}

/// Repeated concurrent runs — different thread interleavings — always
/// merge to the same outcome.
#[test]
fn shard_merge_is_interleaving_independent() {
    let (polystore, index) = build();
    let seeds: Vec<GlobalKey> = (0..KEYS_PER_STORE).map(|k| key(0, k)).collect();
    let plan = augmenter::plan(&index, &seeds, 2);
    let baseline = run_with(&polystore, &plan, AugmenterKind::Sequential, 4, 1, false);

    for kind in [AugmenterKind::Outer, AugmenterKind::OuterBatch, AugmenterKind::OuterInner] {
        for _ in 0..10 {
            let got = run_with(&polystore, &plan, kind, 3, 8, false);
            assert_eq!(projected(&got), projected(&baseline), "{kind}: objects diverged");
            assert_eq!(got.missing, baseline.missing, "{kind}: missing diverged");
        }
    }
}

// -- the strategy table ------------------------------------------------------

/// The plan every strategy-table case runs: all of `db0` as seeds, two
/// hops — every store, the phantom keys and cross-seed sharing.
fn table_plan(index: &IndexView) -> augmenter::AugmentPlan {
    let seeds: Vec<GlobalKey> = (0..KEYS_PER_STORE).map(|k| key(0, k)).collect();
    augmenter::plan(index, &seeds, 2)
}

fn table_config(kind: AugmenterKind, threads: usize, cache_size: usize) -> QuepaConfig {
    QuepaConfig {
        augmenter: kind,
        batch_size: 4,
        threads_size: threads,
        cache_size,
        ..QuepaConfig::default()
    }
}

/// What a strategy costs is data: per kind × {cache off, cold, warm}, a
/// serial run's store round trips, objects shipped and cache hits. The
/// six kinds differ only in the batching column — one round trip per
/// key or per group of up to `batch_size` — never in what a cache state
/// lets them skip. A change here is a change in what travels over the
/// wire.
#[test]
fn strategy_table_golden() {
    // (round trips, objects returned, cache hits) × {off, cold, warm}.
    type Row = [(u64, u64, usize); 3];
    const PER_KEY: Row = [(56, 48, 0), (56, 48, 0), (8, 0, 48)];
    const PER_GROUP: Row = [(16, 48, 0), (16, 48, 0), (7, 0, 48)];
    let golden = [
        (AugmenterKind::Sequential, PER_KEY),
        (AugmenterKind::Batch, PER_GROUP),
        (AugmenterKind::Inner, PER_KEY),
        (AugmenterKind::Outer, PER_KEY),
        (AugmenterKind::OuterBatch, PER_GROUP),
        (AugmenterKind::OuterInner, PER_KEY),
    ];
    let (polystore, index) = build();
    let plan = table_plan(&index);
    let pool = WorkerPool::new(4);
    for (kind, row) in golden {
        // Serially a flight table never has a waiter, so attaching the
        // serving-path machinery must not move a single counter.
        for shared in [false, true] {
            let flight = Arc::new(FlightTable::new());
            let breakers = Arc::new(BreakerSet::disabled());
            let runtime = FetchRuntime {
                breakers: &breakers,
                obs: None,
                pool: shared.then_some(&pool),
                flight: shared.then_some(&flight),
            };
            let measure = |cache: &Arc<ObjectCache>, cache_size: usize| {
                polystore.reset_stats();
                let config = table_config(kind, 1, cache_size);
                let outcome =
                    augmenter::run_planned_with(&polystore, cache, &plan, &config, &runtime)
                        .unwrap();
                let stats = polystore.stats();
                (stats.round_trips, stats.objects_returned, outcome.cache_hits)
            };
            let off = measure(&Arc::new(ObjectCache::new(0)), 0);
            let cache = Arc::new(ObjectCache::new(1024));
            let cold = measure(&cache, 1024);
            let warm = measure(&cache, 1024);
            assert_eq!([off, cold, warm], row, "{kind} shared={shared}");
        }
    }
    assert_eq!(pool.spawned(), 0, "one ticket runs inline on the caller: no pool hop");
}

/// `missing` with the attempt count dropped: behind a circuit breaker the
/// count a key reports (0 when rejected, the full budget otherwise)
/// depends on which call tripped it, i.e. on the strategy's call order.
fn missing_keys(outcome: &AugmentationOutcome) -> Vec<(String, Option<String>)> {
    outcome
        .missing
        .iter()
        .map(|m| {
            let store = match &m.reason {
                MissingReason::NotFound => None,
                MissingReason::Unreachable { database, .. } => Some(database.to_string()),
            };
            (m.key.to_string(), store)
        })
        .collect()
}

/// One answer per (filter, store health), whatever executes it: every
/// kind, with and without a shared pool, with and without a flight
/// table, pushed down or filtered client-side, cold and warm.
#[test]
fn every_execution_path_yields_the_same_answer() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Filtering {
        None,
        Pushdown,
        ClientSide,
    }
    let (healthy, index) = build();
    let outage = Arc::new(FaultPlan::new(7).with_outage("db1"));
    let faulty =
        healthy.wrap_connectors(|inner| Arc::new(FaultyConnector::new(inner, Arc::clone(&outage))));
    let plan = table_plan(&index);
    // Keeps k1 and k10..k19: matched, rejected and phantom keys all occur.
    let filter = Pushdown::key(PushOp::Contains, "1");
    let pool = WorkerPool::new(4);

    for (polystore, resilience) in
        [(&healthy, ResilienceConfig::default()), (&faulty, ResilienceConfig::resilient())]
    {
        let run = |kind, threads, pooled: bool, flown: bool, filtering: Filtering| {
            let config = QuepaConfig {
                resilience,
                pushdown: filtering != Filtering::ClientSide,
                ..table_config(kind, threads, 1024)
            };
            let cache = Arc::new(ObjectCache::new(1024));
            let flight = Arc::new(FlightTable::new());
            let breakers = Arc::new(BreakerSet::new(resilience.breaker));
            let runtime = FetchRuntime {
                breakers: &breakers,
                obs: None,
                pool: pooled.then_some(&pool),
                flight: flown.then_some(&flight),
            };
            let once = || {
                if filtering == Filtering::None {
                    return augmenter::run_planned_with(
                        polystore, &cache, &plan, &config, &runtime,
                    )
                    .unwrap();
                }
                let (outcome, decisions) = augmenter::run_planned_filtered(
                    polystore,
                    &cache,
                    &plan,
                    &config,
                    &runtime,
                    &filter,
                    Some(&|_, _| true),
                )
                .unwrap();
                let expected = match filtering {
                    Filtering::Pushdown => GroupStrategy::Pushdown,
                    _ => GroupStrategy::FetchAll,
                };
                assert!(decisions.iter().all(|d| d.strategy == expected), "{decisions:?}");
                outcome
            };
            let cold = once();
            let warm = once();
            assert_eq!(projected(&warm), projected(&cold), "{config} warm objects diverged");
            assert_eq!(missing_keys(&warm), missing_keys(&cold), "{config} warm missing diverged");
            assert!(flight.is_empty(), "{config}: a flight outlived its run");
            cold
        };
        let plain = run(AugmenterKind::Sequential, 1, false, false, Filtering::None);
        let filtered = run(AugmenterKind::Sequential, 1, false, false, Filtering::ClientSide);
        assert!(plain.missing.iter().any(|m| m.is_not_found()));
        assert!(!filtered.objects.is_empty() && filtered.objects.len() < plain.objects.len());
        assert_eq!(
            plain.missing.iter().any(|m| !m.is_not_found()),
            !resilience.is_trivial(),
            "the outage must degrade into `missing`, and only there"
        );

        for kind in AugmenterKind::ALL {
            for pooled in [false, true] {
                for flown in [false, true] {
                    for filtering in [Filtering::None, Filtering::Pushdown, Filtering::ClientSide] {
                        let baseline =
                            if filtering == Filtering::None { &plain } else { &filtered };
                        let got = run(kind, 3, pooled, flown, filtering);
                        let case = format!("{kind} pool={pooled} flight={flown} {filtering:?}");
                        assert_eq!(projected(&got), projected(baseline), "{case}: objects");
                        assert_eq!(missing_keys(&got), missing_keys(baseline), "{case}: missing");
                    }
                }
            }
        }
    }
}

// -- the executor's contracts ------------------------------------------------

/// A fixture no phantom key lives in — `db0.k` ↔ `db1.k` and nothing
/// else — so a second run finds every key cached.
fn paired() -> (Polystore, augmenter::AugmentPlan) {
    let mut polystore = Polystore::new();
    let mut index = AIndex::new();
    for s in 0..2 {
        let mut kv = KvStore::new(format!("db{s}"));
        for k in 0..KEYS_PER_STORE {
            kv.set(format!("k{k}"), format!("v{s}-{k}"));
            index.insert_matching(&key(0, k), &key(1, k), Probability::of(0.8));
        }
        polystore.register(Arc::new(KvConnector::new(kv, "c", LatencyModel::FREE)));
    }
    let seeds: Vec<GlobalKey> = (0..KEYS_PER_STORE).map(|k| key(0, k)).collect();
    (polystore, augmenter::plan(&IndexView::of(&index), &seeds, 0))
}

fn pooled_run(
    polystore: &Polystore,
    cache: &Arc<ObjectCache>,
    plan: &augmenter::AugmentPlan,
    threads: usize,
    pool: &WorkerPool,
) -> quepa_core::Result<AugmentationOutcome> {
    let breakers = Arc::new(BreakerSet::disabled());
    let runtime = FetchRuntime { breakers: &breakers, obs: None, pool: Some(pool), flight: None };
    let config = table_config(AugmenterKind::OuterBatch, threads, 1024);
    augmenter::run_planned_with(polystore, cache, plan, &config, &runtime)
}

/// Helpers are summoned by the first cache miss: a wave whose every
/// probe hits never touches the pool, a cold one fans out to at most
/// `threads_size − 1` helpers beside the caller.
#[test]
fn a_warm_wave_never_touches_the_pool() {
    let (polystore, plan) = paired();
    let cache = Arc::new(ObjectCache::new(1024));

    let cold_pool = WorkerPool::new(8);
    let cold = pooled_run(&polystore, &cache, &plan, 4, &cold_pool).unwrap();
    assert!(cold.missing.is_empty() && cold.cache_hits == 0, "the fixture must start cold");
    assert_eq!(cold.objects.len(), KEYS_PER_STORE, "four batch groups of 4");
    assert!((1..=3).contains(&cold_pool.spawned()), "cold spawned {}", cold_pool.spawned());

    let warm_pool = WorkerPool::new(8);
    let warm = pooled_run(&polystore, &cache, &plan, 4, &warm_pool).unwrap();
    assert_eq!(warm.cache_hits, cold.objects.len(), "every key must be cached");
    assert_eq!(projected(&warm), projected(&cold));
    assert_eq!(warm_pool.spawned(), 0, "no miss, no helper");
}

/// A gate the test holds closed, counting who is parked on it.
#[derive(Default)]
struct Gate {
    /// (open, arrivals so far)
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.changed.notify_all();
        while !state.0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().0 = true;
        self.changed.notify_all();
    }

    /// Waits (under a watchdog) until `n` callers have arrived; returns
    /// how many had when it gave up.
    fn arrivals(&self, n: usize) -> usize {
        let state = self.state.lock().unwrap();
        let (state, _) = self.changed.wait_timeout_while(state, WATCHDOG, |s| s.1 < n).unwrap();
        state.1
    }
}

const WATCHDOG: Duration = Duration::from_secs(20);

/// Holds every keyed fetch on the gate.
struct GateLayer(Arc<Gate>);

impl Layer for GateLayer {
    fn before_fetch(
        &self,
        _inner: &dyn Connector,
        _collection: &CollectionName,
        _keys: &[LocalKey],
    ) -> PolyResult<()> {
        self.0.hold();
        Ok(())
    }
}

/// The pool bounds helpers, not queries: with the pool's only worker
/// wedged in a foreign job, a cold 4-ticket query still completes — the
/// caller drains the cursor itself — with the serial answer.
#[test]
fn a_wedged_pool_cannot_stall_a_query() {
    let (polystore, index) = build();
    let plan = table_plan(&index);
    let serial = run_with(&polystore, &plan, AugmenterKind::Sequential, 4, 1, false);

    let pool = WorkerPool::new(1);
    let gate = Arc::new(Gate::default());
    let wedge = Arc::clone(&gate);
    pool.submit(move || wedge.hold());
    assert_eq!(gate.arrivals(1), 1, "the worker must be parked in the held job");

    let (done, outcome) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let cache = Arc::new(ObjectCache::new(1024));
            let _ = done.send(pooled_run(&polystore, &cache, &plan, 4, &pool));
        });
        let outcome = outcome.recv_timeout(WATCHDOG);
        gate.release();
        let got = outcome.expect("the query hung behind the wedged pool").unwrap();
        assert_eq!(projected(&got), projected(&serial));
        assert_eq!(got.missing, serial.missing);
    });
    assert_eq!(pool.spawned(), 1);
}

/// Helpers are summoned before the caller's first blocking call: with
/// every round trip held closed, a cold wave of ≥ 4 units has 4 of them
/// in flight at once — the caller's and three helpers'.
#[test]
fn a_cold_wave_fans_out_before_the_first_round_trip() {
    let (polystore, index) = build();
    let gate = Arc::new(Gate::default());
    let gated = polystore
        .wrap_connectors(|inner| Arc::new(Layered::wrap(inner, GateLayer(Arc::clone(&gate)))));
    let plan = table_plan(&index);
    let pool = WorkerPool::new(8);
    std::thread::scope(|s| {
        let query = s.spawn(|| {
            let cache = Arc::new(ObjectCache::new(1024));
            pooled_run(&gated, &cache, &plan, 4, &pool).unwrap()
        });
        let in_flight = gate.arrivals(4);
        gate.release();
        assert_eq!(in_flight, 4, "round trips in flight while the gate was closed");
        let serial = run_with(&polystore, &plan, AugmenterKind::Sequential, 4, 1, false);
        assert_eq!(projected(&query.join().unwrap()), projected(&serial));
    });
}

/// Fails every keyed fetch of one database, naming the batch it failed
/// on: `db1` errors, `db3` panics.
struct Failing;

impl Layer for Failing {
    fn before_fetch(
        &self,
        inner: &dyn Connector,
        _collection: &CollectionName,
        keys: &[LocalKey],
    ) -> PolyResult<()> {
        match inner.database().as_str() {
            "db1" => Err(PolyError::store("db1", keys[0].as_str())),
            "db3" => panic!("db3 {}", keys[0].as_str()),
            _ => Ok(()),
        }
    }
}

/// A failing unit fails the query that submitted it, whichever thread ran
/// it, and the first failure in *unit* order wins: a 4-ticket run reports
/// exactly what a serial run — which stops at its first failing unit —
/// reports, error or panic, every time.
#[test]
fn the_first_failure_in_unit_order_wins() {
    let (polystore, index) = build();
    let plan = table_plan(&index);
    let pool = WorkerPool::new(8);
    // What a run surfaces: the error it returned or the panic it raised.
    let failure = |polystore: &Polystore, threads: usize| -> String {
        let cache = Arc::new(ObjectCache::new(1024));
        let run = AssertUnwindSafe(|| pooled_run(polystore, &cache, &plan, threads, &pool));
        match std::panic::catch_unwind(run) {
            Ok(outcome) => format!("error: {}", outcome.expect_err("a failing store must fail")),
            Err(panic) => format!("panic: {}", panic.downcast::<String>().expect("a message")),
        }
    };
    let mut seen = Vec::new();
    for failing in [&["db1"][..], &["db3"], &["db1", "db3"]] {
        let broken = polystore.wrap_connectors(|inner| {
            if failing.contains(&inner.database().as_str()) {
                Arc::new(Layered::wrap(inner, Failing))
            } else {
                inner
            }
        });
        let serial = failure(&broken, 1);
        for _ in 0..10 {
            assert_eq!(failure(&broken, 4), serial, "failing {failing:?}");
        }
        seen.push(serial);
    }
    assert!(seen[0].starts_with("error: ") && seen[1].starts_with("panic: "), "{seen:?}");
}
