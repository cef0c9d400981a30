//! [`Quepa`]: the assembled system (paper Fig. 2).
//!
//! The struct wires together the polystore connectors, the A' index, the
//! validator, the LRU cache, the augmenter engine, the run log and the
//! (optional) optimizer. "Since QUEPA does not store any data, it is easy
//! to deploy multiple instances" — `Quepa` is `Send + Sync` and the
//! polystore is shared, so several instances can answer queries in
//! parallel, each with its own A' index replica and cache.
//!
//! One instance also serves many queries concurrently; the shared state
//! is shaped read-mostly for that:
//!
//! * the A' index is a [`ShardedIndex`]: hash-sharded immutable
//!   snapshots with delta overlays, published as one atomic directory
//!   swap — a query never holds a lock across a store round trip, a
//!   lazy-deletion pass lands as one atomic transition that republishes
//!   only the touched shards, and the configuration lives in a
//!   [`SnapshotCell`] with the same swap discipline;
//! * fetch tickets run on one bounded [`WorkerPool`] per instance
//!   (queries park on a latch), instead of every query spawning its own
//!   `THREADS_SIZE` threads;
//! * concurrent queries wanting the same key share one round trip
//!   through the [`FlightTable`];
//! * run logs accumulate in shard-local bounded rings (drained in shard
//!   order by [`take_logs`](Quepa::take_logs)), so loggers don't convoy
//!   on one mutex and an instance nobody drains does not grow.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use quepa_aindex::{AIndex, IndexView, PathRepository, ShardIndexStats, ShardedIndex};
use quepa_obs::{MetricsRegistry, MetricsSnapshot, Stage};
use quepa_pdm::{DataObject, DatabaseName, Pushdown};
use quepa_polystore::retry::{BreakerSet, BreakerState};
use quepa_polystore::{Polystore, StoreKind};

use crate::adaptive::Optimizer;
use crate::augmenter::{self, FetchRuntime, GroupDecision};
use crate::cache::ObjectCache;
use crate::config::QuepaConfig;
use crate::error::Result;
use crate::explore::ExplorationSession;
use crate::flight::FlightTable;
use crate::logs::{QueryFeatures, RunLog};
use crate::pool::WorkerPool;
use crate::search::AugmentedAnswer;
use crate::snapshot::SnapshotCell;
use crate::validator::Validator;

/// Run-log shard fan-out (drained in shard order by `take_logs`).
const LOG_SHARDS: usize = 8;

/// Run logs a shard keeps before it forgets its oldest. A server never
/// drains them, so the bound is what a *trainer* needs between two
/// [`take_logs`](Quepa::take_logs) calls: the largest sweep in the tree
/// (`figures` Fig. 12: 8 queries × 6 augmenters × 2 knob pairs × 2 levels
/// = 192 runs, all from one thread, so all in one shard) with 5× headroom.
pub const RUN_LOG_RING: usize = 1024;

/// The QUEPA system.
pub struct Quepa {
    pub(crate) polystore: Polystore,
    pub(crate) index: ShardedIndex,
    cache: Arc<ObjectCache>,
    config: SnapshotCell<QuepaConfig>,
    validator: Validator,
    paths: Mutex<PathRepository>,
    log_shards: Vec<Mutex<VecDeque<RunLog>>>,
    optimizer: Mutex<Option<Box<dyn Optimizer>>>,
    breakers: Arc<BreakerSet>,
    pub(crate) obs: Arc<MetricsRegistry>,
    pool: WorkerPool,
    flight: Arc<FlightTable>,
    /// Durable attachment (WAL + checkpoint cuts); `None` = volatile.
    pub(crate) durability: Option<crate::durability::Durability>,
}

impl Quepa {
    /// Assembles a system over a polystore and its A' index, with the
    /// default configuration.
    pub fn new(polystore: Polystore, index: AIndex) -> Self {
        Self::with_config(polystore, index, QuepaConfig::default())
    }

    /// Assembles a system with an explicit configuration.
    pub fn with_config(polystore: Polystore, index: AIndex, config: QuepaConfig) -> Self {
        let obs = Arc::new(MetricsRegistry::new());
        obs.set_enabled(config.observability);
        Quepa {
            polystore,
            index: ShardedIndex::new(index),
            cache: Arc::new(ObjectCache::new(config.cache_size)),
            config: SnapshotCell::new(config.sanitized()),
            validator: Validator,
            paths: Mutex::new(PathRepository::new()),
            log_shards: (0..LOG_SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            optimizer: Mutex::new(None),
            breakers: Arc::new(BreakerSet::new(config.resilience.breaker)),
            obs,
            pool: WorkerPool::new(WorkerPool::default_width()),
            flight: Arc::new(FlightTable::new()),
            durability: None,
        }
    }

    /// The underlying polystore.
    pub fn polystore(&self) -> &Polystore {
        &self.polystore
    }

    /// An immutable view of the published A' index. The view is
    /// frozen: it stays valid across concurrent mutations, which publish
    /// fresh per-shard snapshots atomically without disturbing it.
    pub fn index(&self) -> IndexView {
        self.index.view()
    }

    /// A standalone clone of the A' index ledger (persistence: `SAVE
    /// INDEX`). To *read* the index, take [`index`](Quepa::index).
    pub fn index_snapshot(&self) -> AIndex {
        self.index.snapshot()
    }

    /// Per-shard statistics of the published index.
    pub fn index_shard_stats(&self) -> Vec<ShardIndexStats> {
        self.index.shard_stats()
    }

    /// The object cache.
    pub fn cache(&self) -> &ObjectCache {
        &self.cache
    }

    /// The `D_P` exploration-path repository.
    pub fn paths(&self) -> parking_lot::MutexGuard<'_, PathRepository> {
        self.paths.lock()
    }

    /// The current configuration.
    pub fn config(&self) -> QuepaConfig {
        *self.config.load()
    }

    /// Replaces the configuration; the cache is resized and the circuit
    /// breakers rebuilt accordingly.
    pub fn set_config(&self, config: QuepaConfig) {
        let config = config.sanitized();
        self.cache.resize(config.cache_size);
        let rebuild = self.config.load().resilience.breaker != config.resilience.breaker;
        if rebuild {
            self.breakers.reconfigure(config.resilience.breaker);
        }
        self.obs.set_enabled(config.observability);
        self.config.store(config);
    }

    /// Caps the shared fetch pool (per instance, not per query — the
    /// `THREADS_SIZE` knob stays the per-query ticket bound). Sized for
    /// round-trip-parked tickets by default; throughput benches may pin
    /// it explicitly.
    pub fn set_pool_width(&self, width: usize) {
        self.pool.set_width(width);
    }

    /// The shared fetch pool's width bound.
    pub fn pool_width(&self) -> usize {
        self.pool.width()
    }

    /// The instance's metrics registry (live recorders and trace ring).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// The one metrics surface: a deterministic snapshot of the
    /// observability registry with the resilience counters (retries /
    /// timeouts / breaker trips) of every store folded in from the
    /// connector statistics. Empty unless `observability` is (or was)
    /// enabled — the resilience counters fold in regardless, since the
    /// connectors record them independently of this layer.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.obs.snapshot();
        for (database, stats) in self.polystore.stats_by_database() {
            snapshot.fold_resilience(
                database.as_str(),
                stats.retries,
                stats.timeouts,
                stats.breaker_trips,
            );
        }
        // Per-shard index gauges fold in only once something was recorded
        // — a never-observed instance keeps its empty snapshot. The
        // gauges themselves are deterministic (same scenario ⇒ same
        // shard states), so twin-equality checks hold.
        if !snapshot.is_empty() {
            snapshot.index_shards = self
                .index
                .shard_stats()
                .into_iter()
                .map(|s| quepa_obs::IndexShardMetrics {
                    entries: s.entries as u64,
                    overlay_depth: s.overlay_depth as u64,
                    resident_bytes: s.resident_bytes as u64,
                    compactions: s.compactions,
                    swaps: s.swaps,
                })
                .collect();
        }
        snapshot
    }

    /// The circuit-breaker state guarding one store (breaker health is
    /// system-wide: it persists across queries, like a real client pool).
    pub fn breaker_state(&self, database: &DatabaseName) -> BreakerState {
        self.breakers.state(database)
    }

    /// Installs an optimizer that picks a configuration per query
    /// (ADAPTIVE / HUMAN / RANDOM of §VII-C); `None` pins the current
    /// configuration.
    pub fn set_optimizer(&self, optimizer: Option<Box<dyn Optimizer>>) {
        *self.optimizer.lock() = optimizer;
    }

    /// The accumulated run logs (the optimizer's training set), drained
    /// from the shard-local rings in shard order — per shard, the newest
    /// [`RUN_LOG_RING`] since the last drain, oldest first.
    pub fn take_logs(&self) -> Vec<RunLog> {
        let mut logs = Vec::new();
        for shard in &self.log_shards {
            logs.extend(shard.lock().drain(..));
        }
        logs
    }

    /// Shelves one run log in this thread's shard, forgetting the
    /// shard's oldest once the ring is full.
    fn shelve(&self, run: RunLog) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let mut ring = self.log_shards[hasher.finish() as usize % self.log_shards.len()].lock();
        if ring.len() == RUN_LOG_RING {
            ring.pop_front();
        }
        ring.push_back(run);
    }

    /// Clears the cache (cold-cache experiment runs).
    pub fn drop_caches(&self) {
        self.cache.clear();
    }

    /// **Augmented search** (Definition 3): runs `query` on `database` in
    /// its native language and augments the answer at `level`.
    pub fn augmented_search(
        &self,
        database: &str,
        query: &str,
        level: usize,
    ) -> Result<AugmentedAnswer> {
        let start = Instant::now();
        let connector = self.polystore.connector_by_name(database)?;
        let validated = self.validator.validate(connector.kind(), query)?;
        let original = connector.execute(&validated.query)?;
        let answer = self.augment_objects(&original, level, connector.kind(), start)?;
        Ok(answer)
    }

    /// A *filtered* augmented search: like
    /// [`augmented_search`](Quepa::augmented_search), but only augmented
    /// objects satisfying `filter` are returned. Keys whose objects exist
    /// but fail the predicate appear in neither `augmented` nor `missing`
    /// — `missing` keeps its exact unfiltered meaning (gone or
    /// unreachable). Per store group the planner pushes the predicate
    /// down to connectors that support it (unless `config.pushdown` is
    /// off or the installed optimizer's `T5` counsels against it); the
    /// answer is bit-identical whichever side of the wire filters.
    pub fn augmented_search_filtered(
        &self,
        database: &str,
        query: &str,
        level: usize,
        filter: &Pushdown,
    ) -> Result<AugmentedAnswer> {
        let start = Instant::now();
        let connector = self.polystore.connector_by_name(database)?;
        let validated = self.validator.validate(connector.kind(), query)?;
        let original = connector.execute(&validated.query)?;
        self.augment_objects_filtered(&original, level, connector.kind(), start, Some(filter))
    }

    /// Dry-runs the filtered-augmentation planner: the per-group
    /// pushdown/fetch-all verdicts the query *would* execute under,
    /// without touching any store for the augmentation (the native query
    /// itself still runs — the plan depends on its answer). The `EXPLAIN`
    /// command surfaces this; nothing is fetched, cached, logged or
    /// counted.
    pub fn explain_search(
        &self,
        database: &str,
        query: &str,
        level: usize,
        filter: &Pushdown,
    ) -> Result<Vec<GroupDecision>> {
        let connector = self.polystore.connector_by_name(database)?;
        let validated = self.validator.validate(connector.kind(), query)?;
        let original = connector.execute(&validated.query)?;
        let index = self.index.view();
        let keys: Vec<_> = original.iter().map(|o| o.key().clone()).collect();
        let plan = augmenter::plan(&index, &keys, level);
        let features = QueryFeatures {
            target_kind: connector.kind(),
            store_count: self.polystore.len(),
            result_size: original.len(),
            augmented_size: plan.augmented.len(),
            level,
            distributed: false,
            filtered: !filter.is_trivial(),
        };
        let config = self.config();
        let optimizer = self.optimizer.lock();
        let decider = |kind: StoreKind, group_keys: usize| {
            optimizer
                .as_ref()
                .and_then(|o| o.pushdown_for(&features, kind, group_keys))
                .unwrap_or(true)
        };
        Ok(augmenter::explain_groups(&self.polystore, &plan, &config, filter, Some(&decider)))
    }

    /// The server-facing entry point: an [`augmented_search`] that also
    /// keeps the admission ledger. A degraded execution clamps the
    /// augmentation level to 0 — the original answer without the fetch
    /// fan-out, the same shape `DegradeMode::Partial` falls back to —
    /// so an overloaded server still answers something exact and cheap.
    /// Both outcomes count as *served* in the admission counters; the
    /// caller records `offered` at accept and `shed` on rejection.
    ///
    /// [`augmented_search`]: Quepa::augmented_search
    pub fn serve_search(
        &self,
        database: &str,
        query: &str,
        level: usize,
        degraded: bool,
    ) -> Result<AugmentedAnswer> {
        let effective = if degraded { 0 } else { level };
        let answer = self.augmented_search(database, query, effective)?;
        self.obs.record_admission_served(degraded);
        Ok(answer)
    }

    /// Augments pre-fetched objects (exploration steps and baselines reuse
    /// this path).
    pub(crate) fn augment_objects(
        &self,
        original: &[DataObject],
        level: usize,
        target_kind: StoreKind,
        start: Instant,
    ) -> Result<AugmentedAnswer> {
        self.augment_objects_filtered(original, level, target_kind, start, None)
    }

    /// The filtered variant behind [`augment_objects`](Self::augment_objects):
    /// `filter = None` (or a trivial predicate) is the plain path.
    pub(crate) fn augment_objects_filtered(
        &self,
        original: &[DataObject],
        level: usize,
        target_kind: StoreKind,
        start: Instant,
        filter: Option<&Pushdown>,
    ) -> Result<AugmentedAnswer> {
        // One index traversal serves both feature extraction and
        // retrieval: the plan carries the canonical neighbourhood plus
        // the per-seed work partition, computed on an immutable snapshot
        // — no lock is held here or across any store round trip.
        let plan = {
            let mut span = quepa_obs::span_on(&self.obs, Stage::Plan, "traversal");
            let index = self.index.view();
            let keys: Vec<_> = original.iter().map(|o| o.key().clone()).collect();
            let plan = augmenter::plan(&index, &keys, level);
            span.add_items(plan.augmented.len() as u64);
            plan
        };
        // Decide the configuration: ask the optimizer if one is installed.
        let features = QueryFeatures {
            target_kind,
            store_count: self.polystore.len(),
            result_size: original.len(),
            augmented_size: plan.augmented.len(),
            level,
            distributed: false,
            filtered: filter.is_some_and(|f| !f.is_trivial()),
        };
        let current = self.config();
        let config = match self.optimizer.lock().as_ref() {
            Some(opt) => {
                let chosen = opt.choose(&features, &current).sanitized();
                // §V: the cache is not swung to the predicted value — it
                // moves by (predicted − current)/10.
                let delta = (chosen.cache_size as i64 - current.cache_size as i64) / 10;
                let cache_size = (current.cache_size as i64 + delta).max(0) as usize;
                let adjusted = QuepaConfig { cache_size, ..chosen };
                self.set_config(adjusted);
                adjusted
            }
            None => current,
        };

        let runtime = FetchRuntime {
            breakers: &self.breakers,
            obs: Some(&self.obs),
            pool: Some(&self.pool),
            flight: Some(&self.flight),
        };
        let outcome = match filter {
            Some(f) if !f.is_trivial() => {
                // The model-backed per-group decider: consult the
                // installed optimizer's T5 counsel; no optimizer (or no
                // opinion yet) means "push wherever supported". The lock
                // is taken per call, during planning only — never across
                // a store round trip.
                let decider = |kind: StoreKind, group_keys: usize| {
                    self.optimizer
                        .lock()
                        .as_ref()
                        .and_then(|o| o.pushdown_for(&features, kind, group_keys))
                        .unwrap_or(true)
                };
                let (outcome, _decisions) = augmenter::run_planned_filtered(
                    &self.polystore,
                    &self.cache,
                    &plan,
                    &config,
                    &runtime,
                    f,
                    Some(&decider),
                )?;
                outcome
            }
            _ => {
                augmenter::run_planned_with(&self.polystore, &self.cache, &plan, &config, &runtime)?
            }
        };

        // Lazy deletion (§III-C): objects that vanished from the polystore
        // leave the index and the cache. Only *not-found* keys qualify —
        // an unreachable store says nothing about whether its objects
        // still exist, so those stay indexed and only show up in the
        // answer's `missing` list. The sharded update makes the whole
        // pass one atomic transition — one directory swap republishing
        // just the touched shards — so a concurrent query plans against
        // the old index or the fully pruned one, never a
        // half-pruned hybrid.
        let lazily_deleted = outcome.missing.iter().filter(|m| m.is_not_found()).count();
        if lazily_deleted > 0 {
            // One batch through the commit path: on a durable instance
            // the removals are write-ahead-logged before they land, so
            // recovery never resurrects an object the polystore already
            // lost; on a volatile instance the same call is one atomic
            // sharded update.
            let removals: Vec<crate::durability::IndexOp> = outcome
                .missing
                .iter()
                .filter(|m| m.is_not_found())
                .map(|entry| crate::durability::IndexOp::RemoveObject { key: entry.key.clone() })
                .collect();
            self.apply_mutations(&removals)?;
            for entry in outcome.missing.iter().filter(|m| m.is_not_found()) {
                self.cache.remove(&entry.key);
            }
        }

        let duration = start.elapsed();
        let run = RunLog { features, config, duration };
        // Feed the online-retrain stream before shelving the log: an
        // OnlineOptimizer refits from here, so a later query in the same
        // process can already plan differently — no restart, no
        // take_logs/train round trip.
        if let Some(opt) = self.optimizer.lock().as_ref() {
            opt.observe(&run);
        }
        self.shelve(run);
        Ok(AugmentedAnswer {
            original: original.to_vec(),
            augmented: outcome.objects,
            config_used: config,
            duration,
            cache_hits: outcome.cache_hits,
            lazily_deleted,
            missing: outcome.missing,
        })
    }

    /// **Augmented exploration** (Definition 4): runs the query and opens
    /// an interactive session over its answer.
    pub fn explore(&self, database: &str, query: &str) -> Result<ExplorationSession<'_>> {
        let connector = self.polystore.connector_by_name(database)?;
        let validated = self.validator.validate(connector.kind(), query)?;
        let original = connector.execute(&validated.query)?;
        Ok(ExplorationSession::new(self, original, connector.kind()))
    }
}

impl std::fmt::Debug for Quepa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quepa")
            .field("stores", &self.polystore.len())
            .field("index", &self.index.view().stats())
            .field("config", &self.config())
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}
