//! The metrics registry: one deterministic surface per [`Quepa`] instance.
//!
//! The registry is instance-scoped, not a process-global: every `Quepa`
//! owns one, so parallel test harness threads (or multiple deployed
//! instances in one process) never pollute each other's numbers. It holds
//!
//! * per-store recorders: a simulated-latency histogram, a backoff
//!   histogram and chaos/breaker counters;
//! * per-stage recorders: a simulated-latency histogram plus span/item
//!   counters, one per [`Stage`];
//! * cache probe counters;
//! * a bounded wall-clock trace ring (human debugging only — never part
//!   of a snapshot, because wall time is not deterministic).
//!
//! [`MetricsSnapshot`] is the exported value: `Eq`, and mergeable with an
//! associative/commutative [`MetricsSnapshot::merge`] mirroring
//! `StatsSnapshot::merge`, so shard- or instance-level snapshots collapse
//! into one system view in any order.
//!
//! [`Quepa`]: ../../quepa_core/struct.Quepa.html

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::span::{Stage, TraceEvent};

/// Completed wall-clock spans kept for inspection; older spans fall off.
pub const TRACE_CAPACITY: usize = 256;

#[derive(Default)]
struct StoreRecorder {
    sim_latency: LatencyHistogram,
    backoff: LatencyHistogram,
    breaker_rejections: AtomicU64,
    faults: AtomicU64,
    pushdown_latency: LatencyHistogram,
    pushdown_chosen: AtomicU64,
    pushdown_declined: AtomicU64,
    pushdown_fallback: AtomicU64,
}

struct StageRecorder {
    sim_latency: LatencyHistogram,
    spans: AtomicU64,
    items: AtomicU64,
}

impl Default for StageRecorder {
    fn default() -> Self {
        StageRecorder {
            sim_latency: LatencyHistogram::new(),
            spans: AtomicU64::new(0),
            items: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct AdmissionRecorder {
    offered: AtomicU64,
    served: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
}

/// The live, thread-safe metrics sink (see the module docs).
pub struct MetricsRegistry {
    enabled: AtomicBool,
    stores: Mutex<BTreeMap<String, Arc<StoreRecorder>>>,
    stages: [StageRecorder; 6],
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    admission: AdmissionRecorder,
    trace: Mutex<VecDeque<TraceEvent>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates a disabled registry (recording is a no-op until
    /// [`set_enabled`](Self::set_enabled)).
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            stores: Mutex::new(BTreeMap::new()),
            stages: Default::default(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            admission: AdmissionRecorder::default(),
            trace: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Already-recorded data is kept; use
    /// [`reset`](Self::reset) to discard it.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn store(&self, name: &str) -> Arc<StoreRecorder> {
        let mut stores = self.stores.lock();
        if let Some(r) = stores.get(name) {
            return Arc::clone(r);
        }
        let r = Arc::new(StoreRecorder::default());
        stores.insert(name.to_owned(), Arc::clone(&r));
        r
    }

    /// Records one simulated link event of cost `sim_cost` against `store`
    /// under `stage`. (Called via the facade; context installation already
    /// checked `is_enabled`.)
    pub fn record_link_event(&self, store: &str, stage: Stage, sim_cost: Duration) {
        self.store(store).sim_latency.record(sim_cost);
        self.stages[stage.index()].sim_latency.record(sim_cost);
    }

    /// Records one deterministic backoff pause against `store`, attributed
    /// to the retry stage.
    pub fn record_backoff(&self, store: &str, pause: Duration) {
        self.store(store).backoff.record(pause);
        self.stages[Stage::Retry.index()].sim_latency.record(pause);
    }

    /// Counts a call rejected by `store`'s open circuit breaker.
    pub fn record_breaker_rejection(&self, store: &str) {
        self.store(store).breaker_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one injected fault against `store`.
    pub fn record_fault(&self, store: &str) {
        self.store(store).faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one group the planner chose to execute as a pushdown
    /// against `store`.
    pub fn record_pushdown_chosen(&self, store: &str) {
        self.store(store).pushdown_chosen.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one group where `store`'s connector declined the filter
    /// (no native path; the engine fetched everything and filtered
    /// client-side).
    pub fn record_pushdown_declined(&self, store: &str) {
        self.store(store).pushdown_declined.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one chosen pushdown that errored on the wire and fell back
    /// to the fetch-all path against `store`.
    pub fn record_pushdown_fallback(&self, store: &str) {
        self.store(store).pushdown_fallback.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the simulated cost of one completed pushdown round trip
    /// against `store`. This is *in addition to* the link event the
    /// connector itself reports — a per-strategy view of the same wire,
    /// not a second account of it (only the link events sum to total
    /// simulated time).
    pub fn record_pushdown_latency(&self, store: &str, sim_cost: Duration) {
        self.store(store).pushdown_latency.record(sim_cost);
    }

    /// Counts LRU cache probes: `hits` that hit, `misses` that missed.
    pub fn record_cache_probes(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.cache_misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Counts one request offered to the serving front end (admission
    /// plane). Serving counters record unconditionally — like the
    /// resilience counters folded from the connectors, they exist exactly
    /// when a server fronts this instance, and the per-query determinism
    /// contract does not cover the network plane.
    pub fn record_admission_offered(&self) {
        self.admission.offered.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request answered by the execution path (degraded
    /// answers included — pass `degraded` to count both).
    pub fn record_admission_served(&self, degraded: bool) {
        self.admission.served.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.admission.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one request shed by admission control (answered with a
    /// structured OVERLOAD response, never executed).
    pub fn record_admission_shed(&self) {
        self.admission.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Files a completed wall-clock span: bumps the stage's deterministic
    /// span/item counters and appends to the trace ring.
    pub fn complete_span(&self, event: TraceEvent) {
        let stage = &self.stages[event.stage.index()];
        stage.spans.fetch_add(1, Ordering::Relaxed);
        stage.items.fetch_add(event.items, Ordering::Relaxed);
        let mut trace = self.trace.lock();
        if trace.len() == TRACE_CAPACITY {
            trace.pop_front();
        }
        trace.push_back(event);
    }

    /// Drains the wall-clock trace ring (oldest first).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.trace.lock().drain(..).collect()
    }

    /// Takes a point-in-time copy of the deterministic metrics. The trace
    /// ring is deliberately excluded: snapshots contain only seeded,
    /// simulated quantities and therefore compare `Eq` across runs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stores = self
            .stores
            .lock()
            .iter()
            .map(|(name, r)| {
                (
                    name.clone(),
                    StoreMetrics {
                        sim_latency: r.sim_latency.snapshot(),
                        backoff: r.backoff.snapshot(),
                        breaker_rejections: r.breaker_rejections.load(Ordering::Relaxed),
                        faults: r.faults.load(Ordering::Relaxed),
                        retries: 0,
                        timeouts: 0,
                        breaker_trips: 0,
                        pushdown_latency: r.pushdown_latency.snapshot(),
                        pushdown_chosen: r.pushdown_chosen.load(Ordering::Relaxed),
                        pushdown_declined: r.pushdown_declined.load(Ordering::Relaxed),
                        pushdown_fallback: r.pushdown_fallback.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            stores,
            stages: std::array::from_fn(|i| StageMetrics {
                sim_latency: self.stages[i].sim_latency.snapshot(),
                spans: self.stages[i].spans.load(Ordering::Relaxed),
                items: self.stages[i].items.load(Ordering::Relaxed),
            }),
            cache: CacheMetrics {
                hits: self.cache_hits.load(Ordering::Relaxed),
                misses: self.cache_misses.load(Ordering::Relaxed),
            },
            admission: AdmissionMetrics {
                offered: self.admission.offered.load(Ordering::Relaxed),
                served: self.admission.served.load(Ordering::Relaxed),
                degraded: self.admission.degraded.load(Ordering::Relaxed),
                shed: self.admission.shed.load(Ordering::Relaxed),
            },
            index_shards: Vec::new(),
        }
    }

    /// Zeroes every recorder and empties the trace ring (the enabled flag
    /// is untouched).
    pub fn reset(&self) {
        self.stores.lock().clear();
        for stage in &self.stages {
            stage.sim_latency.reset();
            stage.spans.store(0, Ordering::Relaxed);
            stage.items.store(0, Ordering::Relaxed);
        }
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.admission.offered.store(0, Ordering::Relaxed);
        self.admission.served.store(0, Ordering::Relaxed);
        self.admission.degraded.store(0, Ordering::Relaxed);
        self.admission.shed.store(0, Ordering::Relaxed);
        self.trace.lock().clear();
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .field("stores", &self.stores.lock().len())
            .finish_non_exhaustive()
    }
}

/// Deterministic per-store metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Simulated link latency of every round trip (retried ones included).
    pub sim_latency: HistogramSnapshot,
    /// Deterministic backoff pauses before re-attempts.
    pub backoff: HistogramSnapshot,
    /// Calls rejected outright by an open circuit breaker.
    pub breaker_rejections: u64,
    /// Injected faults observed (chaos accounting).
    pub faults: u64,
    /// Retries performed, folded from `ConnectorStats` at snapshot time.
    pub retries: u64,
    /// Timeouts observed, folded from `ConnectorStats` at snapshot time.
    pub timeouts: u64,
    /// Closed→open breaker transitions, folded from `ConnectorStats`.
    pub breaker_trips: u64,
    /// Simulated cost of each completed pushdown round trip (a
    /// per-strategy view of link events already counted in
    /// `sim_latency`).
    pub pushdown_latency: HistogramSnapshot,
    /// Groups the planner executed as a pushdown against this store.
    pub pushdown_chosen: u64,
    /// Groups where the connector declined the filter.
    pub pushdown_declined: u64,
    /// Chosen pushdowns that errored and fell back to fetch-all.
    pub pushdown_fallback: u64,
}

impl StoreMetrics {
    /// Associative/commutative element-wise sum.
    pub fn merge(self, other: StoreMetrics) -> StoreMetrics {
        StoreMetrics {
            sim_latency: self.sim_latency.merge(other.sim_latency),
            backoff: self.backoff.merge(other.backoff),
            breaker_rejections: self.breaker_rejections.saturating_add(other.breaker_rejections),
            faults: self.faults.saturating_add(other.faults),
            retries: self.retries.saturating_add(other.retries),
            timeouts: self.timeouts.saturating_add(other.timeouts),
            breaker_trips: self.breaker_trips.saturating_add(other.breaker_trips),
            pushdown_latency: self.pushdown_latency.merge(other.pushdown_latency),
            pushdown_chosen: self.pushdown_chosen.saturating_add(other.pushdown_chosen),
            pushdown_declined: self.pushdown_declined.saturating_add(other.pushdown_declined),
            pushdown_fallback: self.pushdown_fallback.saturating_add(other.pushdown_fallback),
        }
    }
}

/// Deterministic per-stage metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageMetrics {
    /// Simulated time attributed to this stage.
    pub sim_latency: HistogramSnapshot,
    /// Completed spans.
    pub spans: u64,
    /// Work items the spans covered (keys planned, objects merged, …).
    pub items: u64,
}

impl StageMetrics {
    /// Associative/commutative element-wise sum.
    pub fn merge(self, other: StageMetrics) -> StageMetrics {
        StageMetrics {
            sim_latency: self.sim_latency.merge(other.sim_latency),
            spans: self.spans.saturating_add(other.spans),
            items: self.items.saturating_add(other.items),
        }
    }
}

/// LRU cache probe counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that went on to the polystore.
    pub misses: u64,
}

impl CacheMetrics {
    /// Associative/commutative element-wise sum.
    pub fn merge(self, other: CacheMetrics) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
        }
    }
}

/// Serving-plane admission counters: what the network front end did with
/// every request it received. `served + shed == offered` is the
/// accounting invariant the serving smoke test enforces; `degraded`
/// counts the subset of `served` answered under pressure (augmentation
/// suppressed, the `DegradeMode::Partial` shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionMetrics {
    /// Requests that reached admission control.
    pub offered: u64,
    /// Requests executed and answered (degraded ones included).
    pub served: u64,
    /// Served requests answered in degraded mode (no augmentation).
    pub degraded: u64,
    /// Requests shed with a structured OVERLOAD response.
    pub shed: u64,
}

impl AdmissionMetrics {
    /// Associative/commutative element-wise sum.
    pub fn merge(self, other: AdmissionMetrics) -> AdmissionMetrics {
        AdmissionMetrics {
            offered: self.offered.saturating_add(other.offered),
            served: self.served.saturating_add(other.served),
            degraded: self.degraded.saturating_add(other.degraded),
            shed: self.shed.saturating_add(other.shed),
        }
    }
}

/// Gauges of one A' index shard, folded in at snapshot time (the index
/// publishes these itself; the registry only carries them). Gauges, not
/// counters: they describe the projection's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexShardMetrics {
    /// Live nodes resident in the shard.
    pub entries: u64,
    /// Overlay entries layered over the packed base.
    pub overlay_depth: u64,
    /// Approximate bytes held by the shard's published snapshot.
    pub resident_bytes: u64,
    /// Times the shard's base was recompacted.
    pub compactions: u64,
    /// Times a new snapshot of the shard was published.
    pub swaps: u64,
}

impl IndexShardMetrics {
    /// Element-wise max — the merge for gauges (associative and
    /// commutative, unlike a sum, which would double state).
    pub fn merge(self, other: IndexShardMetrics) -> IndexShardMetrics {
        IndexShardMetrics {
            entries: self.entries.max(other.entries),
            overlay_depth: self.overlay_depth.max(other.overlay_depth),
            resident_bytes: self.resident_bytes.max(other.resident_bytes),
            compactions: self.compactions.max(other.compactions),
            swaps: self.swaps.max(other.swaps),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`] — the one metrics
/// surface. Contains only deterministic quantities: same seed + same
/// configuration ⇒ equal snapshots, regardless of thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Per-store metrics, keyed by store name (sorted).
    pub stores: BTreeMap<String, StoreMetrics>,
    /// Per-stage metrics, indexed by [`Stage::index`].
    pub stages: [StageMetrics; 6],
    /// Cache probe counts.
    pub cache: CacheMetrics,
    /// Serving-plane admission counters (all zero unless a network front
    /// end serves this instance).
    pub admission: AdmissionMetrics,
    /// Per-shard A' index gauges (position = shard number); empty unless
    /// the owning system folded them in.
    pub index_shards: Vec<IndexShardMetrics>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self == &MetricsSnapshot::default()
    }

    /// Associative/commutative merge (union of stores, element-wise sums),
    /// mirroring `StatsSnapshot::merge`.
    pub fn merge(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        for (name, metrics) in other.stores {
            let merged = match self.stores.remove(&name) {
                Some(mine) => mine.merge(metrics),
                None => metrics,
            };
            self.stores.insert(name, merged);
        }
        let mut incoming = other.stages.into_iter();
        self.stages = self.stages.map(|mine| mine.merge(incoming.next().expect("stage count")));
        self.cache = self.cache.merge(other.cache);
        self.admission = self.admission.merge(other.admission);
        if self.index_shards.len() < other.index_shards.len() {
            self.index_shards.resize(other.index_shards.len(), IndexShardMetrics::default());
        }
        for (mine, theirs) in self.index_shards.iter_mut().zip(other.index_shards) {
            *mine = mine.merge(theirs);
        }
        self
    }

    /// Folds one store's resilience counters (from `ConnectorStats`) into
    /// this snapshot, creating the store entry if the histograms never saw
    /// it. Zero counters fold to a no-op so disabled stores stay absent.
    pub fn fold_resilience(&mut self, store: &str, retries: u64, timeouts: u64, trips: u64) {
        if retries == 0 && timeouts == 0 && trips == 0 && !self.stores.contains_key(store) {
            return;
        }
        let entry = self.stores.entry(store.to_owned()).or_default();
        entry.retries = entry.retries.saturating_add(retries);
        entry.timeouts = entry.timeouts.saturating_add(timeouts);
        entry.breaker_trips = entry.breaker_trips.saturating_add(trips);
    }

    /// Total simulated nanoseconds across all stores.
    pub fn total_sim_nanos(&self) -> u64 {
        self.stores.values().fold(0u64, |acc, s| acc.saturating_add(s.sim_latency.sum_nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, nanos: u64) -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r.record_link_event(name, Stage::Fetch, Duration::from_nanos(nanos));
        r.record_backoff(name, Duration::from_nanos(nanos / 2));
        r.record_cache_probes(1, 1);
        r.record_fault(name);
        r.snapshot()
    }

    #[test]
    fn snapshot_reflects_records() {
        let s = sample("kv", 1000);
        assert_eq!(s.stores["kv"].sim_latency.count, 1);
        assert_eq!(s.stores["kv"].backoff.count, 1);
        assert_eq!(s.stores["kv"].faults, 1);
        assert_eq!(s.stages[Stage::Fetch.index()].sim_latency.count, 1);
        assert_eq!(s.stages[Stage::Retry.index()].sim_latency.count, 1);
        assert_eq!(s.cache, CacheMetrics { hits: 1, misses: 1 });
        assert!(!s.is_empty());
        assert_eq!(s.total_sim_nanos(), 1000);
    }

    #[test]
    fn merge_unions_stores() {
        let a = sample("kv", 1000);
        let b = sample("sql", 2000);
        let m = a.clone().merge(b.clone());
        assert_eq!(m, b.merge(a), "merge is commutative");
        assert_eq!(m.stores.len(), 2);
        assert_eq!(m.cache, CacheMetrics { hits: 2, misses: 2 });
        assert_eq!(m.stages[Stage::Fetch.index()].sim_latency.count, 2);
    }

    #[test]
    fn merge_identity_and_associativity() {
        let (a, b, c) = (sample("kv", 10), sample("kv", 20), sample("sql", 30));
        assert_eq!(a.clone().merge(MetricsSnapshot::default()), a);
        assert_eq!(
            a.clone().merge(b.clone()).merge(c.clone()),
            a.merge(b.merge(c)),
            "merge is associative"
        );
    }

    #[test]
    fn fold_resilience_creates_or_updates() {
        let mut s = sample("kv", 1000);
        s.fold_resilience("kv", 3, 1, 0);
        s.fold_resilience("ghost", 0, 0, 0);
        s.fold_resilience("sql", 2, 0, 1);
        assert_eq!(s.stores["kv"].retries, 3);
        assert_eq!(s.stores["kv"].timeouts, 1);
        assert!(!s.stores.contains_key("ghost"), "all-zero fold stays absent");
        assert_eq!(s.stores["sql"].breaker_trips, 1);
        assert!(s.stores["sql"].sim_latency.is_empty());
    }

    #[test]
    fn admission_counters_record_merge_and_reset() {
        let r = MetricsRegistry::new();
        // Admission records even while the stage layer is disabled: the
        // serving plane is accounted unconditionally.
        assert!(!r.is_enabled());
        for _ in 0..5 {
            r.record_admission_offered();
        }
        r.record_admission_served(false);
        r.record_admission_served(true);
        r.record_admission_shed();
        let s = r.snapshot();
        assert_eq!(s.admission, AdmissionMetrics { offered: 5, served: 2, degraded: 1, shed: 1 });
        assert!(!s.is_empty());
        let m = s.admission.merge(AdmissionMetrics { offered: 1, served: 1, degraded: 0, shed: 0 });
        assert_eq!(m, AdmissionMetrics { offered: 6, served: 3, degraded: 1, shed: 1 });
        r.reset();
        assert_eq!(r.snapshot().admission, AdmissionMetrics::default());
    }

    #[test]
    fn pushdown_counters_record_merge_and_reset() {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r.record_pushdown_chosen("kv");
        r.record_pushdown_chosen("kv");
        r.record_pushdown_declined("kv");
        r.record_pushdown_fallback("kv");
        r.record_pushdown_latency("kv", Duration::from_nanos(640));
        let s = r.snapshot();
        assert_eq!(s.stores["kv"].pushdown_chosen, 2);
        assert_eq!(s.stores["kv"].pushdown_declined, 1);
        assert_eq!(s.stores["kv"].pushdown_fallback, 1);
        assert_eq!(s.stores["kv"].pushdown_latency.count, 1);
        assert_eq!(s.stores["kv"].pushdown_latency.sum_nanos, 640);
        assert!(!s.is_empty());
        let m = s.clone().merge(s.clone());
        assert_eq!(m.stores["kv"].pushdown_chosen, 4);
        assert_eq!(m.stores["kv"].pushdown_latency.count, 2);
        r.reset();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn reset_restores_empty() {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r.record_link_event("kv", Stage::Fetch, Duration::from_nanos(5));
        r.complete_span(TraceEvent {
            stage: Stage::Merge,
            label: "m".into(),
            wall: Duration::ZERO,
            items: 1,
        });
        r.reset();
        assert!(r.snapshot().is_empty());
        assert!(r.take_trace().is_empty());
        assert!(r.is_enabled(), "reset keeps the enabled flag");
    }

    #[test]
    fn trace_ring_is_bounded() {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        for i in 0..(TRACE_CAPACITY + 10) {
            r.complete_span(TraceEvent {
                stage: Stage::Fetch,
                label: format!("s{i}"),
                wall: Duration::ZERO,
                items: 0,
            });
        }
        let trace = r.take_trace();
        assert_eq!(trace.len(), TRACE_CAPACITY);
        assert_eq!(trace[0].label, "s10", "oldest spans fall off");
    }
}
