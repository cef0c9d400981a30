//! Deterministic fault injection: seeded chaos for the polystore links.
//!
//! A [`FaultPlan`] is a *reproducible schedule* of failures — transient
//! errors, latency spikes, timeouts and whole-store outages — derived
//! entirely from a seed and the **identity** of each call (database,
//! collection, keys) via xorshift streams. Nothing depends on wall-clock
//! time or on the order threads happen to issue calls, so a chaos run
//! under the concurrent augmenters replays bit-identically: the same
//! seed yields the same faults on the same keys, whatever the
//! interleaving.
//!
//! [`FaultyConnector`] is any [`Connector`] under a [`FaultLayer`]: a
//! plan, with faulted calls paid through the inner store's own link.
//! Faulted calls **pay their (deterministic) network latency before
//! erroring** — a refused connection still burns a round trip on the
//! wire, and timeout semantics are only testable when the time is spent
//! first (see the order-pinning test below).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use quepa_pdm::{CollectionName, LocalKey};

use crate::connector::{Connector, Layer, Layered};
use crate::error::{PolyError, Result};

/// What the plan decided for one call attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The call proceeds normally.
    Healthy,
    /// The call proceeds, but only after an extra latency spike.
    Spike(Duration),
    /// The call fails with a transient store error (retryable).
    Transient,
    /// The call times out: latency is paid, then [`PolyError::Timeout`].
    Timeout,
    /// The store is down: every call fails with [`PolyError::Unavailable`].
    Down,
}

/// A seeded, reproducible fault schedule.
///
/// Faults are pure functions of `(seed, database, call identity,
/// attempt)`:
///
/// * **Transient faults** are drawn *per identity*: a faulted identity
///   fails its first `streak` attempts (streak drawn deterministically in
///   `1..=max_transient_streak`) and then succeeds — so a retry policy
///   with enough attempts rides out the fault, and whether it does is
///   itself deterministic.
/// * **Timeouts** and **latency spikes** are drawn *per (identity,
///   attempt)*, so retries may escape them.
/// * **Outages** are per database and unconditional.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    max_transient_streak: u32,
    timeout_rate: f64,
    spike_rate: f64,
    spike: Duration,
    outages: BTreeSet<String>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, max_transient_streak: 1, ..FaultPlan::default() }
    }

    /// Enables transient faults: each call identity fails with
    /// probability `rate`, for a streak of `1..=max_streak` attempts.
    #[must_use]
    pub fn with_transient_faults(mut self, rate: f64, max_streak: u32) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self.max_transient_streak = max_streak.max(1);
        self
    }

    /// Enables injected timeouts with per-attempt probability `rate`.
    #[must_use]
    pub fn with_timeouts(mut self, rate: f64) -> Self {
        self.timeout_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Enables latency spikes of `spike` extra wall time with per-attempt
    /// probability `rate`.
    #[must_use]
    pub fn with_latency_spikes(mut self, rate: f64, spike: Duration) -> Self {
        self.spike_rate = rate.clamp(0.0, 1.0);
        self.spike = spike;
        self
    }

    /// Marks `database` as fully down: every call against it fails.
    #[must_use]
    pub fn with_outage(mut self, database: &str) -> Self {
        self.outages.insert(database.to_owned());
        self
    }

    /// True when `database` is scheduled as down.
    pub fn is_down(&self, database: &str) -> bool {
        self.outages.contains(database)
    }

    /// The decision for attempt `attempt` of the call identified by
    /// `identity` against `database`. Pure: no state, no clock.
    pub fn decide(&self, database: &str, identity: u64, attempt: u32) -> FaultDecision {
        if self.is_down(database) {
            return FaultDecision::Down;
        }
        // Per-identity stream: the transient draw and its streak length.
        let mut id_stream = Xorshift::new(mix(self.seed, mix(fnv(database.as_bytes()), identity)));
        let transient_draw = id_stream.unit();
        let streak = 1 + (id_stream.next() % self.max_transient_streak.max(1) as u64) as u32;
        if self.transient_rate > 0.0 && transient_draw < self.transient_rate && attempt < streak {
            return FaultDecision::Transient;
        }
        // Per-attempt stream: timeouts and spikes can differ across
        // retries of the same identity.
        let mut attempt_stream = Xorshift::new(mix(id_stream.next(), attempt as u64));
        if self.timeout_rate > 0.0 && attempt_stream.unit() < self.timeout_rate {
            return FaultDecision::Timeout;
        }
        if self.spike_rate > 0.0 && attempt_stream.unit() < self.spike_rate {
            return FaultDecision::Spike(self.spike);
        }
        FaultDecision::Healthy
    }
}

/// FNV-1a over raw bytes — the identity hash primitive.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer combining two words.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A xorshift64* stream (the ISSUE-mandated generator): small, seedable,
/// and with no global or wall-clock state.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The stable identity of one key-based round trip: an FNV-1a hash of
/// the collection plus every key, independent of thread interleaving.
/// Both the fault plan and the retry jitter key off it.
pub fn call_identity<'a>(
    collection: &CollectionName,
    keys: impl IntoIterator<Item = &'a LocalKey>,
) -> u64 {
    let mut h = fnv(collection.as_str().as_bytes());
    for key in keys {
        h = mix(h, fnv(key.as_str().as_bytes()));
    }
    h
}

/// Identity of a native-language query round trip.
pub fn query_identity(query: &str) -> u64 {
    fnv(query.as_bytes())
}

/// The fault-injecting [`Layer`]: a plan plus the streak counters.
///
/// Keyed fetches and native queries consult the plan; `scan_collection`
/// (the Collector's offline ingest path) and metadata calls pass through.
/// Transient-fault streaks are tracked with a per-identity attempt
/// counter that is **monotone and order-free**: the counter only ever
/// advances (one step per faulted decision, under the same lock that
/// reads it), never resets, and is keyed purely by call identity. However
/// many callers race one identity, the total number of injected transient
/// errors is exactly the plan's streak and no single caller can observe
/// more than that — which is what lets the concurrent differential
/// harness check transient plans at all.
pub struct FaultLayer {
    plan: Arc<FaultPlan>,
    attempts: Mutex<HashMap<u64, u32>>,
}

/// A connector wrapped with a fault plan. Healthy calls pay inside the
/// inner store as usual; faulted calls pay through the inner store's
/// [`Link`](crate::connector::Link), so a wrapper can never disagree with
/// its store about the link it sits on.
pub type FaultyConnector = Layered<FaultLayer>;

impl FaultyConnector {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn Connector>, plan: Arc<FaultPlan>) -> Self {
        Layered::wrap(inner, FaultLayer { plan, attempts: Mutex::new(HashMap::new()) })
    }
}

impl FaultLayer {
    /// Consults the plan for this call. `Ok(())` means proceed to the
    /// inner connector; `Err` is the injected fault, *returned only
    /// after the latency has been paid* — the wire does not refund a
    /// refused connection, and timeout tests need the time spent first.
    fn apply(&self, inner: &dyn Connector, identity: u64) -> Result<()> {
        let link = inner.link();
        let database = link.database().as_str();
        // Read → decide → bump under ONE lock acquisition, and never
        // reset: the (attempt, decision) pair is atomic and the counter
        // is monotone. Racing callers of the same identity serialize
        // here and walk the streak 0, 1, 2, … exactly once between them,
        // whatever the interleaving — so the total injected errors per
        // identity equal the plan's streak and no caller can be handed
        // the same faulted attempt twice.
        let decision = {
            let mut attempts = self.attempts.lock();
            let attempt = attempts.get(&identity).copied().unwrap_or(0);
            let decision = self.plan.decide(database, identity, attempt);
            if matches!(decision, FaultDecision::Transient | FaultDecision::Timeout) {
                attempts.insert(identity, attempt + 1);
            }
            decision
        };
        let (extra, outcome) = match decision {
            FaultDecision::Healthy => return Ok(()),
            FaultDecision::Spike(extra) => (extra, Ok(())),
            FaultDecision::Transient => {
                (Duration::ZERO, Err(link.store_error("injected transient fault")))
            }
            FaultDecision::Timeout => {
                (self.plan.spike, Err(PolyError::Timeout { database: database.to_string() }))
            }
            FaultDecision::Down => {
                (Duration::ZERO, Err(PolyError::Unavailable { database: database.to_string() }))
            }
        };
        quepa_obs::record_fault(database);
        link.pay_unanswered(extra);
        outcome
    }
}

impl Layer for FaultLayer {
    fn before_query(&self, inner: &dyn Connector, statement: &str) -> Result<()> {
        self.apply(inner, query_identity(statement))
    }

    /// A filtered and an unfiltered fetch of one key list share one
    /// identity: the fault plan cannot tell the two strategies apart, so
    /// the planner's choice never changes which faults fire.
    fn before_fetch(
        &self,
        inner: &dyn Connector,
        collection: &CollectionName,
        keys: &[LocalKey],
    ) -> Result<()> {
        self.apply(inner, call_identity(collection, keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{FilteredFetch, Link, PushdownGate, StoreKind};
    use crate::connectors::KvConnector;
    use crate::net::LatencyModel;
    use quepa_kvstore::KvStore;
    use quepa_pdm::{DataObject, DatabaseName, Pushdown};
    use std::time::Instant;

    fn kv_connector_behind(latency: LatencyModel) -> Arc<dyn Connector> {
        let mut kv = KvStore::new("db1");
        for k in 0..8 {
            kv.set(format!("k{k}"), "v");
        }
        Arc::new(KvConnector::new(kv, "c", latency))
    }

    fn kv_connector() -> Arc<dyn Connector> {
        kv_connector_behind(LatencyModel::FREE)
    }

    fn coll() -> CollectionName {
        CollectionName::new("c").unwrap()
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(7)
            .with_transient_faults(0.5, 3)
            .with_timeouts(0.2)
            .with_latency_spikes(0.2, Duration::from_micros(10));
        for identity in 0..200u64 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.decide("db1", identity, attempt),
                    plan.decide("db1", identity, attempt),
                );
            }
        }
        // Different seeds disagree somewhere.
        let other = FaultPlan::new(8).with_transient_faults(0.5, 3);
        let plan = FaultPlan::new(7).with_transient_faults(0.5, 3);
        assert!((0..200u64).any(|i| plan.decide("db1", i, 0) != other.decide("db1", i, 0)));
    }

    #[test]
    fn transient_streaks_end() {
        let plan = FaultPlan::new(3).with_transient_faults(1.0, 3);
        for identity in 0..50u64 {
            // Every identity is faulted; its streak is 1..=3, so attempt 3
            // (0-based) must always be past the streak.
            assert_eq!(plan.decide("db1", identity, 3), FaultDecision::Healthy);
            assert_eq!(plan.decide("db1", identity, 0), FaultDecision::Transient);
        }
    }

    #[test]
    fn outage_beats_everything() {
        let plan = FaultPlan::new(1).with_outage("db1");
        assert_eq!(plan.decide("db1", 42, 0), FaultDecision::Down);
        assert_eq!(plan.decide("db1", 42, 99), FaultDecision::Down);
        assert_eq!(plan.decide("db2", 42, 0), FaultDecision::Healthy);
    }

    #[test]
    fn identities_ignore_key_order_only_for_same_sequence() {
        let c = coll();
        let a = LocalKey::new("a").unwrap();
        let b = LocalKey::new("b").unwrap();
        assert_eq!(call_identity(&c, [&a, &b]), call_identity(&c, [&a, &b]));
        assert_ne!(call_identity(&c, [&a, &b]), call_identity(&c, [&b, &a]));
        assert_ne!(call_identity(&c, [&a]), call_identity(&c, [&b]));
    }

    /// Satellite pin: a faulted call pays its deterministic latency
    /// *before* the error is returned — the elapsed time observed at the
    /// moment the error surfaces already includes the round trip.
    #[test]
    fn faulted_calls_pay_latency_before_erroring() {
        let latency = LatencyModel {
            round_trip: Duration::from_micros(400),
            per_object: Duration::ZERO,
            per_kib: Duration::ZERO,
        };
        let plan = Arc::new(FaultPlan::new(5).with_outage("db1"));
        let faulty = FaultyConnector::new(kv_connector_behind(latency), plan);
        let t0 = Instant::now();
        let err = faulty.get(&coll(), &LocalKey::new("k0").unwrap()).unwrap_err();
        let elapsed = t0.elapsed();
        assert!(matches!(err, PolyError::Unavailable { .. }), "{err}");
        assert!(
            elapsed >= Duration::from_micros(400),
            "latency must be paid before the error returns (elapsed {elapsed:?})"
        );
    }

    #[test]
    fn transient_fault_then_recovery_through_wrapper() {
        let plan = Arc::new(FaultPlan::new(11).with_transient_faults(1.0, 2));
        let faulty = FaultyConnector::new(kv_connector(), plan.clone());
        let key = LocalKey::new("k1").unwrap();
        let identity = call_identity(&coll(), [&key]);
        let streak = (0..4)
            .take_while(|&a| plan.decide("db1", identity, a) == FaultDecision::Transient)
            .count();
        assert!((1..=2).contains(&streak));
        // The wrapper's per-identity attempt counter walks the streak.
        for _ in 0..streak {
            assert!(faulty.get(&coll(), &key).is_err());
        }
        let obj = faulty.get(&coll(), &key).unwrap().unwrap();
        assert_eq!(obj.value().as_str(), Some("v"));
        // The counter is monotone: once an identity has ridden out its
        // streak it stays healthy — the streak is a property of the
        // identity, not of any one caller's retry loop.
        for _ in 0..streak + 1 {
            assert!(faulty.get(&coll(), &key).unwrap().is_some());
        }
    }

    /// Satellite pin: the streak counter is identity-keyed and
    /// order-free. However many callers race the same identity, the
    /// *total* injected transient errors equal the plan's streak, and
    /// every caller retrying up to the streak length succeeds — no
    /// interleaving can hand one caller more errors than the streak, so
    /// a retry budget that rides out the streak serially also rides it
    /// out under concurrency.
    #[test]
    fn racing_callers_split_exactly_one_streak() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let plan = Arc::new(FaultPlan::new(11).with_transient_faults(1.0, 3));
        let key = LocalKey::new("k1").unwrap();
        let identity = call_identity(&coll(), [&key]);
        let streak = (0..8)
            .take_while(|&a| plan.decide("db1", identity, a) == FaultDecision::Transient)
            .count();
        assert!((1..=3).contains(&streak));

        for round in 0..16 {
            let faulty = FaultyConnector::new(kv_connector(), Arc::clone(&plan));
            let threads = 8;
            let errors = AtomicUsize::new(0);
            let barrier = Barrier::new(threads);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        barrier.wait();
                        // Retry loop sized to the streak: must succeed.
                        for attempt in 0..=streak {
                            match faulty.get(&coll(), &key) {
                                Ok(obj) => {
                                    assert!(obj.is_some());
                                    return;
                                }
                                Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    assert!(attempt < streak, "caller exhausted its budget");
                                }
                            }
                        }
                    });
                }
            });
            assert_eq!(
                errors.load(Ordering::Relaxed),
                streak,
                "round {round}: total injected errors must equal the streak, order-free"
            );
        }
    }

    /// Satellite pin: `fetch_where` shares its call identity (and so its
    /// per-identity attempt counter) with `multi_get` of the same key
    /// list. A streak ridden out by one strategy is ridden out for both —
    /// the planner's BATCH/PUSHDOWN choice can never change which faults
    /// fire or how many remain.
    #[test]
    fn fetch_where_shares_fault_identity_with_multi_get() {
        let plan = Arc::new(FaultPlan::new(11).with_transient_faults(1.0, 3));
        let keys = [LocalKey::new("k1").unwrap(), LocalKey::new("k2").unwrap()];
        let identity = call_identity(&coll(), &keys);
        let streak = (0..8)
            .take_while(|&a| plan.decide("db1", identity, a) == FaultDecision::Transient)
            .count();
        assert!((1..=3).contains(&streak));
        let filter = Pushdown::value(quepa_pdm::PushOp::Eq, "v");
        // Alternate strategies against the SAME wrapper: the shared
        // counter walks one streak between them, then both succeed.
        let faulty = FaultyConnector::new(kv_connector(), Arc::clone(&plan));
        for attempt in 0..streak {
            let res = if attempt % 2 == 0 {
                faulty.fetch_where(&coll(), &keys, &filter).map(|_| ())
            } else {
                faulty.multi_get(&coll(), &keys).map(|_| ())
            };
            assert!(res.is_err(), "attempt {attempt} should still be inside the streak");
        }
        let out = faulty.fetch_where(&coll(), &keys, &filter).unwrap();
        assert_eq!(out.matched.len(), 2);
        assert!(out.rejected.is_empty());
        assert_eq!(faulty.multi_get(&coll(), &keys).unwrap().len(), 2);
    }

    #[test]
    fn down_store_fails_multi_get_and_execute() {
        let plan = Arc::new(FaultPlan::new(2).with_outage("db1"));
        let faulty = FaultyConnector::new(kv_connector(), plan);
        let keys = [LocalKey::new("k0").unwrap(), LocalKey::new("k1").unwrap()];
        assert!(matches!(faulty.multi_get(&coll(), &keys), Err(PolyError::Unavailable { .. })));
        assert!(matches!(faulty.execute("SCAN k"), Err(PolyError::Unavailable { .. })));
        // Offline ingest is spared: chaos targets the serving path.
        assert_eq!(faulty.scan_collection(&coll()).unwrap().len(), 8);
    }

    /// A store with something to flush — the one connector a test writes
    /// by hand, because it is a store and not a wrapper.
    struct DurableStore(Link);

    impl Connector for DurableStore {
        fn link(&self) -> &Link {
            &self.0
        }
        fn kind(&self) -> StoreKind {
            StoreKind::KeyValue
        }
        fn collections(&self) -> Vec<CollectionName> {
            Vec::new()
        }
        fn object_count(&self) -> usize {
            0
        }
        fn execute(&self, _query: &str) -> Result<Vec<DataObject>> {
            Ok(Vec::new())
        }
        fn execute_update(&self, _statement: &str) -> Result<usize> {
            Ok(0)
        }
        fn scan_collection(&self, _collection: &CollectionName) -> Result<Vec<DataObject>> {
            Ok(Vec::new())
        }
        fn fetch(
            &self,
            _collection: &CollectionName,
            _keys: &[LocalKey],
            _filter: Option<&Pushdown>,
        ) -> Result<FilteredFetch> {
            Ok(FilteredFetch::default())
        }
        fn commit_durable(&self) -> Result<bool> {
            Ok(true)
        }
    }

    /// Regression: a wrapper must forward `commit_durable`, or a store
    /// wrapped for chaos (or gated) silently skips its flush between the
    /// WAL append and the index update of every durable batch.
    #[test]
    fn wrappers_forward_commit_durable() {
        let store = || -> Arc<dyn Connector> {
            let link = Link::new(DatabaseName::new("db1").unwrap(), LatencyModel::FREE);
            Arc::new(DurableStore(link))
        };
        let plan = Arc::new(FaultPlan::new(1));
        let stacks: [(&str, Arc<dyn Connector>); 3] = [
            ("bare", store()),
            ("fault-wrapped", Arc::new(FaultyConnector::new(store(), plan))),
            ("gate-wrapped", Arc::new(PushdownGate::new(store()))),
        ];
        for (stack, connector) in stacks {
            let mut polystore = crate::Polystore::new();
            polystore.register(connector);
            assert_eq!(polystore.commit_durable_all().unwrap(), 1, "{stack}");
        }
    }
}
