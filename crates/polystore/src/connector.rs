//! The connector abstraction (paper §III-A): a narrow store contract.
//!
//! A store implements eight calls — [`link`](Connector::link), three
//! metadata calls, the two native-language calls, the offline scan and the
//! one keyed primitive [`fetch`](Connector::fetch). Everything else on
//! [`Connector`] is provided over those: `get` / `multi_get` /
//! `fetch_where` are call shapes of `fetch`, and the statistics calls read
//! the store's [`Link`]. A wrapper is a [`Layer`] under the one generic
//! [`Layered`], which writes the forwarding once; no layer and no test
//! double re-implements the trait.

use std::sync::Arc;
use std::time::Duration;

use quepa_pdm::{CollectionName, DataObject, DatabaseName, LocalKey, Pushdown};

use crate::error::{PolyError, Result};
use crate::net::LatencyModel;
use crate::stats::{ConnectorStats, StatsSnapshot};

/// Result of a keyed fetch ([`Connector::fetch`]).
///
/// The three-way outcome per requested key is what the augmenter's lazy
/// deletion depends on: keys in `matched` were fetched, keys in `rejected`
/// *exist* but fail the predicate (they must be silently excluded — not
/// treated as missing), and keys in neither list are genuinely gone from
/// the store (the lazy-deletion signal).
#[derive(Debug, Clone, Default)]
pub struct FilteredFetch {
    /// The objects that exist and satisfy the predicate.
    pub matched: Vec<DataObject>,
    /// Keys whose object exists but fails the predicate.
    pub rejected: Vec<LocalKey>,
}

impl FilteredFetch {
    /// The fetch-all fallback: splits already-fetched `objects` with the
    /// canonical client-side evaluator ([`Pushdown::matches`]). A store
    /// without a native predicate path answers a filtered
    /// [`fetch`](Connector::fetch) with this over its unfiltered one —
    /// correct for any store, just without the wire saving.
    pub fn split(objects: Vec<DataObject>, filter: Option<&Pushdown>) -> Self {
        let Some(filter) = filter else {
            return FilteredFetch { matched: objects, rejected: Vec::new() };
        };
        let mut out = FilteredFetch::default();
        for o in objects {
            if filter.matches(o.key().key().as_str(), o.value()) {
                out.matched.push(o);
            } else {
                out.rejected.push(o.key().key().clone());
            }
        }
        out
    }
}

/// The paradigm of the underlying engine. QUEPA never branches on this for
/// semantics — it only surfaces in statistics and in the adaptive
/// optimizer's feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StoreKind {
    /// SQL engine (MySQL in the paper).
    Relational,
    /// Document store (MongoDB).
    Document,
    /// Key-value store (Redis).
    KeyValue,
    /// Property graph (Neo4j).
    Graph,
}

impl StoreKind {
    /// Short name for logs and experiment output.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Relational => "relational",
            StoreKind::Document => "document",
            StoreKind::KeyValue => "key-value",
            StoreKind::Graph => "graph",
        }
    }
}

/// One store's link to QUEPA: the database name, the simulated network
/// and the access statistics. Each native connector owns one, and every
/// round trip — answered or faulted — is paid and accounted here, so the
/// four stores cannot drift apart in what they report.
#[derive(Debug)]
pub struct Link {
    database: DatabaseName,
    latency: LatencyModel,
    stats: ConnectorStats,
}

impl Link {
    /// A link to `database` with the given cost model and zeroed counters.
    pub fn new(database: DatabaseName, latency: LatencyModel) -> Self {
        Link { database, latency, stats: ConnectorStats::new() }
    }

    /// The database at the far end.
    pub fn database(&self) -> &DatabaseName {
        &self.database
    }

    /// The link's cumulative statistics.
    pub fn stats(&self) -> &ConnectorStats {
        &self.stats
    }

    /// A native error of the store at the far end.
    pub fn store_error(&self, err: impl std::fmt::Display) -> PolyError {
        PolyError::store(self.database.as_str(), err)
    }

    /// One answered round trip shipping `objects` back: sizes the payload,
    /// pays its cost as wall time, counts it and reports it to the link
    /// histogram. `is_query` tells native-language calls from keyed ones.
    pub fn charge(&self, is_query: bool, objects: &[DataObject]) -> Duration {
        let bytes = objects.iter().map(DataObject::approx_size).sum();
        let cost = self.latency.pay(objects.len(), bytes);
        self.stats.record(is_query, objects.len(), bytes, cost);
        quepa_obs::record_link_event(self.database.as_str(), cost);
        cost
    }

    /// [`charge`](Link::charge) for a keyed fetch that shipped `matched`
    /// (rejected objects never cross the wire); a filtered one also
    /// reports its cost to the pushdown-latency histogram.
    pub fn charge_fetch(&self, matched: &[DataObject], filtered: bool) {
        let cost = self.charge(false, matched);
        if filtered {
            quepa_obs::record_pushdown_latency(self.database.as_str(), cost);
        }
    }

    /// An empty round trip plus `extra` that produced no answer — what a
    /// faulted call pays, in a single sleep (the fault layer's spikes and
    /// timeouts must spend their time *before* any error surfaces).
    /// Reported to the link histogram, but not a round trip in the
    /// statistics.
    pub fn pay_unanswered(&self, extra: Duration) {
        let cost = self.latency.cost(0, 0) + extra;
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
        quepa_obs::record_link_event(self.database.as_str(), cost);
    }
}

/// A connector: QUEPA's only channel to one database of the polystore.
///
/// Two access paths exist, mirroring the paper's execution model:
///
/// * [`execute`](Connector::execute) — a query *in the store's native
///   language* (SQL, Mongo-shell, Redis commands, Cypher), used for the
///   user's original query. Results are parsed into [`DataObject`]s.
/// * [`fetch`](Connector::fetch) — key-based direct access, used by the
///   augmenters to retrieve the objects the A' index points at: one round
///   trip for a whole key list (the BATCH augmenter's lever), optionally
///   carrying a predicate into the store (the PUSHDOWN lever).
///
/// Implementations are `Send + Sync`: the concurrent augmenters call them
/// from worker threads.
pub trait Connector: Send + Sync {
    /// The link every round trip of this connector is charged to.
    fn link(&self) -> &Link;

    /// The engine paradigm.
    fn kind(&self) -> StoreKind;

    /// The collections the database exposes.
    fn collections(&self) -> Vec<CollectionName>;

    /// Approximate number of stored objects (for experiment reporting).
    fn object_count(&self) -> usize;

    /// Runs a native-language *read* query.
    fn execute(&self, query: &str) -> Result<Vec<DataObject>>;

    /// Runs a native-language *update* (DML) statement, returning how many
    /// objects were affected. Used by loaders and deletion tests.
    fn execute_update(&self, statement: &str) -> Result<usize>;

    /// Dumps every object of one collection — the Collector's ingest path
    /// (record linkage needs to see the data). Charged like one big query.
    fn scan_collection(&self, collection: &CollectionName) -> Result<Vec<DataObject>>;

    /// The keyed primitive: one round trip that fetches `keys` from one
    /// collection. Missing keys are silently skipped (they appear in
    /// neither list of the result — the lazy-deletion signal).
    ///
    /// With a `filter` the predicate is applied *inside the store*, so
    /// only matching objects cross the wire and are charged to it. Its
    /// semantics are fixed by [`Pushdown::matches`]; a native path must
    /// agree with it exactly (the check harness diffs the two
    /// bit-for-bit), and a store without one answers
    /// [`FilteredFetch::split`] over its unfiltered fetch.
    fn fetch(
        &self,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: Option<&Pushdown>,
    ) -> Result<FilteredFetch>;

    /// Whether [`fetch`](Connector::fetch) evaluates `filter` natively
    /// (the planner asks before choosing the PUSHDOWN strategy). The
    /// default declines everything; the planner then fetches unfiltered
    /// and filters client-side.
    fn supports_pushdown(&self, filter: &Pushdown) -> bool {
        let _ = filter;
        false
    }

    /// Hook for the durability layer: asks the store to make its own
    /// pending writes durable before QUEPA acknowledges a commit that
    /// spans this store (flush, fsync, acknowledge — the classic
    /// `commit_transaction` shape). Returns whether the connector
    /// actually persisted anything; the default `Ok(false)` suits the
    /// in-memory reference stores, which have nothing to flush.
    fn commit_durable(&self) -> Result<bool> {
        Ok(false)
    }

    /// The database this connector serves.
    fn database(&self) -> &DatabaseName {
        self.link().database()
    }

    /// Snapshot of this connector's access statistics.
    fn stats(&self) -> StatsSnapshot {
        self.link().stats().snapshot()
    }

    /// Resets the statistics.
    fn reset_stats(&self) {
        self.link().stats().reset()
    }

    /// Attributes the resilience layer's retry / timeout / breaker-trip
    /// events from one round trip to this connector's statistics.
    fn record_resilience(&self, retries: u64, timeouts: u64, breaker_trips: u64) {
        self.link().stats().record_resilience(retries, timeouts, breaker_trips)
    }

    /// Point lookup: [`fetch`](Connector::fetch) of one key. `Ok(None)`
    /// means the object is gone — the signal the A' index's lazy deletion
    /// listens for.
    fn get(&self, collection: &CollectionName, key: &LocalKey) -> Result<Option<DataObject>> {
        Ok(self.fetch(collection, std::slice::from_ref(key), None)?.matched.pop())
    }

    /// Batched lookup: an unfiltered [`fetch`](Connector::fetch).
    fn multi_get(&self, collection: &CollectionName, keys: &[LocalKey]) -> Result<Vec<DataObject>> {
        Ok(self.fetch(collection, keys, None)?.matched)
    }

    /// Filtered batched lookup: a [`fetch`](Connector::fetch) carrying
    /// `filter`.
    fn fetch_where(
        &self,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: &Pushdown,
    ) -> Result<FilteredFetch> {
        self.fetch(collection, keys, Some(filter))
    }
}

/// What a wrapper does differently from the store it wraps. Every hook
/// defaults to "nothing", so a layer states only its own behaviour and
/// [`Layered`] supplies the forwarding. A layer has no link of its own:
/// round trips and statistics stay the inner store's.
pub trait Layer: Send + Sync {
    /// Runs before a native query or update reaches `inner`; an error
    /// replaces the call.
    fn before_query(&self, inner: &dyn Connector, statement: &str) -> Result<()> {
        let _ = (inner, statement);
        Ok(())
    }

    /// Runs before a keyed fetch reaches `inner`; an error replaces the
    /// call. Filtered and unfiltered fetches of one key list look alike
    /// here on purpose.
    fn before_fetch(
        &self,
        inner: &dyn Connector,
        collection: &CollectionName,
        keys: &[LocalKey],
    ) -> Result<()> {
        let _ = (inner, collection, keys);
        Ok(())
    }

    /// Whether `inner`'s native predicate path stays reachable. When
    /// false the wrapper declines every filter and serves a filtered
    /// fetch as [`FilteredFetch::split`] over `inner`'s unfiltered one.
    fn native_pushdown(&self) -> bool {
        true
    }
}

/// A connector wrapped in a [`Layer`]: the one place forwarding is
/// written. `scan_collection` (offline ingest) and the metadata calls
/// pass through unhooked.
pub struct Layered<L> {
    inner: Arc<dyn Connector>,
    layer: L,
}

impl<L: Layer> Layered<L> {
    /// Wraps `inner` in `layer`.
    pub fn wrap(inner: Arc<dyn Connector>, layer: L) -> Self {
        Layered { inner, layer }
    }
}

impl<L: Layer> Connector for Layered<L> {
    fn link(&self) -> &Link {
        self.inner.link()
    }

    fn kind(&self) -> StoreKind {
        self.inner.kind()
    }

    fn collections(&self) -> Vec<CollectionName> {
        self.inner.collections()
    }

    fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    fn execute(&self, query: &str) -> Result<Vec<DataObject>> {
        self.layer.before_query(self.inner.as_ref(), query)?;
        self.inner.execute(query)
    }

    fn execute_update(&self, statement: &str) -> Result<usize> {
        self.layer.before_query(self.inner.as_ref(), statement)?;
        self.inner.execute_update(statement)
    }

    fn scan_collection(&self, collection: &CollectionName) -> Result<Vec<DataObject>> {
        self.inner.scan_collection(collection)
    }

    fn fetch(
        &self,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: Option<&Pushdown>,
    ) -> Result<FilteredFetch> {
        self.layer.before_fetch(self.inner.as_ref(), collection, keys)?;
        if self.layer.native_pushdown() {
            self.inner.fetch(collection, keys, filter)
        } else {
            let fetched = self.inner.fetch(collection, keys, None)?;
            Ok(FilteredFetch::split(fetched.matched, filter))
        }
    }

    fn supports_pushdown(&self, filter: &Pushdown) -> bool {
        self.layer.native_pushdown() && self.inner.supports_pushdown(filter)
    }

    fn commit_durable(&self) -> Result<bool> {
        self.inner.commit_durable()
    }
}

/// The layer that hides a store's native pushdown support.
pub struct NoPushdown;

impl Layer for NoPushdown {
    fn native_pushdown(&self) -> bool {
        false
    }
}

/// A store with its native pushdown hidden: the planner sees a connector
/// that declines every filter, and even a direct filtered fetch never
/// reaches the native path. The check harness toggles pushdown per store
/// with this (answers must be bit-identical either way); it is also handy
/// for A/B measurements.
pub type PushdownGate = Layered<NoPushdown>;

impl PushdownGate {
    /// Gates `inner`: same store, no native pushdown.
    pub fn new(inner: Arc<dyn Connector>) -> Self {
        Layered::wrap(inner, NoPushdown)
    }
}
