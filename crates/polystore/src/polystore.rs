//! The polystore registry: routes queries and lookups by database name.

use std::collections::BTreeMap;
use std::sync::Arc;

use quepa_pdm::{CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey, Pushdown};

use crate::connector::{Connector, FilteredFetch, StoreKind};
use crate::error::{PolyError, Result};
use crate::fault::call_identity;
use crate::retry::{run_round_trip, CircuitBreaker, RetryPolicy};
use crate::stats::StatsSnapshot;

/// A polystore: a named set of databases, each behind a [`Connector`].
///
/// `Polystore` is cheaply cloneable (connectors are shared `Arc`s) and
/// `Send + Sync`, so the concurrent augmenters can fan lookups out across
/// threads while sharing one registry.
#[derive(Clone, Default)]
pub struct Polystore {
    connectors: BTreeMap<DatabaseName, Arc<dyn Connector>>,
}

impl Polystore {
    /// Creates an empty polystore.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a connector. Replaces any previous connector with the same
    /// database name.
    pub fn register(&mut self, connector: Arc<dyn Connector>) {
        self.connectors.insert(connector.database().clone(), connector);
    }

    /// Number of registered databases.
    pub fn len(&self) -> usize {
        self.connectors.len()
    }

    /// True when no database is registered.
    pub fn is_empty(&self) -> bool {
        self.connectors.is_empty()
    }

    /// The registered database names, sorted.
    pub fn database_names(&self) -> Vec<&DatabaseName> {
        self.connectors.keys().collect()
    }

    /// Borrows a connector by database name.
    pub fn connector(&self, database: &DatabaseName) -> Result<&Arc<dyn Connector>> {
        self.connectors
            .get(database)
            .ok_or_else(|| PolyError::UnknownDatabase(database.to_string()))
    }

    /// Convenience: connector lookup by raw name.
    pub fn connector_by_name(&self, database: &str) -> Result<&Arc<dyn Connector>> {
        self.connectors.get(database).ok_or_else(|| PolyError::UnknownDatabase(database.to_owned()))
    }

    /// Runs a native-language query against one database.
    pub fn execute(&self, database: &str, query: &str) -> Result<Vec<DataObject>> {
        self.connector_by_name(database)?.execute(query)
    }

    /// Runs a native-language update against one database.
    pub fn execute_update(&self, database: &str, statement: &str) -> Result<usize> {
        self.connector_by_name(database)?.execute_update(statement)
    }

    /// Point lookup by global key. `Ok(None)` = the object is gone (the A'
    /// index's lazy-deletion signal).
    pub fn get(&self, key: &GlobalKey) -> Result<Option<DataObject>> {
        self.connector(key.database())?.get(key.collection(), key.key())
    }

    /// Batched lookup: all `keys` must belong to `database.collection`; one
    /// round trip.
    pub fn multi_get(
        &self,
        database: &DatabaseName,
        collection: &CollectionName,
        keys: &[LocalKey],
    ) -> Result<Vec<DataObject>> {
        self.connector(database)?.multi_get(collection, keys)
    }

    /// One key-based round trip under a retry policy and an optional
    /// circuit breaker — the body behind every `*_resilient` lookup.
    ///
    /// A trivial policy without a breaker is exactly one `call`: the
    /// happy path pays nothing for the resilience layer. Otherwise the
    /// call is driven through [`run_round_trip`]: transient errors are
    /// retried with deterministic backoff, exhausted retries collapse
    /// into [`PolyError::Unreachable`], and retry/timeout/breaker events
    /// are attributed to the connector's statistics. The salt is the
    /// identity of `collection` plus `keys`, whatever the call does with
    /// them — so seeded fault plans and jitter cannot tell a `multi_get`
    /// from a `fetch_where` of the same key list.
    fn resilient<'k, T>(
        &self,
        database: &DatabaseName,
        collection: &CollectionName,
        keys: impl IntoIterator<Item = &'k LocalKey>,
        policy: &RetryPolicy,
        breaker: Option<&CircuitBreaker>,
        call: impl Fn(&dyn Connector) -> Result<T>,
    ) -> Result<T> {
        let connector = self.connector(database)?.as_ref();
        if policy.is_trivial() && breaker.is_none() {
            return call(connector);
        }
        let salt = call_identity(collection, keys);
        let (result, report) = run_round_trip(policy, breaker, database, salt, || call(connector));
        if report.retries + report.timeouts + report.breaker_trips > 0 {
            connector.record_resilience(report.retries, report.timeouts, report.breaker_trips);
        }
        result
    }

    /// [`get`](Polystore::get) under a retry policy and an optional
    /// circuit breaker.
    pub fn get_resilient(
        &self,
        key: &GlobalKey,
        policy: &RetryPolicy,
        breaker: Option<&CircuitBreaker>,
    ) -> Result<Option<DataObject>> {
        let (collection, local) = (key.collection(), key.key());
        self.resilient(key.database(), collection, [local], policy, breaker, |c| {
            c.get(collection, local)
        })
    }

    /// [`multi_get`](Polystore::multi_get) under a retry policy and an
    /// optional circuit breaker; the whole batch is one round trip and
    /// retries as a unit.
    pub fn multi_get_resilient(
        &self,
        database: &DatabaseName,
        collection: &CollectionName,
        keys: &[LocalKey],
        policy: &RetryPolicy,
        breaker: Option<&CircuitBreaker>,
    ) -> Result<Vec<DataObject>> {
        self.resilient(database, collection, keys, policy, breaker, |c| {
            c.multi_get(collection, keys)
        })
    }

    /// Filtered batched lookup (see [`Connector::fetch_where`]): one round
    /// trip, the predicate applied inside the store.
    pub fn fetch_where(
        &self,
        database: &DatabaseName,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: &Pushdown,
    ) -> Result<FilteredFetch> {
        self.connector(database)?.fetch_where(collection, keys, filter)
    }

    /// [`fetch_where`](Polystore::fetch_where) under a retry policy and
    /// an optional circuit breaker.
    pub fn fetch_where_resilient(
        &self,
        database: &DatabaseName,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: &Pushdown,
        policy: &RetryPolicy,
        breaker: Option<&CircuitBreaker>,
    ) -> Result<FilteredFetch> {
        self.resilient(database, collection, keys, policy, breaker, |c| {
            c.fetch_where(collection, keys, filter)
        })
    }

    /// Rebuilds the registry with every connector passed through `wrap` —
    /// the chaos harness's entry point for fault injection
    /// (e.g. wrapping each store in a
    /// [`FaultyConnector`](crate::fault::FaultyConnector)).
    #[must_use]
    pub fn wrap_connectors(
        &self,
        mut wrap: impl FnMut(Arc<dyn Connector>) -> Arc<dyn Connector>,
    ) -> Polystore {
        let mut wrapped = Polystore::new();
        for connector in self.connectors.values() {
            wrapped.register(wrap(Arc::clone(connector)));
        }
        wrapped
    }

    /// Sum of the per-connector statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.connectors
            .values()
            .map(|c| c.stats())
            .fold(StatsSnapshot::default(), StatsSnapshot::merge)
    }

    /// Per-database statistics.
    pub fn stats_by_database(&self) -> Vec<(DatabaseName, StatsSnapshot)> {
        self.connectors.iter().map(|(n, c)| (n.clone(), c.stats())).collect()
    }

    /// Resets every connector's statistics.
    pub fn reset_stats(&self) {
        for c in self.connectors.values() {
            c.reset_stats();
        }
    }

    /// Asks every store to make its pending writes durable (see
    /// [`Connector::commit_durable`]); returns how many stores actually
    /// persisted something. The durability layer calls this before
    /// acknowledging a WAL commit, so QUEPA's durable state never runs
    /// ahead of the stores it indexes.
    pub fn commit_durable_all(&self) -> Result<usize> {
        let mut persisted = 0;
        for c in self.connectors.values() {
            if c.commit_durable()? {
                persisted += 1;
            }
        }
        Ok(persisted)
    }

    /// Total objects across all stores (experiment reporting).
    pub fn total_objects(&self) -> usize {
        self.connectors.values().map(|c| c.object_count()).sum()
    }

    /// Count of stores per paradigm (the adaptive optimizer's features).
    pub fn kind_histogram(&self) -> BTreeMap<StoreKind, usize> {
        let mut h = BTreeMap::new();
        for c in self.connectors.values() {
            *h.entry(c.kind()).or_insert(0) += 1;
        }
        h
    }
}

impl std::fmt::Debug for Polystore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Polystore")
            .field("databases", &self.database_names())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectors::{DocumentConnector, KvConnector, RelationalConnector};
    use crate::net::LatencyModel;
    use quepa_docstore::DocumentDb;
    use quepa_kvstore::KvStore;
    use quepa_pdm::text;
    use quepa_relstore::engine::Database;

    fn sample() -> Polystore {
        let mut p = Polystore::new();

        let mut rel = Database::new("transactions");
        rel.create_table("inventory", "id", &["id", "artist", "name"]).unwrap();
        rel.execute("INSERT INTO inventory VALUES ('a32', 'Cure', 'Wish')").unwrap();
        p.register(Arc::new(RelationalConnector::new(rel, LatencyModel::FREE)));

        let mut doc = DocumentDb::new("catalogue");
        doc.insert("albums", text::parse(r#"{"_id":"d1","title":"Wish"}"#).unwrap()).unwrap();
        p.register(Arc::new(DocumentConnector::new(doc, LatencyModel::FREE)));

        let mut kv = KvStore::new("discount");
        kv.set("k1:cure:wish", "40%");
        p.register(Arc::new(KvConnector::new(kv, "drop", LatencyModel::FREE)));

        p
    }

    #[test]
    fn routing() {
        let p = sample();
        assert_eq!(p.len(), 3);
        let objs = p.execute("transactions", "SELECT * FROM inventory").unwrap();
        assert_eq!(objs.len(), 1);
        let objs = p.execute("catalogue", "db.albums.find()").unwrap();
        assert_eq!(objs.len(), 1);
        let objs = p.execute("discount", "GET k1:cure:wish").unwrap();
        assert_eq!(objs.len(), 1);
        assert!(matches!(p.execute("ghost", "whatever"), Err(PolyError::UnknownDatabase(_))));
    }

    #[test]
    fn global_key_lookup() {
        let p = sample();
        let key: GlobalKey = "discount.drop.k1:cure:wish".parse().unwrap();
        let obj = p.get(&key).unwrap().unwrap();
        assert_eq!(obj.value().as_str(), Some("40%"));
        let missing: GlobalKey = "discount.drop.zzz".parse().unwrap();
        assert!(p.get(&missing).unwrap().is_none());
    }

    #[test]
    fn aggregate_stats_and_reset() {
        let p = sample();
        p.execute("transactions", "SELECT * FROM inventory").unwrap();
        p.execute("catalogue", "db.albums.find()").unwrap();
        let s = p.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.objects_returned, 2);
        p.reset_stats();
        assert_eq!(p.stats().queries, 0);
    }

    #[test]
    fn totals_and_histogram() {
        let p = sample();
        assert_eq!(p.total_objects(), 3);
        let h = p.kind_histogram();
        assert_eq!(h[&StoreKind::Relational], 1);
        assert_eq!(h[&StoreKind::Document], 1);
        assert_eq!(h[&StoreKind::KeyValue], 1);
    }

    /// The native pushdown paths of all four connectors must agree
    /// bit-for-bit with the reference: `multi_get` plus the canonical
    /// client-side evaluator — same matched objects (same order), same
    /// rejected keys, same implied-missing keys.
    #[test]
    fn fetch_where_agrees_with_client_side_filtering() {
        use crate::connectors::GraphConnector;
        use quepa_graphstore::GraphDb;
        use quepa_pdm::{PushOp, Pushdown, Value};

        let mut p = sample();
        let mut g = GraphDb::new("similar");
        g.add_node("s1", "Song", [("title", Value::str("Apart")), ("seq", Value::Int(1))]).unwrap();
        g.add_node("s2", "Song", [("title", Value::str("Elise")), ("seq", Value::Int(2))]).unwrap();
        g.add_node("a1", "Album", [("title", Value::str("Wish"))]).unwrap();
        p.register(Arc::new(GraphConnector::new(g, LatencyModel::FREE)));

        let mut seq_and_key = Pushdown::path("seq", PushOp::Lte, 1);
        seq_and_key.clauses.extend(Pushdown::key(PushOp::Prefix, "s").clauses);
        let cases: Vec<(&str, &str, Vec<&str>, Pushdown)> = vec![
            (
                "transactions",
                "inventory",
                vec!["a32", "zz"],
                Pushdown::path("artist", PushOp::Eq, "Cure"),
            ),
            (
                "transactions",
                "inventory",
                vec!["a32"],
                Pushdown::path("artist", PushOp::Eq, "Nobody"),
            ),
            (
                "catalogue",
                "albums",
                vec!["d1", "ghost"],
                Pushdown::path("title", PushOp::Contains, "WISH"),
            ),
            ("catalogue", "albums", vec!["d1"], Pushdown::key(PushOp::Prefix, "x")),
            ("discount", "drop", vec!["k1:cure:wish", "nope"], Pushdown::value(PushOp::Eq, "40%")),
            ("discount", "drop", vec!["k1:cure:wish"], Pushdown::value(PushOp::Eq, "99%")),
            ("similar", "song", vec!["s1", "s2", "a1", "zz"], seq_and_key),
            ("similar", "song", vec!["s1", "s2"], Pushdown::default()),
        ];
        for (db, coll, keys, filter) in cases {
            let database = DatabaseName::new(db).unwrap();
            let collection = CollectionName::new(coll).unwrap();
            let keys: Vec<LocalKey> = keys.iter().map(|k| LocalKey::new(k).unwrap()).collect();
            let connector = p.connector(&database).unwrap();
            assert!(connector.supports_pushdown(&filter), "{db} declines {filter}");
            let got = p.fetch_where(&database, &collection, &keys, &filter).unwrap();
            let fetched = p.multi_get(&database, &collection, &keys).unwrap();
            let mut want_matched = Vec::new();
            let mut want_rejected = Vec::new();
            for o in fetched {
                if filter.matches(o.key().key().as_str(), o.value()) {
                    want_matched.push(o);
                } else {
                    want_rejected.push(o.key().key().clone());
                }
            }
            let got_keys: Vec<String> = got.matched.iter().map(|o| o.key().to_string()).collect();
            let want_keys: Vec<String> = want_matched.iter().map(|o| o.key().to_string()).collect();
            assert_eq!(got_keys, want_keys, "{db} {filter}");
            for (g, w) in got.matched.iter().zip(&want_matched) {
                assert_eq!(g.value(), w.value(), "{db} {filter}");
            }
            assert_eq!(got.rejected, want_rejected, "{db} {filter}");
        }
    }

    #[test]
    fn cross_database_update() {
        let p = sample();
        assert_eq!(p.execute_update("discount", "DEL k1:cure:wish").unwrap(), 1);
        let key: GlobalKey = "discount.drop.k1:cure:wish".parse().unwrap();
        assert!(p.get(&key).unwrap().is_none());
    }
}
