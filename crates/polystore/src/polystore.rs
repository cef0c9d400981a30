//! The polystore registry: routes queries and lookups by database name.

use std::collections::BTreeMap;
use std::sync::Arc;

use quepa_pdm::{CollectionName, DataObject, DatabaseName, LocalKey, Pushdown};

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

    /// One keyed round trip (see [`Connector::fetch`]): all `keys` belong
    /// to `database.collection`, `filter` rides into the store when given,
    /// and the call runs under a retry policy and an optional circuit
    /// breaker.
    ///
    /// A trivial policy without a breaker is exactly one connector call:
    /// the happy path pays nothing for the resilience layer. Otherwise the
    /// call is driven through [`run_round_trip`]: transient errors are
    /// retried with deterministic backoff, exhausted retries collapse
    /// into [`PolyError::Unreachable`], and retry/timeout/breaker events
    /// are attributed to the connector's statistics. The salt is the
    /// identity of `collection` plus `keys`, whatever the filter — so
    /// seeded fault plans and jitter cannot tell a filtered fetch from an
    /// unfiltered one of the same key list.
    pub fn fetch(
        &self,
        database: &DatabaseName,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: Option<&Pushdown>,
        policy: &RetryPolicy,
        breaker: Option<&CircuitBreaker>,
    ) -> Result<FilteredFetch> {
        let connector = self.connector(database)?;
        if policy.is_trivial() && breaker.is_none() {
            return connector.fetch(collection, keys, filter);
        }
        let salt = call_identity(collection, keys);
        let (result, report) = run_round_trip(policy, breaker, database, salt, || {
            connector.fetch(collection, keys, filter)
        });
        if report.retries + report.timeouts + report.breaker_trips > 0 {
            connector.record_resilience(report.retries, report.timeouts, report.breaker_trips);
        }
        result
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
    use quepa_pdm::{text, GlobalKey};
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

    /// Point lookup by global key through the one keyed path.
    fn get(p: &Polystore, key: &str) -> Option<DataObject> {
        let key: GlobalKey = key.parse().unwrap();
        let keys = std::slice::from_ref(key.key());
        p.fetch(key.database(), key.collection(), keys, None, &RetryPolicy::default(), None)
            .unwrap()
            .matched
            .pop()
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
        let obj = get(&p, "discount.drop.k1:cure:wish").unwrap();
        assert_eq!(obj.value().as_str(), Some("40%"));
        assert!(get(&p, "discount.drop.zzz").is_none());
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

    /// The keyed contract, for all four stores behind every wrapper
    /// stack: a native filtered fetch must agree bit-for-bit with the
    /// reference — an unfiltered fetch plus the canonical client-side
    /// evaluator (same matched objects in the same order, same rejected
    /// keys, same implied-missing keys) — `get` / `multi_get` /
    /// `fetch_where` are shapes of the one `fetch`, and a layer has no
    /// statistics of its own: every call is exactly one round trip on the
    /// inner store's link.
    #[test]
    fn fetch_where_agrees_with_client_side_filtering() {
        use crate::connector::PushdownGate;
        use crate::connectors::GraphConnector;
        use crate::fault::{FaultPlan, FaultyConnector};
        use quepa_graphstore::GraphDb;
        use quepa_pdm::{PushOp, Pushdown, Value};

        let mut bare = sample();
        let mut g = GraphDb::new("similar");
        g.add_node("s1", "Song", [("title", Value::str("Apart")), ("seq", Value::Int(1))]).unwrap();
        g.add_node("s2", "Song", [("title", Value::str("Elise")), ("seq", Value::Int(2))]).unwrap();
        g.add_node("a1", "Album", [("title", Value::str("Wish"))]).unwrap();
        bare.register(Arc::new(GraphConnector::new(g, LatencyModel::FREE)));

        let gate = |c| Arc::new(PushdownGate::new(c)) as Arc<dyn Connector>;
        let plan = Arc::new(FaultPlan::new(1));
        let fault = |c| Arc::new(FaultyConnector::new(c, Arc::clone(&plan))) as Arc<dyn Connector>;
        let registries = [
            ("bare", bare.clone(), true),
            ("gate", bare.wrap_connectors(gate), false),
            ("fault", bare.wrap_connectors(fault), true),
            ("gate-in-fault", bare.wrap_connectors(|c| fault(gate(c))), false),
        ];

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
        for (db, coll, keys, filter) in &cases {
            let database = DatabaseName::new(db).unwrap();
            let collection = CollectionName::new(coll).unwrap();
            let keys: Vec<LocalKey> = keys.iter().map(|k| LocalKey::new(k).unwrap()).collect();
            let inner = bare.connector(&database).unwrap();
            for (stack, registry, native) in &registries {
                let at = format!("{stack} {db} {filter}");
                let connector = registry.connector(&database).unwrap();
                assert_eq!(connector.supports_pushdown(filter), *native, "{at}");
                // Each call below must cost the inner link one round trip.
                let mut trips = inner.stats().round_trips;
                let mut one_trip = |what: &str| {
                    trips += 1;
                    assert_eq!(inner.stats().round_trips, trips, "{at}: {what}");
                };

                let fetched = connector.multi_get(&collection, &keys).unwrap();
                one_trip("multi_get");
                let plain = connector.fetch(&collection, &keys, None).unwrap();
                one_trip("fetch");
                assert_eq!(plain.matched, fetched, "{at}");
                assert!(plain.rejected.is_empty(), "{at}");
                for key in &keys {
                    let got = connector.get(&collection, key).unwrap();
                    one_trip("get");
                    let batch = connector.multi_get(&collection, std::slice::from_ref(key));
                    one_trip("multi_get of one");
                    assert_eq!(got, batch.unwrap().pop(), "{at}: {key}");
                }

                let no_retry = RetryPolicy::default();
                let got = registry
                    .fetch(&database, &collection, &keys, Some(filter), &no_retry, None)
                    .unwrap();
                one_trip("Polystore::fetch");
                let direct = connector.fetch_where(&collection, &keys, filter).unwrap();
                one_trip("fetch_where");
                let want = FilteredFetch::split(fetched, Some(filter));
                for have in [&got, &direct] {
                    assert_eq!(have.matched, want.matched, "{at}");
                    assert_eq!(have.rejected, want.rejected, "{at}");
                }
            }
        }
    }

    #[test]
    fn cross_database_update() {
        let p = sample();
        assert_eq!(p.execute_update("discount", "DEL k1:cure:wish").unwrap(), 1);
        assert!(get(&p, "discount.drop.k1:cure:wish").is_none());
    }
}
