//! Connector for the property-graph store.

use parking_lot::RwLock;
use quepa_graphstore::{GraphDb, Node};
use quepa_pdm::{CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey, Pushdown};

use crate::connector::{Connector, FilteredFetch, StoreKind};
use crate::connectors::payload_bytes;
use crate::error::{PolyError, Result};
use crate::net::LatencyModel;
use crate::stats::{ConnectorStats, StatsSnapshot};

/// Wraps a [`GraphDb`] as a polystore connector.
///
/// Node labels play the role of collections (`similar.songs.s1`-style
/// global keys use the lowercased label as the collection segment), and a
/// node's id is its local key.
pub struct GraphConnector {
    name: DatabaseName,
    db: RwLock<GraphDb>,
    latency: LatencyModel,
    stats: ConnectorStats,
}

impl GraphConnector {
    /// Creates the connector.
    pub fn new(db: GraphDb, latency: LatencyModel) -> Self {
        let name = DatabaseName::new(db.name()).expect("valid database name");
        GraphConnector { name, db: RwLock::new(db), latency, stats: ConnectorStats::new() }
    }

    fn object_from_node(&self, node: &Node) -> Result<DataObject> {
        let collection = node.label.to_lowercase();
        let coll = CollectionName::new(&collection)
            .map_err(|e| PolyError::store(self.name.as_str(), e))?;
        self.object_from_node_in(&coll, node)
    }

    /// Builds an object from a node whose collection (lowercased label) is
    /// already interned — the per-object cost is just the local key.
    fn object_from_node_in(&self, collection: &CollectionName, node: &Node) -> Result<DataObject> {
        let local = LocalKey::new(&node.id).map_err(|e| PolyError::store(self.name.as_str(), e))?;
        let key = GlobalKey::new(self.name.clone(), collection.clone(), local);
        Ok(DataObject::new(key, node.to_value()))
    }

    fn charge(&self, is_query: bool, objects: &[DataObject]) -> std::time::Duration {
        let bytes = payload_bytes(objects);
        let cost = self.latency.cost(objects.len(), bytes);
        self.latency.pay(objects.len(), bytes);
        self.stats.record(is_query, objects.len(), bytes, cost);
        quepa_obs::record_link_event(self.name.as_str(), cost);
        cost
    }
}

impl Connector for GraphConnector {
    fn database(&self) -> &DatabaseName {
        &self.name
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Graph
    }

    fn collections(&self) -> Vec<CollectionName> {
        let db = self.db.read();
        let mut labels: Vec<String> = db.all_nodes().map(|n| n.label.to_lowercase()).collect();
        labels.sort();
        labels.dedup();
        labels.into_iter().map(|l| CollectionName::new(l).expect("valid label")).collect()
    }

    fn execute(&self, query: &str) -> Result<Vec<DataObject>> {
        let db = self.db.read();
        let nodes = db.query(query).map_err(|e| PolyError::store(self.name.as_str(), e))?;
        let objects: Result<Vec<DataObject>> =
            nodes.iter().map(|n| self.object_from_node(n)).collect();
        drop(db);
        let objects = objects?;
        self.charge(true, &objects);
        Ok(objects)
    }

    fn execute_update(&self, statement: &str) -> Result<usize> {
        // The Cypher subset is read-only; the one mutation the polystore
        // layer needs (exercising lazy deletion) is `DELETE NODE <id>`.
        let parts: Vec<&str> = statement.split_whitespace().collect();
        match parts.as_slice() {
            [del, node, id]
                if del.eq_ignore_ascii_case("DELETE") && node.eq_ignore_ascii_case("NODE") =>
            {
                let removed = self.db.write().remove_node(id);
                self.latency.pay(0, 0);
                self.stats.record(true, 0, 0, self.latency.cost(0, 0));
                Ok(usize::from(removed))
            }
            _ => Err(PolyError::WrongKind {
                database: self.name.to_string(),
                operation: "graph updates support only `DELETE NODE <id>`".into(),
            }),
        }
    }

    fn get(&self, collection: &CollectionName, key: &LocalKey) -> Result<Option<DataObject>> {
        let db = self.db.read();
        let object = match db.get(key.as_str()) {
            Some(node) if node.label.to_lowercase() == collection.as_str() => {
                Some(self.object_from_node_in(collection, node)?)
            }
            _ => None,
        };
        drop(db);
        match &object {
            Some(o) => self.charge(false, std::slice::from_ref(o)),
            None => self.charge(false, &[]),
        };
        Ok(object)
    }

    fn multi_get(&self, collection: &CollectionName, keys: &[LocalKey]) -> Result<Vec<DataObject>> {
        let db = self.db.read();
        let key_strs: Vec<&str> = keys.iter().map(LocalKey::as_str).collect();
        let objects: Result<Vec<DataObject>> = db
            .multi_get(&key_strs)
            .into_iter()
            .filter(|n| n.label.to_lowercase() == collection.as_str())
            .map(|n| self.object_from_node_in(collection, n))
            .collect();
        drop(db);
        let objects = objects?;
        self.charge(false, &objects);
        Ok(objects)
    }

    fn supports_pushdown(&self, _filter: &Pushdown) -> bool {
        true
    }

    fn fetch_where(
        &self,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: &Pushdown,
    ) -> Result<FilteredFetch> {
        let db = self.db.read();
        let key_strs: Vec<&str> = keys.iter().map(LocalKey::as_str).collect();
        // The traversal filter: label *and* predicate are applied at the
        // node before it leaves the store. A node under a different label
        // is invisible to this collection (same as `multi_get`), so it is
        // dropped from the rejected list too — to the caller it is simply
        // not here, not filtered-out.
        let (nodes, rejected) = db.multi_get_where(&key_strs, &|n: &Node| {
            n.label.to_lowercase() == collection.as_str() && filter.matches(&n.id, &n.to_value())
        });
        let mut out = FilteredFetch::default();
        for node in nodes {
            out.matched.push(self.object_from_node_in(collection, node)?);
        }
        for id in rejected {
            let visible =
                db.get(&id).is_some_and(|n| n.label.to_lowercase() == collection.as_str());
            if visible {
                out.rejected
                    .push(LocalKey::new(&id).map_err(|e| PolyError::store(self.name.as_str(), e))?);
            }
        }
        drop(db);
        let cost = self.charge(false, &out.matched);
        quepa_obs::record_pushdown_latency(self.name.as_str(), cost);
        Ok(out)
    }

    fn scan_collection(&self, collection: &CollectionName) -> Result<Vec<DataObject>> {
        let db = self.db.read();
        let objects: Result<Vec<DataObject>> = db
            .all_nodes()
            .filter(|n| n.label.to_lowercase() == collection.as_str())
            .map(|n| self.object_from_node(n))
            .collect();
        drop(db);
        let objects = objects?;
        self.charge(true, &objects);
        Ok(objects)
    }

    fn object_count(&self) -> usize {
        self.db.read().node_count()
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }

    fn record_resilience(&self, retries: u64, timeouts: u64, breaker_trips: u64) {
        self.stats.record_resilience(retries, timeouts, breaker_trips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_pdm::Value;

    fn connector() -> GraphConnector {
        let mut g = GraphDb::new("similar");
        g.add_node("s1", "Song", [("title", Value::str("Apart"))]).unwrap();
        g.add_node("s2", "Song", [("title", Value::str("Elise"))]).unwrap();
        g.add_node("a1", "Album", [("title", Value::str("Wish"))]).unwrap();
        g.add_edge("s1", "s2", "SIMILAR").unwrap();
        GraphConnector::new(g, LatencyModel::FREE)
    }

    #[test]
    fn execute_pattern_query() {
        let c = connector();
        let objs = c.execute("MATCH (n {id: 's1'})-[:SIMILAR]->(m) RETURN m").unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].key().to_string(), "similar.song.s2");
        assert_eq!(objs[0].value().get("_label").unwrap().as_str(), Some("Song"));
    }

    #[test]
    fn get_respects_label_as_collection() {
        let c = connector();
        let songs = CollectionName::new("song").unwrap();
        let albums = CollectionName::new("album").unwrap();
        assert!(c.get(&songs, &LocalKey::new("s1").unwrap()).unwrap().is_some());
        assert!(c.get(&albums, &LocalKey::new("s1").unwrap()).unwrap().is_none());
        assert!(c.get(&albums, &LocalKey::new("a1").unwrap()).unwrap().is_some());
    }

    #[test]
    fn multi_get_filters_by_collection() {
        let c = connector();
        let songs = CollectionName::new("song").unwrap();
        let got = c
            .multi_get(
                &songs,
                &[
                    LocalKey::new("s1").unwrap(),
                    LocalKey::new("a1").unwrap(),
                    LocalKey::new("zz").unwrap(),
                ],
            )
            .unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn collections_are_lowercased_labels() {
        let c = connector();
        let names: Vec<String> = c.collections().iter().map(|c| c.to_string()).collect();
        assert_eq!(names, vec!["album", "song"]);
    }

    #[test]
    fn updates_rejected_except_delete_node() {
        let c = connector();
        assert!(matches!(c.execute_update("whatever"), Err(PolyError::WrongKind { .. })));
        assert_eq!(c.execute_update("DELETE NODE s2").unwrap(), 1);
        assert_eq!(c.execute_update("DELETE NODE s2").unwrap(), 0);
        let songs = CollectionName::new("song").unwrap();
        assert!(c.get(&songs, &LocalKey::new("s2").unwrap()).unwrap().is_none());
        assert_eq!(c.object_count(), 2);
    }
}
