//! Connector for the property-graph store.

use parking_lot::RwLock;
use quepa_graphstore::{GraphDb, Node};
use quepa_pdm::{CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey, Pushdown};

use crate::connector::{Connector, FilteredFetch, Link, StoreKind};
use crate::error::{PolyError, Result};
use crate::net::LatencyModel;

/// Wraps a [`GraphDb`] as a polystore connector.
///
/// Node labels play the role of collections (`similar.songs.s1`-style
/// global keys use the lowercased label as the collection segment), and a
/// node's id is its local key.
pub struct GraphConnector {
    link: Link,
    db: RwLock<GraphDb>,
}

impl GraphConnector {
    /// Creates the connector.
    pub fn new(db: GraphDb, latency: LatencyModel) -> Self {
        let name = DatabaseName::new(db.name()).expect("valid database name");
        GraphConnector { link: Link::new(name, latency), db: RwLock::new(db) }
    }

    fn object_from_node(&self, node: &Node) -> Result<DataObject> {
        let collection = node.label.to_lowercase();
        let coll = CollectionName::new(&collection).map_err(|e| self.link.store_error(e))?;
        let local = LocalKey::new(&node.id).map_err(|e| self.link.store_error(e))?;
        Ok(self.object_keyed(&coll, local, node))
    }

    /// Builds an object from a node found by its id `local`: the id map
    /// matched that exact string, so the caller's key is the node's own.
    fn object_keyed(
        &self,
        collection: &CollectionName,
        local: LocalKey,
        node: &Node,
    ) -> DataObject {
        let key = GlobalKey::new(self.database().clone(), collection.clone(), local);
        DataObject::new(key, node.to_value())
    }
}

/// `label.to_lowercase() == lower`, without allocating for an ASCII
/// label: its lowercase is its bytes lowercased one by one. Other labels
/// take `to_lowercase` itself (context rules such as the final sigma).
fn lowercases_to(label: &str, lower: &str) -> bool {
    if label.is_ascii() {
        label.len() == lower.len()
            && label.bytes().zip(lower.bytes()).all(|(a, b)| a.to_ascii_lowercase() == b)
    } else {
        label.to_lowercase() == lower
    }
}

impl Connector for GraphConnector {
    fn link(&self) -> &Link {
        &self.link
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
        let nodes = db.query(query).map_err(|e| self.link.store_error(e))?;
        let objects: Result<Vec<DataObject>> =
            nodes.iter().map(|n| self.object_from_node(n)).collect();
        drop(db);
        let objects = objects?;
        self.link.charge(true, &objects);
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
                self.link.charge(true, &[]);
                Ok(usize::from(removed))
            }
            _ => Err(PolyError::WrongKind {
                database: self.database().to_string(),
                operation: "graph updates support only `DELETE NODE <id>`".into(),
            }),
        }
    }

    fn supports_pushdown(&self, _filter: &Pushdown) -> bool {
        true
    }

    fn fetch(
        &self,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: Option<&Pushdown>,
    ) -> Result<FilteredFetch> {
        let db = self.db.read();
        let visible = |n: &Node| lowercases_to(&n.label, collection.as_str());
        // The traversal filter: label *and* predicate are applied at the
        // node before it leaves the store.
        let (nodes, rejected) = match filter {
            None => (db.multi_get(keys).into_iter().filter(|(_, n)| visible(n)).collect(), vec![]),
            Some(filter) => db.multi_get_where(keys, &|n: &Node| {
                visible(n) && filter.matches(&n.id, &n.to_value())
            }),
        };
        let mut out = FilteredFetch::default();
        for (id, node) in nodes {
            out.matched.push(self.object_keyed(collection, id.clone(), node));
        }
        // A node under a different label is invisible to this collection,
        // so it is dropped from the rejected list too — to the caller it
        // is simply not here, not filtered-out.
        for id in rejected {
            if db.get(id.as_str()).is_some_and(visible) {
                out.rejected.push(id.clone());
            }
        }
        drop(db);
        self.link.charge_fetch(&out.matched, filter.is_some());
        Ok(out)
    }

    fn scan_collection(&self, collection: &CollectionName) -> Result<Vec<DataObject>> {
        let db = self.db.read();
        let objects: Result<Vec<DataObject>> = db
            .all_nodes()
            .filter(|n| lowercases_to(&n.label, collection.as_str()))
            .map(|n| self.object_from_node(n))
            .collect();
        drop(db);
        let objects = objects?;
        self.link.charge(true, &objects);
        Ok(objects)
    }

    fn object_count(&self) -> usize {
        self.db.read().node_count()
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
    fn label_comparison_agrees_with_to_lowercase() {
        let labels =
            ["Song", "song", "SONG", "Album", "ΑΣ", "Σ", "ΟΔΟΣ Α", "İstanbul", "Straße", ""];
        for label in labels {
            for other in labels {
                let want = label.to_lowercase() == other.to_lowercase();
                assert_eq!(lowercases_to(label, &other.to_lowercase()), want, "{label} vs {other}");
            }
            assert!(lowercases_to(label, &label.to_lowercase()), "{label}");
            assert!(!lowercases_to(label, "x"), "{label}");
        }
        // An ASCII label never lowercases to a non-ASCII name.
        assert!(!lowercases_to("K", "\u{212a}"));
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
