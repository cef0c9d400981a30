//! Connector for the key-value store.

use parking_lot::RwLock;
use quepa_kvstore::{KvStore, Reply};
use quepa_pdm::{
    CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey, PushField, PushOp, Pushdown,
    Value,
};

use crate::connector::{Connector, FilteredFetch, Link, StoreKind};
use crate::error::{PolyError, Result};
use crate::net::LatencyModel;

/// Wraps a [`KvStore`] as a polystore connector.
///
/// A key-value store has no native notion of collections, so the whole
/// keyspace is exposed as one collection whose name is fixed at
/// construction (the paper's `discount` database exposes `drop`, as in the
/// global key `discount.drop.k1:cure:wish`). Entry values become string
/// data objects.
pub struct KvConnector {
    link: Link,
    collection: CollectionName,
    store: RwLock<KvStore>,
}

impl KvConnector {
    /// Creates the connector, exposing the keyspace as `collection`.
    pub fn new(store: KvStore, collection: &str, latency: LatencyModel) -> Self {
        let name = DatabaseName::new(store.name()).expect("valid database name");
        KvConnector {
            link: Link::new(name, latency),
            collection: CollectionName::new(collection).expect("valid collection name"),
            store: RwLock::new(store),
        }
    }

    fn object_from_pair(&self, key: &str, value: String) -> Result<DataObject> {
        // Database and collection names are interned at construction; only
        // the local key allocates.
        let local = LocalKey::new(key).map_err(|e| self.link.store_error(e))?;
        let gk = GlobalKey::new(self.database().clone(), self.collection.clone(), local);
        Ok(DataObject::new(gk, Value::Str(value)))
    }
}

impl Connector for KvConnector {
    fn link(&self) -> &Link {
        &self.link
    }

    fn kind(&self) -> StoreKind {
        StoreKind::KeyValue
    }

    fn collections(&self) -> Vec<CollectionName> {
        vec![self.collection.clone()]
    }

    fn execute(&self, query: &str) -> Result<Vec<DataObject>> {
        let reply = self.store.write().execute(query).map_err(|e| self.link.store_error(e))?;
        let objects = match reply {
            Reply::Ok => Vec::new(),
            Reply::Int(n) => {
                // Numeric replies (EXISTS/DBSIZE/DEL) surface as a synthetic
                // scalar object so they still flow through uniformly.
                let gk = GlobalKey::parse_parts(
                    self.database().as_str(),
                    self.collection.as_str(),
                    "_int",
                )
                .map_err(|e| self.link.store_error(e))?;
                vec![DataObject::new(gk, Value::Int(n))]
            }
            Reply::Value(v) => match v {
                None => Vec::new(),
                Some(v) => {
                    // GET's reply does not echo the key; re-derive it from
                    // the command so the object is addressable.
                    let key = query
                        .split_whitespace()
                        .nth(1)
                        .ok_or_else(|| self.link.store_error("GET without key"))?;
                    vec![self.object_from_pair(key, v)?]
                }
            },
            Reply::Pairs(pairs) => pairs
                .into_iter()
                .map(|(k, v)| self.object_from_pair(&k, v))
                .collect::<Result<_>>()?,
        };
        self.link.charge(true, &objects);
        Ok(objects)
    }

    fn execute_update(&self, statement: &str) -> Result<usize> {
        let reply = self.store.write().execute(statement).map_err(|e| self.link.store_error(e))?;
        self.link.charge(true, &[]);
        Ok(match reply {
            Reply::Int(n) => n.max(0) as usize,
            Reply::Ok => 1,
            _ => 0,
        })
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
        self.check_collection(collection)?;
        let key_strs: Vec<&str> = keys.iter().map(LocalKey::as_str).collect();
        let store = self.store.read();
        let (pairs, rejected) = match filter {
            None => (store.multi_get(&key_strs), Vec::new()),
            Some(filter) => {
                // An exact root-value equality is served straight from the
                // store's secondary value index; anything else evaluates
                // the canonical predicate per entry — in both cases inside
                // the store, so only matches are charged to the wire.
                let value_eq = match filter.clauses.as_slice() {
                    [c] if c.field == PushField::Value && c.op == PushOp::Eq => c.literal.as_str(),
                    _ => None,
                };
                store.multi_get_where(&key_strs, value_eq, &|k, v| {
                    // Borrow-free shim: evaluate the shared predicate over
                    // the entry rendered exactly as `object_from_pair` would.
                    filter.matches(k, &Value::str(v))
                })
            }
        };
        drop(store);
        let mut out = FilteredFetch::default();
        for id in rejected {
            out.rejected.push(LocalKey::new(&id).map_err(|e| self.link.store_error(e))?);
        }
        for (k, v) in pairs {
            out.matched.push(self.object_from_pair(&k, v)?);
        }
        self.link.charge_fetch(&out.matched, filter.is_some());
        Ok(out)
    }

    fn scan_collection(&self, collection: &CollectionName) -> Result<Vec<DataObject>> {
        self.check_collection(collection)?;
        self.execute("SCAN \"\"")
    }

    fn object_count(&self) -> usize {
        self.store.read().len()
    }
}

impl KvConnector {
    fn check_collection(&self, collection: &CollectionName) -> Result<()> {
        if collection == &self.collection {
            Ok(())
        } else {
            Err(PolyError::UnknownCollection {
                database: self.database().to_string(),
                collection: collection.to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connector() -> KvConnector {
        let mut kv = KvStore::new("discount");
        kv.set("k1:cure:wish", "40%");
        kv.set("k2:cure:faith", "10%");
        KvConnector::new(kv, "drop", LatencyModel::FREE)
    }

    #[test]
    fn execute_get() {
        let c = connector();
        let objs = c.execute("GET k1:cure:wish").unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].key().to_string(), "discount.drop.k1:cure:wish");
        assert_eq!(objs[0].value().as_str(), Some("40%"));
        assert!(c.execute("GET missing").unwrap().is_empty());
    }

    #[test]
    fn execute_scan_and_mget() {
        let c = connector();
        assert_eq!(c.execute("SCAN k").unwrap().len(), 2);
        assert_eq!(c.execute("MGET k1:cure:wish k2:cure:faith nope").unwrap().len(), 2);
    }

    #[test]
    fn execute_int_reply() {
        let c = connector();
        let objs = c.execute("DBSIZE").unwrap();
        assert_eq!(objs[0].value().as_int(), Some(2));
    }

    #[test]
    fn update_and_lazy_missing() {
        let c = connector();
        assert_eq!(c.execute_update("DEL k1:cure:wish").unwrap(), 1);
        let coll = CollectionName::new("drop").unwrap();
        assert!(c.get(&coll, &LocalKey::new("k1:cure:wish").unwrap()).unwrap().is_none());
    }

    #[test]
    fn get_checks_collection() {
        let c = connector();
        let bad = CollectionName::new("other").unwrap();
        assert!(matches!(
            c.get(&bad, &LocalKey::new("k").unwrap()),
            Err(PolyError::UnknownCollection { .. })
        ));
    }

    #[test]
    fn dotted_keys_roundtrip_through_global_keys() {
        let c = connector();
        let coll = CollectionName::new("drop").unwrap();
        let obj = c.get(&coll, &LocalKey::new("k2:cure:faith").unwrap()).unwrap().unwrap();
        let reparsed: GlobalKey = obj.key().to_string().parse().unwrap();
        assert_eq!(&reparsed, obj.key());
    }

    #[test]
    fn metadata() {
        let c = connector();
        assert_eq!(c.kind(), StoreKind::KeyValue);
        assert_eq!(c.object_count(), 2);
        assert_eq!(c.collections().len(), 1);
    }
}
