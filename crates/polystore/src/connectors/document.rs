//! Connector for the document store.

use parking_lot::RwLock;
use quepa_docstore::{DocQuery, DocumentDb, FieldOp, Filter, QueryVerb};
use quepa_pdm::{
    CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey, PushField, PushOp, Pushdown,
    Value,
};

use crate::connector::{Connector, FilteredFetch, Link, StoreKind};
use crate::error::{PolyError, Result};
use crate::net::LatencyModel;

/// Wraps a [`DocumentDb`] as a polystore connector. Documents become data
/// objects keyed by their `_id`.
pub struct DocumentConnector {
    link: Link,
    db: RwLock<DocumentDb>,
}

impl DocumentConnector {
    /// Creates the connector.
    pub fn new(db: DocumentDb, latency: LatencyModel) -> Self {
        let name = DatabaseName::new(db.name()).expect("valid database name");
        DocumentConnector { link: Link::new(name, latency), db: RwLock::new(db) }
    }

    /// Builds an object from a document. `collection` is the
    /// already-interned collection name, so the per-object cost is just
    /// the local key.
    fn object_from_doc(&self, collection: &CollectionName, doc: Value) -> Result<DataObject> {
        let id = match doc.get("_id") {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Int(i)) => i.to_string(),
            _ => return Err(self.link.store_error("document lacks a usable _id")),
        };
        let local = LocalKey::new(&id).map_err(|e| self.link.store_error(e))?;
        Ok(self.object_keyed(collection, local, doc))
    }

    /// Builds an object from a document found by its `_id` `local`: the
    /// engine's id map matched that exact string, so the caller's key is
    /// the document's own and nothing is re-derived or allocated for it.
    fn object_keyed(&self, collection: &CollectionName, local: LocalKey, doc: Value) -> DataObject {
        let key = GlobalKey::new(self.database().clone(), collection.clone(), local);
        DataObject::new(key, doc)
    }
}

impl Connector for DocumentConnector {
    fn link(&self) -> &Link {
        &self.link
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Document
    }

    fn collections(&self) -> Vec<CollectionName> {
        self.db
            .read()
            .collection_names()
            .into_iter()
            .map(|c| CollectionName::new(c).expect("valid collection name"))
            .collect()
    }

    fn execute(&self, query: &str) -> Result<Vec<DataObject>> {
        let q = DocQuery::parse(query).map_err(|e| self.link.store_error(e))?;
        if q.verb == QueryVerb::Remove {
            return Err(PolyError::WrongKind {
                database: self.database().to_string(),
                operation: "execute() only runs find/count; use execute_update for remove".into(),
            });
        }
        let collection = q.collection.clone();
        let docs = self.db.read().run_read(&q).map_err(|e| self.link.store_error(e))?;
        // A count() result is a bare aggregate document without an _id; wrap
        // it under a synthetic key so it still flows through as an object.
        let coll = CollectionName::new(&collection).map_err(|e| self.link.store_error(e))?;
        let objects: Vec<DataObject> = if q.verb == QueryVerb::Count {
            let key = GlobalKey::parse_parts(self.database().as_str(), &collection, "_count")
                .map_err(|e| self.link.store_error(e))?;
            docs.into_iter().map(|d| DataObject::new(key.clone(), d)).collect()
        } else {
            docs.into_iter().map(|d| self.object_from_doc(&coll, d)).collect::<Result<_>>()?
        };
        self.link.charge(true, &objects);
        Ok(objects)
    }

    fn execute_update(&self, statement: &str) -> Result<usize> {
        let docs = self.db.write().query(statement).map_err(|e| self.link.store_error(e))?;
        self.link.charge(true, &[]);
        Ok(docs.first().and_then(|d| d.get("removed")).and_then(Value::as_int).unwrap_or(0)
            as usize)
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
        // Path clauses translate to the store's own filter language and run
        // inside the engine; key/root clauses (which the document filter
        // cannot address — `_id` may be an integer whose local key is its
        // decimal rendering) are evaluated on what the engine returns,
        // before anything is charged to the wire.
        let (native, residual) = filter.map(split_for_doc_filter).unzip();
        let db = self.db.read();
        let (pairs, rejected) = match &native {
            Some(native) => db.multi_get_where(collection.as_str(), keys, native),
            None => (db.multi_get(collection.as_str(), keys), Vec::new()),
        };
        drop(db);
        let mut out = FilteredFetch::default();
        out.rejected.extend(rejected.into_iter().cloned());
        for (id, doc) in pairs {
            let object = self.object_keyed(collection, id.clone(), doc);
            let key = object.key().key();
            if residual.as_ref().is_none_or(|r: &Pushdown| r.matches(key.as_str(), object.value()))
            {
                out.matched.push(object);
            } else {
                out.rejected.push(key.clone());
            }
        }
        self.link.charge_fetch(&out.matched, filter.is_some());
        Ok(out)
    }

    fn scan_collection(&self, collection: &CollectionName) -> Result<Vec<DataObject>> {
        self.execute(&format!("db.{}.find()", collection.as_str()))
    }

    fn object_count(&self) -> usize {
        self.db.read().total_docs()
    }
}

/// Splits a pushdown conjunction into the part the document store's filter
/// language can express natively (path clauses; `Filter`'s matcher and
/// [`Pushdown::matches`] share their semantics by construction) and the
/// residual clauses the connector must evaluate itself (key/root clauses,
/// and string operators with non-string literals, which `FieldOp` cannot
/// hold — the canonical evaluator says those match nothing).
fn split_for_doc_filter(filter: &Pushdown) -> (Filter, Pushdown) {
    let mut native = Vec::new();
    let mut residual = Pushdown::default();
    for clause in &filter.clauses {
        let PushField::Path(path) = &clause.field else {
            residual.clauses.push(clause.clone());
            continue;
        };
        let op = match clause.op {
            PushOp::Eq => FieldOp::Eq(clause.literal.clone()),
            PushOp::Ne => FieldOp::Ne(clause.literal.clone()),
            PushOp::Gt => FieldOp::Gt(clause.literal.clone()),
            PushOp::Gte => FieldOp::Gte(clause.literal.clone()),
            PushOp::Lt => FieldOp::Lt(clause.literal.clone()),
            PushOp::Lte => FieldOp::Lte(clause.literal.clone()),
            PushOp::Contains | PushOp::Prefix => {
                let Some(s) = clause.literal.as_str() else {
                    residual.clauses.push(clause.clone());
                    continue;
                };
                if clause.op == PushOp::Contains {
                    FieldOp::Contains(s.to_owned())
                } else {
                    FieldOp::Prefix(s.to_owned())
                }
            }
        };
        native.push(Filter::Field { path: path.clone(), op });
    }
    let native = match native.len() {
        0 => Filter::All,
        1 => native.pop().expect("one clause"),
        _ => Filter::And(native),
    };
    (native, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_pdm::text;

    fn connector() -> DocumentConnector {
        let mut db = DocumentDb::new("catalogue");
        db.insert(
            "albums",
            text::parse(r#"{"_id":"d1","title":"Wish","artist":"The Cure","year":1992}"#).unwrap(),
        )
        .unwrap();
        db.insert(
            "albums",
            text::parse(r#"{"_id":"d2","title":"Pablo Honey","artist":"Radiohead","year":1993}"#)
                .unwrap(),
        )
        .unwrap();
        DocumentConnector::new(db, LatencyModel::FREE)
    }

    #[test]
    fn execute_find() {
        let c = connector();
        let objs = c.execute(r#"db.albums.find({"title":{"$like":"%wish%"}})"#).unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].key().to_string(), "catalogue.albums.d1");
    }

    #[test]
    fn execute_count_is_wrapped() {
        let c = connector();
        let objs = c.execute("db.albums.count()").unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].value().get("count").unwrap().as_int(), Some(2));
    }

    #[test]
    fn execute_rejects_remove() {
        let c = connector();
        assert!(matches!(c.execute(r#"db.albums.remove({})"#), Err(PolyError::WrongKind { .. })));
        assert_eq!(c.execute_update(r#"db.albums.remove({"_id":"d2"})"#).unwrap(), 1);
        assert_eq!(c.object_count(), 1);
    }

    #[test]
    fn get_and_multi_get() {
        let c = connector();
        let coll = CollectionName::new("albums").unwrap();
        assert!(c.get(&coll, &LocalKey::new("d1").unwrap()).unwrap().is_some());
        assert!(c.get(&coll, &LocalKey::new("zz").unwrap()).unwrap().is_none());
        let objs = c
            .multi_get(&coll, &[LocalKey::new("d1").unwrap(), LocalKey::new("d2").unwrap()])
            .unwrap();
        assert_eq!(objs.len(), 2);
        assert_eq!(c.stats().round_trips, 3);
    }

    #[test]
    fn metadata() {
        let c = connector();
        assert_eq!(c.kind(), StoreKind::Document);
        assert_eq!(c.collections()[0].as_str(), "albums");
    }
}
