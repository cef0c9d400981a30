//! Connector for the relational engine.

use parking_lot::RwLock;
use quepa_pdm::{CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey, Pushdown, Value};
use quepa_relstore::engine::{Database, ResultRow};
use quepa_relstore::sql::ast::Statement;

use crate::connector::{Connector, FilteredFetch, Link, StoreKind};
use crate::error::{PolyError, Result};
use crate::net::LatencyModel;

/// Wraps a [`Database`] as a polystore connector.
///
/// Result rows become data objects whose local key is the row's primary-key
/// value and whose payload is the row rendered as a PDM object value.
pub struct RelationalConnector {
    link: Link,
    db: RwLock<Database>,
}

impl RelationalConnector {
    /// Creates the connector. The database name in the polystore is taken
    /// from the engine's own name.
    pub fn new(db: Database, latency: LatencyModel) -> Self {
        let name = DatabaseName::new(db.name()).expect("valid database name");
        RelationalConnector { link: Link::new(name, latency), db: RwLock::new(db) }
    }

    /// Builds an object from a result row. `table` is the already-interned
    /// collection name, so the per-object cost is just the local key.
    fn object_from_row(
        &self,
        table: &CollectionName,
        pk_col: &str,
        row: ResultRow,
    ) -> Result<DataObject> {
        let pk = match row.get(pk_col) {
            Some(Value::Str(s)) => s.clone(),
            Some(other) => other.to_string(),
            // The Validator rewrites queries to always include the key
            // column, so a missing pk here is an internal error.
            None => {
                return Err(self.link.store_error(format!("result row lacks key column {pk_col}")))
            }
        };
        let local = LocalKey::new(&pk).map_err(|e| self.link.store_error(e))?;
        Ok(self.object_keyed(table, local, row))
    }

    /// Builds an object from a row found by its primary key `local`: the
    /// engine's key index matched that exact string, so the caller's key
    /// is the row's own and nothing is re-derived or allocated for it.
    fn object_keyed(&self, table: &CollectionName, local: LocalKey, row: ResultRow) -> DataObject {
        let key = GlobalKey::new(self.database().clone(), table.clone(), local);
        DataObject::new(key, Value::Object(row))
    }
}

impl Connector for RelationalConnector {
    fn link(&self) -> &Link {
        &self.link
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Relational
    }

    fn collections(&self) -> Vec<CollectionName> {
        self.db
            .read()
            .table_names()
            .into_iter()
            .map(|t| CollectionName::new(t).expect("valid table name"))
            .collect()
    }

    fn execute(&self, query: &str) -> Result<Vec<DataObject>> {
        let db = self.db.read();
        let stmt = db.prepare(query).map_err(|e| self.link.store_error(e))?;
        let Statement::Select(select) = stmt else {
            return Err(PolyError::WrongKind {
                database: self.database().to_string(),
                operation: "execute() only runs SELECT; use execute_update for DML".into(),
            });
        };
        let table = select.table.clone();
        let pk_col = db.table(&table).map_err(|e| self.link.store_error(e))?.pk_column().to_owned();
        let rows = db.run_select(&select).map_err(|e| self.link.store_error(e))?;
        drop(db);
        let coll = CollectionName::new(&table).map_err(|e| self.link.store_error(e))?;
        // Aggregate results carry no key; wrap them under a synthetic one
        // (the Validator refuses to *augment* these, but they are legal
        // local queries).
        let objects: Vec<DataObject> = if select.has_aggregates() {
            let key = GlobalKey::parse_parts(self.database().as_str(), &table, "_agg")
                .map_err(|e| self.link.store_error(e))?;
            rows.into_iter().map(|row| DataObject::new(key.clone(), Value::Object(row))).collect()
        } else {
            rows.into_iter()
                .map(|row| self.object_from_row(&coll, &pk_col, row))
                .collect::<Result<_>>()?
        };
        self.link.charge(true, &objects);
        Ok(objects)
    }

    fn execute_update(&self, statement: &str) -> Result<usize> {
        let rows = self.db.write().execute(statement).map_err(|e| self.link.store_error(e))?;
        self.link.charge(true, &[]);
        Ok(rows.first().and_then(|r| r.get("affected")).and_then(Value::as_int).unwrap_or(0)
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
        // The engine's `WHERE pk IN (…) [AND <pred>]` access path:
        // rejected rows never leave the store, so only matches are charged.
        let db = self.db.read();
        let (rows, rejected) = match filter {
            Some(filter) => db.multi_get_where(collection.as_str(), keys, filter),
            None => db.multi_get(collection.as_str(), keys).map(|rows| (rows, Vec::new())),
        }
        .map_err(|e| self.link.store_error(e))?;
        drop(db);
        let matched: Vec<DataObject> = rows
            .into_iter()
            .map(|(key, row)| self.object_keyed(collection, key.clone(), row))
            .collect();
        let rejected: Vec<LocalKey> = rejected.into_iter().cloned().collect();
        self.link.charge_fetch(&matched, filter.is_some());
        Ok(FilteredFetch { matched, rejected })
    }

    fn scan_collection(&self, collection: &CollectionName) -> Result<Vec<DataObject>> {
        self.execute(&format!("SELECT * FROM {}", collection.as_str()))
    }

    fn object_count(&self) -> usize {
        self.db.read().total_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connector() -> RelationalConnector {
        let mut db = Database::new("transactions");
        db.create_table("inventory", "id", &["id", "artist", "name"]).unwrap();
        db.execute(
            "INSERT INTO inventory VALUES ('a32', 'Cure', 'Wish'), ('a33', 'Cure', 'Faith')",
        )
        .unwrap();
        RelationalConnector::new(db, LatencyModel::FREE)
    }

    #[test]
    fn execute_maps_rows_to_objects() {
        let c = connector();
        let objs = c.execute("SELECT * FROM inventory WHERE name LIKE '%wish%'").unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].key().to_string(), "transactions.inventory.a32");
        assert_eq!(objs[0].value().get("artist").unwrap().as_str(), Some("Cure"));
    }

    #[test]
    fn execute_rejects_dml() {
        let c = connector();
        assert!(matches!(c.execute("DELETE FROM inventory"), Err(PolyError::WrongKind { .. })));
    }

    #[test]
    fn get_and_multi_get() {
        let c = connector();
        let coll = CollectionName::new("inventory").unwrap();
        let obj = c.get(&coll, &LocalKey::new("a33").unwrap()).unwrap().unwrap();
        assert_eq!(obj.key().key().as_str(), "a33");
        assert!(c.get(&coll, &LocalKey::new("zz").unwrap()).unwrap().is_none());
        let objs = c
            .multi_get(&coll, &[LocalKey::new("a32").unwrap(), LocalKey::new("zz").unwrap()])
            .unwrap();
        assert_eq!(objs.len(), 1);
    }

    #[test]
    fn update_then_lazy_missing() {
        let c = connector();
        let n = c.execute_update("DELETE FROM inventory WHERE id = 'a32'").unwrap();
        assert_eq!(n, 1);
        let coll = CollectionName::new("inventory").unwrap();
        assert!(c.get(&coll, &LocalKey::new("a32").unwrap()).unwrap().is_none());
    }

    #[test]
    fn stats_count_roundtrips() {
        let c = connector();
        let coll = CollectionName::new("inventory").unwrap();
        c.execute("SELECT * FROM inventory").unwrap();
        c.get(&coll, &LocalKey::new("a32").unwrap()).unwrap();
        c.multi_get(&coll, &[LocalKey::new("a32").unwrap(), LocalKey::new("a33").unwrap()])
            .unwrap();
        let s = c.stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.round_trips, 3);
        assert_eq!(s.objects_returned, 2 + 1 + 2);
        c.reset_stats();
        assert_eq!(c.stats().round_trips, 0);
    }

    #[test]
    fn metadata() {
        let c = connector();
        assert_eq!(c.kind(), StoreKind::Relational);
        assert_eq!(c.database().as_str(), "transactions");
        assert_eq!(c.collections().len(), 1);
        assert_eq!(c.object_count(), 2);
    }
}
