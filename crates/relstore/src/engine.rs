//! The storage engine: tables, indexes and statement execution.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use quepa_pdm::ordered::{self, OrderedIndex};
use quepa_pdm::{Fields, Pushdown, Value};

use crate::error::{RelError, Result};
use crate::eval::{eval_predicate, ColumnSource};
use crate::row::Row;
use crate::sql::ast::{AggFunc, Expr, OrderDir, SelectItem, SelectStmt, Statement};
use crate::sql::parser::parse_statement;

/// A query result row: column name → value. Using the object form keeps
/// result handling uniform with the other stores' connectors; a table's
/// rows share its column-name allocations.
pub type ResultRow = Fields;

/// The result of a predicated keyed lookup: matching `(pk, row)` pairs
/// plus the keys whose row exists but fails the predicate — each key the
/// caller's own.
pub type FilteredRows<'k, K> = (Vec<(&'k K, ResultRow)>, Vec<&'k K>);

/// One table: schema + row storage + indexes.
///
/// Rows live in a slab (`Vec<Option<Row>>`); deletion leaves a tombstone so
/// row ids in indexes stay stable. The primary key has a unique hash index;
/// any column can additionally get a non-unique ordered index.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    /// The column names in name order, each with its row position: what a
    /// result row is built from.
    by_name: Vec<(Arc<str>, usize)>,
    pk_column: usize,
    rows: Vec<Option<Row>>,
    live_rows: usize,
    pk_index: HashMap<String, usize>,
    secondary: Vec<ColumnIndex>,
}

/// A declared secondary index and the position of the column it covers.
#[derive(Debug, Clone)]
struct ColumnIndex {
    pos: usize,
    index: OrderedIndex,
}

/// Moves `slot` in every index from the values of `old` to those of `new`
/// (`None` = the row does not exist on that side).
fn reindex(indexes: &mut [ColumnIndex], slot: usize, old: Option<&Row>, new: Option<&Row>) {
    for ColumnIndex { pos, index } in indexes {
        let (old, new) = (old.map(|r| &r[*pos]), new.map(|r| &r[*pos]));
        if old == new {
            continue;
        }
        if let Some(v) = old {
            index.remove(v, slot);
        }
        if let Some(v) = new {
            index.insert(v, slot);
        }
    }
}

impl Table {
    fn new(name: &str, pk: &str, columns: &[&str]) -> Result<Self> {
        let pk_column = columns
            .iter()
            .position(|c| *c == pk)
            .ok_or_else(|| RelError::UnknownColumn(pk.to_owned()))?;
        // Of a repeated column name the last position wins, as in a row
        // collected into a map.
        let positions: BTreeMap<&str, usize> =
            columns.iter().enumerate().map(|(pos, c)| (*c, pos)).collect();
        Ok(Table {
            name: name.to_owned(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            by_name: positions.into_iter().map(|(c, pos)| (Arc::from(c), pos)).collect(),
            pk_column,
            rows: Vec::new(),
            live_rows: 0,
            pk_index: HashMap::new(),
            secondary: Vec::new(),
        })
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The primary-key column name.
    pub fn pk_column(&self) -> &str {
        &self.columns[self.pk_column]
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    /// True if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    fn column_pos(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| RelError::UnknownColumn(name.to_owned()))
    }

    /// Renders the primary key of a row as the string local key.
    fn pk_string(&self, row: &Row) -> String {
        match &row[self.pk_column] {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        }
    }

    fn insert_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(RelError::ArityMismatch { expected: self.columns.len(), found: row.len() });
        }
        let pk = self.pk_string(&row);
        if self.pk_index.contains_key(&pk) {
            return Err(RelError::DuplicateKey(pk));
        }
        let id = self.rows.len();
        reindex(&mut self.secondary, id, None, Some(&row));
        self.pk_index.insert(pk, id);
        self.rows.push(Some(row));
        self.live_rows += 1;
        Ok(())
    }

    fn delete_row(&mut self, id: usize) {
        let Some(row) = self.rows[id].take() else { return };
        self.live_rows -= 1;
        let pk = self.pk_string(&row);
        self.pk_index.remove(&pk);
        reindex(&mut self.secondary, id, Some(&row), None);
    }

    /// Fetches a row by primary key.
    pub fn get(&self, pk: &str) -> Option<ResultRow> {
        let id = *self.pk_index.get(pk)?;
        self.rows[id].as_ref().map(|r| self.to_result_row(r))
    }

    fn to_result_row(&self, row: &Row) -> ResultRow {
        Fields::from_sorted(
            self.by_name.iter().map(|(name, pos)| (Arc::clone(name), row[*pos].clone())).collect(),
        )
    }

    /// The shared allocation of a column's name.
    fn shared_name(&self, name: &str) -> Result<Arc<str>> {
        self.by_name
            .iter()
            .find(|(c, _)| **c == *name)
            .map(|(c, _)| Arc::clone(c))
            .ok_or_else(|| RelError::UnknownColumn(name.to_owned()))
    }

    /// Iterates over live rows.
    fn live(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }

    /// The access path: the slots a statement filtered by `filter` has to
    /// visit, ascending. When a conjunct of the filter bounds an indexed
    /// column these are that index's range (see [`quepa_pdm::ordered`]);
    /// otherwise — no filter, `OR`, `NOT`, `LIKE`, an unindexed column —
    /// every live slot. Either way a superset of the matching rows: the
    /// caller evaluates the whole filter on each.
    pub fn candidates(&self, filter: Option<&Expr>) -> Vec<usize> {
        let mut sargs = Vec::new();
        if let Some(f) = filter {
            f.conjunct_bounds(&mut sargs);
        }
        let index_of = |col: &str| {
            self.secondary.iter().find(|i| self.columns[i.pos] == col).map(|i| &i.index)
        };
        ordered::choose(&sargs, index_of).unwrap_or_else(|| self.live().map(|(id, _)| id).collect())
    }

    /// The slots of the rows `filter` accepts, in slot order — what
    /// `SELECT`, `UPDATE` and `DELETE` all start from.
    fn matching(&self, filter: Option<&Expr>) -> Result<Vec<usize>> {
        let Some(f) = filter else { return Ok(self.candidates(None)) };
        // Validate referenced columns up front: a crisp error, and the
        // same one whichever rows the access path goes on to visit.
        let mut cols = Vec::new();
        f.referenced_columns(&mut cols);
        for c in cols {
            self.column_pos(&c)?;
        }
        let mut hits = Vec::new();
        for id in self.candidates(filter) {
            let row = self.rows[id].as_ref().expect("candidate slots are live");
            if eval_predicate(f, &BoundRow { table: self, row })? {
                hits.push(id);
            }
        }
        Ok(hits)
    }
}

/// A column-addressed view of a row, used during predicate evaluation
/// without materialising a map per row.
struct BoundRow<'a> {
    table: &'a Table,
    row: &'a Row,
}

impl ColumnSource for BoundRow<'_> {
    fn column(&self, name: &str) -> Option<&Value> {
        let pos = self.table.columns.iter().position(|c| c == name)?;
        Some(&self.row[pos])
    }
}

/// A relational database: a set of named tables plus the SQL entry points.
#[derive(Debug, Clone)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database { name: name.into(), tables: BTreeMap::new() }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a table with the given primary key and columns.
    pub fn create_table(&mut self, name: &str, pk: &str, columns: &[&str]) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(RelError::TableExists(name.to_owned()));
        }
        self.tables.insert(name.to_owned(), Table::new(name, pk, columns)?);
        Ok(())
    }

    /// Declares a non-unique ordered index on `column` of `table`,
    /// backfilling from existing rows. Declaring it twice is a no-op.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let t = self.table_mut(table)?;
        let pos = t.column_pos(column)?;
        if t.secondary.iter().any(|i| i.pos == pos) {
            return Ok(());
        }
        let mut index = OrderedIndex::new();
        for (id, row) in t.live() {
            index.insert(&row[pos], id);
        }
        t.secondary.push(ColumnIndex { pos, index });
        Ok(())
    }

    /// The table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Borrows a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| RelError::UnknownTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables.get_mut(name).ok_or_else(|| RelError::UnknownTable(name.to_owned()))
    }

    /// Inserts a row given as `(column, value)` pairs must cover all columns
    /// positionally; convenience for loaders.
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<()> {
        self.table_mut(table)?.insert_row(row)
    }

    /// Parses and executes any statement. `SELECT` returns its rows;
    /// `INSERT`/`DELETE` return the affected row count in a one-cell row
    /// (`{"affected": n}`).
    pub fn execute(&mut self, sql: &str) -> Result<Vec<ResultRow>> {
        match parse_statement(sql)? {
            Statement::Select(s) => self.run_select(&s),
            Statement::Insert { table, rows } => {
                let n = rows.len();
                for lits in rows {
                    let row: Row = lits.iter().map(|l| l.to_value()).collect();
                    self.table_mut(&table)?.insert_row(row)?;
                }
                Ok(vec![affected(n)])
            }
            Statement::Update { table, sets, filter } => {
                let t = self.table_mut(&table)?;
                // Resolve target columns; updating the primary key would
                // invalidate every global key minted from it.
                let mut positions = Vec::with_capacity(sets.len());
                for (col, lit) in &sets {
                    let pos = t.column_pos(col)?;
                    if pos == t.pk_column {
                        return Err(RelError::Unsupported(
                            "updating the primary-key column".into(),
                        ));
                    }
                    positions.push((pos, lit.to_value()));
                }
                let hits = t.matching(filter.as_ref())?;
                for &id in &hits {
                    let row = t.rows[id].as_mut().expect("matching slots are live");
                    let old = row.clone();
                    for (pos, value) in &positions {
                        row[*pos] = value.clone();
                    }
                    reindex(&mut t.secondary, id, Some(&old), Some(row));
                }
                Ok(vec![affected(hits.len())])
            }
            Statement::Delete { table, filter } => {
                let t = self.table_mut(&table)?;
                let doomed = t.matching(filter.as_ref())?;
                for id in &doomed {
                    t.delete_row(*id);
                }
                Ok(vec![affected(doomed.len())])
            }
        }
    }

    /// Parses and runs a `SELECT` (errors on other statements).
    pub fn query(&self, sql: &str) -> Result<Vec<ResultRow>> {
        match parse_statement(sql)? {
            Statement::Select(s) => self.run_select(&s),
            other => Err(RelError::Unsupported(format!("query() requires SELECT, got {other:?}"))),
        }
    }

    /// Parses a statement without executing it (used by the Validator).
    pub fn prepare(&self, sql: &str) -> Result<Statement> {
        parse_statement(sql)
    }

    /// Executes a parsed `SELECT`.
    pub fn run_select(&self, stmt: &SelectStmt) -> Result<Vec<ResultRow>> {
        let t = self.table(&stmt.table)?;
        let mut matched: Vec<&Row> = t
            .matching(stmt.filter.as_ref())?
            .into_iter()
            .map(|id| t.rows[id].as_ref().expect("matching slots are live"))
            .collect();

        if stmt.has_aggregates() {
            return self.run_aggregates(t, stmt, &matched);
        }

        if let Some((col, dir)) = &stmt.order_by {
            let pos = t.column_pos(col)?;
            matched.sort_by(|a, b| {
                let ord = a[pos].total_cmp(&b[pos]);
                match dir {
                    OrderDir::Asc => ord,
                    OrderDir::Desc => ord.reverse(),
                }
            });
        } else {
            // Deterministic order even without ORDER BY: primary key order.
            matched.sort_by(|a, b| a[t.pk_column].total_cmp(&b[t.pk_column]));
        }
        if let Some(limit) = stmt.limit {
            matched.truncate(limit);
        }

        // Projection.
        let mut out = Vec::with_capacity(matched.len());
        if stmt.is_wildcard() {
            for row in matched {
                out.push(t.to_result_row(row));
            }
        } else {
            let mut positions = Vec::with_capacity(stmt.items.len());
            for item in &stmt.items {
                match item {
                    SelectItem::Column(c) => positions.push((t.shared_name(c)?, t.column_pos(c)?)),
                    SelectItem::Wildcard => {
                        return Err(RelError::Unsupported(
                            "mixing * with other select items".into(),
                        ))
                    }
                    SelectItem::Aggregate(..) => unreachable!("handled above"),
                }
            }
            for row in matched {
                out.push(
                    positions.iter().map(|(name, pos)| (name.clone(), row[*pos].clone())).collect(),
                );
            }
        }
        Ok(out)
    }

    fn run_aggregates(
        &self,
        t: &Table,
        stmt: &SelectStmt,
        matched: &[&Row],
    ) -> Result<Vec<ResultRow>> {
        let mut out = ResultRow::new();
        for item in &stmt.items {
            let SelectItem::Aggregate(func, arg) = item else {
                return Err(RelError::Unsupported(
                    "mixing aggregates and plain columns without GROUP BY".into(),
                ));
            };
            let label = match (func, arg) {
                (AggFunc::Count, None) => "count".to_string(),
                (f, Some(c)) => format!("{}({c})", agg_name(*f)),
                (f, None) => agg_name(*f).to_string(),
            };
            let value = match func {
                AggFunc::Count => match arg {
                    None => Value::Int(matched.len() as i64),
                    Some(c) => {
                        let pos = t.column_pos(c)?;
                        Value::Int(matched.iter().filter(|r| !r[pos].is_null()).count() as i64)
                    }
                },
                _ => {
                    let c = arg.as_ref().ok_or_else(|| {
                        RelError::Unsupported(format!("{} requires a column", agg_name(*func)))
                    })?;
                    let pos = t.column_pos(c)?;
                    let nums: Vec<f64> = matched.iter().filter_map(|r| r[pos].as_f64()).collect();
                    match func {
                        AggFunc::Sum => Value::Float(nums.iter().sum()),
                        AggFunc::Avg => {
                            if nums.is_empty() {
                                Value::Null
                            } else {
                                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                            }
                        }
                        AggFunc::Min => nums
                            .iter()
                            .copied()
                            .fold(None::<f64>, |m, x| Some(m.map_or(x, |m| m.min(x))))
                            .map_or(Value::Null, Value::Float),
                        AggFunc::Max => nums
                            .iter()
                            .copied()
                            .fold(None::<f64>, |m, x| Some(m.map_or(x, |m| m.max(x))))
                            .map_or(Value::Null, Value::Float),
                        AggFunc::Count => unreachable!(),
                    }
                }
            };
            out.insert(label, value);
        }
        Ok(vec![out])
    }

    /// Point lookup by primary key, the access path augmentation uses.
    pub fn get(&self, table: &str, pk: &str) -> Result<Option<ResultRow>> {
        Ok(self.table(table)?.get(pk))
    }

    /// Batched point lookup: one "round trip" for many keys. Missing keys
    /// are skipped; a row comes back beside the caller's key that found
    /// it (the primary-key index matches the key's exact string).
    pub fn multi_get<'k, K: AsRef<str>>(
        &self,
        table: &str,
        pks: &'k [K],
    ) -> Result<Vec<(&'k K, ResultRow)>> {
        let t = self.table(table)?;
        let mut rows = Vec::with_capacity(pks.len());
        rows.extend(pks.iter().filter_map(|pk| Some((pk, t.get(pk.as_ref())?))));
        Ok(rows)
    }

    /// Keyed lookup with a store-side predicate — the `SELECT … WHERE pk
    /// IN (…) AND <pred>` access path: one pk-index probe per key, the row
    /// predicate applied before the row leaves the engine. Returns the
    /// matching rows plus the keys whose row exists but fails the
    /// predicate, so callers can tell filtered-out apart from missing.
    pub fn multi_get_where<'k, K: AsRef<str>>(
        &self,
        table: &str,
        pks: &'k [K],
        pred: &Pushdown,
    ) -> Result<FilteredRows<'k, K>> {
        let t = self.table(table)?;
        let mut matched = Vec::new();
        let mut rejected = Vec::new();
        for pk in pks {
            let Some(row) = t.get(pk.as_ref()) else { continue };
            let value = Value::Object(row);
            if pred.matches(pk.as_ref(), &value) {
                let Value::Object(row) = value else { unreachable!() };
                matched.push((pk, row));
            } else {
                rejected.push(pk);
            }
        }
        Ok((matched, rejected))
    }

    /// Total number of live rows across tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Seedable population hook for the simulation harness (`quepa-check`):
    /// a database with one `inventory` table (`id` pk, `name`, `seq`)
    /// holding rows `a0..a{n-1}` with a dense integer `seq`, every value
    /// derived from `seed` alone so the database is bit-identical across
    /// hosts and runs.
    pub fn populate_seeded(name: impl Into<String>, seed: u64, n: usize) -> Database {
        let mut db = Database::new(name);
        db.create_table("inventory", "id", &["id", "name", "seq"])
            .expect("fresh database accepts the table");
        for i in 0..n {
            db.insert_row(
                "inventory",
                vec![
                    Value::Str(format!("a{i}")),
                    Value::Str(format!("item-{:08x}", seed_mix(seed, i as u64) >> 32)),
                    Value::Int(i as i64),
                ],
            )
            .expect("generated rows are schema-valid");
        }
        db
    }
}

/// splitmix64 finalizer over two words — the harness-wide convention for
/// deriving per-object values from a seed.
fn seed_mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn agg_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    }
}

fn affected(n: usize) -> ResultRow {
    Fields::from_iter([("affected", Value::Int(n as i64))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_db() -> Database {
        let mut db = Database::new("transactions");
        db.create_table("inventory", "id", &["id", "artist", "name"]).unwrap();
        db.create_table("sales", "id", &["id", "first", "last", "total"]).unwrap();
        db.execute(
            "INSERT INTO inventory VALUES \
             ('a32', 'Cure', 'Wish'), ('a33', 'Cure', 'Disintegration'), \
             ('a34', 'Radiohead', 'OK Computer')",
        )
        .unwrap();
        db.execute(
            "INSERT INTO sales VALUES \
             ('s8', 'John', 'Doe', 20.0), ('s9', 'Jane', 'Roe', 12.5)",
        )
        .unwrap();
        db
    }

    #[test]
    fn lucy_query() {
        let db = sales_db();
        let rows = db.query("SELECT * FROM inventory WHERE name like '%wish%'").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["id"], Value::str("a32"));
    }

    #[test]
    fn projection_and_order() {
        let db = sales_db();
        let rows = db.query("SELECT name FROM inventory ORDER BY name DESC").unwrap();
        let names: Vec<_> = rows.iter().map(|r| r["name"].as_str().unwrap().to_string()).collect();
        assert_eq!(names, vec!["Wish", "OK Computer", "Disintegration"]);
        assert_eq!(rows[0].len(), 1, "projection keeps only selected columns");
    }

    #[test]
    fn default_order_is_pk() {
        let db = sales_db();
        let rows = db.query("SELECT id FROM inventory").unwrap();
        let ids: Vec<_> = rows.iter().map(|r| r["id"].as_str().unwrap()).collect();
        assert_eq!(ids, vec!["a32", "a33", "a34"]);
    }

    #[test]
    fn limit() {
        let db = sales_db();
        assert_eq!(db.query("SELECT * FROM inventory LIMIT 2").unwrap().len(), 2);
        assert_eq!(db.query("SELECT * FROM inventory LIMIT 0").unwrap().len(), 0);
    }

    #[test]
    fn aggregates() {
        let db = sales_db();
        let r = db.query("SELECT COUNT(*) FROM inventory").unwrap();
        assert_eq!(r[0]["count"], Value::Int(3));
        let r =
            db.query("SELECT SUM(total), AVG(total), MIN(total), MAX(total) FROM sales").unwrap();
        assert_eq!(r[0]["sum(total)"], Value::Float(32.5));
        assert_eq!(r[0]["avg(total)"], Value::Float(16.25));
        assert_eq!(r[0]["min(total)"], Value::Float(12.5));
        assert_eq!(r[0]["max(total)"], Value::Float(20.0));
    }

    #[test]
    fn aggregate_on_empty_filter() {
        let db = sales_db();
        let r = db.query("SELECT AVG(total) FROM sales WHERE total > 1000").unwrap();
        assert_eq!(r[0]["avg(total)"], Value::Null);
    }

    #[test]
    fn point_and_multi_get() {
        let db = sales_db();
        let row = db.get("inventory", "a33").unwrap().unwrap();
        assert_eq!(row["name"], Value::str("Disintegration"));
        assert!(db.get("inventory", "zzz").unwrap().is_none());
        let batch = db.multi_get("inventory", &["a34", "missing", "a32"]).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(*batch[0].0, "a34");
    }

    #[test]
    fn delete_with_and_without_filter() {
        let mut db = sales_db();
        let r = db.execute("DELETE FROM inventory WHERE artist = 'Cure'").unwrap();
        assert_eq!(r[0]["affected"], Value::Int(2));
        assert_eq!(db.table("inventory").unwrap().len(), 1);
        assert!(db.get("inventory", "a32").unwrap().is_none());
        let r = db.execute("DELETE FROM sales").unwrap();
        assert_eq!(r[0]["affected"], Value::Int(2));
        assert!(db.table("sales").unwrap().is_empty());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut db = sales_db();
        let e = db.execute("INSERT INTO inventory VALUES ('a32', 'X', 'Y')");
        assert_eq!(e, Err(RelError::DuplicateKey("a32".into())));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = sales_db();
        assert!(matches!(
            db.execute("INSERT INTO inventory VALUES ('only-one')"),
            Err(RelError::ArityMismatch { expected: 3, found: 1 })
        ));
    }

    #[test]
    fn secondary_index_agrees_with_scan() {
        let mut db = sales_db();
        let scan = db.query("SELECT * FROM inventory WHERE artist = 'Cure'").unwrap();
        db.create_index("inventory", "artist").unwrap();
        let indexed = db.query("SELECT * FROM inventory WHERE artist = 'Cure'").unwrap();
        assert_eq!(scan, indexed);
        // Index stays correct across deletion and insertion.
        db.execute("DELETE FROM inventory WHERE id = 'a32'").unwrap();
        db.execute("INSERT INTO inventory VALUES ('a99', 'Cure', 'Faith')").unwrap();
        let rows = db.query("SELECT id FROM inventory WHERE artist = 'Cure'").unwrap();
        let ids: Vec<_> = rows.iter().map(|r| r["id"].as_str().unwrap()).collect();
        assert_eq!(ids, vec!["a33", "a99"]);
    }

    #[test]
    fn unknown_entities() {
        let db = sales_db();
        assert_eq!(db.query("SELECT * FROM ghost"), Err(RelError::UnknownTable("ghost".into())));
        assert_eq!(
            db.query("SELECT ghost FROM inventory"),
            Err(RelError::UnknownColumn("ghost".into()))
        );
        assert_eq!(
            db.query("SELECT * FROM inventory WHERE ghost = 1"),
            Err(RelError::UnknownColumn("ghost".into()))
        );
        assert_eq!(
            db.query("SELECT * FROM inventory ORDER BY ghost"),
            Err(RelError::UnknownColumn("ghost".into()))
        );
    }

    #[test]
    fn numeric_pk_rendering() {
        let mut db = Database::new("d");
        db.create_table("t", "n", &["n", "v"]).unwrap();
        db.execute("INSERT INTO t VALUES (7, 'x')").unwrap();
        assert!(db.get("t", "7").unwrap().is_some());
    }

    #[test]
    fn update_statement() {
        let mut db = sales_db();
        let r = db
            .execute("UPDATE inventory SET artist = 'The Cure', name = 'Wish!' WHERE id = 'a32'")
            .unwrap();
        assert_eq!(r[0]["affected"], Value::Int(1));
        let row = db.get("inventory", "a32").unwrap().unwrap();
        assert_eq!(row["artist"], Value::str("The Cure"));
        assert_eq!(row["name"], Value::str("Wish!"));
        // Unfiltered update touches every row.
        let r = db.execute("UPDATE sales SET total = 0.0").unwrap();
        assert_eq!(r[0]["affected"], Value::Int(2));
        let rows = db.query("SELECT * FROM sales WHERE total = 0.0").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn update_pk_rejected() {
        let mut db = sales_db();
        assert!(matches!(
            db.execute("UPDATE inventory SET id = 'zzz'"),
            Err(RelError::Unsupported(_))
        ));
    }

    #[test]
    fn update_maintains_secondary_index() {
        let mut db = sales_db();
        db.create_index("inventory", "artist").unwrap();
        db.execute("UPDATE inventory SET artist = 'Renamed' WHERE id = 'a32'").unwrap();
        let old = db.query("SELECT * FROM inventory WHERE artist = 'Cure'").unwrap();
        assert_eq!(old.len(), 1, "only a33 keeps the old artist");
        let new = db.query("SELECT * FROM inventory WHERE artist = 'Renamed'").unwrap();
        assert_eq!(new.len(), 1);
    }

    #[test]
    fn in_and_between_predicates() {
        let db = sales_db();
        let rows = db.query("SELECT id FROM inventory WHERE id IN ('a32', 'a34', 'nope')").unwrap();
        assert_eq!(rows.len(), 2);
        let rows = db.query("SELECT id FROM inventory WHERE id NOT IN ('a32')").unwrap();
        assert_eq!(rows.len(), 2);
        let rows = db.query("SELECT * FROM sales WHERE total BETWEEN 12.5 AND 20.0").unwrap();
        assert_eq!(rows.len(), 2, "BETWEEN is inclusive");
        let rows = db.query("SELECT * FROM sales WHERE total NOT BETWEEN 12.5 AND 19.0").unwrap();
        assert_eq!(rows.len(), 1);
        // NULL never matches IN.
        let mut db = Database::new("d");
        db.create_table("t", "id", &["id", "x"]).unwrap();
        db.execute("INSERT INTO t VALUES ('a', NULL)").unwrap();
        assert!(db.query("SELECT * FROM t WHERE x IN (1, 2)").unwrap().is_empty());
        assert!(db.query("SELECT * FROM t WHERE x NOT IN (1, 2)").unwrap().is_empty());
    }

    #[test]
    fn query_rejects_dml() {
        let db = sales_db();
        assert!(matches!(db.query("DELETE FROM inventory"), Err(RelError::Unsupported(_))));
    }

    #[test]
    fn indexed_equality_with_null_matches_nothing() {
        let mut db = Database::new("d");
        db.create_table("t", "id", &["id", "x"]).unwrap();
        db.execute("INSERT INTO t VALUES ('a', NULL), ('b', 1)").unwrap();
        let scan = db.query("SELECT * FROM t WHERE x = NULL").unwrap();
        assert!(scan.is_empty(), "any comparison with NULL is not-true");
        db.create_index("t", "x").unwrap();
        assert_eq!(db.query("SELECT * FROM t WHERE x = NULL").unwrap(), scan);
    }

    fn ids(rows: &[ResultRow]) -> Vec<&str> {
        rows.iter().map(|r| r["id"].as_str().unwrap()).collect()
    }

    #[test]
    fn indexed_bounds_keep_the_scan_semantics() {
        let mut scan = Database::new("d");
        scan.create_table("t", "id", &["id", "x"]).unwrap();
        scan.execute(
            "INSERT INTO t VALUES ('a', NULL), ('b', 5), ('c', 5.0), ('d', 5.5), ('e', 7), \
             ('f', '6'), ('g', -0.0), ('h', 0)",
        )
        .unwrap();
        let mut indexed = scan.clone();
        indexed.create_index("t", "x").unwrap();
        for (filter, expect) in [
            // Int and Float meet: a Float bound selects Int rows and back.
            ("x >= 5.0", vec!["b", "c", "d", "e", "f"]),
            ("x = 5", vec!["b", "c"]),
            ("x BETWEEN 5 AND 5.5", vec!["b", "c", "d"]),
            // Both zeros equal 0, but only the negative one is below it.
            ("x = 0", vec!["g", "h"]),
            ("x < 0", vec!["g"]),
            // Across types the order is the type rank: numbers sort
            // before strings, so a string bound admits every number.
            ("x < '6'", vec!["b", "c", "d", "e", "g", "h"]),
            ("x > 6", vec!["e", "f"]),
            // A comparison with NULL is never true, on either side.
            ("x = NULL", vec![]),
            ("x >= NULL", vec![]),
            ("x < 100", vec!["b", "c", "d", "e", "g", "h"]),
        ] {
            let sql = format!("SELECT * FROM t WHERE {filter}");
            let rows = indexed.query(&sql).unwrap();
            assert_eq!(ids(&rows), expect, "{filter}");
            assert_eq!(rows, scan.query(&sql).unwrap(), "{filter}");
        }
    }

    #[test]
    fn candidates_track_result_size_not_table_size() {
        for n in [1_000, 10_000] {
            let mut db = Database::populate_seeded("d", 7, n);
            db.create_index("inventory", "seq").unwrap();
            let t = db.table("inventory").unwrap();
            let candidates = |filter: &str| {
                let sql = format!("SELECT * FROM inventory WHERE {filter}");
                let Statement::Select(stmt) = db.prepare(&sql).unwrap() else { unreachable!() };
                t.candidates(stmt.filter.as_ref()).len()
            };
            assert_eq!(candidates("seq >= 500 AND seq < 540"), 40);
            assert_eq!(candidates("seq BETWEEN 500 AND 539 AND name LIKE 'item%'"), 40);
            assert_eq!(candidates("seq = 500"), 1);
            assert_eq!(candidates("seq < 40 AND seq = 7"), 1, "equality before range");
            assert_eq!(candidates("seq > 5 AND seq < 3"), 0);
            // No usable conjunct: every live slot, as before.
            for fallback in
                ["seq < 5 OR seq > 7", "NOT seq < 5", "name LIKE 'item%'", "name = 'x'", "seq != 3"]
            {
                assert_eq!(candidates(fallback), n, "{fallback}");
            }
            assert_eq!(t.candidates(None).len(), n);
            let rows = db.query("SELECT * FROM inventory WHERE seq >= 500 AND seq < 540").unwrap();
            assert_eq!(rows.len(), 40);
        }
    }
}
