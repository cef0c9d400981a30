//! The document store engine.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use quepa_pdm::ordered::{self, OrderedIndex};
use quepa_pdm::Value;

use crate::error::{DocError, Result};
use crate::filter::Filter;
use crate::query::{DocQuery, QueryVerb};

/// One collection: a slab of documents in insertion order — the scan
/// order, and the tie order of sorts — beside an `_id` → slot map and the
/// declared field indexes. Deleting leaves `None` in the slot so slots stay
/// stable; a re-inserted `_id` takes a fresh slot at the end. The
/// documents' top-level field names are shared: one allocation per
/// distinct name in the collection.
#[derive(Debug, Clone, Default)]
struct Collection {
    slots: Vec<Option<Value>>,
    by_id: HashMap<String, usize>,
    indexes: Vec<FieldIndex>,
    names: HashSet<Arc<str>>,
}

/// A declared secondary index over one dotted field path. Documents
/// without the field have no entry: no indexable condition matches them.
#[derive(Debug, Clone)]
struct FieldIndex {
    path: String,
    index: OrderedIndex,
}

impl Collection {
    fn get(&self, id: &str) -> Option<&Value> {
        self.slots[*self.by_id.get(id)?].as_ref()
    }

    fn insert(&mut self, id: String, mut doc: Value) {
        if let Value::Object(fields) = &mut doc {
            fields.share_names(&mut self.names);
        }
        let slot = self.slots.len();
        for FieldIndex { path, index } in &mut self.indexes {
            if let Some(v) = doc.get_path(path) {
                index.insert(v, slot);
            }
        }
        self.by_id.insert(id, slot);
        self.slots.push(Some(doc));
    }

    fn remove(&mut self, slot: usize) {
        let doc = self.slots[slot].take().expect("only live slots are removed");
        self.by_id.remove(&doc_id(&doc).expect("stored documents passed insert's check"));
        for FieldIndex { path, index } in &mut self.indexes {
            if let Some(v) = doc.get_path(path) {
                index.remove(v, slot);
            }
        }
    }

    /// The access path: the slots a query filtered by `filter` has to
    /// visit, ascending — the `_id` map for a bare `_id` equality, a
    /// declared index's range when a conjunct bounds its field (see
    /// [`quepa_pdm::ordered`]), every live slot otherwise. Always a
    /// superset of the matches; callers evaluate the whole filter on each.
    fn candidates(&self, filter: &Filter) -> Vec<usize> {
        if let Some(id) = filter.as_id_lookup() {
            return self.by_id.get(id).copied().into_iter().collect();
        }
        let mut sargs = Vec::new();
        filter.conjunct_bounds(&mut sargs);
        let index_of = |path: &str| self.indexes.iter().find(|i| i.path == path).map(|i| &i.index);
        ordered::choose(&sargs, index_of).unwrap_or_else(|| {
            self.slots.iter().enumerate().filter_map(|(slot, d)| d.as_ref().map(|_| slot)).collect()
        })
    }

    /// The slots of the documents `filter` accepts, in slot order — what
    /// `find`, `count` and `remove` all start from.
    fn matching(&self, filter: &Filter) -> Vec<usize> {
        let mut hits = self.candidates(filter);
        hits.retain(|&slot| filter.matches(self.doc(slot)));
        hits
    }

    fn doc(&self, slot: usize) -> &Value {
        self.slots[slot].as_ref().expect("candidate slots are live")
    }
}

/// The key a document is stored under: its string `_id`, or the decimal
/// rendering of an integer one.
fn doc_id(doc: &Value) -> Result<String> {
    match doc.get("_id") {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(Value::Int(i)) => Ok(i.to_string()),
        Some(other) => Err(DocError::BadDocument(format!(
            "_id must be a string or int, got {}",
            other.type_name()
        ))),
        None => Err(DocError::BadDocument("document lacks an _id".into())),
    }
}

/// An embedded document database: named collections of JSON-like documents.
#[derive(Debug, Clone)]
pub struct DocumentDb {
    name: String,
    collections: BTreeMap<String, Collection>,
}

impl DocumentDb {
    /// Creates an empty document database.
    pub fn new(name: impl Into<String>) -> Self {
        DocumentDb { name: name.into(), collections: BTreeMap::new() }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The collection names, sorted.
    pub fn collection_names(&self) -> Vec<&str> {
        self.collections.keys().map(String::as_str).collect()
    }

    /// Number of live documents in a collection (0 if absent).
    pub fn len(&self, collection: &str) -> usize {
        self.collections.get(collection).map_or(0, |c| c.by_id.len())
    }

    /// True if the named collection is empty or absent.
    pub fn is_empty(&self, collection: &str) -> bool {
        self.len(collection) == 0
    }

    /// Inserts a document. It must be an object with a string or integer
    /// `_id`; integer ids are stored under their decimal rendering.
    /// Creates the collection on first use (Mongo behaviour).
    pub fn insert(&mut self, collection: &str, doc: Value) -> Result<String> {
        let id = doc_id(&doc)?;
        if doc.as_object().is_none() {
            return Err(DocError::BadDocument(format!(
                "document must be an object, got {}",
                doc.type_name()
            )));
        }
        let coll = self.collections.entry(collection.to_owned()).or_default();
        if coll.by_id.contains_key(&id) {
            return Err(DocError::DuplicateId(id));
        }
        coll.insert(id.clone(), doc);
        Ok(id)
    }

    /// Declares an ordered index over the dotted field `path` of
    /// `collection` (created if absent, as by an insert), backfilling
    /// from existing documents. Declaring it twice is a no-op.
    pub fn create_index(&mut self, collection: &str, path: &str) {
        let coll = self.collections.entry(collection.to_owned()).or_default();
        if coll.indexes.iter().any(|i| i.path == path) {
            return;
        }
        let mut index = OrderedIndex::new();
        for (slot, doc) in coll.slots.iter().enumerate() {
            if let Some(v) = doc.as_ref().and_then(|d| d.get_path(path)) {
                index.insert(v, slot);
            }
        }
        coll.indexes.push(FieldIndex { path: path.to_owned(), index });
    }

    /// The slots a query with this filter would visit (see the access
    /// path of [`quepa_pdm::ordered`]): its length is the work the query
    /// costs, whatever the collection holds. Empty for an absent collection.
    pub fn candidates(&self, collection: &str, filter: &Filter) -> Vec<usize> {
        self.collections.get(collection).map_or_else(Vec::new, |c| c.candidates(filter))
    }

    /// Point lookup by `_id`.
    pub fn get(&self, collection: &str, id: &str) -> Option<&Value> {
        self.collections.get(collection)?.get(id)
    }

    /// Batched point lookup (one simulated round trip). Missing ids are
    /// skipped; a document comes back beside the caller's id that found
    /// it (the `_id` map matches the id's exact string).
    pub fn multi_get<'k, K: AsRef<str>>(
        &self,
        collection: &str,
        ids: &'k [K],
    ) -> Vec<(&'k K, Value)> {
        let Some(coll) = self.collections.get(collection) else { return Vec::new() };
        ids.iter().filter_map(|id| Some((id, coll.get(id.as_ref())?.clone()))).collect()
    }

    /// Batched point lookup with a store-side filter: one simulated round
    /// trip that returns only the documents matching `filter`, plus the
    /// ids whose document exists but fails the filter (so callers can tell
    /// filtered-out apart from missing).
    pub fn multi_get_where<'k, K: AsRef<str>>(
        &self,
        collection: &str,
        ids: &'k [K],
        filter: &Filter,
    ) -> (Vec<(&'k K, Value)>, Vec<&'k K>) {
        let Some(coll) = self.collections.get(collection) else {
            return (Vec::new(), Vec::new());
        };
        let mut matched = Vec::new();
        let mut rejected = Vec::new();
        for id in ids {
            let Some(doc) = coll.get(id.as_ref()) else { continue };
            if filter.matches(doc) {
                matched.push((id, doc.clone()));
            } else {
                rejected.push(id);
            }
        }
        (matched, rejected)
    }

    /// Deletes by `_id`; returns whether the document existed.
    pub fn delete(&mut self, collection: &str, id: &str) -> bool {
        let Some(coll) = self.collections.get_mut(collection) else { return false };
        let Some(&slot) = coll.by_id.get(id) else { return false };
        coll.remove(slot);
        true
    }

    /// Parses and runs a query string. `find` returns documents, `count`
    /// returns a single `{ "count": n }` document, `remove` a single
    /// `{ "removed": n }` document.
    pub fn query(&mut self, input: &str) -> Result<Vec<Value>> {
        let q = DocQuery::parse(input)?;
        self.run(&q)
    }

    /// Read-only execution of `find`/`count` queries (errors on `remove`).
    pub fn find(&self, input: &str) -> Result<Vec<Value>> {
        let q = DocQuery::parse(input)?;
        if q.verb == QueryVerb::Remove {
            return Err(DocError::Syntax("find() API cannot run remove queries".into()));
        }
        self.run_read_inner(&q)
    }

    /// Runs a parsed query.
    pub fn run(&mut self, q: &DocQuery) -> Result<Vec<Value>> {
        match q.verb {
            QueryVerb::Find | QueryVerb::Count => self.run_read_inner(q),
            QueryVerb::Remove => {
                let coll = self
                    .collections
                    .get_mut(&q.collection)
                    .ok_or_else(|| DocError::UnknownCollection(q.collection.clone()))?;
                let doomed = coll.matching(&q.filter);
                for &slot in &doomed {
                    coll.remove(slot);
                }
                Ok(vec![Value::object([("removed", Value::Int(doomed.len() as i64))])])
            }
        }
    }

    /// Read-only execution of a parsed `find`/`count` query (errors on
    /// `remove`, which requires [`DocumentDb::run`]).
    pub fn run_read(&self, q: &DocQuery) -> Result<Vec<Value>> {
        if q.verb == QueryVerb::Remove {
            return Err(DocError::Syntax("run_read() cannot run remove queries".into()));
        }
        self.run_read_inner(q)
    }

    fn run_read_inner(&self, q: &DocQuery) -> Result<Vec<Value>> {
        let coll = self
            .collections
            .get(&q.collection)
            .ok_or_else(|| DocError::UnknownCollection(q.collection.clone()))?;

        let mut matched: Vec<&Value> =
            coll.matching(&q.filter).into_iter().map(|slot| coll.doc(slot)).collect();

        if q.verb == QueryVerb::Count {
            return Ok(vec![Value::object([("count", Value::Int(matched.len() as i64))])]);
        }

        if let Some((field, asc)) = &q.sort {
            matched.sort_by(|a, b| {
                let av = a.get_path(field).unwrap_or(&Value::Null);
                let bv = b.get_path(field).unwrap_or(&Value::Null);
                let ord = av.total_cmp(bv);
                if *asc {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        if let Some(limit) = q.limit {
            matched.truncate(limit);
        }
        Ok(matched.into_iter().cloned().collect())
    }

    /// Total live documents across collections.
    pub fn total_docs(&self) -> usize {
        self.collections.values().map(|c| c.by_id.len()).sum()
    }

    /// Seedable population hook for the simulation harness (`quepa-check`):
    /// a database with one `albums` collection holding documents
    /// `d0..d{n-1}` with a dense integer `seq`, every value derived from
    /// `seed` alone so the database is bit-identical across hosts and runs.
    pub fn populate_seeded(name: impl Into<String>, seed: u64, n: usize) -> DocumentDb {
        let mut db = DocumentDb::new(name);
        for i in 0..n {
            db.insert(
                "albums",
                Value::object([
                    ("_id", Value::Str(format!("d{i}"))),
                    ("title", Value::Str(format!("album-{:08x}", seed_mix(seed, i as u64) >> 32))),
                    ("seq", Value::Int(i as i64)),
                ]),
            )
            .expect("generated documents carry unique _ids");
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

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_pdm::text;

    fn catalogue() -> DocumentDb {
        let mut db = DocumentDb::new("catalogue");
        for doc in [
            r#"{"_id":"d1","title":"Wish","artist":"The Cure","year":1992}"#,
            r#"{"_id":"d2","title":"Disintegration","artist":"The Cure","year":1989}"#,
            r#"{"_id":"d3","title":"OK Computer","artist":"Radiohead","year":1997}"#,
        ] {
            db.insert("albums", text::parse(doc).unwrap()).unwrap();
        }
        db
    }

    #[test]
    fn find_with_filter() {
        let db = catalogue();
        let docs = db.find(r#"db.albums.find({"artist":"The Cure"})"#).unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn find_like() {
        let db = catalogue();
        let docs = db.find(r#"db.albums.find({"title":{"$like":"%wish%"}})"#).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].get("_id").unwrap().as_str(), Some("d1"));
    }

    #[test]
    fn sort_and_limit() {
        let db = catalogue();
        let docs = db.find(r#"db.albums.find().sort({"year":-1}).limit(2)"#).unwrap();
        let years: Vec<i64> =
            docs.iter().map(|d| d.get("year").unwrap().as_int().unwrap()).collect();
        assert_eq!(years, vec![1997, 1992]);
    }

    #[test]
    fn count() {
        let db = catalogue();
        let r = db.find(r#"db.albums.count({"year":{"$gte":1990}})"#).unwrap();
        assert_eq!(r[0].get("count").unwrap().as_int(), Some(2));
    }

    #[test]
    fn remove() {
        let mut db = catalogue();
        let r = db.query(r#"db.albums.remove({"artist":"The Cure"})"#).unwrap();
        assert_eq!(r[0].get("removed").unwrap().as_int(), Some(2));
        assert_eq!(db.len("albums"), 1);
        assert!(db.get("albums", "d1").is_none());
    }

    #[test]
    fn point_lookup_and_multi_get() {
        let db = catalogue();
        assert!(db.get("albums", "d2").is_some());
        assert!(db.get("albums", "zzz").is_none());
        let got = db.multi_get("albums", &["d3", "nope", "d1"]);
        assert_eq!(got.len(), 2);
        assert_eq!(*got[0].0, "d3");
    }

    #[test]
    fn id_fast_path_equals_scan() {
        let db = catalogue();
        let fast = db.find(r#"db.albums.find({"_id":"d2"})"#).unwrap();
        let scan = db.find(r#"db.albums.find({"title":"Disintegration"})"#).unwrap();
        assert_eq!(fast, scan);
    }

    #[test]
    fn insert_validation() {
        let mut db = DocumentDb::new("x");
        assert!(matches!(
            db.insert("c", text::parse(r#"{"no_id":1}"#).unwrap()),
            Err(DocError::BadDocument(_))
        ));
        assert!(matches!(
            db.insert("c", text::parse(r#"{"_id":true}"#).unwrap()),
            Err(DocError::BadDocument(_))
        ));
        db.insert("c", text::parse(r#"{"_id":"a"}"#).unwrap()).unwrap();
        assert_eq!(
            db.insert("c", text::parse(r#"{"_id":"a"}"#).unwrap()),
            Err(DocError::DuplicateId("a".into()))
        );
        // Integer ids are normalised to strings.
        let id = db.insert("c", text::parse(r#"{"_id":42}"#).unwrap()).unwrap();
        assert_eq!(id, "42");
        assert!(db.get("c", "42").is_some());
    }

    #[test]
    fn unknown_collection() {
        let db = catalogue();
        assert!(matches!(db.find("db.ghost.find()"), Err(DocError::UnknownCollection(_))));
    }

    #[test]
    fn deleted_slots_keep_scans_correct() {
        let mut db = DocumentDb::new("x");
        for i in 0..100 {
            db.insert(
                "c",
                Value::object([("_id", Value::str(format!("k{i}"))), ("n", Value::Int(i))]),
            )
            .unwrap();
        }
        for i in 0..80 {
            assert!(db.delete("c", &format!("k{i}")));
        }
        assert!(!db.delete("c", "k0"), "double delete returns false");
        let docs = db.find("db.c.find()").unwrap();
        assert_eq!(docs.len(), 20);
        let r = db.find(r#"db.c.count({"n":{"$gte":90}})"#).unwrap();
        assert_eq!(r[0].get("count").unwrap().as_int(), Some(10));
    }

    #[test]
    fn reinserted_id_is_scanned_once() {
        let mut db = DocumentDb::new("x");
        let album =
            |i: i64| Value::object([("_id", Value::str(format!("d{i}"))), ("seq", Value::Int(i))]);
        for i in 0..4 {
            db.insert("albums", album(i)).unwrap();
        }
        assert!(db.delete("albums", "d1"));
        db.insert("albums", album(1)).unwrap();
        let docs = db.find(r#"db.albums.find({"seq":{"$lt":10}})"#).unwrap();
        let ids: Vec<_> = docs.iter().map(|d| d.get("_id").unwrap().as_str().unwrap()).collect();
        assert_eq!(ids, vec!["d0", "d2", "d3", "d1"], "a re-inserted id takes a new slot");
        let r = db.find("db.albums.count({})").unwrap();
        assert_eq!(r[0].get("count").unwrap().as_int(), Some(4));
    }

    fn ids(docs: &[Value]) -> Vec<&str> {
        docs.iter().map(|d| d.get("_id").unwrap().as_str().unwrap()).collect()
    }

    #[test]
    fn indexed_bounds_keep_the_scan_semantics() {
        let mut scan = DocumentDb::new("x");
        for (id, x) in [
            ("a", "null"),
            ("b", "5"),
            ("c", "5.0"),
            ("d", "5.5"),
            ("e", "7"),
            ("f", r#""6""#),
            ("g", "-0.0"),
            ("h", "0"),
            ("i", "[5]"),
        ] {
            scan.insert("c", text::parse(&format!(r#"{{"_id":"{id}","x":{x}}}"#)).unwrap())
                .unwrap();
        }
        scan.insert("c", text::parse(r#"{"_id":"j"}"#).unwrap()).unwrap();
        let mut indexed = scan.clone();
        indexed.create_index("c", "x");
        for (filter, expect) in [
            // Int and Float meet: a Float bound selects Int documents and back.
            (r#"{"x":{"$gte":5.0}}"#, vec!["b", "c", "d", "e"]),
            (r#"{"x":5}"#, vec!["b", "c"]),
            (r#"{"x":{"$gte":5,"$lte":5.5}}"#, vec!["b", "c", "d"]),
            // Both zeros equal 0, but only the negative one is below it.
            (r#"{"x":0}"#, vec!["g", "h"]),
            (r#"{"x":{"$lt":0}}"#, vec!["g"]),
            // Type bracketing: a string bound never admits a number, nor
            // a number bound a string.
            (r#"{"x":{"$lt":"7"}}"#, vec!["f"]),
            (r#"{"x":{"$gt":6}}"#, vec!["e"]),
            // null equals null, orders with nothing, and is not "missing".
            (r#"{"x":null}"#, vec!["a"]),
            (r#"{"x":{"$gte":null}}"#, vec![]),
            // A container operand is compared structurally, by the scan.
            (r#"{"x":[5]}"#, vec!["i"]),
        ] {
            let q = format!("db.c.find({filter})");
            let docs = indexed.find(&q).unwrap();
            assert_eq!(ids(&docs), expect, "{filter}");
            assert_eq!(docs, scan.find(&q).unwrap(), "{filter}");
        }
    }

    #[test]
    fn candidates_track_result_size_not_collection_size() {
        for n in [1_000, 10_000] {
            let mut db = DocumentDb::populate_seeded("x", 7, n);
            db.create_index("albums", "seq");
            let candidates = |filter: &str| {
                let filter = Filter::compile(&text::parse(filter).unwrap()).unwrap();
                db.candidates("albums", &filter).len()
            };
            assert_eq!(candidates(r#"{"seq":{"$gte":500,"$lt":540}}"#), 40);
            assert_eq!(
                candidates(r#"{"title":{"$like":"album%"},"seq":{"$gte":500,"$lt":540}}"#),
                40
            );
            assert_eq!(candidates(r#"{"seq":500}"#), 1);
            assert_eq!(candidates(r#"{"seq":{"$lt":40,"$eq":7}}"#), 1, "equality before range");
            assert_eq!(candidates(r#"{"seq":{"$gt":5,"$lt":3}}"#), 0);
            assert_eq!(candidates(r#"{"_id":"d7"}"#), 1);
            // No usable conjunct: every live slot, as before.
            for fallback in [
                r#"{"$or":[{"seq":{"$lt":5}},{"seq":{"$gt":7}}]}"#,
                r#"{"$not":{"seq":{"$lt":5}}}"#,
                r#"{"title":{"$like":"album%"}}"#,
                r#"{"title":"x"}"#,
                r#"{"seq":{"$ne":3}}"#,
                "{}",
            ] {
                assert_eq!(candidates(fallback), n, "{fallback}");
            }
            let docs = db.find(r#"db.albums.find({"seq":{"$gte":500,"$lt":540}})"#).unwrap();
            assert_eq!(docs.len(), 40);
        }
    }
}
