//! Property tests: the document store's filter evaluation against manual
//! filtering, and store CRUD invariants.

use proptest::prelude::*;
use quepa_docstore::{DocQuery, DocumentDb, Filter};
use quepa_pdm::Value;

fn doc(id: usize, n: i64, tag: &str) -> Value {
    Value::object([
        ("_id", Value::str(format!("d{id}"))),
        ("n", Value::Int(n)),
        ("tag", Value::str(tag)),
    ])
}

/// A JSON literal for the indexed `seq` field: mostly small integers (so
/// values collide), but also null, floats that equal integers, both
/// zeros, a string and an array — everything the scan has an opinion on.
fn seq_json(x: i64) -> String {
    match x.rem_euclid(16) {
        0 => "null".into(),
        1 => format!("{}.0", x.rem_euclid(7)),
        2 => format!("{}.5", x.rem_euclid(7)),
        3 => "-0.0".into(),
        4 => "0.0".into(),
        5 => format!(r#""s{}""#, x.rem_euclid(3)),
        6 => "[0.0]".into(),
        _ => (x.rem_euclid(14) - 2).to_string(),
    }
}

/// The query battery run after every mutation: windows, equalities,
/// mixed conjuncts, and the shapes that must fall back to the scan.
fn doc_battery(a: i64, b: i64) -> Vec<String> {
    let (lo, hi) = (a.rem_euclid(12) - 1, b.rem_euclid(12));
    let (la, lb) = (seq_json(a), seq_json(b));
    let id = a.rem_euclid(20);
    [
        format!(r#"find({{"seq":{{"$gte":{lo},"$lt":{hi}}}}})"#),
        format!(r#"find({{"seq":{la}}})"#),
        format!(r#"find({{"seq":{{"$eq":{lb}}}}})"#),
        format!(r#"find({{"seq":{{"$gt":{la},"$lte":{lb}}}}})"#),
        format!(r#"find({{"seq":{{"$lt":{hi}}},"tag":"t{}"}})"#, a.rem_euclid(3)),
        format!(r#"find({{"tag":{{"$like":"t%"}},"seq":{{"$gte":{lo}.0}}}}).sort({{"tag":1}})"#),
        format!(r#"find({{"meta.n":{{"$gte":{lo}}},"seq":{{"$lte":{hi}}}}})"#),
        format!(r#"find({{"meta.n":{lo}}})"#),
        format!(r#"find({{"$or":[{{"seq":{{"$lt":{lo}}}}},{{"seq":{{"$gt":{hi}}}}}]}})"#),
        format!(r#"find({{"$not":{{"seq":{{"$lt":{hi}}}}}}})"#),
        format!(r#"find({{"seq":{{"$ne":{lo},"$in":[{lo},{hi}]}}}})"#),
        format!(r#"find({{"seq":{{"$gte":{lo}}}}}).sort({{"seq":-1}}).limit(3)"#),
        format!(r#"count({{"seq":{{"$gt":{lo},"$exists":true}}}})"#),
        format!(r#"find({{"_id":"d{id}"}})"#),
        format!(r#"find({{"_id":"d{id}","seq":{{"$lt":{hi}}}}})"#),
        r#"find({"seq":{"$lt":"zz","$gte":"s0"}})"#.into(),
        "find({})".into(),
    ]
    .into_iter()
    .map(|q| format!("db.c.{q}"))
    .collect()
}

proptest! {
    /// *Index ≡ scan*: a database with ordered indexes on `seq`, `tag` and
    /// the nested `meta.n` and its twin without answer every query
    /// identically — documents, order, counts — under random inserts,
    /// deletes, filtered removes and re-inserts between the queries.
    #[test]
    fn index_equiv_scan(steps in prop::collection::vec((0u8..8, any::<i64>(), any::<i64>()), 1..24)) {
        let mut indexed = DocumentDb::new("x");
        let mut plain = DocumentDb::new("x");
        indexed.create_index("c", "seq");
        indexed.create_index("c", "meta.n");
        // Declaring an index creates the collection; give the twin one too.
        for db in [&mut indexed, &mut plain] {
            db.insert("c", doc(99, 0, "seed")).unwrap();
            db.delete("c", "d99");
        }
        for (kind, a, b) in steps {
            let id = a.rem_euclid(20);
            let mutation = match kind {
                // Inserts dominate; a deleted id comes back in a new slot.
                // Every fifth document lacks `seq`, every third `meta`.
                0..=4 => {
                    let seq = if b % 5 == 0 { String::new() } else { format!(r#","seq":{}"#, seq_json(b)) };
                    let meta = if b % 3 == 0 { String::new() } else { format!(r#","meta":{{"n":{}}}"#, b.rem_euclid(12)) };
                    let doc = format!(r#"{{"_id":"d{id}","tag":"t{}"{seq}{meta}}}"#, b.rem_euclid(3));
                    let doc = quepa_pdm::text::parse(&doc).unwrap();
                    prop_assert_eq!(indexed.insert("c", doc.clone()), plain.insert("c", doc));
                    format!("insert d{id}")
                }
                5 => {
                    prop_assert_eq!(indexed.delete("c", &format!("d{id}")), plain.delete("c", &format!("d{id}")));
                    format!("delete d{id}")
                }
                _ => {
                    let lo = b.rem_euclid(12);
                    let q = format!(r#"db.c.remove({{"seq":{{"$gte":{lo},"$lt":{}}}}})"#, lo + 2);
                    prop_assert_eq!(format!("{:?}", indexed.query(&q)), format!("{:?}", plain.query(&q)));
                    q
                }
            };
            // `tag` is declared late on purpose: the backfill must see
            // exactly the live slots.
            indexed.create_index("c", "tag");
            for q in doc_battery(a, b) {
                let scanned = plain.find(&q);
                prop_assert!(scanned.is_ok(), "{}: {:?}", q, scanned);
                prop_assert_eq!(
                    format!("{:?}", indexed.find(&q)),
                    format!("{:?}", scanned),
                    "{} after {}", q, mutation
                );
            }
            prop_assert_eq!(indexed.len("c"), plain.len("c"));
        }
    }

    /// Range filters agree with manual filtering for arbitrary data.
    #[test]
    fn range_filter_matches_manual(
        ns in prop::collection::vec(-50i64..50, 1..40),
        lo in -50i64..50,
        hi in -50i64..50,
    ) {
        let mut db = DocumentDb::new("x");
        for (i, &n) in ns.iter().enumerate() {
            db.insert("c", doc(i, n, if n % 2 == 0 { "even" } else { "odd" })).unwrap();
        }
        let q = format!(r#"db.c.find({{"n":{{"$gte":{lo},"$lt":{hi}}}}})"#);
        let got = db.find(&q).unwrap().len();
        let want = ns.iter().filter(|&&n| n >= lo && n < hi).count();
        prop_assert_eq!(got, want);
    }

    /// $in / $ne / $or compose correctly.
    #[test]
    fn compound_filters(ns in prop::collection::vec(0i64..10, 1..30)) {
        let mut db = DocumentDb::new("x");
        for (i, &n) in ns.iter().enumerate() {
            db.insert("c", doc(i, n, if n % 2 == 0 { "even" } else { "odd" })).unwrap();
        }
        let got = db
            .find(r#"db.c.find({"$or":[{"n":{"$in":[1,2,3]}},{"tag":"even"}]})"#)
            .unwrap()
            .len();
        let want = ns.iter().filter(|&&n| [1, 2, 3].contains(&n) || n % 2 == 0).count();
        prop_assert_eq!(got, want);
    }

    /// Sorting really sorts, descending included, with limit applied after.
    #[test]
    fn sort_limit(ns in prop::collection::vec(any::<i32>(), 1..30), limit in 0usize..40) {
        let mut db = DocumentDb::new("x");
        for (i, &n) in ns.iter().enumerate() {
            db.insert("c", doc(i, n as i64, "t")).unwrap();
        }
        let q = format!(r#"db.c.find().sort({{"n":-1}}).limit({limit})"#);
        let docs = db.find(&q).unwrap();
        prop_assert_eq!(docs.len(), ns.len().min(limit));
        let got: Vec<i64> = docs.iter().map(|d| d.get("n").unwrap().as_int().unwrap()).collect();
        let mut want: Vec<i64> = ns.iter().map(|&n| n as i64).collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        want.truncate(limit);
        prop_assert_eq!(got, want);
    }

    /// remove() deletes exactly the matching documents.
    #[test]
    fn remove_matches_filter(ns in prop::collection::vec(0i64..20, 1..30), cut in 0i64..20) {
        let mut db = DocumentDb::new("x");
        for (i, &n) in ns.iter().enumerate() {
            db.insert("c", doc(i, n, "t")).unwrap();
        }
        let removed = db
            .query(&format!(r#"db.c.remove({{"n":{{"$lt":{cut}}}}})"#))
            .unwrap()[0]
            .get("removed")
            .unwrap()
            .as_int()
            .unwrap() as usize;
        let want_removed = ns.iter().filter(|&&n| n < cut).count();
        prop_assert_eq!(removed, want_removed);
        prop_assert_eq!(db.len("c"), ns.len() - want_removed);
    }

    /// Filter compilation round-trips through the query parser: the parsed
    /// filter matches exactly the documents the direct API matches.
    #[test]
    fn parser_and_api_agree(ns in prop::collection::vec(0i64..10, 1..20), pick in 0i64..10) {
        let mut db = DocumentDb::new("x");
        for (i, &n) in ns.iter().enumerate() {
            db.insert("c", doc(i, n, "t")).unwrap();
        }
        let via_text =
            db.find(&format!(r#"db.c.find({{"n":{pick}}})"#)).unwrap().len();
        let filter = Filter::compile(&Value::object([("n", Value::Int(pick))])).unwrap();
        let q = DocQuery {
            collection: "c".into(),
            verb: quepa_docstore::QueryVerb::Find,
            filter,
            sort: None,
            limit: None,
        };
        let via_api = db.run_read(&q).unwrap().len();
        prop_assert_eq!(via_text, via_api);
    }
}
