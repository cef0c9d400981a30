//! Property-based tests for the SQL engine.

use proptest::prelude::*;
use quepa_pdm::compare::like_match;
use quepa_pdm::Value;
use quepa_relstore::engine::Database;

/// Reference implementation of LIKE by naive recursion, to cross-check the
/// iterative backtracking matcher.
fn like_naive(p: &[char], t: &[char]) -> bool {
    match (p.first(), t.first()) {
        (None, None) => true,
        (Some('%'), _) => like_naive(&p[1..], t) || (!t.is_empty() && like_naive(p, &t[1..])),
        (Some('_'), Some(_)) => like_naive(&p[1..], &t[1..]),
        (Some(pc), Some(tc)) if pc == tc => like_naive(&p[1..], &t[1..]),
        _ => false,
    }
}

/// A literal for the indexed `seq` column: mostly small integers (so
/// values collide), but also NULL, floats that equal integers, both
/// zeros, and a string — everything the scan has an opinion on.
fn seq_literal(x: i64) -> String {
    match x.rem_euclid(16) {
        0 => "NULL".into(),
        1 => format!("{}.0", x.rem_euclid(7)),
        2 => format!("{}.5", x.rem_euclid(7)),
        3 => "-0.0".into(),
        4 => "0.0".into(),
        5 => format!("'s{}'", x.rem_euclid(3)),
        _ => (x.rem_euclid(14) - 2).to_string(),
    }
}

/// The query battery run after every mutation: windows, equalities,
/// mixed conjuncts, and the shapes that must fall back to the scan.
fn sql_battery(a: i64, b: i64) -> Vec<String> {
    let (lo, hi) = (a.rem_euclid(12) - 1, b.rem_euclid(12));
    let (la, lb) = (seq_literal(a), seq_literal(b));
    vec![
        format!("SELECT * FROM t WHERE seq >= {lo} AND seq < {hi}"),
        format!("SELECT * FROM t WHERE seq BETWEEN {lo} AND {hi}"),
        format!("SELECT * FROM t WHERE seq = {la}"),
        format!("SELECT * FROM t WHERE {lb} <= seq"),
        format!("SELECT * FROM t WHERE seq > {la} AND seq <= {lb}"),
        format!("SELECT * FROM t WHERE seq < {hi} AND tag = 't{}'", a.rem_euclid(3)),
        format!("SELECT * FROM t WHERE tag LIKE 't%' AND seq >= {lo}.0 ORDER BY tag"),
        format!("SELECT * FROM t WHERE tag >= 't1' AND seq = {lo}"),
        format!("SELECT * FROM t WHERE seq < {lo} OR seq > {hi}"),
        format!("SELECT * FROM t WHERE NOT seq < {hi}"),
        format!("SELECT * FROM t WHERE seq != {lo} AND seq IN ({lo}, {hi})"),
        format!("SELECT id FROM t WHERE seq >= {lo} ORDER BY seq DESC LIMIT 3"),
        format!("SELECT COUNT(*), MIN(seq) FROM t WHERE seq > {lo} AND seq > {hi}"),
        "SELECT * FROM t WHERE seq = NULL".into(),
        "SELECT * FROM t WHERE seq < 'zz' AND seq >= 's0'".into(),
        "SELECT * FROM t".into(),
    ]
}

proptest! {
    /// *Index ≡ scan*: a database with ordered indexes on `seq` and `tag`
    /// and its twin without answer every statement identically — rows,
    /// order, affected counts and errors — under random inserts, deletes,
    /// updates and re-inserts between the queries.
    #[test]
    fn index_equiv_scan(steps in prop::collection::vec((0u8..8, any::<i64>(), any::<i64>()), 1..24)) {
        let mut indexed = Database::new("d");
        let mut plain = Database::new("d");
        for db in [&mut indexed, &mut plain] {
            db.create_table("t", "id", &["id", "seq", "tag"]).unwrap();
        }
        indexed.create_index("t", "seq").unwrap();
        indexed.create_index("t", "tag").unwrap();
        for (kind, a, b) in steps {
            let id = a.rem_euclid(20);
            let mutation = match kind {
                // Inserts dominate; a deleted id comes back with new values.
                0..=3 => format!(
                    "INSERT INTO t VALUES ('k{id}', {}, 't{}')", seq_literal(b), b.rem_euclid(3)
                ),
                4 => format!("DELETE FROM t WHERE id = 'k{id}'"),
                5 => format!(
                    "DELETE FROM t WHERE seq >= {} AND seq < {}", b.rem_euclid(12), b.rem_euclid(12) + 2
                ),
                6 => format!("UPDATE t SET seq = {} WHERE id = 'k{id}'", seq_literal(b)),
                _ => format!(
                    "UPDATE t SET seq = {}, tag = 't9' WHERE seq = {}", seq_literal(b), seq_literal(a)
                ),
            };
            prop_assert_eq!(
                format!("{:?}", indexed.execute(&mutation)),
                format!("{:?}", plain.execute(&mutation)),
                "{}", mutation
            );
            for q in sql_battery(a, b) {
                let scanned = plain.query(&q);
                prop_assert!(scanned.is_ok(), "{}: {:?}", q, scanned);
                prop_assert_eq!(
                    format!("{:?}", indexed.query(&q)),
                    format!("{:?}", scanned),
                    "{} after {}", q, mutation
                );
            }
        }
    }

    /// The fast LIKE matcher agrees with the naive recursive one.
    #[test]
    fn like_agrees_with_reference(
        pattern in "[ab%_]{0,8}",
        text in "[ab]{0,10}",
    ) {
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        prop_assert_eq!(like_match(&pattern, &text), like_naive(&p, &t));
    }

    /// `%text%` always matches any string containing `text`.
    #[test]
    fn like_contains(needle in "[a-z]{1,5}", pre in "[a-z]{0,5}", post in "[a-z]{0,5}") {
        let text = format!("{pre}{needle}{post}");
        let pattern = format!("%{needle}%");
        prop_assert!(like_match(&pattern, &text));
    }

    /// Insert-then-get returns exactly what was stored; delete removes it.
    #[test]
    fn insert_get_delete_roundtrip(rows in prop::collection::btree_map("[a-z0-9]{1,8}", any::<i64>(), 1..40)) {
        let mut db = Database::new("d");
        db.create_table("t", "id", &["id", "n"]).unwrap();
        for (k, n) in &rows {
            db.insert_row("t", vec![Value::str(k.clone()), Value::Int(*n)]).unwrap();
        }
        prop_assert_eq!(db.table("t").unwrap().len(), rows.len());
        for (k, n) in &rows {
            let row = db.get("t", k).unwrap().unwrap();
            prop_assert_eq!(row["n"].clone(), Value::Int(*n));
        }
        // Delete half of the rows, check membership afterwards.
        let doomed: Vec<_> = rows.keys().take(rows.len() / 2).cloned().collect();
        for k in &doomed {
            db.execute(&format!("DELETE FROM t WHERE id = '{k}'")).unwrap();
        }
        for k in rows.keys() {
            let present = db.get("t", k).unwrap().is_some();
            prop_assert_eq!(present, !doomed.contains(k));
        }
    }

    /// A filtered scan returns exactly the rows a manual filter selects,
    /// with and without a secondary index.
    #[test]
    fn scan_matches_manual_filter(ns in prop::collection::vec(0i64..50, 1..60), threshold in 0i64..50) {
        let mut db = Database::new("d");
        db.create_table("t", "id", &["id", "n"]).unwrap();
        for (i, n) in ns.iter().enumerate() {
            db.insert_row("t", vec![Value::str(format!("k{i}")), Value::Int(*n)]).unwrap();
        }
        let rows = db.query(&format!("SELECT * FROM t WHERE n > {threshold}")).unwrap();
        let expected = ns.iter().filter(|&&n| n > threshold).count();
        prop_assert_eq!(rows.len(), expected);

        // Equality via index agrees with scan.
        db.create_index("t", "n").unwrap();
        let eq_indexed = db.query(&format!("SELECT * FROM t WHERE n = {threshold}")).unwrap();
        let expected_eq = ns.iter().filter(|&&n| n == threshold).count();
        prop_assert_eq!(eq_indexed.len(), expected_eq);
    }

    /// ORDER BY really sorts and LIMIT truncates.
    #[test]
    fn order_and_limit(ns in prop::collection::vec(any::<i32>(), 1..50), limit in 0usize..60) {
        let mut db = Database::new("d");
        db.create_table("t", "id", &["id", "n"]).unwrap();
        for (i, n) in ns.iter().enumerate() {
            db.insert_row("t", vec![Value::str(format!("k{i:03}")), Value::Int(*n as i64)]).unwrap();
        }
        let rows = db.query(&format!("SELECT n FROM t ORDER BY n ASC LIMIT {limit}")).unwrap();
        prop_assert_eq!(rows.len(), ns.len().min(limit));
        let got: Vec<i64> = rows.iter().map(|r| r["n"].as_int().unwrap()).collect();
        let mut sorted: Vec<i64> = ns.iter().map(|&n| n as i64).collect();
        sorted.sort_unstable();
        sorted.truncate(limit);
        prop_assert_eq!(got, sorted);
    }

    /// COUNT(*) equals the number of live rows under any filter.
    #[test]
    fn count_agrees(ns in prop::collection::vec(0i64..20, 0..40), threshold in 0i64..20) {
        let mut db = Database::new("d");
        db.create_table("t", "id", &["id", "n"]).unwrap();
        for (i, n) in ns.iter().enumerate() {
            db.insert_row("t", vec![Value::str(format!("k{i}")), Value::Int(*n)]).unwrap();
        }
        let r = db.query(&format!("SELECT COUNT(*) FROM t WHERE n < {threshold}")).unwrap();
        let expected = ns.iter().filter(|&&n| n < threshold).count() as i64;
        prop_assert_eq!(r[0]["count"].clone(), Value::Int(expected));
    }
}
