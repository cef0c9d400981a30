//! Property tests: the graph store's BFS against a naive reference.

use std::collections::HashSet;

use proptest::prelude::*;
use quepa_graphstore::GraphDb;
use quepa_pdm::Value;

fn build(n: usize, edges: &[(u8, u8)]) -> GraphDb {
    let mut g = GraphDb::new("g");
    for i in 0..n {
        g.add_node(&format!("n{i}"), "Node", [("seq", Value::Int(i as i64))]).unwrap();
    }
    for &(a, b) in edges {
        g.add_edge(&format!("n{}", a as usize % n), &format!("n{}", b as usize % n), "E").unwrap();
    }
    g
}

/// Naive reference: BFS by repeated neighbor expansion.
fn naive_reachable(
    edges: &[(usize, usize)],
    start: usize,
    min: usize,
    max: usize,
    undirected: bool,
) -> HashSet<usize> {
    let mut seen = HashSet::from([start]);
    let mut frontier = vec![start];
    let mut out = HashSet::new();
    for depth in 1..=max {
        let mut next = Vec::new();
        for &u in &frontier {
            for &(a, b) in edges {
                let hops: Vec<usize> = if undirected {
                    [(a, b), (b, a)].iter().filter(|&&(x, _)| x == u).map(|&(_, y)| y).collect()
                } else if a == u {
                    vec![b]
                } else {
                    vec![]
                };
                for v in hops {
                    if seen.insert(v) {
                        next.push(v);
                        if depth >= min {
                            out.insert(v);
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    out
}

/// A value for the indexed `seq` property: mostly small integers (so
/// values collide), but also null, floats that equal integers, both
/// zeros and a string — everything the scan has an opinion on.
fn seq_value(x: i64) -> Value {
    match x.rem_euclid(16) {
        0 => Value::Null,
        1 => Value::Float(x.rem_euclid(7) as f64),
        2 => Value::Float(x.rem_euclid(7) as f64 + 0.5),
        3 => Value::Float(-0.0),
        4 => Value::Float(0.0),
        5 => Value::Str(format!("s{}", x.rem_euclid(3))),
        _ => Value::Int(x.rem_euclid(14) - 2),
    }
}

/// The Cypher spelling of a [`seq_value`].
fn seq_literal(x: i64) -> String {
    match seq_value(x) {
        Value::Null => "null".into(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

/// The query battery run after every mutation: windows, equalities,
/// mixed conjuncts, hops from narrowed anchors, and the shapes that must
/// fall back to the scan.
fn cypher_battery(a: i64, b: i64) -> Vec<String> {
    let (lo, hi) = (a.rem_euclid(12) - 1, b.rem_euclid(12));
    let (la, lb) = (seq_literal(a), seq_literal(b));
    let tag = a.rem_euclid(3);
    vec![
        format!("MATCH (n:Album) WHERE n.seq >= {lo} AND n.seq < {hi} RETURN n"),
        format!("MATCH (n:Album) WHERE n.seq = {la} RETURN n"),
        format!("MATCH (n:Album {{seq: {lb}}}) RETURN n"),
        format!("MATCH (n:Album) WHERE n.seq > {la} AND n.seq <= {lb} RETURN n"),
        format!("MATCH (n:Album {{tag: 't{tag}'}}) WHERE n.seq < {hi} RETURN n"),
        format!("MATCH (n:Album) WHERE n.tag STARTS WITH 't' AND n.seq >= {lo}.0 RETURN n"),
        format!("MATCH (n:Album) WHERE n.seq <> {lo} AND n.seq <= {hi} RETURN n LIMIT 3"),
        format!("MATCH (n:Album) WHERE n.seq < {hi} AND n.id >= 'n1' RETURN n"),
        format!("MATCH (n:Album)-[:E]->(m) WHERE n.seq < {hi} RETURN m"),
        format!(
            "MATCH (n:Album)-[:E*1..2]-(m:Album) WHERE n.seq >= {lo} AND m.seq < {hi} RETURN n"
        ),
        format!("MATCH (n:Album)-[:E]->(m) WHERE m.seq = {la} RETURN n LIMIT 4"),
        format!("MATCH (n:Song) WHERE n.seq < {hi} RETURN n"),
        format!("MATCH (n) WHERE n.seq >= {lo} RETURN n"),
        "MATCH (n:Album) WHERE n.seq = null RETURN n".into(),
        "MATCH (n:Album) WHERE n.seq < 'zz' AND n.seq >= 's0' RETURN n".into(),
        "MATCH (n:Album) RETURN n".into(),
    ]
}

proptest! {
    /// *Index ≡ scan*: a graph with ordered indexes on `:Album(seq)` and
    /// `:Album(tag)` and its twin without answer every query identically
    /// — nodes and order — under random node inserts, removals,
    /// re-inserts and new edges between the queries.
    #[test]
    fn index_equiv_scan(steps in prop::collection::vec((0u8..8, any::<i64>(), any::<i64>()), 1..24)) {
        let mut indexed = GraphDb::new("g");
        let mut plain = GraphDb::new("g");
        indexed.create_index("Album", "seq");
        for (kind, a, b) in steps {
            let id = format!("n{}", a.rem_euclid(20));
            let mutation = match kind {
                // Inserts dominate; a removed id comes back in a new slot.
                // Every fifth node lacks `seq`, every fourth is a `Song`.
                0..=3 => {
                    let label = if a % 4 == 0 { "Song" } else { "Album" };
                    let mut props = vec![("tag", Value::Str(format!("t{}", b.rem_euclid(3))))];
                    if b % 5 != 0 {
                        props.push(("seq", seq_value(b)));
                    }
                    prop_assert_eq!(
                        indexed.add_node(&id, label, props.clone()),
                        plain.add_node(&id, label, props)
                    );
                    format!("add {id}")
                }
                4 | 5 => {
                    let to = format!("n{}", b.rem_euclid(20));
                    prop_assert_eq!(indexed.add_edge(&id, &to, "E"), plain.add_edge(&id, &to, "E"));
                    format!("edge {id} -> {to}")
                }
                _ => {
                    prop_assert_eq!(indexed.remove_node(&id), plain.remove_node(&id));
                    format!("remove {id}")
                }
            };
            // `tag` is declared late on purpose: the backfill must see
            // exactly the live nodes of the label.
            indexed.create_index("Album", "tag");
            for q in cypher_battery(a, b) {
                let scanned = plain.query(&q);
                prop_assert!(scanned.is_ok(), "{}: {:?}", q, scanned);
                prop_assert_eq!(
                    format!("{:?}", indexed.query(&q)),
                    format!("{:?}", scanned),
                    "{} after {}", q, mutation
                );
            }
            prop_assert_eq!(indexed.node_count(), plain.node_count());
        }
    }

    #[test]
    fn reachable_matches_reference(
        edges in prop::collection::vec((0u8..10, 0u8..10), 0..30),
        start in 0u8..10,
        min in 1usize..3,
        extra in 0usize..3,
        undirected in any::<bool>(),
    ) {
        let n = 10usize;
        let max = min + extra;
        let g = build(n, &edges);
        let norm_edges: Vec<(usize, usize)> =
            edges.iter().map(|&(a, b)| (a as usize % n, b as usize % n)).collect();
        let start = start as usize % n;
        let got: HashSet<usize> = g
            .reachable(&format!("n{start}"), Some("E"), min, max, undirected)
            .unwrap()
            .into_iter()
            .map(|node| node.properties["seq"].as_int().unwrap() as usize)
            .collect();
        let want = naive_reachable(&norm_edges, start, min, max, undirected);
        prop_assert_eq!(got, want);
    }

    /// Cypher `RETURN n` with a seq predicate matches manual filtering.
    #[test]
    fn query_matches_filter(
        edges in prop::collection::vec((0u8..10, 0u8..10), 0..15),
        threshold in 0i64..10,
    ) {
        let g = build(10, &edges);
        let got = g
            .query(&format!("MATCH (n:Node) WHERE n.seq < {threshold} RETURN n"))
            .unwrap()
            .len();
        prop_assert_eq!(got, threshold.max(0) as usize);
    }
}
