//! Answer bytes, pinned: for a fixed set of level-0/1/2 augmented searches
//! over SQL, document and Cypher seeds at 200 albums, the golden file
//! `tests/golden/answers.txt` holds each answer's normal form, the wire
//! response a server would encode for it, and every returned object's
//! text rendering with its `approx_size`. The answers reach key-value
//! objects, graph nodes (`_id` / `_label`) and documents whose field
//! names need escaping or are not ASCII. How a fetched object is held in
//! memory must not move one byte of any of this.

use std::fmt::Write as _;
use std::sync::Arc;

use quepa::core::{AugmentedAnswer, Quepa};
use quepa::docstore::DocumentDb;
use quepa::pdm::{DataObject, GlobalKey, Probability, Value};
use quepa::polystore::connectors::DocumentConnector;
use quepa::polystore::Deployment;
use quepa::serve::protocol::{encode_response, Response, Status};
use quepa::workload::{BuiltPolystore, WorkloadConfig};

const GOLDEN: &str = include_str!("golden/answers.txt");

fn k(s: &str) -> GlobalKey {
    s.parse().unwrap()
}

/// The test-bed at 200 albums, plus a `notes` document store whose
/// documents carry awkward field names and are linked to two albums.
fn system() -> (Quepa, usize) {
    let mut built = BuiltPolystore::build(WorkloadConfig {
        albums: 200,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 42,
    });
    let discounted = built.data.albums.iter().find(|a| a.discounted).expect("a discount").seq;

    let mut notes = DocumentDb::new("notes");
    notes
        .insert(
            "notes",
            Value::object([
                ("_id", Value::str("n1")),
                ("say \"hi\"", Value::str("quoted")),
                ("back\\slash", Value::Int(1)),
                ("tab\there", Value::Bool(true)),
                ("line\nbreak", Value::Null),
                ("ctl\u{1}", Value::Float(2.5)),
                ("crème brûlée", Value::str("ünïcödé value")),
                ("音楽", Value::array([Value::Int(1), Value::str("二")])),
                ("🎵", Value::object([("ñested", Value::str("x")), ("a\"b", Value::Int(-3))])),
            ]),
        )
        .unwrap();
    notes
        .insert(
            "notes",
            Value::object([
                ("_id", Value::str("n2")),
                ("crème brûlée", Value::str("second")),
                ("Zebra", Value::Int(7)),
                ("zebra", Value::Int(8)),
                ("", Value::str("empty name")),
            ]),
        )
        .unwrap();
    let latency = built.config.deployment.latency();
    built.polystore.register(Arc::new(DocumentConnector::new(notes, latency)));
    built.index.insert_matching(
        &k("transactions.inventory.a0"),
        &k("notes.notes.n1"),
        Probability::of(0.8),
    );
    built.index.insert_matching(
        &k(&format!("catalogue.albums.d{discounted}")),
        &k("notes.notes.n2"),
        Probability::of(0.65),
    );
    (built.into_quepa(), discounted)
}

/// The searches whose answers are pinned: `(database, query, level)`.
fn searches(discounted: usize) -> Vec<(String, String, usize)> {
    let d = discounted;
    let mut out = Vec::new();
    for level in 0..=2 {
        out.push(("transactions".into(), "SELECT * FROM inventory WHERE seq < 2".into(), level));
        out.push(("catalogue".into(), format!(r#"db.albums.find({{"seq":{d}}})"#), level));
        out.push(("similar".into(), format!("MATCH (n:Album) WHERE n.seq = {d} RETURN n"), level));
    }
    out.push(("transactions".into(), "SELECT * FROM sales WHERE seq < 2".into(), 1));
    out.push(("catalogue".into(), "db.customers.find({\"seq\":3})".into(), 2));
    out.push(("notes".into(), "db.notes.find({})".into(), 0));
    out.push(("notes".into(), "db.notes.find({})".into(), 1));
    out
}

fn write_object(out: &mut String, tag: &str, object: &DataObject) {
    writeln!(out, "  {tag} {} size={} {}", object.key(), object.approx_size(), object.value())
        .unwrap();
}

fn render(database: &str, query: &str, level: usize, answer: &AugmentedAnswer) -> String {
    let mut out = String::new();
    writeln!(out, "=== {database} level {level}: {query}").unwrap();
    let normal = answer.normal_form().to_string();
    out.push_str(&normal);
    let wire = encode_response(&Response { id: 7, status: Status::Ok, payload: normal.clone() });
    let (header, payload) = wire.split_at(wire.len() - normal.len());
    assert_eq!(payload, normal.as_bytes(), "the wire payload is the normal form");
    let hex: String = header.iter().map(|b| format!("{b:02x}")).collect();
    writeln!(out, "wire {} bytes, header {hex}", wire.len()).unwrap();
    let mut total = 0;
    for object in &answer.original {
        total += object.approx_size();
        write_object(&mut out, "original", object);
    }
    let mut augmented: Vec<&DataObject> = answer.augmented.iter().map(|a| &a.object).collect();
    augmented.sort_by(|a, b| a.key().cmp(b.key()));
    for object in augmented {
        total += object.approx_size();
        write_object(&mut out, "augmented", object);
    }
    writeln!(out, "approx_size total {total}").unwrap();
    out
}

#[test]
fn answers_match_the_golden_bytes() {
    let (quepa, discounted) = system();
    let mut actual = String::new();
    for (database, query, level) in searches(discounted) {
        let answer = quepa.augmented_search(&database, &query, level).unwrap();
        actual.push_str(&render(&database, &query, level, &answer));
    }
    if actual != GOLDEN {
        let path = std::env::temp_dir().join("quepa-answer-bytes.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        let line = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        panic!(
            "answer bytes moved (first differing line {line:?}); actual written to {}",
            path.display()
        );
    }
}
