//! CLI round-trip: drive the line protocol end to end — one augmented
//! query per store kind, the observability toggle, and both metrics
//! export formats — and hold the transcript stable across twin
//! fixed-seed instances.
//!
//! Wall-clock durations are the only nondeterministic output ("... in
//! 1.23ms ..." lines); everything else, including the metrics histograms
//! (which record *simulated* latency), must be byte-identical.

use quepa::cli::CommandProcessor;
use quepa::core::Quepa;
use quepa::polystore::Deployment;
use quepa::workload::{BuiltPolystore, WorkloadConfig};

fn build() -> Quepa {
    BuiltPolystore::build(WorkloadConfig {
        albums: 40,
        replica_sets: 1,
        deployment: Deployment::InProcess,
        seed: 1234,
    })
    .into_quepa()
}

/// One script, covering: the observability toggle, an augmented search in
/// each store's native language (relational SQL, Mongo-style find, Cypher
/// MATCH, redis-style SCAN), and every metrics export format.
const SCRIPT: &[&str] = &[
    "CONFIG OBS ON",
    "SEARCH transactions 1 SELECT * FROM inventory WHERE seq < 3",
    r#"SEARCH catalogue 1 db.albums.find({"seq":{"$lt":3}})"#,
    "SEARCH similar 1 MATCH (n:Album) WHERE n.seq < 3 RETURN n",
    "SEARCH discount 1 SCAN k COUNT 3",
    "STORES",
    "STATS",
    "METRICS",
    "METRICS JSON",
    "CONFIG OBS OFF",
    "METRICS",
];

fn drive(quepa: &Quepa) -> String {
    let mut processor = CommandProcessor::new(quepa);
    let mut out = String::new();
    for cmd in SCRIPT {
        out.push_str(">>> ");
        out.push_str(cmd);
        out.push('\n');
        out.push_str(&processor.handle(cmd));
    }
    out
}

/// Strips the wall-clock timing lines ("... 2 augmented in 1.2ms ...").
fn stable(transcript: &str) -> String {
    transcript.lines().filter(|l| !l.contains(" in ")).collect::<Vec<_>>().join("\n")
}

#[test]
fn every_store_kind_answers_with_augmentation() {
    let quepa = build();
    let transcript = drive(&quepa);
    // Each SEARCH section must have produced augmented results (the `⇒`
    // marker) and closed with the summary line.
    let searches: Vec<&str> =
        transcript.split(">>> ").filter(|s| s.starts_with("SEARCH")).collect();
    assert_eq!(searches.len(), 4, "script runs one search per store kind");
    for section in &searches {
        assert!(section.contains('⇒'), "no augmented results in:\n{section}");
        assert!(section.contains("augmented in"), "no summary line in:\n{section}");
        assert!(!section.contains("error"), "search failed:\n{section}");
    }
    // Augmentation crossed store boundaries: the relational search reaches
    // the document, graph and kv stores.
    let relational = searches[0];
    for db in ["catalogue", "similar", "discount"] {
        assert!(relational.contains(db), "SQL search never reached {db}:\n{relational}");
    }
}

#[test]
fn metrics_exports_and_obs_toggle_render() {
    let quepa = build();
    let transcript = drive(&quepa);
    assert!(transcript.contains("quepa_stage_spans_total"), "no Prometheus stage counters");
    assert!(transcript.contains("le=\"+Inf\""), "no histogram buckets");
    assert!(transcript.contains("\"stages\""), "no JSON export");
    assert!(transcript.contains("\"cache\""), "no cache section in JSON");
    // The final METRICS runs after CONFIG OBS OFF and must say so.
    let tail = transcript.rsplit(">>> METRICS").next().unwrap();
    assert!(tail.contains("observability is off"), "OBS OFF not reflected:\n{tail}");
}

#[test]
fn twin_instances_produce_identical_transcripts() {
    let first = stable(&drive(&build()));
    let second = stable(&drive(&build()));
    assert_eq!(first, second, "fixed-seed CLI transcript is not deterministic");
    // The filter only removes timing lines, not content.
    assert!(first.contains("quepa_stage_spans_total"));
    assert!(first.contains('⇒'));
}

// ---- one script, two transports --------------------------------------------

/// The command surface end to end: a filtered and a plain search per
/// store kind, the pushdown plan, an exploration, and every read-only
/// inspection command. (`CONFIG <args…>` is local only, so the twins are
/// built with observability already on.)
const WIRE_SCRIPT: &[&str] = &[
    r#"SEARCH transactions 1 SELECT * FROM inventory WHERE seq < 3 :: key contains "1""#,
    "SEARCH transactions 1 SELECT * FROM inventory WHERE seq < 3",
    r#"SEARCH catalogue 1 db.albums.find({"seq":{"$lt":3}}) :: key contains "1""#,
    r#"SEARCH catalogue 1 db.albums.find({"seq":{"$lt":3}})"#,
    r#"SEARCH similar 1 MATCH (n:Album) WHERE n.seq < 3 RETURN n :: key contains "1""#,
    "SEARCH similar 1 MATCH (n:Album) WHERE n.seq < 3 RETURN n",
    r#"SEARCH discount 1 SCAN k COUNT 3 :: key contains "1""#,
    "SEARCH discount 1 SCAN k COUNT 3",
    r#"EXPLAIN transactions 1 SELECT * FROM inventory WHERE seq < 3 :: key contains "1""#,
    "EXPLORE transactions SELECT * FROM sales WHERE seq < 3",
    "PICK 0",
    "PICK 0",
    "BACK",
    "END",
    "STORES",
    "STATS",
    "INDEX",
    "METRICS",
    "METRICS JSON",
    "HELP",
];

fn build_observed() -> Quepa {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 40,
        replica_sets: 1,
        deployment: Deployment::InProcess,
        seed: 1234,
    });
    let config = quepa::core::QuepaConfig { observability: true, ..Default::default() };
    Quepa::with_config(built.polystore, built.index, config)
}

fn transcript(mut answer: impl FnMut(&str) -> String) -> String {
    WIRE_SCRIPT.iter().map(|cmd| format!(">>> {cmd}\n{}", answer(cmd))).collect()
}

/// Drops the admission ledger from both metrics exports: it counts
/// requests that passed a server's gate, so it is the one thing a served
/// instance legitimately reads differently from a library one.
fn without_ledger(transcript: &str) -> String {
    let mut out = String::new();
    for line in transcript.lines().filter(|l| !l.starts_with("quepa_admission_")) {
        match line.split_once("\"admission\":{") {
            Some((head, tail)) => {
                let (_, rest) = tail.split_once('}').expect("the ledger object closes");
                out.push_str(head);
                out.push_str(rest);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// A CLI transcript *is* a wire test: the same script through
/// `CommandProcessor` in-process and through `Client::command` against a
/// loopback server, on twin fixed-seed instances, reads the same — so a
/// filtered search over a socket answers what the library call answers.
#[test]
fn a_transcript_reads_the_same_in_process_and_over_the_wire() {
    use quepa::serve::{AdmissionConfig, Client, Server, Status};

    let local = build_observed();
    let mut processor = CommandProcessor::new(&local);
    let in_process = transcript(|cmd| processor.handle(cmd));

    let served = std::sync::Arc::new(build_observed());
    let server =
        Server::start(std::sync::Arc::clone(&served), "127.0.0.1:0", AdmissionConfig::default())
            .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let over_the_wire = transcript(|cmd| {
        let response = client.command(cmd).unwrap();
        assert_eq!(response.status, Status::Ok, "{cmd}: {}", response.payload);
        response.payload
    });

    assert_eq!(without_ledger(&stable(&in_process)), without_ledger(&stable(&over_the_wire)));
    // The script did what it says: filters filtered, the plan was shown,
    // the exploration walked two steps.
    assert!(in_process.contains("(filter: key contains \"1\")"));
    assert!(in_process.contains("PUSHDOWN") || in_process.contains("FETCH-ALL"));
    assert!(in_process.contains(" → "));
    assert!(in_process.contains("exploration closed after 2 steps"));
    assert!(in_process.contains("quepa_stage_spans_total"));
    // And the ledger that was set aside reads as it must: the eight
    // searches, EXPLAIN, EXPLORE and two PICKs were offered and served.
    assert!(in_process.contains("quepa_admission_offered_total 0"));
    assert!(over_the_wire.contains("quepa_admission_offered_total 12"));
    assert!(over_the_wire
        .contains("\"admission\":{\"offered\":12,\"served\":12,\"degraded\":0,\"shed\":0}"));
}
