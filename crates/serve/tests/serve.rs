//! End-to-end server tests over a loopback socket: answers match the
//! in-process engine bit-for-bit, admission accounting balances, the
//! control plane works, and malformed clients never take the server
//! down.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use quepa_aindex::AIndex;
use quepa_core::Quepa;
use quepa_kvstore::KvStore;
use quepa_pdm::{GlobalKey, Probability};
use quepa_polystore::{Deployment, KvConnector, LatencyModel, Polystore};
use quepa_serve::{
    read_response, send_request, AdmissionConfig, Client, Request, Server, Status, Verb, MAX_FRAME,
};
use quepa_workload::{BuiltPolystore, WorkloadConfig};

const DATABASE: &str = "transactions";
const QUERY: &str = "SELECT * FROM inventory WHERE seq < 10";

fn quepa() -> Arc<Quepa> {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 60,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 77,
    });
    Arc::new(built.into_quepa())
}

fn wide_open() -> AdmissionConfig {
    AdmissionConfig {
        width: 4,
        soft_depth: 1024,
        hard_depth: 4096,
        deadline: Duration::from_secs(60),
    }
}

#[test]
fn served_answers_match_in_process_bit_for_bit() {
    let quepa = quepa();
    let expected = quepa
        .augmented_search(DATABASE, QUERY, 1)
        .expect("in-process query works")
        .normal_form()
        .to_string();
    let server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", wide_open()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client.augment(DATABASE, 1, QUERY).unwrap();
    assert_eq!(response.status, Status::Ok);
    assert_eq!(response.payload, expected, "wire answer differs from in-process answer");
    // QUERY is the level-0 surface.
    let local = client.query(DATABASE, QUERY).unwrap();
    assert_eq!(local.status, Status::Ok);
    assert_eq!(
        local.payload,
        quepa.augmented_search(DATABASE, QUERY, 0).unwrap().normal_form().to_string()
    );
}

/// The `threads_size: 1` collapse pin: a width-1 executor (single
/// serving thread) must answer bit-identically to the wide pool.
#[test]
fn single_threaded_serving_answers_bit_identically() {
    let quepa = quepa();
    let narrow = AdmissionConfig { width: 1, ..wide_open() };
    let wide = Server::start(Arc::clone(&quepa), "127.0.0.1:0", wide_open()).unwrap();
    let serial = Server::start(Arc::clone(&quepa), "127.0.0.1:0", narrow).unwrap();
    let mut wide_client = Client::connect(wide.local_addr()).unwrap();
    let mut serial_client = Client::connect(serial.local_addr()).unwrap();
    for level in [0, 1, 2] {
        let a = wide_client.augment(DATABASE, level, QUERY).unwrap();
        let b = serial_client.augment(DATABASE, level, QUERY).unwrap();
        assert_eq!(a.status, Status::Ok);
        assert_eq!(b.status, Status::Ok);
        assert_eq!(a.payload, b.payload, "level {level} diverged across pool widths");
    }
}

#[test]
fn admission_ledger_balances_served_plus_shed() {
    let quepa = quepa();
    // soft_depth 0 degrades every request (depth starts at 1) while the
    // roomy hard_depth admits them all — the all-degraded regime.
    let config = AdmissionConfig {
        width: 1,
        soft_depth: 0,
        hard_depth: 1024,
        deadline: Duration::from_secs(60),
    };
    let server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Everything admitted at depth 1 > soft_depth 0 degrades.
    for _ in 0..5 {
        let response = client.augment(DATABASE, 1, QUERY).unwrap();
        assert_eq!(response.status, Status::Degraded);
        // The degraded payload is the exact level-0 answer.
        assert_eq!(
            response.payload,
            quepa.augmented_search(DATABASE, QUERY, 0).unwrap().normal_form().to_string()
        );
    }
    let admission = quepa.metrics_snapshot().admission;
    assert_eq!(admission.offered, 5);
    assert_eq!(admission.served, 5);
    assert_eq!(admission.degraded, 5);
    assert_eq!(admission.shed, 0);
    assert_eq!(admission.offered, admission.served + admission.shed);
}

#[test]
fn overload_response_is_structured_and_counted() {
    let quepa = quepa();
    // hard_depth 0 sheds every request at the gate (depth starts at 1).
    let config = AdmissionConfig {
        width: 1,
        soft_depth: 0,
        hard_depth: 0,
        deadline: Duration::from_secs(60),
    };
    let server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client.augment(DATABASE, 1, QUERY).unwrap();
    assert_eq!(response.status, Status::Overload);
    assert!(response.payload.starts_with("overload: depth="), "{}", response.payload);
    let admission = quepa.metrics_snapshot().admission;
    assert_eq!((admission.offered, admission.served, admission.shed), (1, 0, 1));
}

/// An answer above `MAX_FRAME` must not reach the socket: the client
/// would reject its length word as unsynchronisable and drop the
/// connection. The request is answered with a structured `ERROR` under
/// its own id, the connection keeps serving, and the ledger balances.
#[test]
fn oversized_answer_is_a_structured_error_not_a_dropped_connection() {
    // One hub whose level-1 neighbourhood renders above 1 MiB: 1100
    // satellites under kilobyte-long keys.
    let mut kv = KvStore::new("hub");
    kv.set("seed", "s");
    kv.set("lone", "l");
    let mut index = AIndex::new();
    let seed: GlobalKey = "hub.c.seed".parse().unwrap();
    for i in 0..1100 {
        let satellite = format!("sat{i:04}{}", "x".repeat(1000));
        kv.set(&satellite, "v");
        let key = GlobalKey::parse_parts("hub", "c", &satellite).unwrap();
        index.insert_matching(&seed, &key, Probability::of(0.5));
    }
    let mut polystore = Polystore::new();
    polystore.register(Arc::new(KvConnector::new(kv, "c", LatencyModel::FREE)));
    let quepa = Arc::new(Quepa::new(polystore, index));
    let answer = quepa.augmented_search("hub", "GET seed", 1).unwrap().normal_form().to_string();
    assert!(answer.len() > MAX_FRAME, "the fixture must overflow a frame: {}", answer.len());

    let server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", wide_open()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // `Client::call` checks the echoed id.
    let response = client.augment("hub", 1, "GET seed").expect("a frame the client can read");
    assert_eq!(response.status, Status::Error);
    assert!(response.payload.contains("exceeds"), "{}", response.payload);
    // The next request on the same connection succeeds.
    let small = client.query("hub", "GET lone").unwrap();
    assert_eq!(small.status, Status::Ok, "{}", small.payload);
    let admission = quepa.metrics_snapshot().admission;
    assert_eq!((admission.offered, admission.served, admission.shed), (2, 2, 0));
}

#[test]
fn metrics_and_checkpoint_control_plane() {
    let quepa = quepa();
    let server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", wide_open()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let _ = client.augment(DATABASE, 1, QUERY).unwrap();
    let prom = client.metrics(false).unwrap();
    assert_eq!(prom.status, Status::Ok);
    assert!(prom.payload.contains("quepa_admission_offered_total 1"), "{}", prom.payload);
    let json = client.metrics(true).unwrap();
    assert_eq!(json.status, Status::Ok);
    assert!(json.payload.contains("\"admission\""), "{}", json.payload);
    // This instance has no durable attachment: CHECKPOINT answers a
    // structured error, not a hang or a panic.
    let cut = client.checkpoint().unwrap();
    assert_eq!(cut.status, Status::Error);
    assert!(cut.payload.contains("--data-dir"), "{}", cut.payload);
}

#[test]
fn pipelined_requests_come_back_with_matching_ids() {
    let quepa = quepa();
    let server = Server::start(quepa, "127.0.0.1:0", wide_open()).unwrap();
    let mut writer = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let total = 16u64;
    for id in 1..=total {
        send_request(
            &mut writer,
            &Request {
                id,
                verb: Verb::Augment,
                payload: quepa_serve::augment_payload(DATABASE, 1, QUERY),
            },
        )
        .unwrap();
    }
    let mut seen = Vec::new();
    let mut payloads = std::collections::BTreeSet::new();
    for _ in 0..total {
        let response = read_response(&mut reader).unwrap().expect("response");
        assert_eq!(response.status, Status::Ok);
        payloads.insert(response.payload);
        seen.push(response.id);
    }
    seen.sort_unstable();
    assert_eq!(seen, (1..=total).collect::<Vec<_>>(), "every id answered exactly once");
    assert_eq!(payloads.len(), 1, "identical queries answer identically");
}

#[test]
fn malformed_frames_answer_errors_or_close_cleanly() {
    let quepa = quepa();
    let server = Server::start(quepa, "127.0.0.1:0", wide_open()).unwrap();
    let addr = server.local_addr();

    // Unknown verb: structured error, connection survives.
    let mut writer = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut frame = (9u32 + 1).to_be_bytes().to_vec();
    frame.extend_from_slice(&7u64.to_be_bytes());
    frame.push(200); // no such verb
    frame.push(b'x');
    writer.write_all(&frame).unwrap();
    let response = read_response(&mut reader).unwrap().expect("error response");
    assert_eq!((response.id, response.status), (7, Status::Error));
    // The same connection still serves.
    send_request(&mut writer, &Request { id: 8, verb: Verb::Metrics, payload: String::new() })
        .unwrap();
    let response = read_response(&mut reader).unwrap().expect("metrics response");
    assert_eq!((response.id, response.status), (8, Status::Ok));

    // Oversized length word: one final error (id 0), then close.
    let mut writer = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    writer.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let response = read_response(&mut reader).unwrap().expect("error response");
    assert_eq!((response.id, response.status), (0, Status::Error));
    assert_eq!(read_response(&mut reader).unwrap(), None, "stream closed after desync");

    // Truncated frame then EOF: the server just closes, no panic.
    let mut writer = TcpStream::connect(addr).unwrap();
    writer.write_all(&[0, 0, 0, 20, 1, 2, 3]).unwrap();
    drop(writer);

    // The server is still alive for well-behaved clients.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.metrics(false).unwrap().status, Status::Ok);
}

/// Every socket the server accepts has `TCP_NODELAY` on (as has the
/// client's side of it): no frame waits for an ACK of the one before.
#[test]
fn accepted_sockets_have_nodelay_on() {
    let server = Server::start(quepa(), "127.0.0.1:0", wide_open()).unwrap();
    let mut clients: Vec<Client> =
        (0..3).map(|_| Client::connect(server.local_addr()).unwrap()).collect();
    // A round trip each: the server has accepted all three.
    for client in &mut clients {
        assert_eq!(client.metrics(false).unwrap().status, Status::Ok);
    }
    assert_eq!(server.live_nodelay(), [true; 3]);
}

/// A long-lived server that sees short connections keeps handles of the
/// live ones only.
#[test]
fn finished_connections_do_not_accumulate() {
    let server = Server::start(quepa(), "127.0.0.1:0", wide_open()).unwrap();
    for _ in 0..300 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.metrics(false).unwrap().status, Status::Ok);
    }
    // Pruning happens at accept, so the last few may not have ended yet.
    let retained = server.retained_handles();
    assert!(retained <= 16, "{retained} handles retained after 300 connect-and-close cycles");
}
