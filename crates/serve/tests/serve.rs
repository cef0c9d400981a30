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

/// One hub whose level-1 neighbourhood renders above 1 MiB: 1100
/// satellites under kilobyte-long keys.
fn hub() -> Arc<Quepa> {
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
    Arc::new(Quepa::new(polystore, index))
}

/// An answer above `MAX_FRAME` must not reach the socket: the client
/// would reject its length word as unsynchronisable and drop the
/// connection. The request is answered with a structured `ERROR` under
/// its own id, the connection keeps serving, and the ledger balances.
#[test]
fn oversized_answer_is_a_structured_error_not_a_dropped_connection() {
    let quepa = hub();
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

// ---- the COMMAND verb: the command surface over the wire ------------------

const EXPLORE: &str = "EXPLORE transactions SELECT * FROM sales WHERE seq < 4";

/// A gate that admits one request at a time and sheds the rest; a test
/// holds the one slot to have the server shed on demand.
fn one_at_a_time() -> AdmissionConfig {
    AdmissionConfig { width: 1, soft_depth: 1, hard_depth: 1, deadline: Duration::from_secs(60) }
}

#[test]
fn two_connections_explore_independently() {
    let server = Server::start(quepa(), "127.0.0.1:0", wide_open()).unwrap();
    let mut ann = Client::connect(server.local_addr()).unwrap();
    let mut bob = Client::connect(server.local_addr()).unwrap();
    assert_eq!(ann.command(EXPLORE).unwrap().status, Status::Ok);
    assert_eq!(bob.command(EXPLORE).unwrap().status, Status::Ok);
    let ann_first = ann.command("PICK 0").unwrap();
    let bob_first = bob.command("PICK 3").unwrap();
    assert!(
        ann_first.payload.starts_with("path: transactions.sales.s0\n"),
        "{}",
        ann_first.payload
    );
    assert!(
        bob_first.payload.starts_with("path: transactions.sales.s3\n"),
        "{}",
        bob_first.payload
    );
    // Ann walks on; Bob's session has not moved, and ending it leaves hers.
    let ann_second = ann.command("PICK 0").unwrap();
    assert!(ann_second.payload.contains(" → "), "{}", ann_second.payload);
    assert_eq!(bob.command("BACK").unwrap().payload, bob_first.payload);
    assert!(bob.command("END").unwrap().payload.contains("closed after 1 steps"));
    assert_eq!(ann.command("BACK").unwrap().payload, ann_second.payload);
    // A session belongs to its connection and is not durable: a client
    // that reconnects starts over with EXPLORE.
    drop(ann);
    let mut ann = Client::connect(server.local_addr()).unwrap();
    let lost = ann.command("BACK").unwrap();
    assert_eq!(lost.status, Status::Error);
    assert!(lost.payload.contains("no exploration in progress"), "{}", lost.payload);
}

#[test]
fn session_errors_are_structured_and_leave_the_session_usable() {
    let quepa = quepa();
    let server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", one_at_a_time()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for line in ["PICK 0", "BACK", "END"] {
        let response = client.command(line).unwrap();
        assert_eq!(response.status, Status::Error, "{line} without a session");
        assert!(response.payload.contains("no exploration in progress"), "{}", response.payload);
    }
    assert_eq!(client.command(EXPLORE).unwrap().status, Status::Ok);
    let out_of_range = client.command("PICK 99").unwrap();
    assert_eq!(out_of_range.status, Status::Error);
    assert!(out_of_range.payload.contains("out of range"), "{}", out_of_range.payload);
    let first = client.command("PICK 0").unwrap();
    assert_eq!(first.status, Status::Ok, "{}", first.payload);

    // The server sheds the next PICK: OVERLOAD, and the session has not
    // moved. (BACK first: once it is answered the PICK before it has
    // given its ticket back, and the one slot is free to take.)
    assert_eq!(client.command("BACK").unwrap().payload, first.payload);
    let (_, slot) = server.gate().try_admit();
    assert!(slot.is_some(), "the test could not take the gate's only slot");
    let shed = client.command("PICK 0").unwrap();
    assert_eq!(shed.status, Status::Overload);
    assert!(shed.payload.starts_with("overload: depth="), "{}", shed.payload);
    // The control plane is not gated ...
    assert_eq!(client.command("BACK").unwrap().payload, first.payload);
    drop(slot);
    // ... and the PICK after the shed one is the PICK that was shed.
    let second = client.command("PICK 0").unwrap();
    assert_eq!(second.status, Status::Ok, "{}", second.payload);
    assert!(second.payload.contains(" → "), "{}", second.payload);
    assert!(client.command("END").unwrap().payload.contains("closed after 2 steps"));

    // Six query-plane commands — the sessionless PICK, EXPLORE, PICK 99,
    // PICK 0, the shed PICK 0 and its repeat — entered the ledger once
    // each, answered with an error or not; BACK and END never did.
    let ledger = quepa.metrics_snapshot().admission;
    assert_eq!((ledger.offered, ledger.served, ledger.shed), (6, 5, 1));
}

/// Query-plane commands mixed into AUGMENT traffic pass the same gate and
/// keep the same two-sided ledger — with sessions open when their client
/// disconnects and when the server shuts down.
#[test]
fn commands_share_the_gate_and_the_ledger_with_augment() {
    let quepa = quepa();
    // soft_depth 0: everything admitted runs degraded.
    let degrading = AdmissionConfig { soft_depth: 0, ..wide_open() };
    let mut server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", degrading).unwrap();
    let sizes = |level| {
        let answer = quepa.augmented_search(DATABASE, QUERY, level).unwrap();
        format!("({} original + {} augmented in", answer.original.len(), answer.augmented.len())
    };
    assert_ne!(sizes(0), sizes(1), "the fixture must tell a clamped SEARCH from a full one");
    let (mut answered, mut degraded) = (0u64, 0u64);
    let mut clients: Vec<Client> = Vec::new();
    for round in 0..4 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let search = client.command(&format!("SEARCH {DATABASE} 1 {QUERY}")).unwrap();
        // Clamped to level 0 and said so, exactly like AUGMENT.
        assert_eq!(search.status, Status::Degraded);
        assert!(search.payload.contains(&sizes(0)), "{}", search.payload);
        assert_eq!(client.augment(DATABASE, 1, QUERY).unwrap().status, Status::Degraded);
        // EXPLAIN / EXPLORE / PICK have no cheaper shape: run as admitted.
        let explain = format!("EXPLAIN {DATABASE} 1 {QUERY} :: key contains \"9\"");
        for line in [explain.as_str(), EXPLORE, "PICK 0"] {
            let response = client.command(line).unwrap();
            assert_eq!(response.status, Status::Ok, "{line}: {}", response.payload);
        }
        // A query-plane command that fails was still answered: served.
        assert_eq!(client.command("SEARCH nosuchdb 1 q").unwrap().status, Status::Error);
        // Control plane and protocol errors never enter the ledger.
        assert_eq!(client.command("STATS").unwrap().status, Status::Ok);
        assert_eq!(client.command("FROBNICATE").unwrap().status, Status::Error);
        answered += 6;
        degraded += 2; // SEARCH and AUGMENT; a failed request counts served, not degraded
        if round % 2 == 0 {
            drop(client); // disconnects mid-session
        } else {
            clients.push(client); // session still open at shutdown
        }
    }
    server.shutdown();
    assert_eq!(server.retained_handles(), 0, "a connection thread outlived shutdown");
    assert_eq!(server.gate().depth(), 0, "a ticket outlived its request");
    let ledger = quepa.metrics_snapshot().admission;
    assert_eq!((ledger.offered, ledger.served, ledger.shed), (answered, answered, 0));
    assert_eq!(ledger.degraded, degraded);
}

/// The check `finished_connections_do_not_accumulate` makes, with a
/// session open on every connection that ends.
#[test]
fn finished_connections_with_open_sessions_do_not_accumulate() {
    let server = Server::start(quepa(), "127.0.0.1:0", wide_open()).unwrap();
    for _ in 0..100 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.command(EXPLORE).unwrap().status, Status::Ok);
        assert_eq!(client.command("PICK 0").unwrap().status, Status::Ok);
        // Commands of one connection run in order: once this is answered
        // the PICK before it has given its ticket back.
        assert_eq!(client.command("BACK").unwrap().status, Status::Ok);
    }
    let retained = server.retained_handles();
    assert!(retained <= 16, "{retained} handles retained after 100 abandoned sessions");
    assert_eq!(server.gate().depth(), 0);
}

/// A command line in a frame is input from outside the program: it does
/// not name a path on the server's filesystem and does not rewrite the
/// configuration every other client runs under.
#[test]
fn save_load_and_config_changes_are_refused_over_the_wire() {
    let quepa = quepa();
    let server = Server::start(Arc::clone(&quepa), "127.0.0.1:0", wide_open()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let before = (quepa.config(), quepa.index().stats());
    let path = std::env::temp_dir().join(format!("quepa-wire-refused-{}", std::process::id()));
    std::fs::write(&path, "not an index").unwrap();
    let fresh = path.with_extension("new");
    for line in [
        format!("SAVE {}", fresh.display()),
        format!("LOAD {}", path.display()),
        "CONFIG OBS ON".to_owned(),
        "CONFIG PUSH OFF".to_owned(),
        "CONFIG SEQUENTIAL 1 1 0".to_owned(),
    ] {
        let response = client.command(&line).unwrap();
        assert_eq!(response.status, Status::Error, "{line}");
        assert!(response.payload.contains("local only"), "{line}: {}", response.payload);
    }
    assert!(!fresh.exists(), "a refused SAVE created a file");
    // A LOAD that had read the file would have failed on its contents,
    // not with "local only"; the configuration and the index are as before.
    assert_eq!((quepa.config(), quepa.index().stats()), before);
    std::fs::remove_file(&path).unwrap();
    // Reading the configuration stays available.
    let shown = client.command("CONFIG").unwrap();
    assert_eq!(shown.status, Status::Ok);
    assert_eq!(shown.payload, format!("{}\n", quepa.config()));
}

/// A reply larger than a frame takes the oversized-answer path, and the
/// session it came from goes on.
#[test]
fn an_oversized_command_reply_is_a_structured_error() {
    let server = Server::start(hub(), "127.0.0.1:0", wide_open()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.command("EXPLORE hub GET seed").unwrap().status, Status::Ok);
    let frontier = client.command("PICK 0").unwrap();
    assert_eq!(frontier.status, Status::Error);
    assert!(frontier.payload.contains("exceeds"), "{}", frontier.payload);
    let closed = client.command("END").unwrap();
    assert_eq!(closed.status, Status::Ok);
    assert!(closed.payload.contains("closed after 1 steps"), "{}", closed.payload);
}
