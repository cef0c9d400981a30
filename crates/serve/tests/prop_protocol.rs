//! Fuzz corpus for the wire protocol and the server's framing layer.
//!
//! Properties:
//!
//! 1. **No panics, classified errors**: `decode_request` over arbitrary
//!    bodies and `read_frame` over arbitrary byte streams never panic;
//!    every failure is a classified [`FrameError`] or `io::Error`.
//! 2. **Round trip**: encode ∘ decode is the identity for arbitrary
//!    requests and responses.
//! 3. **Server survives garbage**: a live server fed arbitrary malformed
//!    frames (truncated lengths, oversized lengths, garbage verbs,
//!    non-UTF-8 payloads, `COMMAND` payloads that are no command line)
//!    answers each with a structured `ERROR` or
//!    closes the connection cleanly — and keeps serving well-formed
//!    clients afterwards.
//!
//! The vendored proptest has no shrinking and therefore no
//! `proptest-regressions` corpus files; failures print the generated
//! input and deterministic case number instead (see DESIGN.md).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use quepa_polystore::Deployment;
use quepa_serve::{
    decode_request, decode_response, encode_request, encode_response, read_frame, read_response,
    AdmissionConfig, Client, Request, Response, Server, Status, Verb, HEADER_LEN, MAX_FRAME,
};
use quepa_workload::{BuiltPolystore, WorkloadConfig};

fn arb_verb() -> impl Strategy<Value = Verb> {
    prop_oneof![
        Just(Verb::Query),
        Just(Verb::Augment),
        Just(Verb::Metrics),
        Just(Verb::Checkpoint),
        Just(Verb::Command),
    ]
}

fn arb_status() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::Degraded),
        Just(Status::Error),
        Just(Status::Overload),
    ]
}

/// Malformed-leaning frames: whole random byte salads, frames with a
/// consistent length word but garbage header bytes, and truncations.
/// The boolean says whether every response must be `ERROR` (a raw salad
/// can, with astronomically small probability, form a valid request, so
/// that arm only asserts survival).
fn arb_wire_bytes() -> impl Strategy<Value = (Vec<u8>, bool)> {
    prop_oneof![
        // Raw byte salad (any length word, any body).
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| (bytes, false)),
        // Consistent length word over a garbage body — exercises the
        // decode layer rather than the length check.
        (prop::collection::vec(any::<u8>(), 0..32)).prop_map(|body| {
            let mut frame = ((HEADER_LEN + body.len()) as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(&[0u8; 8]);
            frame.push(99); // garbage verb
            frame.extend_from_slice(&body);
            (frame, true)
        }),
        // Oversized length words.
        ((MAX_FRAME as u32 + 1)..u32::MAX).prop_map(|len| (len.to_be_bytes().to_vec(), true)),
        // Undersized length words.
        (0u32..HEADER_LEN as u32).prop_map(|len| (len.to_be_bytes().to_vec(), true)),
        // Well-framed COMMAND requests whose payload is not a command
        // line: an unknown verb, a blank line, a line break inside, and
        // bytes that are not UTF-8.
        prop_oneof![
            "[0-9#@!?]{1,12}".prop_map(String::into_bytes),
            "[ \\t\\n]{0,8}".prop_map(String::into_bytes),
            ("[A-Z]{1,8}", "[!-~]{1,16}").prop_map(|(a, b)| format!("{a}\n{b}").into_bytes()),
            prop::collection::vec(128u8..=255, 1..16),
        ]
        .prop_map(|payload| {
            let request = Request { id: 7, verb: Verb::Command, payload: String::new() };
            let mut frame = encode_request(&request);
            frame[..4].copy_from_slice(&((HEADER_LEN + payload.len()) as u32).to_be_bytes());
            frame.extend_from_slice(&payload);
            (frame, true)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_encode_decode_round_trips(
        id in any::<u64>(),
        verb in arb_verb(),
        payload in "[ -~\\n]{0,128}",
    ) {
        let request = Request { id, verb, payload };
        let frame = encode_request(&request);
        prop_assert_eq!(decode_request(&frame[4..]).unwrap(), request);
    }

    #[test]
    fn response_encode_decode_round_trips(
        id in any::<u64>(),
        status in arb_status(),
        payload in "[ -~\\n]{0,128}",
    ) {
        let response = Response { id, status, payload };
        let frame = encode_response(&response);
        prop_assert_eq!(decode_response(&frame[4..]).unwrap(), response);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bodies(body in prop::collection::vec(any::<u8>(), 0..64)) {
        // Any outcome is fine; panicking is not.
        let _ = decode_request(&body);
        let _ = decode_response(&body);
    }

    #[test]
    fn read_frame_never_panics_on_arbitrary_streams(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut cursor: &[u8] = &bytes;
        // Drain the stream; every step either yields a frame, a clean
        // EOF, or a classified error.
        for _ in 0..8 {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// One server shared by every fuzz case: feeding it garbage and then
/// proving a well-formed client still gets answers is the whole point.
#[test]
fn server_survives_malformed_frame_volleys() {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 40,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 99,
    });
    let quepa = Arc::new(built.into_quepa());
    let config = AdmissionConfig {
        width: 2,
        soft_depth: 64,
        hard_depth: 256,
        deadline: Duration::from_secs(60),
    };
    let server = Server::start(quepa, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Drive the strategy by hand (the vendored proptest's macro only
    // binds plain identifiers): same deterministic per-case RNG scheme.
    let strategy = arb_wire_bytes();
    for case in 0..64u64 {
        let mut rng = proptest::TestRng::new("prop_protocol::server_survives", case);
        let (bytes, errors_only) = Strategy::gen_value(&strategy, &mut rng);
        let mut writer = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        writer.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
        reader.get_ref().set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if writer.write_all(&bytes).is_ok() {
            // Half-close so a server waiting for the rest of a
            // truncated frame sees EOF instead of parking.
            let _ = writer.shutdown(std::net::Shutdown::Write);
        }
        // Drain responses until the server closes: each must be a
        // structured ERROR when the volley cannot form a request.
        loop {
            match read_response(&mut reader) {
                Ok(Some(response)) => {
                    if errors_only {
                        assert_eq!(
                            response.status,
                            Status::Error,
                            "case {case}: non-error response to {bytes:?}"
                        );
                    }
                }
                Ok(None) => break,
                // Server closed mid-frame or reset: a clean outcome for
                // an unsynchronized stream.
                Err(_) => break,
            }
        }
    }

    // After 64 garbage volleys the server still serves.
    let mut client = Client::connect(addr).unwrap();
    let response =
        client.augment("transactions", 1, "SELECT * FROM inventory WHERE seq < 5").unwrap();
    assert_eq!(response.status, Status::Ok);
    assert!(!response.payload.is_empty());
}
