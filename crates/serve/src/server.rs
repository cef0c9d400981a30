//! The TCP server: accept → frame → admit → execute → respond.
//!
//! One accept thread hands each connection to a reader thread; reader
//! threads decode frames and push admitted `QUERY` / `AUGMENT` work onto
//! a shared [`WorkerPool`] (the PR-5 pool type), so a single connection
//! can have many requests in flight and responses return in completion
//! order, matched by request id.
//!
//! Every reader thread also owns one [`CommandProcessor`] — the
//! interpreter the REPL uses — and runs `COMMAND` frames on it **inline,
//! in arrival order**: a session (`EXPLORE`, `PICK`, `PICK`, …) is
//! sequential by definition, and `COMMAND` arrives at human rates, from
//! `quepa-cli --connect` and tests — the load generators and the contract
//! benchmark send `AUGMENT` only, which is what a client that wants
//! pipelining keeps using. Query-plane commands ([`Command::query_plane`])
//! pass the same gate and ledger as `AUGMENT`; the rest, like the
//! `METRICS` / `CHECKPOINT` alias verbs, is control plane: cheap, never
//! shed, answered while the query plane is overloaded.
//!
//! Between a decoded frame and its response on the socket nothing waits
//! for a timer: every accepted socket goes through
//! [`configure_stream`] (`TCP_NODELAY`), so a response — one write,
//! smaller than a segment — is not held back until the client's next
//! request happens to acknowledge the previous one. The accept loop is
//! also where the handles of connections that have ended are dropped.
//!
//! Admission control ([`AdmissionController`]) sits between decode and
//! execute. Every decision lands in the instance's `quepa-obs` registry:
//! `offered` at decode, `served` (plus `degraded`) when a response is
//! written, `shed` on rejection — so `offered == served + shed` holds
//! for every request that entered the ledger. Protocol errors never
//! enter it: an undecodable frame is answered (or the connection is
//! closed) before the gate is consulted.
//!
//! Malformed-frame policy (see `protocol`): a frame whose length word is
//! out of range leaves the stream unsynchronized — the server answers a
//! final `ERROR` with id 0 and closes; a frame that decodes far enough
//! to carry an id gets a structured `ERROR` and the connection lives on.
//! The server never panics on client bytes.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use quepa_core::{Quepa, WorkerPool};

use crate::admission::{AdmissionConfig, AdmissionController, Decision, Ticket};
use crate::cli::{Command, CommandProcessor};
use crate::protocol::{
    configure_stream, decode_request, encode_response, parse_augment_payload, parse_query_payload,
    read_frame, write_frame, Request, Response, Status, Verb, HEADER_LEN, MAX_FRAME,
};

/// State shared by the accept thread and every connection.
struct Shared {
    quepa: Arc<Quepa>,
    gate: Arc<AdmissionController>,
    pool: WorkerPool,
    shutdown: AtomicBool,
    /// Live connection streams (keyed by connection token), kept so
    /// shutdown can unblock parked readers; handlers remove their own
    /// entry on exit.
    streams: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
}

/// A running QUEPA server. Dropping it shuts everything down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `quepa` in
    /// background threads. The executor pool is sized by
    /// `admission.width` — width 1 collapses to single-threaded serving,
    /// which must (and does: see the crate tests) answer bit-identically.
    pub fn start(
        quepa: Arc<Quepa>,
        addr: impl ToSocketAddrs,
        admission: AdmissionConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            quepa,
            gate: Arc::new(AdmissionController::new(admission)),
            pool: WorkerPool::new(admission.width),
            shutdown: AtomicBool::new(false),
            streams: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
        });
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("quepa-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &connections))
                .expect("spawn accept thread")
        };
        Ok(Server { addr, shared, accept: Some(accept), connections })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission gate (for tests and diagnostics).
    pub fn gate(&self) -> &Arc<AdmissionController> {
        &self.shared.gate
    }

    /// Per live connection, whether the accepted socket has `TCP_NODELAY`
    /// on (for tests and diagnostics).
    pub fn live_nodelay(&self) -> Vec<bool> {
        let streams = self.shared.streams.lock().unwrap_or_else(|e| e.into_inner());
        streams.iter().map(|(_, stream)| stream.nodelay().unwrap_or(false)).collect()
    }

    /// Connection threads the server still holds a handle to: the live
    /// ones plus those that ended since the last accept (for tests and
    /// diagnostics).
    pub fn retained_handles(&self) -> usize {
        self.connections.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Stops accepting, unblocks and joins every connection thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Unblock readers parked in read_frame.
        for (_, stream) in self.shared.streams.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> =
            self.connections.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // A socket that cannot take its options is not served.
        let Ok(stream) = stream.and_then(configure_stream) else { continue };
        let token = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(keep) = stream.try_clone() {
            shared.streams.lock().unwrap_or_else(|e| e.into_inner()).push((token, keep));
        }
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("quepa-serve-conn".into())
            .spawn(move || handle_connection(&shared, stream, token))
            .expect("spawn connection thread");
        // Handles of connections that have ended are dropped here, so a
        // long-lived server holds one per live connection, not one per
        // connection it ever saw.
        let mut connections = connections.lock().unwrap_or_else(|e| e.into_inner());
        connections.retain(|handle| !handle.is_finished());
        connections.push(handle);
    }
}

/// Writes one response under the connection's write lock; errors mean
/// the client is gone and are dropped (the reader will see EOF). A
/// response too large for one frame goes out as a structured `ERROR`
/// under the same id: the client would take the oversized length word
/// for a desynchronised stream and drop the connection.
fn send(writer: &Mutex<TcpStream>, response: &Response) {
    let len = HEADER_LEN + response.payload.len();
    let frame = if len > MAX_FRAME {
        encode_response(&Response {
            id: response.id,
            status: Status::Error,
            payload: format!("response frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        })
    } else {
        encode_response(response)
    };
    let mut stream = writer.lock().unwrap_or_else(|e| e.into_inner());
    let _ = write_frame(&mut *stream, &frame);
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, token: u64) {
    if let Ok(writer) = stream.try_clone() {
        let writer = Arc::new(Mutex::new(writer));
        read_loop(shared, BufReader::new(stream), &writer);
        // The server keeps its own clone of this socket (for shutdown),
        // so dropping our handles alone would leave the connection open:
        // close it explicitly so waiting clients see EOF.
        let _ = writer.lock().unwrap_or_else(|e| e.into_inner()).shutdown(std::net::Shutdown::Both);
    }
    let mut streams = shared.streams.lock().unwrap_or_else(|e| e.into_inner());
    streams.retain(|(t, _)| *t != token);
}

fn read_loop(
    shared: &Arc<Shared>,
    mut reader: BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
) {
    let mut processor = CommandProcessor::remote(&shared.quepa);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Length word out of range: answer once, then close —
                // the stream is unsynchronized.
                send(writer, &Response { id: 0, status: Status::Error, payload: e.to_string() });
                return;
            }
            // Truncated frame or transport error: close quietly.
            Err(_) => return,
        };
        match decode_request(&body) {
            Ok(request) => dispatch(shared, writer, &mut processor, request),
            Err(e) => {
                let id = e.answerable_id();
                let payload = e.to_string();
                send(writer, &Response { id: id.unwrap_or(0), status: Status::Error, payload });
                if id.is_none() {
                    // Not even an id decoded: the stream is unsynchronized.
                    return;
                }
            }
        }
    }
}

/// The gate, for one decoded query-plane request: counts it offered,
/// then either hands back its queue slot and whether it runs degraded, or
/// sheds it — counted, answered `OVERLOAD` — and returns `None`.
fn admit(shared: &Shared, writer: &Mutex<TcpStream>, id: u64) -> Option<(bool, Option<Ticket>)> {
    let registry = shared.quepa.metrics();
    registry.record_admission_offered();
    match shared.gate.try_admit() {
        (Decision::Shed { depth, est_wait }, _) => {
            registry.record_admission_shed();
            let payload = format!("overload: depth={depth} est_wait_us={}", est_wait.as_micros());
            send(writer, &Response { id, status: Status::Overload, payload });
            None
        }
        (decision, ticket) => Some((decision == Decision::Degrade, ticket)),
    }
}

fn dispatch(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    processor: &mut CommandProcessor<'_>,
    request: Request,
) {
    let id = request.id;
    let command = match request.verb {
        Verb::Query | Verb::Augment => return search(shared, writer, request),
        Verb::Metrics => Command::Metrics(request.payload.trim()),
        Verb::Checkpoint => Command::Checkpoint,
        Verb::Command => match Command::parse(&request.payload) {
            Some(command) if !request.payload.trim().contains('\n') => command,
            // Like a malformed AUGMENT payload: a protocol error,
            // answered before the admission ledger is touched.
            _ => {
                let payload = "a COMMAND payload is one non-empty line".to_owned();
                return send(writer, &Response { id, status: Status::Error, payload });
            }
        },
    };
    let slot = if command.query_plane() {
        // Shed: the command does not run and the session stays where it was.
        let Some(slot) = admit(shared, writer, id) else { return };
        Some(slot)
    } else {
        None
    };
    // Only SEARCH has a cheaper shape to degrade to; EXPLAIN fetches
    // nothing and EXPLORE / PICK are single-seed steps, run as admitted.
    let clamp = matches!(command, Command::Search(_)) && matches!(slot, Some((true, _)));
    let start = Instant::now();
    let (status, payload) = match processor.run(command, clamp) {
        Ok(text) if clamp => (Status::Degraded, text),
        Ok(text) => (Status::Ok, text),
        Err(text) => (Status::Error, text),
    };
    if slot.is_some() {
        // Answered, whatever the answer: served, so the ledger balances.
        shared.gate.record_service(start.elapsed());
        shared.quepa.metrics().record_admission_served(status == Status::Degraded);
    }
    send(writer, &Response { id, status, payload });
}

/// `QUERY` / `AUGMENT`: parse the binary payload, pass the gate, run on
/// the pool, answer in normal form.
fn search(shared: &Arc<Shared>, writer: &Arc<Mutex<TcpStream>>, request: Request) {
    let parsed = match request.verb {
        Verb::Query => parse_query_payload(&request.payload)
            .map(|(database, query)| (database.to_owned(), 0, query.to_owned())),
        _ => parse_augment_payload(&request.payload)
            .map(|(database, level, query)| (database.to_owned(), level, query.to_owned())),
    };
    let (database, level, query) = match parsed {
        Ok(parts) => parts,
        Err(e) => {
            // A malformed payload is a protocol error, answered
            // before the admission ledger is touched.
            send(writer, &Response { id: request.id, status: Status::Error, payload: e });
            return;
        }
    };
    let Some((degraded, ticket)) = admit(shared, writer, request.id) else { return };
    let registry = Arc::clone(shared.quepa.metrics());
    let quepa = Arc::clone(&shared.quepa);
    let gate = Arc::clone(&shared.gate);
    let writer = Arc::clone(writer);
    let id = request.id;
    shared.pool.submit(move || {
        let start = Instant::now();
        let result = quepa.serve_search(&database, &query, level, degraded);
        gate.record_service(start.elapsed());
        let response = match result {
            Ok(answer) => Response {
                id,
                status: if degraded { Status::Degraded } else { Status::Ok },
                payload: answer.normal_form().to_string(),
            },
            Err(e) => {
                // An admitted request that errors was still
                // answered: count it served so the ledger's
                // offered == served + shed invariant holds.
                registry.record_admission_served(false);
                Response { id, status: Status::Error, payload: e.to_string() }
            }
        };
        send(&writer, &response);
        drop(ticket);
    });
}
