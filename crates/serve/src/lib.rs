//! `quepa-serve`: the network serving front end.
//!
//! The paper's augmented-access layer fronts a polystore serving
//! interactive exploration; real polystores (BigDAWG, the tri-store
//! systems in PAPERS.md) are *services* with a network boundary. This
//! crate is that boundary for the reproduction:
//!
//! * [`cli`] — the one command interpreter: what the `quepa-cli` REPL
//!   reads from a terminal and what a `COMMAND` frame carries; its `HELP`
//!   is the command list.
//! * [`protocol`] — the length-prefixed binary frame format
//!   (`[len][request-id][verb][payload]`) with five verbs: `QUERY` /
//!   `AUGMENT` (binary-framed searches, normal-form answers, pipelined),
//!   `COMMAND` (one command line), and `METRICS` / `CHECKPOINT`, two
//!   aliases of the `COMMAND` lines of the same name.
//! * [`admission`] — the gate between accept and execute: a bounded
//!   depth counter plus an EWMA wait estimate decides Admit / Degrade
//!   (level-0 partial answer, the `DegradeMode::Partial` shape) / Shed
//!   (structured `OVERLOAD` response), with every decision counted in
//!   the `quepa-obs` registry.
//! * [`server`] — `std::net::TcpListener` accept loop, per-connection
//!   reader threads, execution on the shared PR-5 [`WorkerPool`].
//! * [`client`] — a blocking client plus the split send/read helpers the
//!   open-loop load generator in `quepa-bench` pipelines with.
//!
//! See `DESIGN.md`, "Serving model", for the frame layout and the
//! admission-control state machine.
//!
//! [`WorkerPool`]: quepa_core::WorkerPool

#![forbid(unsafe_code)]

pub mod admission;
pub mod cli;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController, Decision, Ticket};
pub use client::{read_response, send_request, Client};
pub use protocol::{
    augment_payload, configure_stream, decode_request, decode_response, encode_request,
    encode_response, parse_augment_payload, parse_query_payload, query_payload, read_frame,
    write_frame, FrameError, Request, Response, Status, Verb, HEADER_LEN, MAX_FRAME,
};
pub use server::Server;
