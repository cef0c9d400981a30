//! Interactive QUEPA shell over a generated Polyphony polystore.
//!
//! ```sh
//! cargo run --release --bin quepa-cli -- [--albums N] [--stores 4|7|10|13] [--metrics] \
//!     [--data-dir DIR] [--serve ADDR]
//! cargo run --release --bin quepa-cli -- --connect ADDR
//! ```
//!
//! `--metrics` enables the observability layer for the session and prints
//! a Prometheus-text metrics dump on exit (also available interactively
//! via the `METRICS [JSON]` command).
//!
//! `--data-dir DIR` makes the A' index durable: mutations are
//! write-ahead-logged to `DIR/quepa.wal` and checkpoint cuts are written
//! as `DIR/ckpt-<lsn>/`. An empty (or missing) directory starts fresh;
//! one that already holds durable state is recovered — the shell prints
//! the checkpoint LSN and how many WAL records it replayed. Use the
//! `CHECKPOINT` command to force a cut interactively.
//!
//! `--serve ADDR` skips the REPL and runs the TCP serving front end on
//! `ADDR` (e.g. `127.0.0.1:7474`) over the built polystore, with the
//! default admission thresholds; `--connect ADDR` is the same shell over
//! a socket, without building a polystore locally: each line travels as
//! one `COMMAND` frame to the interpreter this REPL uses, so the commands
//! are the same (`HELP` lists them) except the ones marked local only
//! (`SAVE`, `LOAD`, `CONFIG <args…>`), and an exploration session lives
//! as long as the connection.

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

use quepa::cli::CommandProcessor;
use quepa::core::{dir_has_state, Quepa, QuepaConfig, RecoveryOptions, SyncPolicy};
use quepa::polystore::Deployment;
use quepa::serve::{AdmissionConfig, Client, Server, Status};
use quepa::workload::{BuiltPolystore, WorkloadConfig};

fn main() {
    let mut albums = 1_000usize;
    let mut stores = 4usize;
    let mut metrics = false;
    let mut data_dir: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut connect_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(2)
            })
        };
        match flag.as_str() {
            "--albums" => albums = value("a number").parse().unwrap_or(albums),
            "--stores" => stores = value("4, 7, 10 or 13").parse().unwrap_or(stores),
            "--metrics" => metrics = true,
            "--data-dir" => data_dir = Some(value("a directory argument")),
            "--serve" => serve_addr = Some(value("a listen address (e.g. 127.0.0.1:7474)")),
            "--connect" => connect_addr = Some(value("a server address (e.g. 127.0.0.1:7474)")),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(addr) = connect_addr {
        remote_shell(&addr);
        return;
    }
    let replica_sets = stores.saturating_sub(4) / 3;
    eprintln!(
        "building a {}-store Polyphony polystore with {albums} album entities…",
        4 + 3 * replica_sets
    );
    let built = BuiltPolystore::build(WorkloadConfig {
        albums,
        replica_sets,
        deployment: Deployment::Centralized,
        seed: 42,
    });
    let quepa = match data_dir.as_deref().map(Path::new) {
        None => built.into_quepa(),
        // Existing state wins over the freshly generated index: recovery
        // reproduces the index exactly as it was at the last committed
        // mutation.
        Some(dir) if dir_has_state(dir) => {
            let (quepa, report) = Quepa::recover_durable(
                built.polystore,
                QuepaConfig::default(),
                dir,
                SyncPolicy::Always,
                &RecoveryOptions::default(),
            )
            .unwrap_or_else(|e| die(format!("cannot recover {}: {e}", dir.display())));
            eprintln!(
                "recovered durable index from {}: checkpoint at LSN {}, {} WAL record(s) replayed{}",
                dir.display(),
                report.checkpoint_lsn,
                report.replayed,
                if report.torn_tail { " (torn final record truncated)" } else { "" }
            );
            quepa
        }
        Some(dir) => {
            let quepa = Quepa::create_durable(
                built.polystore,
                built.index,
                QuepaConfig::default(),
                dir,
                SyncPolicy::Always,
            )
            .unwrap_or_else(|e| {
                die(format!("cannot create durable state in {}: {e}", dir.display()))
            });
            eprintln!("created durable index at {}", dir.display());
            quepa
        }
    };
    if metrics {
        quepa.set_config(QuepaConfig { observability: true, ..quepa.config() });
    }
    if let Some(addr) = serve_addr {
        let quepa = Arc::new(quepa);
        let server = Server::start(quepa, addr.as_str(), AdmissionConfig::default())
            .unwrap_or_else(|e| die(format!("cannot listen on {addr}: {e}")));
        let at = server.local_addr();
        eprintln!("serving on {at} — quepa-cli --connect {at} to talk to it; Ctrl-C to stop");
        loop {
            std::thread::park();
        }
    }
    let mut processor = CommandProcessor::new(&quepa);

    println!("QUEPA shell — type HELP for commands, Ctrl-D to quit.");
    pump("quepa> ", |line| {
        print!("{}", processor.handle(line));
        true
    });
    if metrics {
        print!("{}", quepa::obs::prometheus_text(&quepa.metrics_snapshot()));
    }
    println!("bye.");
}

/// Reports a failure this process cannot go on from, and leaves.
fn die(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}

/// Prompts and reads stdin a line at a time, handing each line to `each`
/// until it answers `false` or the input ends.
fn pump(prompt: &str, mut each: impl FnMut(&str) -> bool) {
    let mut line = String::new();
    loop {
        print!("{prompt}");
        std::io::stdout().flush().expect("stdout");
        line.clear();
        match std::io::stdin().lock().read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) if each(&line) => {}
            Ok(_) => return,
            Err(e) => return eprintln!("input error: {e}"),
        }
    }
}

/// The remote shell: the same line pump, the interpreter at the other end
/// of a socket. Every line goes to a running `--serve` instance as one
/// `COMMAND` frame and the answer is printed under a note for any status
/// but `OK`; what the commands are is the server's business (`HELP` asks
/// it). Only leaving is decided here.
fn remote_shell(addr: &str) {
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| die(format!("cannot connect to {addr}: {e}")));
    println!("connected to {addr} — type HELP for commands, QUIT to leave.");
    pump(&format!("quepa@{addr}> "), |line| {
        let line = line.trim();
        if line.eq_ignore_ascii_case("QUIT") || line.eq_ignore_ascii_case("EXIT") {
            return false;
        }
        if line.is_empty() {
            return true;
        }
        let response =
            client.command(line).unwrap_or_else(|e| die(format!("connection lost: {e}")));
        match response.status {
            Status::Ok => {}
            Status::Degraded => println!("(degraded: level clamped to 0 under load)"),
            Status::Overload => println!("(shed by admission control)"),
            Status::Error => println!("(server error)"),
        }
        println!("{}", response.payload.trim_end());
        true
    });
    println!("bye.");
}
