//! CI serving smoke: boot the TCP server on loopback, drive an
//! open-loop sub-saturation load, and assert the run is healthy.
//!
//! Health means: **zero protocol errors** and the accounting invariant
//! `served + shed == offered` on both sides of the wire — the client's
//! per-request outcomes and the server's own admission ledger must
//! agree exactly. The served-latency histogram and a run transcript are
//! written to `target/serving-smoke/` for CI artifact upload (the
//! transcript is what you read when the job fails).
//!
//! ```sh
//! cargo run --release -p quepa-bench --bin serving_smoke -- [secs] [rate]
//! ```
//!
//! Defaults: 10 s at one quarter of the bench server's model capacity
//! ([`serving::MODEL_CAPACITY_QPS`]) — the operating point of
//! `bench_gate`'s `smoke-ledger` row. Exit code 0 on a healthy run, 1 on
//! any violated invariant.

use std::path::PathBuf;
use std::time::Duration;

use quepa_bench::{serving, throughput};
use quepa_serve::Server;

fn main() {
    let mut args = std::env::args().skip(1);
    let secs: u64 = args.next().map(|a| a.parse().expect("secs: integer")).unwrap_or(10);
    let rate: f64 = args
        .next()
        .map(|a| a.parse().expect("rate: requests/second"))
        .unwrap_or(serving::SMOKE_FRACTION * serving::MODEL_CAPACITY_QPS);

    let quepa = serving::bench_quepa();
    let mut server = Server::start(quepa.clone(), "127.0.0.1:0", serving::bench_admission())
        .expect("start smoke server");
    let addr = server.local_addr();
    println!("serving_smoke: server on {addr}, offering {rate:.0}/s open-loop for {secs}s");

    let report = serving::measure_open_loop(
        addr,
        serving::OpenLoopSpec {
            rate,
            duration: Duration::from_secs(secs),
            connections: serving::CONNECTIONS,
            seed: 0x5140,
        },
    );
    let ledger = quepa.metrics_snapshot().admission;
    server.shutdown();

    let mut transcript = vec![format!(
        "run: rate={rate:.1}/s secs={secs} connections={} query={:?} level={}",
        serving::CONNECTIONS,
        throughput::QUERY,
        throughput::LEVEL,
    )];
    transcript.extend(serving::histogram_lines(&report));
    transcript.push(format!(
        "server ledger: offered={} served={} degraded={} shed={}",
        ledger.offered, ledger.served, ledger.degraded, ledger.shed
    ));

    let mut violations = Vec::new();
    if report.offered == 0 {
        violations.push("no requests offered (schedule empty)".to_owned());
    }
    if report.errors != 0 {
        violations.push(format!("{} protocol errors (must be 0)", report.errors));
    }
    if report.offered != report.served() + report.shed + report.errors {
        violations.push(format!(
            "client accounting broken: {} offered != {} served + {} shed + {} errors",
            report.offered,
            report.served(),
            report.shed,
            report.errors
        ));
    }
    if ledger.offered as usize != report.offered
        || ledger.served as usize != report.served()
        || ledger.shed as usize != report.shed
    {
        violations.push(format!(
            "server ledger disagrees with the client: offered {} vs {}, served {} vs {}, shed {} vs {}",
            ledger.offered,
            report.offered,
            ledger.served,
            report.served(),
            ledger.shed,
            report.shed
        ));
    }
    for violation in &violations {
        transcript.push(format!("VIOLATION: {violation}"));
    }
    transcript
        .push(format!("verdict: {}", if violations.is_empty() { "healthy" } else { "FAILED" }));

    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/serving-smoke"));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let body = transcript.join("\n") + "\n";
    std::fs::write(dir.join("histogram.txt"), &body).expect("write histogram artifact");
    print!("{body}");
    println!("artifacts in {}", dir.display());

    if !violations.is_empty() {
        eprintln!("serving_smoke: FAILED — {}", violations.join("; "));
        std::process::exit(1);
    }
    println!(
        "serving_smoke: healthy — {} served ({} degraded), {} shed, goodput {:.1} qps, p999 {:.4}s",
        report.served(),
        report.degraded,
        report.shed,
        report.goodput_qps,
        report.percentile_s(0.999)
    );
}
