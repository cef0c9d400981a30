//! Concurrent-serving throughput: one shared QUEPA instance, 1 / 4 / 16 /
//! 64 closed-loop clients issuing the same 50-seed augmented search over
//! the distributed 10-store polystore (see [`quepa_bench::throughput`]
//! for the serving configuration and why `threads_size = 1` /
//! `cache_size = 0`).
//!
//! Prints QPS, wall seconds per query and p50/p99 per-query latency for
//! each client count and checks the `throughput-16v1` claim on them. The
//! plateau the table shows (≈ 300 qps from 16 clients up) is the pool
//! width over the simulated round trips of one query — a constant of the
//! latency model, not a property of this code; the claim is the *ratio*.
//!
//! A second sweep replays per-client Zipf(1.1) window-query streams with
//! the cache on — the skewed-workload serving path through the sharded
//! LRU and single-flight table.

use quepa_bench::claims::Report;
use quepa_bench::throughput::{self, ThroughputPoint};
use quepa_bench::Lab;

fn sweep(lab: &Lab, burst: fn(&Lab, usize, usize) -> ThroughputPoint) -> Vec<ThroughputPoint> {
    println!(
        "{:>8} {:>9} {:>10} {:>11} {:>10} {:>10}",
        "clients", "queries", "qps", "mean_s", "p50_s", "p99_s"
    );
    throughput::CLIENT_LEVELS
        .into_iter()
        .map(|clients| {
            let p = burst(lab, clients, throughput::default_per_client(clients));
            println!(
                "{:>8} {:>9} {:>10.1} {:>11.6} {:>10.6} {:>10.6}",
                p.clients, p.queries, p.qps, p.mean_s, p.p50_s, p.p99_s
            );
            p
        })
        .collect()
}

fn main() {
    let lab = throughput::lab();
    let points = sweep(&lab, throughput::closed_loop);
    let qps_of = |clients: usize| {
        points.iter().find(|p| p.clients == clients).map(|p| p.qps).unwrap_or(f64::NAN)
    };

    println!(
        "\nZipf(s={}) skewed serving, {} ranks x {}-object windows, cache on:",
        throughput::ZIPF_S,
        throughput::ZIPF_RANKS,
        throughput::ZIPF_WINDOW
    );
    sweep(&lab, throughput::closed_loop_zipf);

    println!();
    let mut report = Report::default();
    report.check(
        "throughput-16v1",
        qps_of(16) / qps_of(1),
        &format!("{:.1} qps at 16 clients / {:.1} qps serial", qps_of(16), qps_of(1)),
    );
    report.finish("throughput");
}
