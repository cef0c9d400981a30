//! Closed-loop concurrent-serving throughput.
//!
//! One shared [`Lab`] instance serves N client threads, each issuing the
//! same multi-seed augmented search back to back; a barrier releases them
//! together and the wall clock over the whole burst yields QPS. The
//! serving configuration deliberately pins `threads_size = 1` — each
//! query executes its fetch units inline on its own client thread — so
//! the *only* concurrency axis is the client count: the measured scaling
//! is cross-query overlap of simulated round-trip latency (the
//! distributed deployment sleeps ~400 µs per round trip), not intra-query
//! fan-out. `cache_size = 0` keeps every measured query on the
//! round-trip path (an all-hits steady state would collapse the
//! comparison into pure compute); with the cache off, cross-query
//! single-flight is off too, so every client pays its own round trips
//! and the bench measures raw serving overlap.
//!
//! On a single-core host the expected shape is: serial latency
//! ≈ compute + Σ group sleeps, while N clients overlap their sleeps and
//! saturate the core, capping QPS at 1/compute — a ≥4× ratio at 16
//! clients. More cores only widen the gap.

use std::sync::Barrier;
use std::time::Instant;

use quepa_core::{AugmenterKind, QuepaConfig};
use quepa_polystore::Deployment;
use quepa_workload::{zipf_query_stream, TestQuery};

use crate::sample::percentile;
use crate::Lab;

/// Client counts driven by the bench, serial first.
pub const CLIENT_LEVELS: [usize; 4] = [1, 4, 16, 64];

/// The workload query: 50 original objects ⇒ 50 augmentation seeds.
pub const QUERY: &str = "SELECT * FROM inventory WHERE seq < 50";

/// The query's target database.
pub const DATABASE: &str = "transactions";

/// Augmentation level (level 1 exercises the full fetch fan-out).
pub const LEVEL: usize = 1;

/// One measured concurrency level.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Total queries answered across all clients.
    pub queries: usize,
    /// Queries per wall-clock second over the burst.
    pub qps: f64,
    /// Wall seconds per query (`1 / qps`).
    pub mean_s: f64,
    /// Median per-query latency (seconds).
    pub p50_s: f64,
    /// 99th-percentile per-query latency (seconds).
    pub p99_s: f64,
}

/// The serving configuration under test (see the module docs for why
/// `threads_size = 1` and `cache_size = 0`).
pub fn serving_config() -> QuepaConfig {
    QuepaConfig {
        augmenter: AugmenterKind::OuterBatch,
        batch_size: 8,
        threads_size: 1,
        cache_size: 0,
        ..QuepaConfig::default()
    }
}

/// The bench polystore: 10 stores, distributed deployment (~400 µs per
/// round trip) — the deployment where cross-query overlap pays.
pub fn lab() -> Lab {
    Lab::new(200, 2, Deployment::Distributed)
}

/// Queries each client issues: sized so every level answers a comparable
/// total (≥192) without the serial level taking tens of seconds.
pub fn default_per_client(clients: usize) -> usize {
    (192 / clients).max(4)
}

/// Runs one closed-loop burst: `clients` threads × `per_client` queries
/// each, released together by a barrier.
pub fn closed_loop(lab: &Lab, clients: usize, per_client: usize) -> ThroughputPoint {
    let query = TestQuery { database: DATABASE.into(), query: QUERY.into(), size: 50 };
    burst(lab, serving_config(), 3, vec![vec![query; per_client]; clients])
}

// ---- Zipf-skewed serving -----------------------------------------------

/// Ranks of the Zipf stream: 16 disjoint windows of the inventory table.
pub const ZIPF_RANKS: usize = 16;

/// Objects per window query (12 ⇒ the coldest rank still addresses live
/// rows of the 200-album lab's inventory: 16 × 12 = 192 ≤ 200).
pub const ZIPF_WINDOW: usize = 12;

/// The classic web/cache skew exponent.
pub const ZIPF_S: f64 = 1.1;

/// The skewed serving configuration: same augmenter and inline fetch
/// units as [`serving_config`], but with the cache (and therefore
/// cross-query single-flight) **on** — a Zipf stream concentrates on the
/// hot windows, so the measured throughput exercises the concurrent
/// cache/flight path rather than raw round-trip overlap.
pub fn zipf_serving_config() -> QuepaConfig {
    QuepaConfig { cache_size: 4096, ..serving_config() }
}

/// Runs one skewed closed-loop burst: `clients` threads each replaying
/// its own seeded Zipf window-query stream of `per_client` queries.
pub fn closed_loop_zipf(lab: &Lab, clients: usize, per_client: usize) -> ThroughputPoint {
    let streams = (0..clients)
        .map(|c| {
            zipf_query_stream(per_client, ZIPF_RANKS, ZIPF_S, ZIPF_WINDOW, zipf_client_seed(c))
        })
        .collect();
    burst(lab, zipf_serving_config(), 0, streams)
}

/// One closed-loop burst under `config`: `warmups` throwaway runs of the
/// first query, then one client thread per stream, released together by
/// a barrier; the wall clock over the whole burst yields QPS.
fn burst(
    lab: &Lab,
    config: QuepaConfig,
    warmups: usize,
    streams: Vec<Vec<TestQuery>>,
) -> ThroughputPoint {
    lab.quepa.set_optimizer(None);
    lab.quepa.set_config(config);
    lab.quepa.drop_caches();
    for _ in 0..warmups {
        let q = &streams[0][0];
        let _ = lab.quepa.augmented_search(&q.database, &q.query, LEVEL);
    }
    let _ = lab.quepa.take_logs();

    let clients = streams.len();
    let barrier = Barrier::new(clients + 1);
    let mut latencies: Vec<f64> = Vec::new();
    let mut wall = 0.0f64;
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let barrier = &barrier;
                let quepa = &lab.quepa;
                s.spawn(move || {
                    barrier.wait();
                    stream
                        .iter()
                        .map(|q| {
                            let start = Instant::now();
                            quepa
                                .augmented_search(&q.database, &q.query, LEVEL)
                                .expect("throughput query must be valid");
                            start.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        let start = Instant::now();
        barrier.wait();
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
        wall = start.elapsed().as_secs_f64();
    });
    let _ = lab.quepa.take_logs();

    latencies.sort_by(f64::total_cmp);
    let queries = latencies.len();
    ThroughputPoint {
        clients,
        queries,
        qps: queries as f64 / wall,
        mean_s: wall / queries as f64,
        p50_s: percentile(&latencies, 0.50),
        p99_s: percentile(&latencies, 0.99),
    }
}

/// Per-client Zipf stream seed — distinct per client, stable per run.
fn zipf_client_seed(client: usize) -> u64 {
    0x5eed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_measures_and_scales_sanely() {
        let lab = lab();
        let serial = closed_loop(&lab, 1, 6);
        assert_eq!(serial.queries, 6);
        assert!(serial.qps > 0.0 && serial.p50_s > 0.0 && serial.p99_s >= serial.p50_s);
        let quad = closed_loop(&lab, 4, 4);
        assert_eq!(quad.queries, 16);
        // Overlapped round trips must not make 4 clients *slower* than
        // one; the full ≥4× claim at 16 clients is the bench gate's job.
        assert!(
            quad.qps > serial.qps,
            "4 clients ({:.0} qps) should beat serial ({:.0} qps)",
            quad.qps,
            serial.qps
        );
    }

    #[test]
    fn zipf_burst_serves_skewed_streams() {
        let lab = lab();
        let p = closed_loop_zipf(&lab, 2, 4);
        assert_eq!(p.queries, 8);
        assert!(p.qps > 0.0 && p.p50_s > 0.0 && p.p99_s >= p.p50_s);
        // Distinct clients replay distinct streams.
        assert_ne!(zipf_client_seed(0), zipf_client_seed(1));
    }
}
