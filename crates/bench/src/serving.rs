//! Open-loop network serving load: arrival-rate driven, not closed-loop.
//!
//! Closed-loop clients (the `throughput` bench) wait for each answer
//! before sending the next request, so an overloaded server silently
//! slows its own offered load — the classic coordinated-omission trap.
//! This module drives the `quepa-serve` TCP front end *open-loop*: a
//! deterministic seeded schedule of Poisson arrivals is computed up
//! front, writer threads inject each request at its scheduled instant
//! whether or not earlier answers came back, and latency is measured
//! from the **scheduled arrival**, not the send — queueing delay the
//! server imposes is part of the number.
//!
//! Accounting is client-side and total: every scheduled request is
//! offered, and each gets exactly one terminal outcome — served (full or
//! degraded), shed (`OVERLOAD`), or error (protocol/transport) — so
//! `offered == served + shed + errors` holds by construction and is
//! asserted by the CI smoke job against the server's own admission
//! ledger.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use quepa_core::{pool_width, Quepa};
use quepa_obs::AdmissionMetrics;
use quepa_polystore::Deployment;
use quepa_serve::{
    augment_payload, configure_stream, read_response, send_request, AdmissionConfig, Request,
    Status, Verb,
};
use quepa_workload::{BuiltPolystore, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sample::percentile;
use crate::throughput::{serving_config, DATABASE, LEVEL, QUERY};

/// Offered-rate sweep points, as fractions of measured capacity
/// (sub-saturation → 2× overload).
pub const SWEEP_FRACTIONS: [f64; 5] = [0.25, 0.5, 1.0, 1.5, 2.0];

/// The sub-saturation sweep point (the reference of `overload-p50-ratio`).
pub const SMOKE_FRACTION: f64 = 0.25;

/// What the bench server sustains, requests/second: the admission width
/// (16 — the [`pool_width`] clamp on ≤ 4 cores) over the ~50 ms of
/// simulated round trips one level-1 query sleeps through on the
/// distributed deployment. A constant of the latency model, not a
/// measurement of this code: `bench_gate` and `serving_smoke` size their
/// legs from it (the smoke at [`SMOKE_FRACTION`] of it, the flash crowd
/// bursting to 4× it); the sweep, whose ratios need the real figure,
/// probes it ([`probe_capacity`]).
pub const MODEL_CAPACITY_QPS: f64 = 300.0;

/// Connections every schedule is dealt across.
pub const CONNECTIONS: usize = 4;

/// The printed name of a sweep fraction.
pub fn scenario_name(fraction: f64) -> String {
    format!("serving/open-loop/{fraction:.2}x")
}

/// The serving-bench system: the throughput bench's polystore (200
/// albums × 2 replica sets, distributed deployment) behind the same
/// serving configuration, shared for the TCP server. Capacities are
/// therefore comparable with the `throughput` bench.
pub fn bench_quepa() -> Arc<Quepa> {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 200,
        replica_sets: 2,
        deployment: Deployment::Distributed,
        seed: 42,
    });
    let quepa = built.into_quepa();
    quepa.set_optimizer(None);
    quepa.set_config(serving_config());
    quepa.drop_caches();
    Arc::new(quepa)
}

/// The admission thresholds of the bench server: executor and estimate
/// width from the shared [`pool_width`] clamp, degrade at 2× width,
/// shed at 8× width or a 500 ms estimated wait.
pub fn bench_admission() -> AdmissionConfig {
    let width = pool_width();
    AdmissionConfig {
        width,
        soft_depth: 2 * width,
        hard_depth: 8 * width,
        deadline: Duration::from_millis(500),
    }
}

/// Measures peak sustainable goodput by offering a deliberately
/// unsustainable rate: with the gate shedding the excess, the served
/// rate converges on capacity.
pub fn probe_capacity(addr: SocketAddr) -> f64 {
    let report = measure_open_loop(
        addr,
        OpenLoopSpec {
            rate: 4000.0,
            duration: Duration::from_secs(2),
            connections: CONNECTIONS,
            seed: 0xCAFE,
        },
    );
    report.goodput_qps
}

/// One open-loop run: rate, horizon, fan-in and determinism knobs.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSpec {
    /// Offered arrival rate, requests/second across all connections.
    pub rate: f64,
    /// Schedule horizon.
    pub duration: Duration,
    /// TCP connections the schedule is dealt across (round-robin).
    pub connections: usize,
    /// Seed of the arrival schedule.
    pub seed: u64,
}

/// Terminal outcome of one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStatus {
    /// Answered `OK`.
    Full,
    /// Answered `DEGRADED` (level-0 partial).
    Degraded,
    /// Rejected with `OVERLOAD`.
    Shed,
    /// Protocol/transport failure or no response at all.
    Error,
}

/// One scheduled request's outcome, tagged with its scheduled arrival —
/// the unit the time-varying traffic families slice into phase windows.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Scheduled arrival offset from the run start, seconds.
    pub arrival_s: f64,
    /// Scheduled-arrival→response latency, seconds; negative when no
    /// response was ever matched (errors have no latency).
    pub latency_s: f64,
    /// Terminal outcome.
    pub status: SampleStatus,
}

/// Ledger + latency digest of one arrival window of a run — the unit the
/// flash-crowd recovery claim compares across phases.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Requests scheduled inside the window.
    pub offered: usize,
    /// Full answers.
    pub served_full: usize,
    /// Degraded answers.
    pub degraded: usize,
    /// `OVERLOAD` rejections.
    pub shed: usize,
    /// Failures.
    pub errors: usize,
    /// Served latencies inside the window, sorted ascending, seconds.
    pub latencies_s: Vec<f64>,
}

impl PhaseStats {
    /// Served answers, full and degraded.
    pub fn served(&self) -> usize {
        self.served_full + self.degraded
    }

    /// Whether the window's ledger balances: every offered request has
    /// exactly one terminal outcome.
    pub fn balances(&self) -> bool {
        self.offered == self.served() + self.shed + self.errors
    }

    /// Nearest-rank percentile of the window's served latencies.
    pub fn percentile_s(&self, q: f64) -> f64 {
        percentile(&self.latencies_s, q)
    }
}

/// What one open-loop run measured.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Scheduled (and sent) requests.
    pub offered: usize,
    /// Answered with a full (`OK`) answer.
    pub served_full: usize,
    /// Answered with a degraded (`DEGRADED`) answer.
    pub degraded: usize,
    /// Rejected with `OVERLOAD`.
    pub shed: usize,
    /// Protocol or transport failures (must be 0 on a healthy run).
    pub errors: usize,
    /// Wall-clock seconds from first scheduled arrival to last response.
    pub wall_s: f64,
    /// Served answers (full + degraded) per wall second — goodput.
    pub goodput_qps: f64,
    /// Scheduled-arrival→response latencies of served answers, sorted
    /// ascending, seconds.
    pub latencies_s: Vec<f64>,
    /// Every scheduled request's outcome, sorted by scheduled arrival.
    pub samples: Vec<Sample>,
}

impl OpenLoopReport {
    /// Served answers, full and degraded.
    pub fn served(&self) -> usize {
        self.served_full + self.degraded
    }

    /// Shed fraction of offered load.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Nearest-rank percentile of the served latencies, seconds.
    pub fn percentile_s(&self, q: f64) -> f64 {
        percentile(&self.latencies_s, q)
    }

    /// Mean served latency, seconds.
    pub fn mean_s(&self) -> f64 {
        if self.latencies_s.is_empty() {
            0.0
        } else {
            self.latencies_s.iter().sum::<f64>() / self.latencies_s.len() as f64
        }
    }

    /// Requests the two-sided ledger cannot account for, given the
    /// server's admission counters before and after the run: zero iff
    /// the client saw no error and exactly one terminal outcome per
    /// offered request, the server's delta balances (`offered == served
    /// + shed`), and the two sides agree on what was offered and shed.
    pub fn unaccounted(&self, before: AdmissionMetrics, after: AdmissionMetrics) -> usize {
        let delta = |a: u64, b: u64| (a - b) as usize;
        let (offered, served, shed) = (
            delta(after.offered, before.offered),
            delta(after.served, before.served),
            delta(after.shed, before.shed),
        );
        self.errors
            + self.offered.abs_diff(self.served() + self.shed + self.errors)
            + offered.abs_diff(served + shed)
            + self.offered.abs_diff(offered)
            + self.shed.abs_diff(shed)
    }

    /// Ledger + latency digest of the requests scheduled inside
    /// `[from_s, to_s)` — how the traffic families split a run into
    /// pre-burst / burst / recovery windows.
    pub fn phase(&self, from_s: f64, to_s: f64) -> PhaseStats {
        let mut stats = PhaseStats {
            offered: 0,
            served_full: 0,
            degraded: 0,
            shed: 0,
            errors: 0,
            latencies_s: Vec::new(),
        };
        for sample in &self.samples {
            if sample.arrival_s < from_s || sample.arrival_s >= to_s {
                continue;
            }
            stats.offered += 1;
            match sample.status {
                SampleStatus::Full => {
                    stats.served_full += 1;
                    stats.latencies_s.push(sample.latency_s);
                }
                SampleStatus::Degraded => {
                    stats.degraded += 1;
                    stats.latencies_s.push(sample.latency_s);
                }
                SampleStatus::Shed => stats.shed += 1,
                SampleStatus::Error => stats.errors += 1,
            }
        }
        stats.latencies_s.sort_by(f64::total_cmp);
        stats
    }
}

/// The deterministic Poisson arrival schedule: offsets (seconds from the
/// run start) of every request inside the horizon, ascending. Same seed,
/// rate and duration ⇒ the same schedule, bit for bit.
pub fn arrival_schedule(rate: f64, duration: Duration, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0, "open-loop rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = duration.as_secs_f64();
    let mut at = 0.0f64;
    let mut schedule = Vec::with_capacity((rate * horizon) as usize + 8);
    loop {
        // Exponential inter-arrival: -ln(1-u)/λ, u ∈ [0,1).
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -f64::ln(1.0 - u) / rate;
        if at >= horizon {
            return schedule;
        }
        schedule.push(at);
    }
}

/// Runs one open-loop measurement against a live server at `addr`.
///
/// Each connection gets every `connections`-th arrival; a writer thread
/// injects requests at their scheduled instants while a reader thread
/// collects responses (responses return in completion order, matched by
/// request id). The workload is the throughput bench's query
/// (`AUGMENT transactions level 1`), so capacities are comparable.
pub fn measure_open_loop(addr: SocketAddr, spec: OpenLoopSpec) -> OpenLoopReport {
    let schedule = arrival_schedule(spec.rate, spec.duration, spec.seed);
    measure_schedule(addr, &schedule, spec.connections, spec.duration.as_secs_f64())
}

/// Runs an arbitrary precomputed arrival schedule (ascending offsets in
/// seconds) against a live server — the open-loop engine behind both the
/// constant-rate sweep ([`measure_open_loop`]) and the time-varying
/// traffic families ([`crate::traffic`]), which shape their own
/// schedules.
pub fn measure_schedule(
    addr: SocketAddr,
    schedule: &[f64],
    connections: usize,
    horizon_s: f64,
) -> OpenLoopReport {
    let offered = schedule.len();
    let connections = connections.max(1);
    // Deal arrivals round-robin: (offset, connection-local id).
    let mut per_conn: Vec<Vec<f64>> = vec![Vec::new(); connections];
    for (i, at) in schedule.iter().enumerate() {
        per_conn[i % connections].push(*at);
    }

    struct ConnOutcome {
        served_full: usize,
        degraded: usize,
        shed: usize,
        errors: usize,
        latencies_s: Vec<f64>,
        samples: Vec<Sample>,
        last_response_s: f64,
    }

    let barrier = Barrier::new(connections + 1);
    let mut outcomes: Vec<ConnOutcome> = Vec::with_capacity(connections);
    std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|arrivals| {
                let barrier = &barrier;
                s.spawn(move || {
                    let writer = TcpStream::connect(addr)
                        .and_then(configure_stream)
                        .expect("connect to server");
                    let reader_stream = writer.try_clone().expect("clone stream");
                    barrier.wait();
                    let start = Instant::now();
                    let expected = arrivals.len();
                    let reader = std::thread::spawn(move || {
                        let mut reader = BufReader::new(reader_stream);
                        // (status, receipt offset) per response, id-keyed.
                        let mut got: Vec<Option<(Status, f64)>> = vec![None; expected];
                        for _ in 0..expected {
                            match read_response(&mut reader) {
                                Ok(Some(response)) => {
                                    let at = start.elapsed().as_secs_f64();
                                    let slot = response.id as usize;
                                    if slot < expected && got[slot].is_none() {
                                        got[slot] = Some((response.status, at));
                                    }
                                }
                                // Early close or garbage: remaining ids
                                // stay None and count as errors.
                                Ok(None) | Err(_) => break,
                            }
                        }
                        got
                    });
                    let mut writer = writer;
                    let mut send_failures = 0usize;
                    for (id, at) in arrivals.iter().enumerate() {
                        let target = Duration::from_secs_f64(*at);
                        let elapsed = start.elapsed();
                        if target > elapsed {
                            std::thread::sleep(target - elapsed);
                        }
                        let request = Request {
                            id: id as u64,
                            verb: Verb::Augment,
                            payload: augment_payload(DATABASE, LEVEL, QUERY),
                        };
                        if send_request(&mut writer, &request).is_err() {
                            send_failures += 1;
                        }
                    }
                    let got = reader.join().expect("reader thread");
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                    let mut outcome = ConnOutcome {
                        served_full: 0,
                        degraded: 0,
                        shed: 0,
                        errors: 0,
                        latencies_s: Vec::new(),
                        samples: Vec::with_capacity(got.len()),
                        last_response_s: 0.0,
                    };
                    let _ = send_failures; // unanswered ids count below
                    for (id, slot) in got.iter().enumerate() {
                        match slot {
                            Some((status, received_at)) => {
                                outcome.last_response_s = outcome.last_response_s.max(*received_at);
                                let latency = received_at - arrivals[id];
                                let sample_status = match status {
                                    Status::Ok => {
                                        outcome.served_full += 1;
                                        outcome.latencies_s.push(latency);
                                        SampleStatus::Full
                                    }
                                    Status::Degraded => {
                                        outcome.degraded += 1;
                                        outcome.latencies_s.push(latency);
                                        SampleStatus::Degraded
                                    }
                                    Status::Overload => {
                                        outcome.shed += 1;
                                        SampleStatus::Shed
                                    }
                                    Status::Error => {
                                        outcome.errors += 1;
                                        SampleStatus::Error
                                    }
                                };
                                outcome.samples.push(Sample {
                                    arrival_s: arrivals[id],
                                    latency_s: if matches!(
                                        sample_status,
                                        SampleStatus::Full | SampleStatus::Degraded
                                    ) {
                                        latency
                                    } else {
                                        -1.0
                                    },
                                    status: sample_status,
                                });
                            }
                            None => {
                                outcome.errors += 1;
                                outcome.samples.push(Sample {
                                    arrival_s: arrivals[id],
                                    latency_s: -1.0,
                                    status: SampleStatus::Error,
                                });
                            }
                        }
                    }
                    outcome
                })
            })
            .collect();
        barrier.wait();
        outcomes.extend(handles.into_iter().map(|h| h.join().expect("connection thread")));
    });

    let mut report = OpenLoopReport {
        offered,
        served_full: 0,
        degraded: 0,
        shed: 0,
        errors: 0,
        wall_s: 0.0,
        goodput_qps: 0.0,
        latencies_s: Vec::with_capacity(offered),
        samples: Vec::with_capacity(offered),
    };
    let mut wall = horizon_s;
    for outcome in outcomes {
        report.served_full += outcome.served_full;
        report.degraded += outcome.degraded;
        report.shed += outcome.shed;
        report.errors += outcome.errors;
        report.latencies_s.extend(outcome.latencies_s);
        report.samples.extend(outcome.samples);
        wall = wall.max(outcome.last_response_s);
    }
    report.latencies_s.sort_by(f64::total_cmp);
    report.samples.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    report.wall_s = wall;
    report.goodput_qps = if wall > 0.0 { report.served() as f64 / wall } else { 0.0 };
    report
}

/// Renders the served-latency distribution as log2-bucketed text lines —
/// the artifact the CI smoke job uploads.
pub fn histogram_lines(report: &OpenLoopReport) -> Vec<String> {
    let mut lines = vec![format!(
        "offered={} served={} degraded={} shed={} errors={}",
        report.offered,
        report.served(),
        report.degraded,
        report.shed,
        report.errors
    )];
    if report.latencies_s.is_empty() {
        lines.push("no served latencies".into());
        return lines;
    }
    let mut buckets: Vec<(u32, usize)> = Vec::new();
    for latency in &report.latencies_s {
        let us = (latency * 1e6).max(1.0) as u64;
        let bucket = 64 - us.leading_zeros();
        match buckets.last_mut() {
            Some((b, n)) if *b == bucket => *n += 1,
            _ => buckets.push((bucket, 1)),
        }
    }
    for (bucket, count) in buckets {
        lines.push(format!("le_{}us {}", 1u64 << bucket, count));
    }
    lines.push(format!(
        "p50_s={:.6} p99_s={:.6} p999_s={:.6} mean_s={:.6}",
        report.percentile_s(0.50),
        report.percentile_s(0.99),
        report.percentile_s(0.999),
        report.mean_s()
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use quepa_polystore::Deployment;
    use quepa_serve::{AdmissionConfig, Server};
    use quepa_workload::{BuiltPolystore, WorkloadConfig};

    #[test]
    fn schedule_is_deterministic_and_rate_shaped() {
        let a = arrival_schedule(200.0, Duration::from_secs(2), 7);
        let b = arrival_schedule(200.0, Duration::from_secs(2), 7);
        assert_eq!(a, b, "same seed ⇒ same schedule");
        let c = arrival_schedule(200.0, Duration::from_secs(2), 8);
        assert_ne!(a, c, "different seed ⇒ different schedule");
        // ~400 expected; Poisson with σ=20 — accept a generous band.
        assert!((300..=500).contains(&a.len()), "got {} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending offsets");
        assert!(a.iter().all(|t| (0.0..2.0).contains(t)));
    }

    #[test]
    fn open_loop_accounting_balances_against_a_live_server() {
        let built = BuiltPolystore::build(WorkloadConfig {
            albums: 60,
            replica_sets: 0,
            deployment: Deployment::InProcess,
            seed: 5,
        });
        let quepa = Arc::new(built.into_quepa());
        let server =
            Server::start(Arc::clone(&quepa), "127.0.0.1:0", AdmissionConfig::default()).unwrap();
        let report = measure_open_loop(
            server.local_addr(),
            OpenLoopSpec {
                rate: 100.0,
                duration: Duration::from_millis(600),
                connections: 2,
                seed: 11,
            },
        );
        assert!(report.offered > 0);
        assert_eq!(report.errors, 0, "no protocol errors at sub-saturation");
        assert_eq!(
            report.offered,
            report.served() + report.shed + report.errors,
            "client-side accounting must balance"
        );
        // The server's own ledger agrees.
        let admission = quepa.metrics_snapshot().admission;
        assert_eq!(admission.offered as usize, report.offered);
        assert_eq!(admission.served as usize, report.served());
        assert_eq!(admission.shed as usize, report.shed);
        let zero = AdmissionMetrics::default();
        assert_eq!(report.unaccounted(zero, admission), 0);
        // A shed the server never recorded breaks its balance and the
        // two-sided agreement; an answer the client lost breaks its own.
        let lost_shed = AdmissionMetrics { offered: admission.offered + 1, ..admission };
        assert_eq!(report.unaccounted(zero, lost_shed), 2);
        let mut lossy = report.clone();
        lossy.served_full -= 1;
        assert_eq!(lossy.unaccounted(zero, admission), 1);
        assert_eq!(report.latencies_s.len(), report.served());
        assert!(report.goodput_qps > 0.0);
        assert!(!histogram_lines(&report).is_empty());
        // Per-request samples cover every offered request, and any
        // arrival window's ledger balances.
        assert_eq!(report.samples.len(), report.offered);
        assert!(report.samples.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        let whole = report.phase(0.0, f64::INFINITY);
        assert!(whole.balances());
        assert_eq!(whole.offered, report.offered);
        let (first, second) = (report.phase(0.0, 0.3), report.phase(0.3, f64::INFINITY));
        assert!(first.balances() && second.balances());
        assert_eq!(first.offered + second.offered, report.offered);
    }
}
