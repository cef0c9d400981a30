//! The measured run of each workload: load generators, the time keeper
//! and the per-window aggregation the end-to-end metrics come from.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use quepa_core::{IndexOp, Quepa};
use quepa_pdm::{GlobalKey, Probability};
use quepa_serve::{augment_payload, encode_request, read_response, Status, Verb};
use quepa_workload::MusicData;

use crate::rng::{poisson_schedule, Rng};
use crate::stats::{cpu_seconds, quantile};
use crate::workload::{fingerprint, Expected, Request, Spec, Stream};

/// A correct answer later than this misses the service-level objective.
pub const SLO_NS: u64 = 25_000_000;

/// Writer pace of `mixed-durable`.
pub const BATCHES_PER_S: u64 = 50;
pub const OPS_PER_BATCH: usize = 16;
const CHECKPOINT_EVERY: u64 = 250;

/// The timed part of a run is cut into windows of a second (at least ten,
/// at most this many), and a metric is the third-best of its per-window
/// values. On a shared machine noise only ever adds time, in bursts of
/// seconds, so the better windows repeat from run to run where the median
/// window does not; the very best would hang on one lucky window. Windows
/// of one second rather than two: a checkpoint (0.5-0.9 s) or a burst then
/// spoils one or two of twenty, and over ten seeds on a busy host the
/// spread of `mixed-durable`'s `query_p90_ms` fell from 0.30 to 0.19 on
/// the same runs, with no workload's figures spreading more.
pub const MAX_WINDOWS: usize = 20;

/// The third-best of per-window values: third-lowest where lower is
/// better, third-highest where higher is.
fn third_best(values: &mut [f64], lower_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if !lower_is_better {
        values.reverse();
    }
    values.get(2).or(values.last()).copied().unwrap_or(0.0)
}

/// When a run starts, how long it warms up and when it ends.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    pub start: Instant,
    pub warm_ns: u64,
    pub end_ns: u64,
    /// How many windows the timed part is cut into.
    pub windows: usize,
}

impl Timeline {
    pub fn starting_now(warm_s: f64, timed_s: f64) -> Timeline {
        let warm_ns = (warm_s * 1e9) as u64;
        Timeline {
            start: Instant::now(),
            warm_ns,
            end_ns: warm_ns + (timed_s * 1e9) as u64,
            windows: (timed_s.round() as usize).clamp(10, MAX_WINDOWS),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    pub fn timed_s(&self) -> f64 {
        (self.end_ns - self.warm_ns) as f64 / 1e9
    }

    /// The window an instant of the timed part falls into.
    pub fn window_of(&self, at_ns: u64) -> Option<usize> {
        if at_ns < self.warm_ns || at_ns >= self.end_ns {
            return None;
        }
        let width = (self.end_ns - self.warm_ns) / self.windows as u64;
        Some((((at_ns - self.warm_ns) / width.max(1)) as usize).min(self.windows - 1))
    }

    fn sleep_until(&self, at_ns: u64) {
        let now = self.now_ns();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Answered, but not with the expected answer.
    Wrong,
    Error,
    /// Answered at level 0 by admission control: misses the objective.
    Degraded,
    /// Shed by admission control: misses the objective.
    Overload,
}

impl Outcome {
    /// A wrong answer, an error or a lost response. `DEGRADED` and
    /// `OVERLOAD` are what the protocol promises under a backlog, and a
    /// half-second stall of a shared host leaves one behind (250 arrivals
    /// against a hard depth of 128): they miss the objective, and the
    /// ledger check holds the server to having counted them.
    pub fn failed(self) -> bool {
        matches!(self, Outcome::Wrong | Outcome::Error)
    }
}

/// One request as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The instant that places the request in a window: completion for a
    /// closed loop, scheduled arrival for an open loop.
    pub at_ns: u64,
    pub latency_ns: u64,
    pub outcome: Outcome,
    pub filtered: bool,
}

/// One committed batch of the `mixed-durable` writer.
#[derive(Debug, Clone, Copy)]
pub struct Commit {
    pub due_ns: u64,
    /// Scheduled start to acknowledged.
    pub latency_ns: u64,
    /// Inside `apply_mutations` only.
    pub apply_ns: u64,
    pub ok: bool,
}

/// What the open-loop generator saw beside the per-request records.
#[derive(Debug, Default)]
pub struct PacedSide {
    /// How late each request left, against its schedule.
    pub late_ns: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub sent: u64,
    pub degraded: u64,
    pub overload: u64,
    /// Admission-gate depth, sampled every two milliseconds (traced runs).
    pub inflight: Vec<f64>,
}

/// Counters of the stores and the cache over the timed part.
#[derive(Debug, Default, Clone, Copy)]
pub struct CounterDelta {
    pub round_trips: f64,
    pub objects: f64,
    pub bytes: f64,
    pub sim_link_ms: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
}

fn counters(quepa: &Quepa) -> CounterDelta {
    let stores = quepa.polystore().stats();
    let (hits, misses) = quepa.cache().stats();
    CounterDelta {
        round_trips: stores.round_trips as f64,
        objects: stores.objects_returned as f64,
        bytes: stores.bytes_returned as f64,
        sim_link_ms: stores.simulated_network.as_secs_f64() * 1e3,
        cache_hits: hits as f64,
        cache_misses: misses as f64,
    }
}

impl CounterDelta {
    fn since(self, earlier: CounterDelta) -> CounterDelta {
        CounterDelta {
            round_trips: self.round_trips - earlier.round_trips,
            objects: self.objects - earlier.objects,
            bytes: self.bytes - earlier.bytes,
            sim_link_ms: self.sim_link_ms - earlier.sim_link_ms,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
        }
    }
}

/// Everything one measured run produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub ops: Vec<Op>,
    pub commits: Vec<Commit>,
    /// `(start_ns, end_ns)` of every forced checkpoint.
    pub checkpoints: Vec<(u64, u64)>,
    /// Process CPU seconds at the window boundaries.
    pub cpu_s: Vec<f64>,
    pub counters: CounterDelta,
    pub paced: Option<PacedSide>,
}

/// Sleeps through a run whose load generators are already started.
/// Returns process CPU seconds at the `windows + 1` window boundaries and
/// what the counters gained over the timed part; `sample`, when given,
/// runs every two milliseconds of the timed part.
fn keep_time(
    quepa: &Quepa,
    timeline: &Timeline,
    mut sample: Option<&mut dyn FnMut()>,
) -> (Vec<f64>, CounterDelta) {
    let width = (timeline.end_ns - timeline.warm_ns) / timeline.windows as u64;
    let mut cpu_s = Vec::with_capacity(timeline.windows + 1);
    timeline.sleep_until(timeline.warm_ns);
    cpu_s.push(cpu_seconds());
    let first = counters(quepa);
    for window in 1..=timeline.windows as u64 {
        let boundary = timeline.warm_ns + width * window;
        if let Some(sample) = sample.as_mut() {
            while timeline.now_ns() + 2_000_000 < boundary {
                std::thread::sleep(Duration::from_millis(2));
                sample();
            }
        }
        timeline.sleep_until(boundary);
        cpu_s.push(cpu_seconds());
    }
    (cpu_s, counters(quepa).since(first))
}

/// One closed-loop caller: the next request leaves when the previous
/// answer arrived.
fn closed_loop_client(
    quepa: &Quepa,
    pool: &[Request],
    expected: &[Expected],
    mut stream: Stream,
    timeline: &Timeline,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(1 << 16);
    while timeline.now_ns() < timeline.end_ns {
        let index = stream.next_index();
        let request = &pool[index];
        let sent = Instant::now();
        let result = request.run(quepa);
        let latency_ns = sent.elapsed().as_nanos() as u64;
        let at_ns = timeline.now_ns();
        let outcome = match &result {
            Err(_) => Outcome::Error,
            Ok(answer) if fingerprint(answer) == expected[index].fingerprint => Outcome::Ok,
            Ok(_) => Outcome::Wrong,
        };
        ops.push(Op { at_ns, latency_ns, outcome, filtered: request.filter.is_some() });
    }
    ops
}

/// Poisson arrivals at `spec.paced_rate`, split evenly over `spec.clients`
/// callers: per caller, `(scheduled arrival, pool index)`.
fn schedules(spec: &Spec, seed: u64, seconds: f64) -> Vec<Vec<(u64, usize)>> {
    (0..spec.clients)
        .map(|c| {
            let mut rng = Rng::new(seed, &format!("arrivals-{c}"));
            let mut stream = Stream::new(spec, seed, c);
            poisson_schedule(&mut rng, spec.paced_rate / spec.clients as f64, seconds)
                .into_iter()
                .map(|due_ns| (due_ns, stream.next_index()))
                .collect()
        })
        .collect()
}

/// One paced caller of the library: a request leaves at its scheduled
/// arrival, or as soon as the previous one returned if that is later, and
/// its latency runs from the scheduled arrival. A writer changes the index
/// under the caller, so only the local answer's size can be checked.
fn paced_caller(
    quepa: &Quepa,
    spec: &Spec,
    pool: &[Request],
    arrivals: &[(u64, usize)],
    timeline: &Timeline,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(arrivals.len());
    for &(due_ns, index) in arrivals {
        timeline.sleep_until(due_ns);
        let outcome = match pool[index].run(quepa) {
            Err(_) => Outcome::Error,
            Ok(answer) if answer.original.len() == spec.window => Outcome::Ok,
            Ok(_) => Outcome::Wrong,
        };
        let latency_ns = timeline.now_ns().saturating_sub(due_ns);
        ops.push(Op { at_ns: due_ns, latency_ns, outcome, filtered: false });
    }
    ops
}

/// Runs `spec.clients` closed-loop callers against the library.
pub fn run_closed(
    quepa: &Quepa,
    spec: &Spec,
    pool: &[Request],
    expected: &[Expected],
    seed: u64,
    warm_s: f64,
    timed_s: f64,
) -> (Timeline, Measured) {
    let timeline = Timeline::starting_now(warm_s, timed_s);
    let mut measured = Measured::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..spec.clients)
            .map(|c| {
                let stream = Stream::new(spec, seed, c);
                let timeline = &timeline;
                scope.spawn(move || closed_loop_client(quepa, pool, expected, stream, timeline))
            })
            .collect();
        (measured.cpu_s, measured.counters) = keep_time(quepa, &timeline, None);
        for client in clients {
            measured.ops.extend(client.join().expect("client thread"));
        }
    });
    (timeline, measured)
}

/// The mutation stream of `mixed-durable`, over keys the generator made.
///
/// Every shard compaction makes the commit path write a checkpoint cut of
/// every dirty shard (some 0.4 s on this data), so a stream that keeps
/// touching new nodes stalls the writer for most of the run: matchings
/// between album copies and customers, which the consistency condition
/// spreads over the album's whole identity clique, cost 60-140 ms a batch.
/// The stream therefore re-inserts matchings from two small fixed sets,
/// with changing probabilities, so the overlays stop growing once every
/// pair is in, and the only steady growth is one removed sale line a
/// batch. That is a pace the commit path sustains.
pub struct MutationPlan {
    /// `(album copy, customer)`: reaches the reader's level-1 answers.
    album_pairs: Vec<(GlobalKey, GlobalKey)>,
    /// `(sale line, customer)`: two index nodes an insert.
    line_pairs: Vec<(GlobalKey, GlobalKey)>,
    /// Sale lines, in the order they get removed.
    lines: Vec<GlobalKey>,
}

impl MutationPlan {
    pub fn new(data: &MusicData, seed: u64) -> MutationPlan {
        let key = |collection: &str, local: String| {
            let database = if collection == "customers" { "catalogue" } else { "transactions" };
            GlobalKey::parse_parts(database, collection, local).expect("generated keys are valid")
        };
        let mut rng = Rng::new(seed, "mutations");
        let mut lines: Vec<GlobalKey> = data
            .sales
            .iter()
            .flat_map(|sale| {
                (0..sale.items.len()).map(|j| key("sales_details", format!("i{}_{j}", sale.seq)))
            })
            .collect();
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.below(i + 1));
        }
        let mut customer = || {
            let seq = data.customers[rng.below(data.customers.len())].seq;
            key("customers", format!("c{seq}"))
        };
        // The last lines of the removal order are never reached in a run.
        let line_pairs =
            lines.iter().rev().take(256).map(|line| (line.clone(), customer())).collect();
        let album_pairs = (0..32)
            .map(|i| (key("inventory", format!("a{}", i * data.albums.len() / 32)), customer()))
            .collect();
        MutationPlan { album_pairs, line_pairs, lines }
    }

    /// Batch number `batch`: one album matching, fourteen line matchings
    /// and, as the sixteenth op, one removal.
    pub fn batch(&self, batch: u64) -> Vec<IndexOp> {
        let matching = |pairs: &[(GlobalKey, GlobalKey)], n: u64| {
            let (a, b) = pairs[n as usize % pairs.len()].clone();
            IndexOp::InsertMatching {
                a,
                b,
                p: Probability::of(0.5 + ((n + batch) % 40) as f64 / 100.0),
            }
        };
        let mut ops = vec![matching(&self.album_pairs, batch)];
        ops.extend(
            (0..OPS_PER_BATCH as u64 - 2)
                .map(|j| matching(&self.line_pairs, batch * (OPS_PER_BATCH as u64 - 2) + j)),
        );
        ops.push(IndexOp::RemoveObject {
            key: self.lines[batch as usize % self.lines.len()].clone(),
        });
        ops
    }
}

/// The paced writer: one batch every 20 ms and a forced checkpoint every
/// 250 batches, except in the last 40 % of the timed part so that recovery
/// afterwards has a WAL tail to replay (a compaction cuts it short).
fn writer(
    quepa: &Quepa,
    plan: &MutationPlan,
    timeline: &Timeline,
) -> (Vec<Commit>, Vec<(u64, u64)>) {
    let period_ns = 1_000_000_000 / BATCHES_PER_S;
    let quiet_from = timeline.warm_ns + (timeline.end_ns - timeline.warm_ns) * 6 / 10;
    let mut commits = Vec::new();
    let mut checkpoints = Vec::new();
    for batch in 0.. {
        let due_ns = batch * period_ns;
        if due_ns >= timeline.end_ns {
            break;
        }
        timeline.sleep_until(due_ns);
        let ops = plan.batch(batch);
        let begun = timeline.now_ns();
        let ok = quepa.apply_mutations(&ops).is_ok();
        let acked = timeline.now_ns();
        commits.push(Commit { due_ns, latency_ns: acked - due_ns, apply_ns: acked - begun, ok });
        if (batch + 1) % CHECKPOINT_EVERY == 0 && due_ns < quiet_from {
            let start = timeline.now_ns();
            quepa.checkpoint_durable().expect("checkpoint");
            checkpoints.push((start, timeline.now_ns()));
        }
    }
    (commits, checkpoints)
}

/// Runs `spec.clients` paced callers of the library (the arrivals of
/// `serve-paced`, without the wire) beside the paced writer on a durable
/// instance.
pub fn run_mixed(
    quepa: &Quepa,
    spec: &Spec,
    pool: &[Request],
    plan: &MutationPlan,
    seed: u64,
    warm_s: f64,
    timed_s: f64,
) -> (Timeline, Measured) {
    let schedules = schedules(spec, seed, warm_s + timed_s);
    let timeline = Timeline::starting_now(warm_s, timed_s);
    let mut measured = Measured::default();
    std::thread::scope(|scope| {
        let timeline = &timeline;
        let callers: Vec<_> = schedules
            .iter()
            .map(|arrivals| {
                scope.spawn(move || paced_caller(quepa, spec, pool, arrivals, timeline))
            })
            .collect();
        let writer = scope.spawn(move || writer(quepa, plan, timeline));
        (measured.cpu_s, measured.counters) = keep_time(quepa, timeline, None);
        for caller in callers {
            measured.ops.extend(caller.join().expect("caller thread"));
        }
        (measured.commits, measured.checkpoints) = writer.join().expect("writer thread");
    });
    (timeline, measured)
}

/// One connection of the open loop: a sender that follows the schedule
/// and a reader that blocks on the socket, so a response is stamped when
/// it arrives (a read timeout is rounded up to a kernel tick, which would
/// make an interleaving single thread send milliseconds late).
fn connection(
    addr: SocketAddr,
    arrivals: &[(u64, usize)],
    pool: &[Request],
    expected: &[Expected],
    timeline: &Timeline,
) -> (Vec<Op>, PacedSide) {
    let mut socket = TcpStream::connect(addr).expect("connect to the in-process server");
    socket.set_nodelay(true).expect("set TCP_NODELAY");
    let read_half = socket.try_clone().expect("clone the socket");
    // A lost response must not hang the run.
    read_half.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    let payloads: Vec<String> =
        pool.iter().map(|r| augment_payload(r.database, r.level, &r.query)).collect();
    let mut side = PacedSide::default();
    let mut ops = Vec::with_capacity(arrivals.len());
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, read_half);
            let mut answered: Vec<Option<(u64, Outcome, usize)>> = vec![None; arrivals.len()];
            for _ in 0..arrivals.len() {
                let Ok(Some(response)) = read_response(&mut reader) else { break };
                let now = timeline.now_ns();
                let Some(slot) = (response.id as usize).checked_sub(1) else { continue };
                let Some(&(due_ns, index)) = arrivals.get(slot) else { continue };
                let outcome = match response.status {
                    Status::Ok if response.payload == expected[index].text => Outcome::Ok,
                    Status::Ok => Outcome::Wrong,
                    Status::Degraded => Outcome::Degraded,
                    Status::Overload => Outcome::Overload,
                    Status::Error => Outcome::Error,
                };
                answered[slot] =
                    Some((now.saturating_sub(due_ns), outcome, response.payload.len()));
            }
            answered
        });
        for (slot, &(due_ns, index)) in arrivals.iter().enumerate() {
            timeline.sleep_until(due_ns);
            side.late_ns.push(timeline.now_ns().saturating_sub(due_ns) as f64);
            let frame = encode_request(&quepa_serve::Request {
                id: slot as u64 + 1,
                verb: Verb::Augment,
                payload: payloads[index].clone(),
            });
            if socket.write_all(&frame).is_err() {
                break;
            }
            side.sent += 1;
        }
        let answered = reader.join().expect("reader thread");
        for (&(due_ns, _), answer) in arrivals.iter().zip(answered) {
            // A request without a response failed.
            let (latency_ns, outcome, bytes) = answer.unwrap_or((0, Outcome::Error, 0));
            match outcome {
                Outcome::Degraded => side.degraded += 1,
                Outcome::Overload => side.overload += 1,
                _ => {}
            }
            side.response_bytes.push(bytes as f64);
            ops.push(Op { at_ns: due_ns, latency_ns, outcome, filtered: false });
        }
    });
    (ops, side)
}

/// Runs the open loop: Poisson arrivals at `spec.paced_rate` split over
/// `spec.clients` TCP connections to `addr`. Latency runs from a
/// request's scheduled arrival to its decoded response.
#[allow(clippy::too_many_arguments)]
pub fn run_paced(
    quepa: &Quepa,
    addr: SocketAddr,
    spec: &Spec,
    pool: &[Request],
    expected: &[Expected],
    seed: u64,
    warm_s: f64,
    timed_s: f64,
    sample_inflight: Option<&dyn Fn() -> f64>,
) -> (Timeline, Measured) {
    let schedules = schedules(spec, seed, warm_s + timed_s);
    let timeline = Timeline::starting_now(warm_s, timed_s);
    let mut measured = Measured::default();
    let mut side = PacedSide::default();
    std::thread::scope(|scope| {
        let timeline = &timeline;
        let connections: Vec<_> = schedules
            .iter()
            .map(|arrivals| {
                scope.spawn(move || connection(addr, arrivals, pool, expected, timeline))
            })
            .collect();
        let mut sample = sample_inflight.map(|depth| || side.inflight.push(depth()));
        (measured.cpu_s, measured.counters) =
            keep_time(quepa, timeline, sample.as_mut().map(|s| s as &mut dyn FnMut()));
        for connection in connections {
            let (ops, one) = connection.join().expect("connection thread");
            measured.ops.extend(ops);
            side.late_ns.extend(one.late_ns);
            side.response_bytes.extend(one.response_bytes);
            side.sent += one.sent;
            side.degraded += one.degraded;
            side.overload += one.overload;
        }
    });
    measured.paced = Some(side);
    (timeline, measured)
}

/// The end-to-end figures of one run (all but `setup_s` and
/// `peak_rss_mb`, which the caller reads).
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub query_p50_ms: f64,
    pub query_p90_ms: f64,
    pub queries_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub slo_ok_ratio: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-window medians, to see how steady the run was.
    pub window_p50_ms: Vec<f64>,
}

/// Aggregates a run window by window. `goodput_only` counts towards
/// `queries_per_s` only answers inside the latency limit (the open loop:
/// its raw throughput is the offered rate, a constant).
pub fn end_to_end(timeline: &Timeline, measured: &Measured, goodput_only: bool) -> EndToEnd {
    let windows = timeline.windows;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut good = vec![0u64; windows];
    let mut done = vec![0u64; windows];
    let mut out = EndToEnd::default();
    let mut within_slo = 0u64;
    let mut queries = 0u64;
    for op in &measured.ops {
        let Some(w) = timeline.window_of(op.at_ns) else { continue };
        queries += 1;
        done[w] += 1;
        out.failed += u64::from(op.outcome.failed());
        if op.outcome == Outcome::Ok {
            latencies[w].push(op.latency_ns as f64 / 1e6);
            let in_time = op.latency_ns <= SLO_NS;
            within_slo += u64::from(in_time);
            good[w] += u64::from(in_time || !goodput_only);
        }
    }
    for commit in &measured.commits {
        let Some(w) = timeline.window_of(commit.due_ns) else { continue };
        out.attempted += 1;
        done[w] += 1;
        out.failed += u64::from(!commit.ok);
    }
    let window_s = timeline.timed_s() / windows as f64;
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut rate = Vec::new();
    let mut cpu = Vec::new();
    for w in 0..windows {
        if !latencies[w].is_empty() {
            p50.push(quantile(&mut latencies[w], 0.5));
            p90.push(quantile(&mut latencies[w], 0.9));
        }
        rate.push(good[w] as f64 / window_s);
        if done[w] > 0 {
            cpu.push((measured.cpu_s[w + 1] - measured.cpu_s[w]) * 1e3 / done[w] as f64);
        }
    }
    out.window_p50_ms = p50.clone();
    out.query_p50_ms = third_best(&mut p50, true);
    out.query_p90_ms = third_best(&mut p90, true);
    out.queries_per_s = third_best(&mut rate, false);
    out.cpu_ms_per_op = third_best(&mut cpu, true);
    out.attempted += queries;
    out.slo_ok_ratio = within_slo as f64 / queries.max(1) as f64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOWS: usize = 20;

    fn timeline() -> Timeline {
        Timeline {
            start: Instant::now(),
            warm_ns: 1_000,
            end_ns: 1_000 + 1_000 * WINDOWS as u64,
            windows: WINDOWS,
        }
    }

    #[test]
    fn windows_cover_exactly_the_timed_part() {
        let t = timeline();
        assert_eq!(t.window_of(999), None);
        assert_eq!(t.window_of(1_000), Some(0));
        assert_eq!(t.window_of(1_999), Some(0));
        assert_eq!(t.window_of(2_000), Some(1));
        assert_eq!(t.window_of(t.end_ns - 1), Some(WINDOWS - 1));
        assert_eq!(t.window_of(t.end_ns), None);
    }

    #[test]
    fn end_to_end_takes_the_third_best_window_and_counts_failures() {
        let t = timeline();
        let mut measured = Measured { cpu_s: vec![0.0; WINDOWS + 1], ..Measured::default() };
        for w in 0..WINDOWS as u64 {
            measured.cpu_s[w as usize + 1] = (w + 1) as f64 * 0.004;
            for i in 0..4u64 {
                // One stalled window (w = 3) must not move the figures.
                let latency_ns = if w == 3 { 40_000_000 } else { 2_000_000 + i * 1_000_000 };
                measured.ops.push(Op {
                    at_ns: 1_000 + w * 1_000 + i,
                    latency_ns,
                    outcome: Outcome::Ok,
                    filtered: false,
                });
            }
        }
        measured.ops.push(Op {
            at_ns: 1_500,
            latency_ns: 1,
            outcome: Outcome::Wrong,
            filtered: false,
        });
        measured.ops.push(Op {
            at_ns: 500,
            latency_ns: 1,
            outcome: Outcome::Error,
            filtered: false,
        });
        let e = end_to_end(&t, &measured, false);
        let all = 4 * WINDOWS as u64 + 1;
        assert_eq!((e.attempted, e.failed), (all, 1));
        assert_eq!(e.query_p50_ms, 3.0);
        assert_eq!(e.query_p90_ms, 5.0);
        assert!((e.queries_per_s - 4.0 / 1e-6).abs() < 1.0);
        assert!((e.slo_ok_ratio - (all - 5) as f64 / all as f64).abs() < 1e-12);
        assert!((e.cpu_ms_per_op - 1.0).abs() < 1e-9);
        let goodput = end_to_end(&t, &measured, true);
        assert_eq!(goodput.queries_per_s, e.queries_per_s, "the stalled window does not count");
    }

    #[test]
    fn mutation_batches_are_deterministic_with_one_removal_each() {
        let data = MusicData::generate(200, 9);
        let plan = MutationPlan::new(&data, 4);
        let again = MutationPlan::new(&data, 4);
        for batch in [0u64, 1, 77] {
            let ops = plan.batch(batch);
            assert_eq!(ops.len(), OPS_PER_BATCH);
            assert_eq!(format!("{ops:?}"), format!("{:?}", again.batch(batch)));
            let removals =
                ops.iter().filter(|op| matches!(op, IndexOp::RemoveObject { .. })).count();
            assert_eq!(removals, 1);
        }
    }
}
