//! The QUEPA benchmark: four workloads, the end-to-end metrics a user of
//! the system sees, and a per-layer budget measured from outside.
//!
//! `benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! runs one workload and prints, as the last line of standard output, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Without `--workload` it runs every workload,
//! both ways, each in a process of its own. See `README.md` beside the
//! manifest for what is measured and why.

mod measure;
mod rng;
mod staged;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use quepa_core::{Quepa, RecoveryOptions, SyncPolicy};
use quepa_pdm::GlobalKey;
use quepa_serve::{AdmissionConfig, Server};

use measure::{end_to_end, Measured, MutationPlan, Outcome, Timeline, OPS_PER_BATCH};
use staged::Staged;
use stats::{mean, median, peak_rss_mb, quantile};
use workload::{oracle, output_dir, request_pool, set_up, stream_hash, Ready, Spec, Workload};

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("slo_ok_ratio", "ratio"),
];

/// The per-layer metrics and their units, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 50] = [
    ("process.cpu_ms_per_op", "ms"),
    ("core.validate_us", "us"),
    ("relstore.execute_us", "us"),
    ("docstore.execute_us", "us"),
    ("graphstore.execute_us", "us"),
    ("core.plan_us", "us"),
    ("core.plan_objects", "count"),
    ("core.groups_per_query", "count"),
    ("core.fetch_ms", "ms"),
    ("core.pool_spawned", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_len", "count"),
    ("core.cache_probe_ns", "ns"),
    ("core.plain_p50_ms", "ms"),
    ("core.filtered_p50_ms", "ms"),
    ("core.filtered_out_per_query", "count"),
    ("core.query_p99_ms", "ms"),
    ("core.query_p999_ms", "ms"),
    ("core.query_samples", "count"),
    ("core.reader_p50_in_ckpt_ms", "ms"),
    ("polystore.round_trips_per_query", "count"),
    ("polystore.objects_per_query", "count"),
    ("polystore.bytes_per_query", "B"),
    ("polystore.sim_link_ms_per_query", "ms"),
    ("polystore.multi_get_us_per_key", "us"),
    ("serve.wire_overhead_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.response_bytes_p50", "B"),
    ("serve.inflight_p90", "count"),
    ("serve.admitted", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("serve.ledger_balanced", "bool"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.threads", "count"),
    ("wal.commit_p50_ms", "ms"),
    ("wal.commit_us_per_op", "us"),
    ("wal.bytes_per_op", "B"),
    ("wal.records_appended", "count"),
    ("wal.cuts_written", "count"),
    ("wal.checkpoint_ms_p50", "ms"),
    ("wal.recover_s", "s"),
    ("wal.recover_replayed", "count"),
    ("aindex.overlay_entries", "count"),
    ("aindex.compactions", "count"),
    ("aindex.shard_build_s", "s"),
    ("workload.generate_s", "s"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

type Metrics = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 1, seconds: 20.0, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.5 && out.seconds <= 600.0) {
                    return Err("--seconds must be between 0.5 and 600".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => {
                out.smoke = true;
                out.seconds = 1.0;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// One finished run.
struct Finished {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

type Probe = Vec<Vec<(String, u64, usize)>>;

/// Level-1 neighbourhoods of `keys` on the instance's current index.
fn probe(quepa: &Quepa, keys: &[GlobalKey]) -> Probe {
    let view = quepa.index();
    keys.iter()
        .map(|key| {
            let (augmented, _) = view.augment_multi(std::slice::from_ref(key), 1);
            let mut rows: Vec<_> = augmented
                .into_iter()
                .map(|a| (a.key.to_string(), a.probability.get().to_bits(), a.distance))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// After `mixed-durable`: the live index's answers on a 200-key probe
/// set, then `rounds` recoveries into fresh instances, each of which must
/// give the same answers. Fills the recovery metrics; returns whether
/// recovered ≡ live held.
fn recover(ready: Ready, spec: &Spec, rounds: usize, layers: &mut Metrics) -> bool {
    let Ready { quepa, polystore, data, durable_dir, .. } = ready;
    let dir = durable_dir.expect("mixed-durable has a durable directory");
    let status = quepa.durability_status().expect("durable instance");
    layers.insert("wal.records_appended", status.records_appended as f64);
    layers.insert("wal.cuts_written", status.cuts_written as f64);
    layers.insert(
        "wal.bytes_per_op",
        dir_bytes(&dir.0) as f64 / status.records_appended.max(1) as f64,
    );
    let keys: Vec<GlobalKey> = (0..200)
        .map(|i| {
            let album = (i * 7919) % data.albums.len();
            GlobalKey::parse_parts("transactions", "inventory", format!("a{album}"))
                .expect("generated keys are valid")
        })
        .collect();
    let live = probe(&quepa, &keys);
    // The live instance lets go of the directory before it is recovered.
    drop(quepa);
    let mut seconds = Vec::new();
    let mut identical = true;
    for _ in 0..rounds {
        let start = Instant::now();
        let (recovered, report) = Quepa::recover_durable(
            polystore.clone(),
            spec.config(),
            &dir.0,
            SyncPolicy::Buffered,
            &RecoveryOptions::default(),
        )
        .expect("recovery");
        seconds.push(start.elapsed().as_secs_f64());
        layers.insert("wal.recover_replayed", report.replayed as f64);
        identical &= probe(&recovered, &keys) == live;
    }
    layers.insert("wal.recover_s", median(&mut seconds));
    identical
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Latencies (ms) of correct answers inside the timed part.
fn ok_latencies(timeline: &Timeline, measured: &Measured, filtered: Option<bool>) -> Vec<f64> {
    measured
        .ops
        .iter()
        .filter(|op| op.outcome == Outcome::Ok && timeline.window_of(op.at_ns).is_some())
        .filter(|op| filtered.is_none_or(|f| op.filtered == f))
        .map(|op| op.latency_ns as f64 / 1e6)
        .collect()
}

/// The per-layer figures read off the workload's own run.
fn run_layers(
    layers: &mut Metrics,
    quepa: &Quepa,
    spec: &Spec,
    timeline: &Timeline,
    measured: &Measured,
) {
    let queries =
        measured.ops.iter().filter(|op| timeline.window_of(op.at_ns).is_some()).count().max(1);
    let per_query = |total: f64| total / queries as f64;
    let c = measured.counters;
    layers.insert("polystore.round_trips_per_query", per_query(c.round_trips));
    layers.insert("polystore.objects_per_query", per_query(c.objects));
    layers.insert("polystore.bytes_per_query", per_query(c.bytes));
    layers.insert("polystore.sim_link_ms_per_query", per_query(c.sim_link_ms));
    layers.insert("core.cache_hit_ratio", c.cache_hits / (c.cache_hits + c.cache_misses).max(1.0));
    layers.insert("core.cache_len", quepa.cache().len() as f64);

    layers.insert(
        "core.plain_p50_ms",
        quantile(&mut ok_latencies(timeline, measured, Some(false)), 0.5),
    );
    layers.insert(
        "core.filtered_p50_ms",
        quantile(&mut ok_latencies(timeline, measured, Some(true)), 0.5),
    );
    // A percentile is reported once ten samples lie beyond it.
    let mut all = ok_latencies(timeline, measured, None);
    layers.insert("core.query_samples", all.len() as f64);
    layers.insert(
        "core.query_p99_ms",
        if all.len() >= 1000 { quantile(&mut all, 0.99) } else { 0.0 },
    );
    layers.insert(
        "core.query_p999_ms",
        if all.len() >= 10_000 { quantile(&mut all, 0.999) } else { 0.0 },
    );

    let mut threads = spec.clients;
    if let Some(side) = &measured.paced {
        threads = 2 * spec.clients;
        layers.insert("loadgen.late_p99_ms", quantile(&mut side.late_ns.clone(), 0.99) / 1e6);
        layers.insert("serve.response_bytes_p50", quantile(&mut side.response_bytes.clone(), 0.5));
        layers.insert("serve.inflight_p90", quantile(&mut side.inflight.clone(), 0.9));
    }
    if !measured.commits.is_empty() {
        threads += 1;
        let timed: Vec<_> =
            measured.commits.iter().filter(|c| timeline.window_of(c.due_ns).is_some()).collect();
        let mut latency: Vec<f64> = timed.iter().map(|c| c.latency_ns as f64 / 1e6).collect();
        let apply: Vec<f64> =
            timed.iter().map(|c| c.apply_ns as f64 / 1e3 / OPS_PER_BATCH as f64).collect();
        layers.insert("wal.commit_p50_ms", quantile(&mut latency, 0.5));
        layers.insert("wal.commit_us_per_op", mean(&apply));
        let mut checkpoints: Vec<f64> =
            measured.checkpoints.iter().map(|(start, end)| (end - start) as f64 / 1e6).collect();
        layers.insert("wal.checkpoint_ms_p50", quantile(&mut checkpoints, 0.5));
        // Reads that were due while a checkpoint was being written.
        let mut during: Vec<f64> = measured
            .ops
            .iter()
            .filter(|op| measured.checkpoints.iter().any(|&(s, e)| (s..=e).contains(&op.at_ns)))
            .map(|op| op.latency_ns as f64 / 1e6)
            .collect();
        layers.insert("core.reader_p50_in_ckpt_ms", quantile(&mut during, 0.5));
    }
    layers.insert("loadgen.threads", threads as f64);

    let shards = quepa.index_shard_stats();
    layers.insert("aindex.overlay_entries", shards.iter().map(|s| s.overlay_depth as f64).sum());
    layers.insert("aindex.compactions", shards.iter().map(|s| s.compactions as f64).sum());
}

/// The per-layer figures of the staged replay.
fn staged_layers(layers: &mut Metrics, quepa: &Quepa, mut staged: Staged, tcp_p50_ms: Option<f64>) {
    let p50 = |values: &mut Vec<f64>| quantile(values, 0.5);
    layers.insert("core.validate_us", p50(&mut staged.validate_us));
    let [relational, document, graph] = &mut staged.execute_us;
    layers.insert("relstore.execute_us", p50(relational));
    layers.insert("docstore.execute_us", p50(document));
    layers.insert("graphstore.execute_us", p50(graph));
    layers.insert("core.plan_us", p50(&mut staged.plan_us));
    layers.insert("core.fetch_ms", p50(&mut staged.fetch_ms));
    layers.insert("serve.decode_us", p50(&mut staged.decode_us));
    layers.insert("serve.encode_us", p50(&mut staged.encode_us));
    layers.insert("core.plan_objects", mean(&staged.plan_objects));
    layers.insert("core.groups_per_query", mean(&staged.groups));
    layers.insert("core.filtered_out_per_query", mean(&staged.filtered_out));
    layers.insert("core.pool_spawned", staged.pool_spawned as f64);
    let whole = p50(&mut staged.whole_ms).max(f64::MIN_POSITIVE);
    layers.insert("trace.coverage_ratio", p50(&mut staged.stage_sum_ms) / whole);
    layers.insert("trace.overhead_ratio", p50(&mut staged.query_ms) / whole);
    if let Some(tcp) = tcp_p50_ms {
        layers.insert("serve.wire_overhead_ms", tcp - whole);
    }
    layers.insert("core.cache_probe_ns", staged::cache_probe_ns(quepa, &staged.sample_keys));
    layers.insert(
        "polystore.multi_get_us_per_key",
        staged::multi_get_us_per_key(quepa, &staged.sample_keys),
    );
}

fn run(args: &Args, workload: Workload) -> Finished {
    let spec = Spec::of(workload, args.smoke);
    let seed = args.seed;
    let pool = request_pool(&spec, seed);
    let firsts: Vec<_> = pool.iter().take(4).collect();
    let ready = set_up(&spec, seed, &firsts);
    let expected = oracle(&ready.quepa, &spec, &pool);
    let warm_s = (args.seconds / 10.0).max(0.5);
    // A traced run splits its time between the workload's own run (the
    // counters and the tail percentiles) and the staged replay.
    let timed_s = if args.trace { args.seconds * 0.45 } else { args.seconds };
    let mut notes = vec![format!(
        "stream_hash={:016x} warm_s={warm_s} timed_s={timed_s} setups={}",
        stream_hash(&spec, &pool, seed),
        spec.setups
    )];
    let mut layers = Metrics::new();
    let mut correct = true;

    // The workload's own run.
    let quepa = Arc::clone(&ready.quepa);
    let (timeline, measured) = match workload {
        Workload::ColdFanout | Workload::WanFiltered => {
            measure::run_closed(&quepa, &spec, &pool, &expected, seed, warm_s, timed_s)
        }
        Workload::MixedDurable => {
            let plan = MutationPlan::new(&ready.data, seed);
            measure::run_mixed(&quepa, &spec, &pool, &plan, seed, warm_s, timed_s)
        }
        Workload::ServePaced => {
            let mut server =
                Server::start(Arc::clone(&quepa), "127.0.0.1:0", AdmissionConfig::default())
                    .expect("bind a loopback port");
            let gate = Arc::clone(server.gate());
            let depth = || gate.depth() as f64;
            let result = measure::run_paced(
                &quepa,
                server.local_addr(),
                &spec,
                &pool,
                &expected,
                seed,
                warm_s,
                timed_s,
                args.trace.then_some(&depth as &dyn Fn() -> f64),
            );
            server.shutdown();
            // The two-sided ledger: what the server counted against what
            // the generator sent and was told.
            let ledger = quepa.metrics().snapshot().admission;
            let side = result.1.paced.as_ref().expect("paced side");
            let balanced = ledger.offered == ledger.served + ledger.shed
                && ledger.offered == side.sent
                && ledger.shed == side.overload
                && ledger.degraded == side.degraded;
            if !balanced {
                notes.push(format!(
                    "admission ledger does not balance: {ledger:?} vs sent {}",
                    side.sent
                ));
            }
            correct &= balanced;
            layers.insert("serve.admitted", (ledger.served - ledger.degraded) as f64);
            layers.insert("serve.degraded", ledger.degraded as f64);
            layers.insert("serve.shed", ledger.shed as f64);
            layers.insert("serve.ledger_balanced", f64::from(u8::from(balanced)));
            result
        }
    };
    // Both arrive on a schedule; the other two are closed loops.
    let open_loop = matches!(workload, Workload::ServePaced | Workload::MixedDurable);
    let e2e = end_to_end(&timeline, &measured, open_loop);
    notes.push(format!("window_p50_ms={:.3?}", e2e.window_p50_ms));
    let mut attempted = e2e.attempted;
    let mut failed = e2e.failed;

    if args.trace {
        layers.insert("process.cpu_ms_per_op", e2e.cpu_ms_per_op);
        run_layers(&mut layers, &quepa, &spec, &timeline, &measured);
        layers.insert("aindex.shard_build_s", ready.assemble_s);
        layers.insert("workload.generate_s", ready.generate_s);
        let mutated = workload == Workload::MixedDurable;
        let (staged, mut trace) = staged::replay(
            &quepa,
            &spec,
            &pool,
            (!mutated).then_some(expected.as_slice()),
            seed,
            warm_s / 2.0,
            args.seconds * 0.45,
        );
        attempted += staged.whole_ms.len() as u64;
        failed += staged.mismatches;
        let tcp_p50 = (workload == Workload::ServePaced).then_some(e2e.query_p50_ms);
        staged_layers(&mut layers, &quepa, staged, tcp_p50);
        trace.spans.truncate(20_000 / staged::SPANS_PER_REQUEST * staged::SPANS_PER_REQUEST);
        let header = format!("\"workload\": \"{}\", {}", workload.name(), provenance(args));
        write_output(&format!("trace-{}.json", workload.name()), &trace.to_json(&header));
    }
    drop(quepa);

    let setup_s = ready.setup_s;
    if workload == Workload::MixedDurable {
        let identical = recover(ready, &spec, if args.smoke { 2 } else { 5 }, &mut layers);
        if !identical {
            notes.push("a recovered index differs from the live one".into());
        }
        correct &= identical;
    } else {
        drop(ready);
    }

    let metrics = if args.trace {
        layers
    } else {
        Metrics::from([
            ("setup_s", setup_s),
            ("query_p50_ms", e2e.query_p50_ms),
            ("query_p90_ms", e2e.query_p90_ms),
            ("queries_per_s", e2e.queries_per_s),
            ("peak_rss_mb", peak_rss_mb()),
            ("slo_ok_ratio", e2e.slo_ok_ratio),
        ])
    };
    correct &= failed == 0 && attempted > 0;
    Finished { correct, attempted, failed, metrics, notes }
}

/// Where and on what the run was made, as JSON members.
fn provenance(args: &Args) -> String {
    let tool = |program: &str, arguments: &[&str]| {
        Command::new(program)
            .args(arguments)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().replace(['"', '\\'], "'"))
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"",
        args.seed,
        args.seconds,
        args.smoke,
        std::thread::available_parallelism().map_or(0, usize::from),
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "HEAD"]),
    )
}

fn write_output(name: &str, contents: &str) {
    let dir = output_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", dir.join(name).display());
    }
}

/// The metrics of one run as a JSON object, every declared name present.
fn metrics_json(declared: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push('}');
    out
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
        eprintln!(
            "benchmark: fewer than 2 cores; the load generators will contend with the system"
        );
    }
    let finished = run(args, workload);
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in declared {
        let value = finished.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{} {name} {value} {unit}", workload.name());
    }
    for note in &finished.notes {
        eprintln!("{} note: {note}", workload.name());
    }
    // An end-to-end metric that reads zero was not measured.
    let measured_all = args.trace
        || END_TO_END.iter().all(|(n, _)| finished.metrics.get(n).is_some_and(|v| *v > 0.0));
    let correct = finished.correct && measured_all;
    let metrics = metrics_json(declared, &finished.metrics);
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        finished.attempted, finished.failed
    );
    let kind = if args.trace { "layers" } else { "end-to-end" };
    write_output(
        &format!("{}-{kind}.json", workload.name()),
        &format!(
            "{{{}, \"workload\": \"{}\", \"result\": {result}}}\n",
            provenance(args),
            workload.name()
        ),
    );
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Without `--workload`: every workload, untraced then traced, each in a
/// process of its own so that `peak_rss_mb` is the workload's.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the executable has a path");
    let started = Instant::now();
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.args(["--workload", workload.name(), "--seed", &args.seed.to_string()]);
            child.args(["--seconds", &args.seconds.to_string(), "--trace", trace]);
            if args.smoke {
                child.arg("--smoke");
            }
            ok &= child.status().is_ok_and(|status| status.success());
        }
    }
    eprintln!("benchmark: all workloads in {:.1} s", started.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            eprintln!(
                "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>] [--smoke]"
            );
            return ExitCode::from(64);
        }
    };
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of a string member on one line of `BENCHMARK.json`.
    fn field(line: &str, key: &str) -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_owned())
    }

    /// The lines of one list of `BENCHMARK.json` (one entry a line).
    fn section(name: &str) -> impl Iterator<Item = &'static str> {
        let text = include_str!("../../BENCHMARK.json");
        let from = text.find(&format!("\"{name}\"")).expect("section present");
        text[from..from + text[from..].find(']').expect("section ends")].lines()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let declared = |name: &str| -> Vec<(String, String)> {
            section(name).filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> =
            section("workloads").filter_map(|l| field(l, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let args =
            parse_args(&argv("--workload wan-filtered --seed 9 --seconds 20 --trace 1")).unwrap();
        assert_eq!(args.workload, Some(Workload::WanFiltered));
        assert_eq!((args.seed, args.seconds, args.trace, args.smoke), (9, 20.0, true, false));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--smoke")).unwrap().smoke);
    }

    #[test]
    fn metrics_json_lists_every_declared_name_and_hides_non_finite_values() {
        let metrics = Metrics::from([("setup_s", 0.5), ("query_p50_ms", f64::NAN)]);
        let json = metrics_json(&END_TO_END, &metrics);
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"query_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }

    /// Every workload, untraced and traced, on the shrunken `--smoke`
    /// data: the run is correct, sets only declared metrics, and every
    /// metric that applies to the workload is positive and finite. One
    /// test, so the workloads do not contend with each other.
    #[test]
    fn smoke_every_workload_reports_every_declared_metric() {
        let common = [
            "core.validate_us",
            "relstore.execute_us",
            "core.plan_us",
            "core.plan_objects",
            "core.groups_per_query",
            "core.fetch_ms",
            "core.pool_spawned",
            "core.cache_hit_ratio",
            "core.cache_len",
            "core.cache_probe_ns",
            "core.plain_p50_ms",
            "core.query_samples",
            "polystore.round_trips_per_query",
            "polystore.objects_per_query",
            "polystore.bytes_per_query",
            "polystore.multi_get_us_per_key",
            "serve.decode_us",
            "serve.encode_us",
            "loadgen.threads",
            "aindex.shard_build_s",
            "workload.generate_s",
            "trace.coverage_ratio",
            "trace.overhead_ratio",
        ];
        let own: [(Workload, &[&str]); 4] = [
            (Workload::ColdFanout, &["docstore.execute_us", "graphstore.execute_us"]),
            (
                Workload::WanFiltered,
                &[
                    "core.filtered_p50_ms",
                    "core.filtered_out_per_query",
                    "polystore.sim_link_ms_per_query",
                ],
            ),
            (
                Workload::ServePaced,
                &[
                    "serve.wire_overhead_ms",
                    "serve.response_bytes_p50",
                    "serve.admitted",
                    "serve.ledger_balanced",
                    "loadgen.late_p99_ms",
                ],
            ),
            (
                Workload::MixedDurable,
                &[
                    "wal.commit_p50_ms",
                    "wal.commit_us_per_op",
                    "wal.bytes_per_op",
                    "wal.records_appended",
                    "wal.recover_s",
                    "aindex.overlay_entries",
                ],
            ),
        ];
        for (workload, specific) in own {
            for trace in [false, true] {
                let args =
                    Args { workload: Some(workload), seed: 5, seconds: 1.0, trace, smoke: true };
                let finished = run(&args, workload);
                let name = workload.name();
                assert!(finished.correct, "{name} trace={trace}: {:?}", finished.notes);
                assert!(finished.attempted > 0 && finished.failed == 0, "{name}");
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (metric, value) in &finished.metrics {
                    assert!(table.iter().any(|(n, _)| n == metric), "{name}: undeclared {metric}");
                    assert!(value.is_finite(), "{name}: {metric} = {value}");
                }
                let required: Vec<&str> = if trace {
                    common.iter().chain(specific).copied().collect()
                } else {
                    END_TO_END.iter().map(|(n, _)| *n).collect()
                };
                for metric in required {
                    let value = finished.metrics.get(metric).copied().unwrap_or(0.0);
                    assert!(value > 0.0, "{name} trace={trace}: {metric} = {value}");
                }
            }
        }
    }
}
