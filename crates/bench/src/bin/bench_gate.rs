//! CI bench-regression gate.
//!
//! Re-measures a smoke subset of the four recorded baselines
//! (`BENCH_augment_hotpath.json`, `BENCH_fault_overhead.json`,
//! `BENCH_metrics_overhead.json`, `BENCH_throughput.json`) and fails —
//! exit code 1 — when any scenario drifts more than `TOLERANCE` from its
//! checked-in mean, or when the concurrent-serving path no longer scales:
//! 16 closed-loop clients must sustain at least 4× the serial QPS.
//! A scenario that misses the band on the quick pass is re-measured
//! with more runs before it counts as a regression (CI machines jitter;
//! the simulated-network sleeps keep means stable, but one noisy run
//! must not block a PR).
//!
//! The serving front end is gated from its recorded sweep
//! (`BENCH_serving.json`): p999 under 2× overload ≤5× the
//! sub-saturation p999, goodput at 2× overload ≥70% of peak, and the
//! accounting invariant `offered == served + shed + errors` in every
//! recorded scenario. Only the sub-saturation smoke point is
//! re-measured live (the full overload sweep is the nightly
//! `overload-soak` job).
//!
//! The smoke subset covers the in-process and centralized deployments at
//! the 10-store / level-1 / cold hot path — the scenario every baseline
//! records. The distributed deployment and the warm/level-0 variants are
//! *not* re-measured here (they multiply gate time ×6 for the same code
//! paths); the full sweep remains `cargo bench -p quepa-bench`.
//!
//! ```sh
//! cargo run --release -p quepa-bench --bin bench_gate
//! ```

use std::path::Path;
use std::time::Duration;

use quepa_bench::baseline::Baseline;
use quepa_bench::{pushdown, recovery, scale, serving, throughput, traffic, Lab};
use quepa_core::{QuepaConfig, ResilienceConfig};
use quepa_polystore::Deployment;
use quepa_serve::Server;
use quepa_workload::TopologyFamily;

/// Allowed drift from the recorded mean, either direction.
const TOLERANCE: f64 = 0.15;
/// Quick-pass / confirmation-pass measured runs per scenario.
const QUICK_RUNS: usize = 15;
const CONFIRM_RUNS: usize = 40;
/// The hot-path query every baseline records.
const QUERY: &str = "SELECT * FROM inventory WHERE seq < 50";
/// Absolute ceiling on the recorded supernode cold probe: expanding a
/// hub with ~1e5 p-relations must stay interactive, not merely stable
/// relative to its own past.
const SUPERNODE_COLD_CEILING_S: f64 = 0.5;
/// Recovery-phase p999 of the flash crowd over its pre-burst p999.
const FLASH_RECOVERY_LIMIT: f64 = 1.15;
/// Horizon of the live flash-crowd accounting leg.
const FLASH_LIVE_HORIZON_S: f64 = 10.0;

/// One smoke scenario: which baseline file it lives in, its recorded
/// name, and the configuration that reproduces it.
struct Scenario {
    file: &'static str,
    name: String,
    config: QuepaConfig,
}

fn scenarios(deployment: Deployment) -> Vec<Scenario> {
    let dep = deployment.name();
    let base = QuepaConfig::default();
    let mut out = vec![Scenario {
        file: "BENCH_augment_hotpath.json",
        name: format!("{dep}/10stores/level1/cold"),
        config: base,
    }];
    for (label, resilience) in [
        ("trivial", ResilienceConfig::default()),
        ("resilient-nofault", ResilienceConfig::resilient()),
    ] {
        out.push(Scenario {
            file: "BENCH_fault_overhead.json",
            name: format!("{dep}/10stores/level1/cold/{label}"),
            config: QuepaConfig { resilience, ..base },
        });
    }
    for (label, observability) in [("disabled", false), ("enabled", true)] {
        out.push(Scenario {
            file: "BENCH_metrics_overhead.json",
            name: format!("{dep}/10stores/level1/cold/{label}"),
            config: QuepaConfig { observability, ..base },
        });
    }
    out
}

/// Median end-to-end query seconds over `runs` measured executions after
/// five throwaway warm-ups — the answer's own `duration`, matching the
/// methodology the baseline emitters record. The run distribution is a
/// sleep-dominated floor plus rare scheduler spikes; a mean over a
/// handful of runs can drift 20%+ on a loaded CI box while the median
/// stays within a percent of the quiet-machine value, so the gate
/// compares medians.
fn measure(lab: &Lab, config: QuepaConfig, runs: usize) -> f64 {
    for _ in 0..5 {
        lab.run("transactions", QUERY, 1, config, true);
    }
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| lab.run("transactions", QUERY, 1, config, true).0.as_secs_f64())
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[runs / 2]
}

fn main() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let load = |file: &str| {
        Baseline::load(&root.join(file)).unwrap_or_else(|e| {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        })
    };
    let baselines = [
        load("BENCH_augment_hotpath.json"),
        load("BENCH_fault_overhead.json"),
        load("BENCH_metrics_overhead.json"),
    ];
    let throughput_baseline = load("BENCH_throughput.json");
    let recorded = |file: &str, name: &str| -> f64 {
        let b = match file {
            "BENCH_augment_hotpath.json" => &baselines[0],
            "BENCH_fault_overhead.json" => &baselines[1],
            _ => &baselines[2],
        };
        *b.means.get(name).unwrap_or_else(|| {
            eprintln!("bench_gate: {file} has no scenario {name:?} — regenerate the baseline");
            std::process::exit(2);
        })
    };

    // The 2% acceptance pin: the disabled observability path must cost
    // the same as the un-instrumented hot path it replaced. Compared
    // baseline-to-baseline (both recorded on the same machine) so the
    // check is deterministic in CI.
    let hotpath = recorded("BENCH_augment_hotpath.json", "centralized/10stores/level1/cold");
    let disabled =
        recorded("BENCH_metrics_overhead.json", "centralized/10stores/level1/cold/disabled");
    let pin = (disabled - hotpath) / hotpath;
    println!(
        "observability disabled-path pin: {disabled:.6}s vs hotpath {hotpath:.6}s ({:+.2}%, limit +2%)",
        pin * 100.0
    );
    let mut failed = pin > 0.02;
    if failed {
        eprintln!("bench_gate: disabled observability exceeds the 2% overhead pin");
    }

    println!("{:<52} {:>10} {:>10} {:>8}  verdict", "scenario", "recorded", "measured", "delta");
    let mut rows = Vec::new();
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        let lab = Lab::new(200, 2, deployment); // 10 stores
        for s in scenarios(deployment) {
            let want = recorded(s.file, &s.name);
            let mut got = measure(&lab, s.config, QUICK_RUNS);
            let mut delta = (got - want) / want;
            if delta.abs() > TOLERANCE {
                // One noisy pass is not a regression: confirm with more
                // runs and keep the measurement closer to the record.
                let again = measure(&lab, s.config, CONFIRM_RUNS);
                let again_delta = (again - want) / want;
                if again_delta.abs() < delta.abs() {
                    got = again;
                    delta = again_delta;
                }
            }
            let ok = delta.abs() <= TOLERANCE;
            failed |= !ok;
            let verdict = if ok { "ok" } else { "REGRESSION" };
            println!(
                "{:<52} {:>9.6}s {:>9.6}s {:>+7.1}%  {verdict}",
                s.name,
                want,
                got,
                delta * 100.0
            );
            rows.push((s.name, ok));
        }
    }

    // ---- concurrent-serving throughput ---------------------------------
    // Re-measure the serial and 16-client levels of the throughput bench:
    // each must stay within the tolerance band of its recorded wall
    // seconds per query, and the measured QPS ratio must hold the ≥4×
    // scaling claim the tentpole makes.
    let tlab = throughput::lab();
    let mut tpoints = Vec::new();
    for clients in [1usize, 16] {
        let name = throughput::scenario_name(clients);
        let want = *throughput_baseline.means.get(&name).unwrap_or_else(|| {
            eprintln!("bench_gate: BENCH_throughput.json has no scenario {name:?}");
            std::process::exit(2);
        });
        let per_client = throughput::default_per_client(clients);
        let mut point = throughput::measure(&tlab, clients, per_client);
        let mut delta = (point.mean_s - want) / want;
        if delta.abs() > TOLERANCE {
            let again = throughput::measure(&tlab, clients, 2 * per_client);
            let again_delta = (again.mean_s - want) / want;
            if again_delta.abs() < delta.abs() {
                point = again;
                delta = again_delta;
            }
        }
        let ok = delta.abs() <= TOLERANCE;
        failed |= !ok;
        let verdict = if ok { "ok" } else { "REGRESSION" };
        println!(
            "{:<52} {:>9.6}s {:>9.6}s {:>+7.1}%  {verdict}",
            name,
            want,
            point.mean_s,
            delta * 100.0
        );
        rows.push((name, ok));
        tpoints.push(point);
    }
    let ratio = tpoints[1].qps / tpoints[0].qps;
    let ratio_ok = ratio >= 4.0;
    failed |= !ratio_ok;
    println!(
        "throughput scaling: {:.1} qps serial -> {:.1} qps at 16 clients ({ratio:.2}x, target >=4x)  {}",
        tpoints[0].qps,
        tpoints[1].qps,
        if ratio_ok { "ok" } else { "REGRESSION" }
    );
    if !ratio_ok {
        rows.push(("throughput-qps-ratio-16v1".into(), false));
    }

    // ---- cross-store filter pushdown -----------------------------------
    // The recorded pushdown sweep (BENCH_pushdown.json) carries the
    // tentpole's headline claim: the filtered search with per-group
    // predicate pushdown beats the client-side fetch-all fan-out ≥2×.
    // The gate re-checks the recorded ratio, re-measures both modes
    // within the tolerance band (with the usual confirmation pass), and
    // holds the *live* ratio to the same ≥2× floor.
    let pushdown_baseline = load("BENCH_pushdown.json");
    let prec = |name: &str| -> f64 {
        *pushdown_baseline.means.get(name).unwrap_or_else(|| {
            eprintln!(
                "bench_gate: BENCH_pushdown.json has no scenario {name:?} — regenerate with `cargo bench -p quepa-bench --bench pushdown`"
            );
            std::process::exit(2);
        })
    };
    let rec_push = prec(&pushdown::scenario_name(true));
    let rec_fetch = prec(&pushdown::scenario_name(false));
    let rec_pd_speedup = rec_fetch / rec_push;
    let rec_pd_ok = rec_pd_speedup >= 2.0;
    failed |= !rec_pd_ok;
    println!(
        "\nrecorded pushdown speedup vs fetch-all: {rec_pd_speedup:.2}x (target >=2x)  {}",
        if rec_pd_ok { "ok" } else { "REGRESSION" }
    );
    if !rec_pd_ok {
        rows.push(("pushdown-speedup-recorded".into(), false));
    }
    let plab = pushdown::lab();
    if !pushdown::answers_agree(&plab) {
        eprintln!("bench_gate: pushdown and fetch-all answers diverge — run quepa-check");
        failed = true;
        rows.push(("pushdown-answers-agree".into(), false));
    }
    let mut live_points = [0.0f64; 2];
    for (i, mode) in [true, false].into_iter().enumerate() {
        let name = pushdown::scenario_name(mode);
        let want = prec(&name);
        let mut got = pushdown::measure(&plab, mode, QUICK_RUNS).mean_s;
        let mut delta = (got - want) / want;
        if delta.abs() > TOLERANCE {
            let again = pushdown::measure(&plab, mode, CONFIRM_RUNS).mean_s;
            let again_delta = (again - want) / want;
            if again_delta.abs() < delta.abs() {
                got = again;
                delta = again_delta;
            }
        }
        let ok = delta.abs() <= TOLERANCE;
        failed |= !ok;
        let verdict = if ok { "ok" } else { "REGRESSION" };
        println!("{name:<52} {want:>9.6}s {got:>9.6}s {:>+7.1}%  {verdict}", delta * 100.0);
        rows.push((name, ok));
        live_points[i] = got;
    }
    let live_pd_speedup = live_points[1] / live_points[0];
    let live_pd_ok = live_pd_speedup >= 2.0;
    failed |= !live_pd_ok;
    println!(
        "live pushdown speedup vs fetch-all: {live_pd_speedup:.2}x (target >=2x)  {}",
        if live_pd_ok { "ok" } else { "REGRESSION" }
    );
    if !live_pd_ok {
        rows.push(("pushdown-speedup-live".into(), false));
    }

    // ---- sharded-index scale smoke -------------------------------------
    // The recorded sweep (BENCH_scale.json) carries the two acceptance
    // ratios of the sharded index; the gate re-checks them from the
    // recorded scenarios, then re-measures the 1e4 point: augmentation
    // medians within the tolerance band and the sharded-vs-swap mutation
    // speedup ≥5× live, under the same 16 concurrent readers.
    let scale_baseline = load("BENCH_scale.json");
    let srec = |name: &str| -> f64 {
        *scale_baseline.means.get(name).unwrap_or_else(|| {
            eprintln!(
                "bench_gate: BENCH_scale.json has no scenario {name:?} — regenerate with `cargo bench -p quepa-bench --bench scale`"
            );
            std::process::exit(2);
        })
    };
    let worst_cold = scale::LEVELS
        .iter()
        .map(|l| {
            srec(&format!("scale/1e6/level{l}/cold")) / srec(&format!("scale/1e4/level{l}/cold"))
        })
        .fold(0.0f64, f64::max);
    let cold_ok = worst_cold <= 2.0;
    failed |= !cold_ok;
    println!(
        "\nrecorded cold augmentation growth 1e4 -> 1e6 (worst level): {worst_cold:.2}x (limit 2x)  {}",
        if cold_ok { "ok" } else { "REGRESSION" }
    );
    if !cold_ok {
        rows.push(("scale-cold-latency-growth".into(), false));
    }
    let rec_speedup = srec("scale/1e6/mutation/swap") / srec("scale/1e6/mutation/sharded");
    let rec_speedup_ok = rec_speedup >= 5.0;
    failed |= !rec_speedup_ok;
    println!(
        "recorded mutation speedup sharded vs whole-index swap at 1e6: {rec_speedup:.2}x (target >=5x)  {}",
        if rec_speedup_ok { "ok" } else { "REGRESSION" }
    );
    if !rec_speedup_ok {
        rows.push(("scale-mutation-speedup-recorded".into(), false));
    }

    let slab = scale::build(10_000);
    for level in scale::LEVELS {
        let quick = scale::augment_latency(&slab, level, QUICK_RUNS);
        let mut confirmed: Option<(f64, f64)> = None;
        for (tag, pick) in [("cold", 0usize), ("warm", 1)] {
            let name = format!("scale/1e4/level{level}/{tag}");
            let want = srec(&name);
            let mut got = if pick == 0 { quick.0 } else { quick.1 };
            let mut delta = (got - want) / want;
            if delta.abs() > TOLERANCE {
                let pair = *confirmed
                    .get_or_insert_with(|| scale::augment_latency(&slab, level, CONFIRM_RUNS));
                let again = if pick == 0 { pair.0 } else { pair.1 };
                let again_delta = (again - want) / want;
                if again_delta.abs() < delta.abs() {
                    got = again;
                    delta = again_delta;
                }
            }
            let ok = delta.abs() <= TOLERANCE;
            failed |= !ok;
            let verdict = if ok { "ok" } else { "REGRESSION" };
            println!(
                "{:<52} {:>9.6}s {:>9.6}s {:>+7.1}%  {verdict}",
                name,
                want,
                got,
                delta * 100.0
            );
            rows.push((name, ok));
        }
    }
    let sharded = scale::mutation_throughput_sharded(&slab);
    let swap = scale::mutation_throughput_swap(&slab);
    let live_speedup = swap.mean_s / sharded.mean_s;
    let live_ok = live_speedup >= 5.0;
    failed |= !live_ok;
    println!(
        "live mutation speedup at 1e4 under {} readers: sharded {:.6}s vs swap {:.6}s per removal ({live_speedup:.2}x, target >=5x)  {}",
        scale::READERS,
        sharded.mean_s,
        swap.mean_s,
        if live_ok { "ok" } else { "REGRESSION" }
    );
    if !live_ok {
        rows.push(("scale-mutation-speedup-live".into(), false));
    }

    // ---- hostile topologies --------------------------------------------
    // Every adversarial topology family must carry recorded build/cold/
    // warm baselines (a missing one exits 2, like any lost scenario).
    // The supernode hub — ~1e5 p-relations on one object — is the family
    // the tentpole bounds: its recorded cold probe is held to an absolute
    // ceiling and re-measured live within the tolerance band.
    for family in TopologyFamily::ALL {
        for tag in ["build", "cold", "warm"] {
            let _ = srec(&format!("hostile/{}/{tag}", family.name()));
        }
    }
    let supernode_cold = srec("hostile/supernode/cold");
    let ceiling_ok = supernode_cold <= SUPERNODE_COLD_CEILING_S;
    failed |= !ceiling_ok;
    println!(
        "\nrecorded supernode cold probe: {supernode_cold:.6}s (ceiling {SUPERNODE_COLD_CEILING_S}s)  {}",
        if ceiling_ok { "ok" } else { "REGRESSION" }
    );
    if !ceiling_ok {
        rows.push(("hostile-supernode-cold-ceiling".into(), false));
    }
    let hlab = scale::build_hostile(TopologyFamily::Supernode, scale::HOSTILE_SCALE);
    let hlevel = scale::hostile_level(TopologyFamily::Supernode);
    let hquick = scale::augment_latency_on(&hlab.sharded, &hlab.seeds, hlevel, QUICK_RUNS);
    let mut hconfirmed: Option<(f64, f64)> = None;
    for (tag, pick) in [("cold", 0usize), ("warm", 1)] {
        let name = format!("hostile/supernode/{tag}");
        let want = srec(&name);
        let mut got = if pick == 0 { hquick.0 } else { hquick.1 };
        let mut delta = (got - want) / want;
        if delta.abs() > TOLERANCE {
            let pair = *hconfirmed.get_or_insert_with(|| {
                scale::augment_latency_on(&hlab.sharded, &hlab.seeds, hlevel, CONFIRM_RUNS)
            });
            let again = if pick == 0 { pair.0 } else { pair.1 };
            let again_delta = (again - want) / want;
            if again_delta.abs() < delta.abs() {
                got = again;
                delta = again_delta;
            }
        }
        let ok = delta.abs() <= TOLERANCE;
        failed |= !ok;
        let verdict = if ok { "ok" } else { "REGRESSION" };
        println!("{name:<52} {want:>9.6}s {got:>9.6}s {:>+7.1}%  {verdict}", delta * 100.0);
        rows.push((name, ok));
    }

    // ---- durability smoke ----------------------------------------------
    // The recorded durability sweep (BENCH_recovery.json) carries two
    // acceptance claims: the shared mutation entry point costs nothing
    // when no WAL is attached (wal-off ≡ baseline, both recorded on the
    // same machine so the pin is deterministic), and cold recovery stays
    // roughly linear in the log. The gate re-checks both from the
    // recorded scenarios, then re-measures the wal-off/baseline ratio
    // live.
    let recovery_baseline = load("BENCH_recovery.json");
    let rrec = |name: &str| -> f64 {
        *recovery_baseline.means.get(name).unwrap_or_else(|| {
            eprintln!(
                "bench_gate: BENCH_recovery.json has no scenario {name:?} — regenerate with `cargo bench -p quepa-bench --bench recovery`"
            );
            std::process::exit(2);
        })
    };
    let rec_overhead =
        rrec("recovery/1e4/mutation/wal-off") / rrec("recovery/1e4/mutation/baseline");
    let rec_overhead_ok = (rec_overhead - 1.0).abs() <= 0.02;
    failed |= !rec_overhead_ok;
    println!(
        "\nrecorded wal-off mutation cost vs baseline: {rec_overhead:.3}x (pin 1.00x +-2%)  {}",
        if rec_overhead_ok { "ok" } else { "REGRESSION" }
    );
    if !rec_overhead_ok {
        rows.push(("recovery-wal-off-pin-recorded".into(), false));
    }
    let rec_growth = rrec("recovery/1e5/recover") / rrec("recovery/1e4/recover");
    let rec_growth_ok = rec_growth <= 25.0;
    failed |= !rec_growth_ok;
    println!(
        "recorded cold recovery growth 1e4 -> 1e5 ops: {rec_growth:.2}x (limit 25x)  {}",
        if rec_growth_ok { "ok" } else { "REGRESSION" }
    );
    if !rec_growth_ok {
        rows.push(("recovery-growth-recorded".into(), false));
    }
    let stream = recovery::ops(recovery::MUTATION_OPS);
    let mut live_base = recovery::mutation_baseline(&stream);
    let mut live_off = recovery::mutation_wal_off(&stream);
    let mut live_overhead = live_off.mean_s / live_base.mean_s;
    if live_overhead > 1.05 {
        // One noisy pass is not a regression; re-measure both paths.
        let again_base = recovery::mutation_baseline(&stream);
        let again_off = recovery::mutation_wal_off(&stream);
        let again = again_off.mean_s / again_base.mean_s;
        if again < live_overhead {
            (live_base, live_off, live_overhead) = (again_base, again_off, again);
        }
    }
    let live_overhead_ok = live_overhead <= 1.05;
    failed |= !live_overhead_ok;
    println!(
        "live wal-off mutation cost vs baseline: {:.9}s vs {:.9}s per op ({live_overhead:.3}x, limit 1.05x)  {}",
        live_off.mean_s,
        live_base.mean_s,
        if live_overhead_ok { "ok" } else { "REGRESSION" }
    );
    if !live_overhead_ok {
        rows.push(("recovery-wal-off-pin-live".into(), false));
    }

    // ---- serving front end ---------------------------------------------
    // The recorded open-loop sweep (BENCH_serving.json) carries the two
    // tail-latency acceptance claims of the serving tentpole: admission
    // control must bound the p999 under 2× overload to ≤5× the
    // sub-saturation p999, and goodput at 2× overload must hold ≥70% of
    // the sweep's peak. Both are re-checked from the recorded scenarios
    // (the full sweep lives in the nightly overload-soak job); the gate
    // then re-measures only the sub-saturation smoke point live against
    // a real TCP server.
    let serving_baseline = load("BENCH_serving.json");
    let svrec = |scenario: &str, key: &str| -> f64 {
        serving_baseline.field(scenario, key).unwrap_or_else(|| {
            eprintln!(
                "bench_gate: BENCH_serving.json scenario {scenario:?} has no {key:?} — regenerate with `cargo bench -p quepa-bench --bench serving`"
            );
            std::process::exit(2);
        })
    };
    let smoke_name = serving::scenario_name(serving::SMOKE_FRACTION);
    let overload_name = serving::scenario_name(2.0);
    for fraction in serving::SWEEP_FRACTIONS {
        let name = serving::scenario_name(fraction);
        let offered = svrec(&name, "offered");
        let accounted = svrec(&name, "served") + svrec(&name, "shed") + svrec(&name, "errors");
        if (offered - accounted).abs() > 0.5 {
            eprintln!(
                "bench_gate: {name} recorded accounting does not balance ({offered} offered vs {accounted} accounted)"
            );
            failed = true;
            rows.push((format!("{name}-accounting"), false));
        }
    }
    let p999_ratio = svrec(&overload_name, "p999_s") / svrec(&smoke_name, "p999_s").max(1e-9);
    let p999_ok = p999_ratio <= 5.0;
    failed |= !p999_ok;
    println!(
        "\nrecorded serving p999 under 2x overload vs sub-saturation: {p999_ratio:.2}x (limit 5x)  {}",
        if p999_ok { "ok" } else { "REGRESSION" }
    );
    if !p999_ok {
        rows.push(("serving-p999-overload-ratio".into(), false));
    }
    let peak_qps = serving::SWEEP_FRACTIONS
        .iter()
        .map(|f| svrec(&serving::scenario_name(*f), "qps"))
        .fold(0.0f64, f64::max);
    let goodput_floor = svrec(&overload_name, "qps") / peak_qps.max(1e-9);
    let goodput_ok = goodput_floor >= 0.7;
    failed |= !goodput_ok;
    println!(
        "recorded serving goodput floor at 2x overload: {goodput_floor:.2} of peak {peak_qps:.1} qps (target >=0.7)  {}",
        if goodput_ok { "ok" } else { "REGRESSION" }
    );
    if !goodput_ok {
        rows.push(("serving-goodput-floor".into(), false));
    }

    // Live smoke point: the recorded sub-saturation rate against a real
    // server, latency-from-scheduled-arrival mean within the band.
    let squepa = serving::bench_quepa();
    let mut server =
        Server::start(std::sync::Arc::clone(&squepa), "127.0.0.1:0", serving::bench_admission())
            .expect("start serving smoke server");
    let smoke_rate = svrec(&smoke_name, "rate");
    let smoke_want = svrec(&smoke_name, "mean_s");
    let smoke_spec = |seed: u64, secs: u64| serving::OpenLoopSpec {
        rate: smoke_rate,
        duration: Duration::from_secs(secs),
        connections: serving::CONNECTIONS,
        seed,
    };
    let mut smoke = serving::measure_open_loop(server.local_addr(), smoke_spec(0xC0FFEE, 2));
    let mut smoke_delta = (smoke.mean_s() - smoke_want) / smoke_want;
    if smoke_delta.abs() > TOLERANCE {
        let again = serving::measure_open_loop(server.local_addr(), smoke_spec(0xC0FFEF, 4));
        let again_delta = (again.mean_s() - smoke_want) / smoke_want;
        if again_delta.abs() < smoke_delta.abs() {
            smoke = again;
            smoke_delta = again_delta;
        }
    }
    let smoke_sane = smoke.errors == 0
        && smoke.offered == smoke.served() + smoke.shed + smoke.errors
        && smoke.offered > 0;
    let smoke_ok = smoke_delta.abs() <= TOLERANCE && smoke_sane;
    failed |= !smoke_ok;
    println!(
        "{:<52} {:>9.6}s {:>9.6}s {:>+7.1}%  {}",
        format!("{smoke_name} (live, {:.0}/s)", smoke_rate),
        smoke_want,
        smoke.mean_s(),
        smoke_delta * 100.0,
        if smoke_ok { "ok" } else { "REGRESSION" }
    );
    if !smoke_sane {
        eprintln!(
            "bench_gate: live serving smoke unhealthy — offered {} served {} shed {} errors {}",
            smoke.offered,
            smoke.served(),
            smoke.shed,
            smoke.errors
        );
    }
    rows.push((format!("{smoke_name}-live"), smoke_ok));

    // ---- time-varying traffic ------------------------------------------
    // The recorded traffic points carry two-sided accounting: the
    // client-observed ledger must balance, match the server's own
    // admission-ledger delta exactly (recorded runs are error-free), and
    // the server ledger must balance offered == served + shed. The flash
    // crowd additionally pins the recovery bound — recovery-phase p999
    // within 15% of pre-burst — sheds a nonzero share of the 4× burst,
    // and balances the ledger in every phase.
    for family in traffic::TrafficFamily::ALL {
        let name = format!("serving/{}", family.name());
        let offered = svrec(&name, "offered");
        let client_balanced =
            offered == svrec(&name, "served") + svrec(&name, "shed") + svrec(&name, "errors");
        let ledger_offered = svrec(&name, "ledger_offered");
        let ledger_balanced =
            ledger_offered == svrec(&name, "ledger_served") + svrec(&name, "ledger_shed");
        let two_sided = svrec(&name, "errors") == 0.0
            && offered == ledger_offered
            && svrec(&name, "shed") == svrec(&name, "ledger_shed");
        let ok = client_balanced && ledger_balanced && two_sided;
        failed |= !ok;
        println!(
            "recorded {name} two-sided ledger: client {offered:.0} offered / server {ledger_offered:.0} offered  {}",
            if ok { "ok" } else { "REGRESSION" }
        );
        if !ok {
            eprintln!(
                "bench_gate: {name} ledgers disagree (client balanced: {client_balanced}, server balanced: {ledger_balanced}, two-sided: {two_sided})"
            );
            rows.push((format!("{name}-ledger"), false));
        }
    }
    let flash_name = format!("serving/{}", traffic::TrafficFamily::FlashCrowd.name());
    for tag in ["pre", "burst", "recovery"] {
        let balanced = svrec(&flash_name, &format!("{tag}_offered"))
            == svrec(&flash_name, &format!("{tag}_served"))
                + svrec(&flash_name, &format!("{tag}_shed"))
                + svrec(&flash_name, &format!("{tag}_errors"));
        failed |= !balanced;
        if !balanced {
            eprintln!("bench_gate: recorded flash-crowd {tag} phase ledger does not balance");
            rows.push((format!("flash-{tag}-phase-ledger"), false));
        }
    }
    let recovery_ratio = svrec(&flash_name, "recovery_ratio");
    let recovery_ok = recovery_ratio <= FLASH_RECOVERY_LIMIT;
    failed |= !recovery_ok;
    println!(
        "recorded flash-crowd recovery p999 vs pre-burst: {recovery_ratio:.2}x (limit {FLASH_RECOVERY_LIMIT}x, grace {:.0}s)  {}",
        traffic::RECOVERY_GRACE_S,
        if recovery_ok { "ok" } else { "REGRESSION" }
    );
    if !recovery_ok {
        rows.push(("flash-recovery-ratio".into(), false));
    }
    let burst_sheds = svrec(&flash_name, "burst_shed") > 0.0;
    failed |= !burst_sheds;
    if !burst_sheds {
        eprintln!("bench_gate: recorded flash-crowd burst shed nothing — 4x burst not biting");
        rows.push(("flash-burst-sheds".into(), false));
    }

    // Live flash-crowd accounting leg: a short burst replay against the
    // same server; the client-side count of every response must equal
    // the server's admission-ledger delta exactly, with zero errors.
    let capacity = svrec(&smoke_name, "rate") / serving::SMOKE_FRACTION;
    let schedule =
        traffic::TrafficFamily::FlashCrowd.schedule(capacity, FLASH_LIVE_HORIZON_S, 0xF1A5);
    let before = squepa.metrics_snapshot().admission;
    let flash_live = serving::measure_schedule(
        server.local_addr(),
        &schedule,
        serving::CONNECTIONS,
        FLASH_LIVE_HORIZON_S,
    );
    let after = squepa.metrics_snapshot().admission;
    let (d_offered, d_served, d_shed) =
        (after.offered - before.offered, after.served - before.served, after.shed - before.shed);
    let flash_live_ok = flash_live.errors == 0
        && flash_live.offered > 0
        && flash_live.offered == flash_live.served() + flash_live.shed
        && flash_live.offered as u64 == d_offered
        && flash_live.shed as u64 == d_shed
        && d_offered == d_served + d_shed;
    failed |= !flash_live_ok;
    println!(
        "live flash crowd ({FLASH_LIVE_HORIZON_S:.0}s @ {capacity:.0} qps capacity): client {} offered = {} served + {} shed, server delta {d_offered} = {d_served} + {d_shed}  {}",
        flash_live.offered,
        flash_live.served(),
        flash_live.shed,
        if flash_live_ok { "ok" } else { "REGRESSION" }
    );
    if !flash_live_ok {
        rows.push(("flash-live-two-sided-ledger".into(), false));
    }
    server.shutdown();

    let bad: Vec<&str> = rows.iter().filter(|(_, ok)| !ok).map(|(n, _)| n.as_str()).collect();
    if failed {
        eprintln!(
            "\nbench_gate: FAILED — {} scenario(s) out of band: {}",
            bad.len(),
            bad.join(", ")
        );
        eprintln!(
            "(tolerance ±{:.0}%; regenerate baselines with the bench binaries if intended)",
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("\nbench_gate: all {} scenarios within ±{:.0}%", rows.len(), TOLERANCE * 100.0);
}
