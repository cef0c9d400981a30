//! The open-loop serving sweep: offered rates from sub-saturation to 2×
//! measured capacity against the `quepa-serve` TCP front end (see
//! [`quepa_bench::serving`]), then the time-varying traffic families
//! ([`traffic::TrafficFamily`]: the diurnal ramp and the 4× flash crowd)
//! against the same server. The run checks its own claims:
//!
//! * `sweep-ledger` — every leg (each constant-rate point, each traffic
//!   family, each flash-crowd phase) accounts for every request on both
//!   sides of the wire: client outcomes against the server's
//!   admission-ledger delta, zero errors;
//! * `flash-burst-shed` — the 4× burst actually sheds;
//! * `goodput-floor` — goodput at 2× capacity over the peak goodput of
//!   the sweep (≥0.7: overload must not collapse throughput);
//! * `overload-p50-ratio` — median latency of *served* requests at 2×
//!   capacity over the median at the sub-saturation rate (≤12×:
//!   admission control must bound the wait — the 500 ms deadline over a
//!   ~50 ms query — instead of queueing forever; an unbounded queue
//!   reads ~20× at 4 s points and ~75× at the nightly 15 s ones);
//! * `flash-recovery-ratio` — recovery-phase median over pre-burst
//!   median of the flash crowd (≤1.15: within
//!   [`traffic::RECOVERY_GRACE_S`] seconds of burst end the backlog is
//!   gone).
//!
//! The last two were p999 ratios until the sweep had to assert them
//! itself: over fifteen runs on a 2-vCPU guest the sub-saturation p999 (a
//! window of 150–350 samples, so the run's one or two worst requests)
//! read 0.054–0.41 s while its median read 0.048–0.055 s, and the ratios
//! read 1.0–9.5 (bound 5) and 0.18–5.3 (bound 1.15). The p999s are
//! still printed with every leg; the medians of the same windows resolve
//! the same two failures with a tenth of the spread.

use std::time::Duration;

use quepa_bench::claims::Report;
use quepa_bench::{serving, traffic};
use quepa_serve::Server;

/// Seconds each sweep point offers load for; the nightly overload-soak
/// job stretches this via `QUEPA_SERVING_POINT_SECS`.
fn point_secs() -> u64 {
    std::env::var("QUEPA_SERVING_POINT_SECS").ok().and_then(|s| s.parse().ok()).unwrap_or(4)
}

fn main() {
    let point_secs = point_secs();
    let quepa = serving::bench_quepa();
    let mut server =
        Server::start(std::sync::Arc::clone(&quepa), "127.0.0.1:0", serving::bench_admission())
            .expect("start bench server");
    let addr = server.local_addr();

    println!("probing capacity (overload burst) ...");
    let capacity = serving::probe_capacity(addr);
    println!("peak sustainable goodput ~= {capacity:.1} qps");

    // Requests no ledger accounts for, summed over every leg, and the
    // legs they belong to.
    let mut unaccounted = 0usize;
    let mut broken: Vec<String> = Vec::new();
    let mut replay = |name: String, schedule: &[f64], horizon_s: f64| {
        let before = quepa.metrics_snapshot().admission;
        let report = serving::measure_schedule(addr, schedule, serving::CONNECTIONS, horizon_s);
        let lost = report.unaccounted(before, quepa.metrics_snapshot().admission);
        println!(
            "{name}: {} reqs, goodput {:.1} qps, p50 {:.4}s p99 {:.4}s p999 {:.4}s, shed {:.1}% ({} errors, {lost} unaccounted)",
            report.offered,
            report.goodput_qps,
            report.percentile_s(0.50),
            report.percentile_s(0.99),
            report.percentile_s(0.999),
            100.0 * report.shed_rate(),
            report.errors,
        );
        if lost > 0 {
            unaccounted += lost;
            broken.push(name);
        }
        report
    };

    let points: Vec<serving::OpenLoopReport> = serving::SWEEP_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, &fraction)| {
            let duration = Duration::from_secs(point_secs);
            let schedule = serving::arrival_schedule(
                (capacity * fraction).max(1.0),
                duration,
                0xC0FFEE + i as u64,
            );
            replay(serving::scenario_name(fraction), &schedule, duration.as_secs_f64())
        })
        .collect();
    let at = |fraction: f64| {
        let i = serving::SWEEP_FRACTIONS.iter().position(|f| *f == fraction);
        &points[i.expect("fraction swept")]
    };
    let (smoke, overload) = (at(serving::SMOKE_FRACTION), at(2.0));
    let peak = points.iter().map(|p| p.goodput_qps).fold(0.0f64, f64::max);

    // Each traffic leg runs 5× the constant-rate point length so the
    // flash crowd has meaningful pre-burst / burst / recovery windows.
    let horizon_s = (5 * point_secs) as f64;
    let mut flash = None;
    for (i, family) in traffic::TrafficFamily::ALL.into_iter().enumerate() {
        println!("\nreplaying {} traffic for {horizon_s:.0}s ...", family.name());
        let schedule = family.schedule(capacity, horizon_s, 0xD1F0 + i as u64);
        let report = replay(format!("serving/{}", family.name()), &schedule, horizon_s);
        if family == traffic::TrafficFamily::FlashCrowd {
            flash = Some(report);
        }
    }
    server.shutdown();

    let flash = flash.expect("flash crowd replayed");
    let [pre, burst, recovery] = traffic::flash_phases(horizon_s).map(|(a, b)| flash.phase(a, b));
    for (tag, phase) in [("pre", &pre), ("burst", &burst), ("recovery", &recovery)] {
        if !phase.balances() {
            unaccounted += 1;
            broken.push(format!("flash-crowd {tag} phase"));
        }
    }

    println!(
        "\nflash crowd: pre-burst p50 {:.4}s p999 {:.4}s, burst shed {:.1}%, recovery p50 {:.4}s p999 {:.4}s",
        pre.percentile_s(0.5),
        pre.percentile_s(0.999),
        100.0 * burst.shed as f64 / burst.offered.max(1) as f64,
        recovery.percentile_s(0.5),
        recovery.percentile_s(0.999),
    );
    let mut report = Report::default();
    report.check(
        "sweep-ledger",
        unaccounted as f64,
        &if broken.is_empty() {
            "every leg and phase, both sides of the wire".to_owned()
        } else {
            format!("unaccounted requests in: {}", broken.join(", "))
        },
    );
    report.check(
        "flash-burst-shed",
        burst.shed as f64,
        &format!("of {} offered at 4x capacity", burst.offered),
    );
    report.check(
        "goodput-floor",
        overload.goodput_qps / peak,
        &format!("{:.1} qps at 2x / peak {peak:.1} qps", overload.goodput_qps),
    );
    report.check(
        "overload-p50-ratio",
        overload.percentile_s(0.5) / smoke.percentile_s(0.5),
        &format!(
            "{:.4} s at 2x / {:.4} s at {}x ({} and {} served)",
            overload.percentile_s(0.5),
            smoke.percentile_s(0.5),
            serving::SMOKE_FRACTION,
            overload.served(),
            smoke.served()
        ),
    );
    report.check(
        "flash-recovery-ratio",
        recovery.percentile_s(0.5) / pre.percentile_s(0.5),
        &format!(
            "{:.4} s after a {:.0} s grace / {:.4} s pre-burst ({} and {} served)",
            recovery.percentile_s(0.5),
            traffic::RECOVERY_GRACE_S,
            pre.percentile_s(0.5),
            recovery.served(),
            pre.served()
        ),
    );
    report.finish("serving");
}
