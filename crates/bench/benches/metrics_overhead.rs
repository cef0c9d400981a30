//! Cost of the observability layer on the augmentation hot path.
//!
//! The layer must be free when disabled: with `observability: false` the
//! engine installs no thread-local context and every `record_*` call is
//! one TLS read plus a branch. This bench pins that claim on the hot-path
//! scenario recorded in `BENCH_augment_hotpath.json` (centralized /
//! 10 stores / level 1 / cold, which `bench_gate` reads live): the
//! disabled-path mean must stay within 2% of that baseline.
//! The enabled path is measured alongside so regressions in the
//! recording cost itself are visible too.
//!
//! `main` writes `BENCH_metrics_overhead.json` at the repository root.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use quepa_bench::Lab;
use quepa_core::QuepaConfig;
use quepa_polystore::Deployment;

/// The hot-path query: 50 seeds augmenting concurrently.
const QUERY: &str = "SELECT * FROM inventory WHERE seq < 50";

/// (label, observability) — disabled is the recorded-baseline path.
fn modes() -> [(&'static str, bool); 2] {
    [("disabled", false), ("enabled", true)]
}

fn config_with(observability: bool) -> QuepaConfig {
    QuepaConfig { observability, ..QuepaConfig::default() }
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics-overhead");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        let lab = Lab::new(200, 2, deployment); // 10 stores
        for (label, observability) in modes() {
            let name = format!("{}/10stores/level1/cold/{label}", deployment.name());
            let config = config_with(observability);
            group.bench_with_input(BenchmarkId::from_parameter(&name), &config, |b, config| {
                b.iter(|| lab.run("transactions", QUERY, 1, *config, true));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_metrics_overhead);

/// Median wall-clock seconds over `runs` measured executions (after five
/// throwaway warm-ups). The run distribution is a tight sleep-dominated
/// floor plus rare scheduler spikes that can inflate a 50-run *mean* by
/// 20%+; the median recovers the stable central value (within a percent
/// of criterion's estimate on the same scenario), which is what a
/// regression gate needs to compare against.
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

fn emit_baseline() {
    let mut entries = Vec::new();
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        let lab = Lab::new(200, 2, deployment);
        for (label, observability) in modes() {
            let mean = measure(&lab, config_with(observability), 50);
            entries.push(format!(
                "    {{\"scenario\": \"{}/10stores/level1/cold/{label}\", \"mean_s\": {mean:.6}}}",
                deployment.name(),
            ));
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"metrics_overhead\",\n  \"query\": \"{}\",\n  \"runs_per_scenario\": 50,\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        QUERY.replace('"', "\\\""),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_metrics_overhead.json");
    std::fs::write(path, &json).expect("write baseline json");
    println!("\nwrote {path}");
    print!("{json}");
}

fn main() {
    benches();
    emit_baseline();
}
