//! Happy-path cost of the resilience layer.
//!
//! The retry/breaker machinery must be free when nothing fails: a
//! trivial policy (the default configuration) bypasses the executor
//! entirely, and even a production-shaped policy only adds an
//! `is_trivial` check plus a breaker lookup per round trip. This bench
//! pins that claim on the hot-path scenario recorded in
//! `BENCH_augment_hotpath.json` (centralized / 10 stores / level 1 /
//! cold, which `bench_gate` reads live): the trivial-policy mean must
//! stay within noise of that baseline, and the resilient no-fault mean
//! close behind.
//!
//! `main` writes `BENCH_fault_overhead.json` at the repository root.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use quepa_bench::Lab;
use quepa_core::{QuepaConfig, ResilienceConfig};
use quepa_polystore::Deployment;

/// The hot-path query: 50 seeds augmenting concurrently.
const QUERY: &str = "SELECT * FROM inventory WHERE seq < 50";

/// (label, resilience) — trivial is the recorded-baseline path.
fn policies() -> [(&'static str, ResilienceConfig); 2] {
    [("trivial", ResilienceConfig::default()), ("resilient-nofault", ResilienceConfig::resilient())]
}

fn config_with(resilience: ResilienceConfig) -> QuepaConfig {
    QuepaConfig { resilience, ..QuepaConfig::default() }
}

fn bench_fault_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault-overhead");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        let lab = Lab::new(200, 2, deployment); // 10 stores
        for (label, resilience) in policies() {
            let name = format!("{}/10stores/level1/cold/{label}", deployment.name());
            let config = config_with(resilience);
            group.bench_with_input(BenchmarkId::from_parameter(&name), &config, |b, config| {
                b.iter(|| lab.run("transactions", QUERY, 1, *config, true));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fault_overhead);

/// Mean end-to-end query seconds over `runs` measured executions (after
/// five throwaway warm-ups), matching the `augment_hotpath` methodology
/// (the answer's own `duration`, not a wall clock around the harness) so
/// the two baselines compare like for like.
fn measure(lab: &Lab, config: QuepaConfig, runs: usize) -> f64 {
    for _ in 0..5 {
        lab.run("transactions", QUERY, 1, config, true);
    }
    let mut total = Duration::ZERO;
    for _ in 0..runs {
        total += lab.run("transactions", QUERY, 1, config, true).0;
    }
    total.as_secs_f64() / runs as f64
}

fn emit_baseline() {
    let mut entries = Vec::new();
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        let lab = Lab::new(200, 2, deployment);
        for (label, resilience) in policies() {
            let mean = measure(&lab, config_with(resilience), 50);
            entries.push(format!(
                "    {{\"scenario\": \"{}/10stores/level1/cold/{label}\", \"mean_s\": {mean:.6}}}",
                deployment.name(),
            ));
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"fault_overhead\",\n  \"query\": \"{}\",\n  \"runs_per_scenario\": 50,\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        QUERY.replace('"', "\\\""),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault_overhead.json");
    std::fs::write(path, &json).expect("write baseline json");
    println!("\nwrote {path}");
    print!("{json}");
}

fn main() {
    benches();
    emit_baseline();
}
