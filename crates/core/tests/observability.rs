//! Observability integration suite: the determinism contract end to end.
//!
//! The metrics layer records only *simulated* durations — closed-form
//! latency-model costs and closed-form retry backoffs — never wall time.
//! So two fresh systems driven by the same seed must produce bit-identical
//! [`MetricsSnapshot`]s even with the concurrent augmenters racing worker
//! threads, and even under a seeded fault plan. CI runs this suite twice
//! with different `--test-threads` values to pin scheduling independence.

use std::sync::Arc;
use std::time::Duration;

use quepa_aindex::AIndex;
use quepa_core::{
    AugmenterKind, DegradeMode, MetricsSnapshot, Quepa, QuepaConfig, ResilienceConfig,
};
use quepa_kvstore::KvStore;
use quepa_obs::{prometheus_text, Stage};
use quepa_pdm::{GlobalKey, Probability};
use quepa_polystore::retry::{BreakerConfig, RetryPolicy};
use quepa_polystore::{Deployment, FaultPlan, FaultyConnector, KvConnector, Polystore};

const STORES: usize = 3;
const KEYS_PER_STORE: usize = 10;

fn key(s: usize, k: usize) -> GlobalKey {
    format!("db{s}.c.k{k}").parse().unwrap()
}

fn fast_partial_resilience() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(5),
            max_backoff: Duration::from_micros(40),
            jitter_pct: 50,
            deadline: None,
        },
        breaker: BreakerConfig { trip_after: 0, cooldown_calls: 8 },
        degrade: DegradeMode::Partial,
    }
}

/// A small multi-store playground; `plan` (if any) wraps every store but
/// the query target `db0` in seeded faults.
fn build(plan: Option<&FaultPlan>, config: QuepaConfig) -> Quepa {
    let latency = Deployment::Centralized.latency();
    let mut polystore = Polystore::new();
    for s in 0..STORES {
        let mut kv = KvStore::new(format!("db{s}"));
        for k in 0..KEYS_PER_STORE {
            kv.set(format!("k{k}"), format!("v{s}-{k}"));
        }
        polystore.register(Arc::new(KvConnector::new(kv, "c", latency)));
    }
    let polystore = match plan {
        Some(plan) => {
            let plan = Arc::new(plan.clone());
            polystore.wrap_connectors(|inner| {
                if inner.database().as_str() == "db0" {
                    inner
                } else {
                    Arc::new(FaultyConnector::new(inner, Arc::clone(&plan)))
                }
            })
        }
        None => polystore,
    };
    let mut index = AIndex::new();
    for s in 0..STORES {
        for k in 0..KEYS_PER_STORE {
            let p = Probability::of(0.2 + 0.8 * ((s * 31 + k * 7) % 13) as f64 / 13.0);
            index.insert_matching(&key(s, k), &key(s, (k + 1) % KEYS_PER_STORE), p);
            let q = Probability::of(0.15 + 0.8 * ((s * 17 + k * 11) % 11) as f64 / 11.0);
            index.insert_matching(&key(s, k), &key((s + 1) % STORES, (k * 3) % KEYS_PER_STORE), q);
        }
    }
    Quepa::with_config(polystore, index, config)
}

fn observed_config(kind: AugmenterKind, resilience: ResilienceConfig) -> QuepaConfig {
    QuepaConfig {
        augmenter: kind,
        batch_size: 4,
        threads_size: 4,
        cache_size: 64,
        resilience,
        observability: true,
        pushdown: true,
    }
}

/// Drives one system through a fixed workload and returns its snapshot.
fn run_workload(quepa: &Quepa) -> MetricsSnapshot {
    for _ in 0..2 {
        quepa.augmented_search("db0", "SCAN k COUNT 10", 1).unwrap();
    }
    quepa.augmented_search("db0", "SCAN k COUNT 6", 2).unwrap();
    quepa.metrics_snapshot()
}

#[test]
fn same_seed_runs_produce_identical_snapshots() {
    for kind in AugmenterKind::ALL {
        let config = observed_config(kind, ResilienceConfig::default());
        let a = run_workload(&build(None, config));
        let b = run_workload(&build(None, config));
        assert_eq!(a, b, "snapshot diverged across same-seed runs for {kind}");
        assert!(!a.is_empty(), "observed workload must record something for {kind}");
    }
}

#[test]
fn same_seed_chaos_runs_produce_identical_snapshots() {
    let plan = FaultPlan::new(42)
        .with_transient_faults(0.3, 2)
        .with_latency_spikes(0.2, Duration::from_millis(2));
    for kind in [AugmenterKind::Sequential, AugmenterKind::OuterBatch, AugmenterKind::OuterInner] {
        let config = observed_config(kind, fast_partial_resilience());
        let a = run_workload(&build(Some(&plan), config));
        let b = run_workload(&build(Some(&plan), config));
        assert_eq!(a, b, "chaos snapshot diverged across same-seed runs for {kind}");
    }
}

#[test]
fn disabled_observability_yields_empty_snapshot() {
    let config = QuepaConfig::default();
    assert!(!config.observability, "observability must be opt-in");
    let quepa = build(None, config);
    let snapshot = run_workload(&quepa);
    assert!(snapshot.is_empty(), "disabled observability must record nothing: {snapshot:?}");
}

#[test]
fn observed_run_covers_every_stage() {
    let plan = FaultPlan::new(7).with_transient_faults(0.4, 2);
    let config = observed_config(AugmenterKind::OuterBatch, fast_partial_resilience());
    let quepa = build(Some(&plan), config);
    let snapshot = run_workload(&quepa);

    let stage = |s: Stage| &snapshot.stages[s.index()];
    assert!(stage(Stage::Plan).spans > 0, "plan spans: {snapshot:?}");
    assert!(stage(Stage::Plan).items > 0, "plan items (augmented keys)");
    assert!(stage(Stage::Fetch).sim_latency.count > 0, "fetch link events");
    assert!(stage(Stage::Retry).sim_latency.count > 0, "re-attempt link events under faults");
    assert!(stage(Stage::Merge).spans > 0, "merge spans");
    assert!(snapshot.cache.hits + snapshot.cache.misses > 0, "cache probes");

    // Per-store recorders: the healthy target plus the faulted links.
    assert!(snapshot.stores.len() >= 2, "stores seen: {:?}", snapshot.stores.keys());
    let faulted = snapshot.stores.get("db1").expect("db1 recorded");
    assert!(faulted.faults > 0, "seeded transient faults must be counted");
    assert!(faulted.backoff.count > 0, "backoff pauses recorded");
    // The resilience counters folded in from the connector statistics.
    assert!(faulted.retries > 0, "retries folded from connector stats");
    let healthy = snapshot.stores.get("db0").expect("query target recorded");
    assert!(healthy.sim_latency.count > 0, "original query round trips");
    assert_eq!(healthy.faults, 0, "db0 stays healthy");
}

#[test]
fn set_config_toggles_recording() {
    let quepa = build(None, QuepaConfig::default());
    quepa.augmented_search("db0", "SCAN k COUNT 5", 1).unwrap();
    assert!(quepa.metrics_snapshot().is_empty());

    let mut on = quepa.config();
    on.observability = true;
    quepa.set_config(on);
    quepa.augmented_search("db0", "SCAN k COUNT 5", 1).unwrap();
    let recorded = quepa.metrics_snapshot();
    assert!(!recorded.is_empty(), "enabling via set_config must start recording");

    let mut off = quepa.config();
    off.observability = false;
    quepa.set_config(off);
    let before = quepa.metrics_snapshot();
    quepa.augmented_search("db0", "SCAN k COUNT 5", 1).unwrap();
    assert_eq!(quepa.metrics_snapshot(), before, "disabling must stop recording");
}

#[test]
fn snapshots_merge_across_instances() {
    let config = observed_config(AugmenterKind::Batch, ResilienceConfig::default());
    let a = run_workload(&build(None, config));
    let b = run_workload(&build(None, config));
    let merged = a.clone().merge(b.clone());
    assert_eq!(merged.total_sim_nanos(), a.total_sim_nanos() + b.total_sim_nanos());
    assert_eq!(merged.cache.hits, a.cache.hits + b.cache.hits);
}

#[test]
fn prometheus_export_covers_the_run() {
    let plan = FaultPlan::new(11).with_transient_faults(0.5, 2);
    let config = observed_config(AugmenterKind::OuterBatch, fast_partial_resilience());
    let quepa = build(Some(&plan), config);
    let snapshot = run_workload(&quepa);
    let text = prometheus_text(&snapshot);
    for series in [
        "quepa_store_sim_latency_nanos_bucket",
        "quepa_store_retries_total",
        "quepa_store_faults_total",
        "quepa_stage_sim_latency_nanos_bucket",
        "quepa_stage_spans_total",
        "quepa_cache_hits_total",
        "le=\"+Inf\"",
        "store=\"db1\"",
        "stage=\"plan\"",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
    let json = quepa_obs::json(&snapshot);
    assert!(json.contains("\"stores\"") && json.contains("\"db1\""), "{json}");
}

#[test]
fn trace_ring_captures_spans_without_affecting_snapshots() {
    let config = observed_config(AugmenterKind::Sequential, ResilienceConfig::default());
    let quepa = build(None, config);
    quepa.augmented_search("db0", "SCAN k COUNT 5", 1).unwrap();
    let snapshot = quepa.metrics_snapshot();
    let trace = quepa.metrics().take_trace();
    assert!(trace.iter().any(|e| e.stage == Stage::Plan), "plan span traced");
    assert!(trace.iter().any(|e| e.stage == Stage::Merge), "merge span traced");
    // Draining the wall-clock trace must not perturb the deterministic
    // numeric snapshot.
    assert_eq!(quepa.metrics_snapshot(), snapshot);
}
