//! Chaos suite: every augmenter kind × both simulated deployments under
//! seeded fault plans.
//!
//! The fault layer derives every decision from `(seed, call identity)`,
//! never from wall time or thread arrival order, so a chaos run must be
//! *reproducible*: two fresh systems driven with the same seed produce
//! bit-identical answers, missing lists and connector statistics — even
//! with the concurrent augmenters racing worker threads. With one store
//! down and partial degradation on, the answer must shrink to exactly
//! the reachable keys, the down store's keys landing in `missing` as
//! `Unreachable { database, attempts }`.

use std::sync::Arc;
use std::time::Duration;

use quepa_aindex::AIndex;
use quepa_core::{
    AugmenterKind, DegradeMode, MissingReason, Quepa, QuepaConfig, QuepaError, ResilienceConfig,
};
use quepa_kvstore::KvStore;
use quepa_pdm::{DatabaseName, GlobalKey, Probability};
use quepa_polystore::retry::{BreakerConfig, BreakerState, RetryPolicy};
use quepa_polystore::{
    Deployment, FaultPlan, FaultyConnector, KvConnector, PolyError, Polystore, StatsSnapshot,
};

const STORES: usize = 4;
const KEYS_PER_STORE: usize = 12;

fn key(s: usize, k: usize) -> GlobalKey {
    format!("db{s}.c.k{k}").parse().unwrap()
}

fn db(s: usize) -> DatabaseName {
    DatabaseName::new(format!("db{s}")).unwrap()
}

/// Fast retries so chaos sweeps stay quick: 4 attempts, microsecond
/// backoff, deterministic jitter.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(80),
        jitter_pct: 50,
        deadline: None,
    }
}

/// Partial degradation, fast retries, breaker off (breaker admission
/// depends on thread interleaving, so the bit-identical tests keep it
/// out of the schedule; its semantics get their own sequential test).
fn partial_resilience() -> ResilienceConfig {
    ResilienceConfig {
        retry: fast_retry(),
        breaker: BreakerConfig { trip_after: 0, cooldown_calls: 8 },
        degrade: DegradeMode::Partial,
    }
}

/// Builds the Polyphony-shaped playground: `STORES` key-value stores, a
/// dense deterministic relation graph, every store except the query
/// target `db0` wrapped in the seeded fault plan.
fn build(plan: &FaultPlan, deployment: Deployment, config: QuepaConfig) -> Quepa {
    let latency = deployment.latency();
    let mut polystore = Polystore::new();
    for s in 0..STORES {
        let mut kv = KvStore::new(format!("db{s}"));
        for k in 0..KEYS_PER_STORE {
            kv.set(format!("k{k}"), format!("v{s}-{k}"));
        }
        polystore.register(Arc::new(KvConnector::new(kv, "c", latency)));
    }
    let plan = Arc::new(plan.clone());
    let polystore = polystore.wrap_connectors(|inner| {
        if inner.database().as_str() == "db0" {
            inner // the query target stays healthy: chaos hits the links
        } else {
            Arc::new(FaultyConnector::new(inner, Arc::clone(&plan)))
        }
    });
    let mut index = AIndex::new();
    for s in 0..STORES {
        for k in 0..KEYS_PER_STORE {
            let p = Probability::of(0.2 + 0.8 * ((s * 31 + k * 7) % 13) as f64 / 13.0);
            index.insert_matching(&key(s, k), &key(s, (k + 1) % KEYS_PER_STORE), p);
            let q = Probability::of(0.15 + 0.8 * ((s * 17 + k * 11) % 11) as f64 / 11.0);
            index.insert_matching(&key(s, k), &key((s + 1) % STORES, (k * 3) % KEYS_PER_STORE), q);
        }
    }
    // Keys the stores never held: the not-found (lazy deletion) path must
    // keep working under chaos.
    index.insert_matching(&key(0, 0), &key(1, KEYS_PER_STORE), Probability::of(0.5));
    index.insert_matching(&key(0, 1), &key(2, KEYS_PER_STORE + 1), Probability::of(0.4));
    Quepa::with_config(polystore, index, config)
}

fn config_for(kind: AugmenterKind, resilience: ResilienceConfig) -> QuepaConfig {
    QuepaConfig {
        augmenter: kind,
        batch_size: 5, // awkward boundary: groups split mid-store
        threads_size: 4,
        cache_size: 0, // cold: every key exercises the faulted links
        resilience,
        observability: false,
        pushdown: true,
    }
}

/// The comparable projection of an answer: objects and missing entries,
/// both already deterministically ordered by the engine.
fn fingerprint(answer: &quepa_core::AugmentedAnswer) -> (Vec<(String, String)>, Vec<String>) {
    let objects = answer
        .augmented
        .iter()
        .map(|a| (a.object.key().to_string(), format!("{}@{}", a.probability, a.distance)))
        .collect();
    let missing = answer.missing.iter().map(|m| format!("{:?}", m)).collect();
    (objects, missing)
}

#[test]
fn one_store_down_degrades_to_exact_partial_answer() {
    let plan = FaultPlan::new(42).with_outage("db1");
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        for kind in AugmenterKind::ALL {
            let quepa = build(&plan, deployment, config_for(kind, partial_resilience()));
            let answer = quepa.augmented_search("db0", "SCAN k COUNT 12", 1).unwrap();

            // Reachable side: no db1 object can appear in the answer.
            assert!(
                answer.augmented.iter().all(|a| a.object.key().database().as_str() != "db1"),
                "{kind}/{}: unreachable store leaked objects",
                deployment.name()
            );
            assert!(!answer.augmented.is_empty(), "healthy stores must still augment");

            // Missing side: exactly the referenced db1 keys, every one
            // Unreachable after the full retry budget; plus the two
            // phantom keys as NotFound.
            let unreachable: Vec<&quepa_core::MissingKey> =
                answer.missing.iter().filter(|m| !m.is_not_found()).collect();
            assert!(!unreachable.is_empty(), "{kind}: db1 keys must surface as missing");
            for m in &unreachable {
                assert_eq!(m.key.database().as_str(), "db1", "{kind}: wrong store in {m:?}");
                assert_eq!(
                    m.reason,
                    MissingReason::Unreachable { database: db(1), attempts: 4 },
                    "{kind}: every outage key burns the full retry budget"
                );
            }
            let not_found = answer.missing.iter().filter(|m| m.is_not_found()).count();
            assert_eq!(not_found, 1, "{kind}: the reachable phantom key stays NotFound");
            // db1's phantom key is indistinguishable from its real keys
            // while the store is down: it must be among the unreachable.
            assert!(
                unreachable.iter().any(|m| m.key.key().as_str() == "k12"),
                "{kind}: db1 phantom key must degrade to Unreachable, not vanish"
            );

            // Lazy deletion must NOT fire for unreachable keys.
            assert_eq!(answer.lazily_deleted, 1, "{kind}: only the NotFound key is deleted");
            for m in &unreachable {
                assert!(
                    quepa.index().contains(&m.key),
                    "{kind}: unreachable key {} evicted from the index",
                    m.key
                );
            }
        }
    }
}

#[test]
fn same_seed_runs_are_bit_identical() {
    // Transient faults + timeouts + spikes, all on: the worst-case
    // schedule. Two fresh systems per (kind, deployment) — identical
    // seeds must replay identically, across thread interleavings.
    let plan = FaultPlan::new(7)
        .with_transient_faults(0.35, 2)
        .with_timeouts(0.10)
        .with_latency_spikes(0.15, Duration::from_micros(40))
        .with_outage("db3");
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        for kind in AugmenterKind::ALL {
            let run = || {
                let quepa = build(&plan, deployment, config_for(kind, partial_resilience()));
                let answer = quepa.augmented_search("db0", "SCAN k COUNT 12", 1).unwrap();
                let stats: Vec<(DatabaseName, StatsSnapshot)> =
                    quepa.polystore().stats_by_database();
                (fingerprint(&answer), stats)
            };
            let (first_answer, first_stats) = run();
            let (second_answer, second_stats) = run();
            assert_eq!(
                first_answer,
                second_answer,
                "{kind}/{}: same seed, different answer",
                deployment.name()
            );
            assert_eq!(
                first_stats,
                second_stats,
                "{kind}/{}: same seed, different connector statistics",
                deployment.name()
            );
        }
    }
}

#[test]
fn transient_faults_are_ridden_out_by_retries() {
    // Streaks of at most 2 with 4 attempts: every transient fault is
    // recoverable, so the answer must be complete and the retry counters
    // must show the work.
    let plan = FaultPlan::new(11).with_transient_faults(0.5, 2);
    for kind in AugmenterKind::ALL {
        let quepa = build(&plan, Deployment::InProcess, config_for(kind, partial_resilience()));
        let answer = quepa.augmented_search("db0", "SCAN k COUNT 12", 1).unwrap();
        assert!(
            answer.missing.iter().all(|m| m.is_not_found()),
            "{kind}: recoverable faults must not cost keys: {:?}",
            answer.missing
        );
        let stats = quepa.polystore().stats();
        assert!(stats.retries > 0, "{kind}: a 50% fault rate must force retries");
    }
}

#[test]
fn every_kind_and_deployment_survives_full_chaos() {
    // No assertion on the exact answer — only the invariants: terminates
    // (no deadlock), never panics, and every key the plan referenced is
    // accounted for exactly once (object or missing).
    let plan = FaultPlan::new(1234)
        .with_transient_faults(0.4, 3)
        .with_timeouts(0.2)
        .with_latency_spikes(0.2, Duration::from_micros(30))
        .with_outage("db2");
    for deployment in [Deployment::InProcess, Deployment::Centralized] {
        for kind in AugmenterKind::ALL {
            let quepa = build(&plan, deployment, config_for(kind, partial_resilience()));
            let answer = quepa.augmented_search("db0", "SCAN k COUNT 12", 2).unwrap();
            let mut seen: Vec<String> = answer
                .augmented
                .iter()
                .map(|a| a.object.key().to_string())
                .chain(answer.missing.iter().map(|m| m.key.to_string()))
                .collect();
            let total = seen.len();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), total, "{kind}/{}: a key was double-counted", deployment.name());
            assert!(
                answer.augmented.iter().all(|a| a.object.key().database().as_str() != "db2"),
                "{kind}/{}: down store leaked objects",
                deployment.name()
            );
        }
    }
}

#[test]
fn fail_fast_propagates_outage_as_unreachable() {
    let plan = FaultPlan::new(3).with_outage("db1");
    let resilience = ResilienceConfig { degrade: DegradeMode::FailFast, ..partial_resilience() };
    for kind in AugmenterKind::ALL {
        let quepa = build(&plan, Deployment::InProcess, config_for(kind, resilience));
        match quepa.augmented_search("db0", "SCAN k COUNT 12", 1) {
            Err(QuepaError::Polystore(PolyError::Unreachable { database, attempts, .. })) => {
                assert_eq!(database, "db1", "{kind}");
                assert!(attempts >= 1, "{kind}: the error carries the attempts made");
            }
            other => panic!("{kind}: expected Unreachable, got {other:?}"),
        }
    }
}

#[test]
fn breaker_opens_under_outage_and_shortcuts_later_calls() {
    // Sequential augmenter + single thread: breaker transitions are
    // call-ordered and thus deterministic here.
    let plan = FaultPlan::new(9).with_outage("db1");
    let resilience = ResilienceConfig {
        retry: fast_retry(),
        breaker: BreakerConfig { trip_after: 2, cooldown_calls: 1000 },
        degrade: DegradeMode::Partial,
    };
    let mut config = config_for(AugmenterKind::Sequential, resilience);
    config.threads_size = 1;
    let quepa = build(&plan, Deployment::InProcess, config);
    let answer = quepa.augmented_search("db0", "SCAN k COUNT 12", 1).unwrap();

    assert_eq!(quepa.breaker_state(&db(1)), BreakerState::Open, "outage must trip the breaker");
    assert_eq!(quepa.breaker_state(&db(2)), BreakerState::Closed, "healthy stores stay closed");
    let stats = quepa.polystore().stats();
    assert!(stats.breaker_trips >= 1, "the trip must reach the statistics");
    // Once open, calls are rejected without a round trip: attempts == 0.
    assert!(
        answer
            .missing
            .iter()
            .any(|m| m.reason == MissingReason::Unreachable { database: db(1), attempts: 0 }),
        "breaker-rejected keys must report zero attempts: {:?}",
        answer.missing
    );

    // The next run reuses the system-wide breaker: still open, so db1
    // round trips are shortcut entirely.
    let before = quepa.polystore().stats().round_trips;
    let second = quepa.augmented_search("db0", "SCAN k COUNT 12", 1).unwrap();
    assert!(second.missing.iter().any(|m| !m.is_not_found()));
    let after = quepa.polystore().stats().round_trips;
    // db0's query + its own lookups still run; db1 contributes none.
    assert!(after > before, "healthy stores keep working");
    assert!(
        second
            .missing
            .iter()
            .filter(|m| m.key.database().as_str() == "db1")
            .all(|m| m.reason == MissingReason::Unreachable { database: db(1), attempts: 0 }),
        "open breaker must reject without attempting: {:?}",
        second.missing
    );
}

#[test]
fn faultless_plan_matches_unwrapped_baseline() {
    // A seeded plan with no fault classes enabled is a no-op wrapper: the
    // answer must equal the plain system's, bit for bit.
    let plan = FaultPlan::new(99);
    for kind in AugmenterKind::ALL {
        let chaotic = build(&plan, Deployment::InProcess, config_for(kind, partial_resilience()));
        let baseline =
            build(&plan, Deployment::InProcess, config_for(kind, ResilienceConfig::default()));
        let a = chaotic.augmented_search("db0", "SCAN k COUNT 12", 1).unwrap();
        let b = baseline.augmented_search("db0", "SCAN k COUNT 12", 1).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "{kind}: faultless chaos diverged");
    }
}
