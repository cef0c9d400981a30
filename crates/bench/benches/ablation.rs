//! Ablation benchmarks for QUEPA's design choices:
//!
//! * **LRU cache on/off** — what the §IV-C cache buys on repeated queries;
//! * **Consistency materialization** — the insert-time cost of enforcing
//!   the Consistency Condition / identity transitivity (raw edge insertion
//!   vs. the materializing insert path);
//! * **Canonical vs. per-seed augmentation planning** — the CPU price of
//!   the work-partition step that lets the outer augmenters parallelize;
//! * **Batch grouping** — grouping keys by store vs. the grouped fetch
//!   itself (how much of BATCH's win is grouping logic vs. round trips).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quepa_aindex::{AIndex, EdgeOrigin, IndexView};
use quepa_bench::Lab;
use quepa_core::{AugmenterKind, QuepaConfig};
use quepa_pdm::{GlobalKey, Probability, RelationKind};
use quepa_polystore::{Deployment, StoreKind};
use quepa_workload::queries::query_for;

fn key(db: usize, n: usize) -> GlobalKey {
    GlobalKey::parse_parts(format!("db{db}"), "c", format!("k{n}")).unwrap()
}

/// Cache on vs. off on a repeated (warm) query.
fn bench_cache_ablation(c: &mut Criterion) {
    let lab = Lab::new(800, 1, Deployment::Centralized);
    let query = query_for(StoreKind::Relational, 300);
    let mut group = c.benchmark_group("ablation-cache");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    for (label, cache_size) in [("off", 0usize), ("on", 1 << 20)] {
        let config = QuepaConfig {
            augmenter: AugmenterKind::OuterBatch,
            batch_size: 256,
            threads_size: 4,
            cache_size,
            ..QuepaConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            // Warm runs: prime once, measure repeats.
            lab.quepa.set_optimizer(None);
            lab.quepa.set_config(*config);
            lab.quepa.drop_caches();
            let _ = lab.quepa.augmented_search("transactions", &query, 0);
            b.iter(|| lab.quepa.augmented_search("transactions", &query, 0).unwrap());
        });
    }
    group.finish();
}

/// The cost of consistency enforcement at insert time: the materializing
/// insert path vs. raw edge insertion of the same direct relations.
fn bench_consistency_ablation(c: &mut Criterion) {
    // Cliques of 6 copies per entity: the worst realistic case in the
    // generated workloads (13-store polystores build 10-cliques).
    let entities = 2_000usize;
    let mut group = c.benchmark_group("ablation-consistency");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("materializing-insert", |b| {
        b.iter(|| {
            let mut ix = AIndex::new();
            for e in 0..entities {
                for d in 1..6 {
                    ix.insert_identity(&key(0, e), &key(d, e), Probability::of(0.9));
                }
                ix.insert_matching(&key(0, e), &key(6, e), Probability::of(0.7));
            }
            ix
        });
    });
    group.bench_function("raw-insert", |b| {
        b.iter(|| {
            let mut ix = AIndex::new();
            for e in 0..entities {
                for d in 1..6 {
                    ix.insert_raw(
                        &key(0, e),
                        &key(d, e),
                        RelationKind::Identity,
                        Probability::of(0.9),
                        EdgeOrigin::Direct,
                    );
                }
                ix.insert_raw(
                    &key(0, e),
                    &key(6, e),
                    RelationKind::Matching,
                    Probability::of(0.7),
                    EdgeOrigin::Direct,
                );
            }
            ix
        });
    });
    group.finish();
}

/// What the closure buys at *query* time: augmenting over a materialized
/// index (level 0 suffices) vs. chasing the same relations over a raw,
/// unclosed index (level must rise to reach the same objects).
fn bench_closure_query_ablation(c: &mut Criterion) {
    let entities = 2_000usize;
    let mut closed = AIndex::new();
    let mut raw = AIndex::new();
    for e in 0..entities {
        for d in 1..6 {
            closed.insert_identity(&key(0, e), &key(d, e), Probability::of(0.9));
            raw.insert_raw(
                &key(0, e),
                &key(d, e),
                RelationKind::Identity,
                Probability::of(0.9),
                EdgeOrigin::Direct,
            );
        }
    }
    let (closed, raw) = (IndexView::of(&closed), IndexView::of(&raw));
    let seeds: Vec<GlobalKey> = (0..200).map(|e| key(3, e * 7)).collect();
    let mut group = c.benchmark_group("ablation-closure-query");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    // Closed: every clique member is one hop away (level 0).
    group.bench_function("closed-level0", |b| {
        b.iter(|| closed.augment(&seeds, 0));
    });
    // Raw: the star topology needs level 1 from a non-hub seed.
    group.bench_function("raw-level1", |b| {
        b.iter(|| raw.augment(&seeds, 1));
    });
    group.finish();
}

/// Batching ablation at a fixed store: one grouped round trip vs. key-at-
/// a-time fetches, isolating the grouping machinery from the network.
fn bench_grouping_ablation(c: &mut Criterion) {
    let lab = Lab::new(800, 0, Deployment::Centralized);
    let query = query_for(StoreKind::Document, 400);
    let mut group = c.benchmark_group("ablation-grouping");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    for (label, augmenter) in
        [("sequential", AugmenterKind::Sequential), ("batch", AugmenterKind::Batch)]
    {
        let config = QuepaConfig {
            augmenter,
            batch_size: 4096,
            threads_size: 1,
            cache_size: 0,
            ..QuepaConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| lab.run("catalogue", &query, 0, *config, true));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_ablation,
    bench_consistency_ablation,
    bench_closure_query_ablation,
    bench_grouping_ablation
);
criterion_main!(benches);
