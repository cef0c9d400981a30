//! Microbenchmarks of the A' index itself: insertion (with transitivity
//! materialization), the augmentation primitive at several levels, and
//! lazy deletion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quepa_aindex::{AIndex, IndexView};
use quepa_pdm::{GlobalKey, Probability};

fn key(db: usize, n: usize) -> GlobalKey {
    GlobalKey::parse_parts(format!("db{db}"), "c", format!("k{n}")).unwrap()
}

/// A uniformly dense index: cliques of 4 copies per entity plus matching
/// chains, like the workload generator's wiring.
fn build_index(entities: usize) -> AIndex {
    let mut ix = AIndex::new();
    for e in 0..entities {
        for d in 1..4 {
            ix.insert_identity(&key(0, e), &key(d, e), Probability::of(0.9));
        }
        if e > 0 {
            ix.insert_matching(&key(0, e - 1), &key(0, e), Probability::of(0.7));
        }
    }
    ix
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("aindex-insert");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    for entities in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("build", entities), &entities, |b, &entities| {
            b.iter(|| build_index(entities));
        });
    }
    group.finish();
}

fn bench_augment(c: &mut Criterion) {
    let view = IndexView::of(&build_index(10_000));
    let seeds: Vec<GlobalKey> = (0..100).map(|e| key(0, e * 7)).collect();
    let mut group = c.benchmark_group("aindex-augment");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for level in [0usize, 1, 2, 3] {
        group.bench_with_input(BenchmarkId::new("level", level), &level, |b, &level| {
            b.iter(|| view.augment(&seeds, level));
        });
    }
    group.finish();
}

fn bench_lazy_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("aindex-remove");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    group.bench_function("remove-1000-objects", |b| {
        b.iter_batched(
            || build_index(2_000),
            |mut ix| {
                for e in 0..1_000 {
                    ix.remove_object(&key(0, e));
                }
                ix
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_augment, bench_lazy_delete);
criterion_main!(benches);
