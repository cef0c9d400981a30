//! Ablations of QUEPA's design choices, each an on/off ratio inside this
//! one run (median of alternating pairs, see [`quepa_bench::sample`]):
//!
//! * **LRU cache on/off** — what the §IV-C cache buys on repeated queries;
//! * **Consistency materialization** — the insert-time cost of enforcing
//!   the Consistency Condition / identity transitivity (raw edge insertion
//!   vs. the materializing insert path);
//! * **Closure at query time** — what that materialization buys back:
//!   level 0 over the closed index vs. level 1 over the raw one;
//! * **Batch grouping** — one grouped round trip per store vs.
//!   key-at-a-time fetches of the same objects.

use std::hint::black_box;
use std::time::Instant;

use quepa_aindex::{AIndex, EdgeOrigin, IndexView};
use quepa_bench::{sample, Lab};
use quepa_core::{AugmenterKind, QuepaConfig};
use quepa_pdm::{GlobalKey, Probability, RelationKind};
use quepa_polystore::{Deployment, StoreKind};
use quepa_workload::queries::query_for;

/// Cliques of 6 copies per entity: the worst realistic case in the
/// generated workloads (13-store polystores build 10-cliques).
const ENTITIES: usize = 2_000;

fn key(db: usize, n: usize) -> GlobalKey {
    GlobalKey::parse_parts(format!("db{db}"), "c", format!("k{n}")).unwrap()
}

/// Wall seconds of one call of `f`.
fn seconds<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Prints `with` over `without` as the median per-pair ratio of `pairs`
/// alternating pairs (after two throwaway pairs).
fn ablate(
    name: &str,
    (without_label, mut without): (&str, impl FnMut() -> f64),
    (with_label, mut with): (&str, impl FnMut() -> f64),
    pairs: usize,
) {
    sample::paired(&mut without, &mut with, 2);
    let read = sample::paired(&mut without, &mut with, pairs);
    println!(
        "{name:<24} {with_label} {:.6}s / {without_label} {:.6}s = {:.3}x  (IQR {:.3} over {pairs} pairs)",
        read.b.median, read.a.median, read.ratio.median, read.ratio.iqr
    );
}

/// The materializing insert path (`closed`) or raw edge insertion of the
/// same direct relations.
fn build_index(closed: bool, with_matching: bool) -> AIndex {
    let mut ix = AIndex::new();
    let mut insert = |a: &GlobalKey, b: &GlobalKey, kind, p: f64| match (closed, kind) {
        (true, RelationKind::Identity) => ix.insert_identity(a, b, Probability::of(p)),
        (true, RelationKind::Matching) => ix.insert_matching(a, b, Probability::of(p)),
        (false, kind) => ix.insert_raw(a, b, kind, Probability::of(p), EdgeOrigin::Direct),
    };
    for e in 0..ENTITIES {
        for d in 1..6 {
            insert(&key(0, e), &key(d, e), RelationKind::Identity, 0.9);
        }
        if with_matching {
            insert(&key(0, e), &key(6, e), RelationKind::Matching, 0.7);
        }
    }
    ix
}

fn main() {
    // Cache on vs. off on a repeated (warm) query: prime once, measure
    // repeats.
    let lab = Lab::new(800, 1, Deployment::Centralized);
    let query = query_for(StoreKind::Relational, 300);
    let warm = |cache_size: usize| {
        let config = QuepaConfig {
            augmenter: AugmenterKind::OuterBatch,
            batch_size: 256,
            threads_size: 4,
            cache_size,
            ..QuepaConfig::default()
        };
        let (lab, query) = (&lab, &query);
        move || lab.run("transactions", query, 0, config, false).0.as_secs_f64()
    };
    ablate("ablation-cache", ("off", warm(0)), ("on", warm(1 << 20)), 10);

    ablate(
        "ablation-consistency",
        ("raw-insert", || seconds(|| build_index(false, true))),
        ("materializing-insert", || seconds(|| build_index(true, true))),
        10,
    );

    // Closed: every clique member is one hop away (level 0). Raw: the
    // star topology needs level 1 from a non-hub seed.
    let closed = IndexView::of(&build_index(true, false));
    let raw = IndexView::of(&build_index(false, false));
    let seeds: Vec<GlobalKey> = (0..200).map(|e| key(3, e * 7)).collect();
    ablate(
        "ablation-closure-query",
        ("raw-level1", || seconds(|| raw.augment(&seeds, 1))),
        ("closed-level0", || seconds(|| closed.augment(&seeds, 0))),
        50,
    );

    // One grouped round trip vs. key-at-a-time fetches at a fixed store,
    // isolating the grouping machinery from the network.
    let lab = Lab::new(800, 0, Deployment::Centralized);
    let query = query_for(StoreKind::Document, 400);
    let cold = |augmenter| {
        let config = QuepaConfig {
            augmenter,
            batch_size: 4096,
            threads_size: 1,
            cache_size: 0,
            ..QuepaConfig::default()
        };
        let (lab, query) = (&lab, &query);
        move || lab.run("catalogue", query, 0, config, true).0.as_secs_f64()
    };
    ablate(
        "ablation-grouping",
        ("sequential", cold(AugmenterKind::Sequential)),
        ("batch", cold(AugmenterKind::Batch)),
        10,
    );
}
