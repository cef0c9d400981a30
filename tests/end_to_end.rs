//! Cross-crate integration: the generated Polyphony workload driven
//! through the full QUEPA stack.

use quepa::core::{AugmenterKind, QuepaConfig};
use quepa::polystore::{Deployment, StoreKind};
use quepa::workload::{query_for, BuiltPolystore, WorkloadConfig};

fn build(albums: usize, sets: usize) -> BuiltPolystore {
    BuiltPolystore::build(WorkloadConfig {
        albums,
        replica_sets: sets,
        deployment: Deployment::InProcess,
        seed: 99,
    })
}

#[test]
fn every_store_supports_augmented_search() {
    let quepa = build(120, 0).into_quepa();
    for (db, kind) in [
        ("transactions", StoreKind::Relational),
        ("catalogue", StoreKind::Document),
        ("similar", StoreKind::Graph),
        ("discount", StoreKind::KeyValue),
    ] {
        let answer = quepa.augmented_search(db, &query_for(kind, 10), 0).unwrap();
        assert_eq!(answer.original.len(), 10, "{db}");
        assert!(!answer.augmented.is_empty(), "{db}");
        // Augmented objects always come from *other* keys than the seeds.
        let seed_keys: Vec<_> = answer.original.iter().map(|o| o.key().clone()).collect();
        assert!(answer.augmented.iter().all(|a| !seed_keys.contains(a.object.key())));
    }
}

#[test]
fn augmenters_agree_on_generated_workload() {
    let quepa = build(150, 1).into_quepa();
    let mut baseline: Option<Vec<String>> = None;
    for aug in AugmenterKind::ALL {
        quepa.set_config(QuepaConfig {
            augmenter: aug,
            batch_size: 7, // deliberately awkward batch boundary
            threads_size: 3,
            cache_size: 0,
            ..QuepaConfig::default()
        });
        let answer =
            quepa.augmented_search("catalogue", &query_for(StoreKind::Document, 25), 1).unwrap();
        let keys: Vec<String> =
            answer.augmented.iter().map(|a| a.object.key().to_string()).collect();
        match &baseline {
            None => baseline = Some(keys),
            Some(b) => assert_eq!(&keys, b, "{aug} diverged"),
        }
    }
}

#[test]
fn replicas_enlarge_answers_monotonically() {
    let mut last = 0usize;
    for sets in 0..=2 {
        let quepa = build(80, sets).into_quepa();
        let answer = quepa
            .augmented_search("transactions", &query_for(StoreKind::Relational, 10), 0)
            .unwrap();
        assert!(answer.augmented.len() > last, "sets={sets}: {} ≤ {last}", answer.augmented.len());
        last = answer.augmented.len();
    }
}

#[test]
fn deleting_objects_from_a_store_heals_the_index() {
    let built = build(60, 0);
    let quepa = built.into_quepa();
    // Delete a discount entry directly in the kv store (behind QUEPA's back).
    let keys = quepa.polystore().execute("discount", "SCAN k COUNT 1").unwrap();
    let victim = keys[0].key().clone();
    assert_eq!(
        quepa
            .polystore()
            .execute_update("discount", &format!("DEL {}", victim.key().as_str()))
            .unwrap(),
        1
    );
    // Run searches until the stale reference is lazily removed.
    let mut healed = false;
    for seq in 0..60 {
        let answer = quepa
            .augmented_search(
                "transactions",
                &format!("SELECT * FROM inventory WHERE seq = {seq}"),
                0,
            )
            .unwrap();
        if answer.lazily_deleted > 0 {
            healed = true;
            break;
        }
    }
    assert!(healed, "some query must touch the deleted discount");
    assert!(!quepa.index().contains(&victim));
}

#[test]
fn exploration_and_promotion_work_on_generated_data() {
    let quepa = build(100, 0).into_quepa();
    let mut s = quepa.explore("catalogue", r#"db.albums.find({"seq":{"$lt":3}})"#).unwrap();
    assert_eq!(s.results().len(), 3);
    let frontier = s.select(1).unwrap();
    assert!(!frontier.is_empty());
    // Frontier is probability-ordered.
    assert!(frontier.windows(2).all(|w| w[0].probability >= w[1].probability));
    let _ = s.step(0).unwrap();
    let _ = s.step(0).unwrap();
    assert_eq!(s.path().len(), 3);
    s.finish().unwrap();
    // Three selected nodes = a full path (k > 1), so D_P tracks it.
    assert_eq!(quepa.paths().tracked_paths(), 1);
}

#[test]
fn level_zero_subset_of_level_one() {
    let quepa = build(90, 1).into_quepa();
    let q = query_for(StoreKind::Graph, 5);
    let l0 = quepa.augmented_search("similar", &q, 0).unwrap();
    let l1 = quepa.augmented_search("similar", &q, 1).unwrap();
    let keys1: Vec<_> = l1.augmented.iter().map(|a| a.object.key().clone()).collect();
    for a in &l0.augmented {
        assert!(keys1.contains(a.object.key()), "{} lost at level 1", a.object.key());
    }
}

#[test]
fn stats_reflect_batching() {
    let built = build(120, 0);
    let quepa = built.into_quepa();
    let q = query_for(StoreKind::Relational, 60);

    quepa.set_config(QuepaConfig {
        augmenter: AugmenterKind::Sequential,
        cache_size: 0,
        ..QuepaConfig::default()
    });
    quepa.polystore().reset_stats();
    let a = quepa.augmented_search("transactions", &q, 0).unwrap();
    let seq_trips = quepa.polystore().stats().round_trips;

    quepa.set_config(QuepaConfig {
        augmenter: AugmenterKind::Batch,
        batch_size: 1024,
        cache_size: 0,
        ..QuepaConfig::default()
    });
    quepa.polystore().reset_stats();
    let b = quepa.augmented_search("transactions", &q, 0).unwrap();
    let batch_trips = quepa.polystore().stats().round_trips;

    assert_eq!(a.augmented.len(), b.augmented.len());
    assert!(
        batch_trips * 4 < seq_trips,
        "batching must slash round trips: {batch_trips} vs {seq_trips}"
    );
}

#[test]
fn graph_node_deletion_triggers_lazy_deletion() {
    let quepa = build(50, 0).into_quepa();
    // Remove a graph node behind QUEPA's back.
    assert_eq!(quepa.polystore().execute_update("similar", "DELETE NODE g3").unwrap(), 1);
    let answer =
        quepa.augmented_search("transactions", "SELECT * FROM inventory WHERE seq = 3", 0).unwrap();
    assert_eq!(answer.lazily_deleted, 1);
    let gone: quepa::pdm::GlobalKey = "similar.album.g3".parse().unwrap();
    assert!(!quepa.index().contains(&gone));
    // The graph itself no longer returns the node in pattern queries.
    let nodes =
        quepa.polystore().execute("similar", "MATCH (n:Album) WHERE n.seq = 3 RETURN n").unwrap();
    assert!(nodes.is_empty());
}
