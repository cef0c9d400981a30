//! End-to-end tests over a miniature Polyphony polystore: the running
//! example of the paper (§I, Examples 1–8).

use std::sync::Arc;

use quepa_aindex::AIndex;
use quepa_core::{AugmenterKind, Quepa, QuepaConfig, QuepaError, RUN_LOG_RING};
use quepa_docstore::DocumentDb;
use quepa_graphstore::GraphDb;
use quepa_kvstore::KvStore;
use quepa_pdm::{text, GlobalKey, Probability, Value};
use quepa_polystore::{
    DocumentConnector, GraphConnector, KvConnector, LatencyModel, Polystore, RelationalConnector,
};
use quepa_relstore::engine::Database;

fn k(s: &str) -> GlobalKey {
    s.parse().unwrap()
}

/// Builds the polystore of Fig. 1 at miniature scale, with the A' index of
/// Fig. 3.
fn polyphony() -> Quepa {
    let mut p = Polystore::new();

    let mut rel = Database::new("transactions");
    rel.create_table("inventory", "id", &["id", "artist", "name"]).unwrap();
    rel.create_table("sales", "id", &["id", "first", "last", "total"]).unwrap();
    rel.create_table("sales_details", "id", &["id", "sale", "item"]).unwrap();
    rel.execute("INSERT INTO inventory VALUES ('a32', 'Cure', 'Wish'), ('a33', 'Cure', 'Faith')")
        .unwrap();
    rel.execute("INSERT INTO sales VALUES ('s8', 'John', 'Doe', 20.0)").unwrap();
    rel.execute("INSERT INTO sales_details VALUES ('i1', 's8', 'a32'), ('i4', 's8', 'a33')")
        .unwrap();
    p.register(Arc::new(RelationalConnector::new(rel, LatencyModel::FREE)));

    let mut doc = DocumentDb::new("catalogue");
    doc.insert(
        "albums",
        text::parse(r#"{"_id":"d1","title":"Wish","artist":"The Cure","year":1992}"#).unwrap(),
    )
    .unwrap();
    doc.insert(
        "customers",
        text::parse(r#"{"_id":"c1","name":"John Doe","city":"Rome"}"#).unwrap(),
    )
    .unwrap();
    p.register(Arc::new(DocumentConnector::new(doc, LatencyModel::FREE)));

    let mut kv = KvStore::new("discount");
    kv.set("k1:cure:wish", "40%");
    p.register(Arc::new(KvConnector::new(kv, "drop", LatencyModel::FREE)));

    let mut g = GraphDb::new("similar");
    g.add_node("g7", "Album", [("title", Value::str("Wish"))]).unwrap();
    g.add_node("g8", "Album", [("title", Value::str("Disintegration"))]).unwrap();
    g.add_edge("g7", "g8", "SIMILAR").unwrap();
    p.register(Arc::new(GraphConnector::new(g, LatencyModel::FREE)));

    let mut ix = AIndex::new();
    // Example 2's relations.
    ix.insert_identity(
        &k("catalogue.albums.d1"),
        &k("transactions.inventory.a32"),
        Probability::of(0.9),
    );
    ix.insert_identity(
        &k("catalogue.albums.d1"),
        &k("discount.drop.k1:cure:wish"),
        Probability::of(0.8),
    );
    ix.insert_identity(&k("catalogue.albums.d1"), &k("similar.album.g7"), Probability::of(0.95));
    ix.insert_matching(
        &k("transactions.inventory.a32"),
        &k("transactions.sales_details.i1"),
        Probability::of(0.7),
    );
    ix.insert_matching(
        &k("transactions.sales.s8"),
        &k("catalogue.customers.c1"),
        Probability::of(0.75),
    );
    ix.insert_matching(
        &k("transactions.sales.s8"),
        &k("transactions.sales_details.i1"),
        Probability::ONE,
    );
    ix.insert_matching(
        &k("transactions.sales.s8"),
        &k("transactions.sales_details.i4"),
        Probability::ONE,
    );
    assert!(ix.check_consistency().is_none());

    Quepa::new(p, ix)
}

#[test]
fn lucy_augmented_search() {
    // §I: Lucy, who only knows SQL, asks for everything about "Wish".
    let quepa = polyphony();
    let answer = quepa
        .augmented_search("transactions", "SELECT * FROM inventory WHERE name like '%wish%'", 0)
        .unwrap();
    assert_eq!(answer.original.len(), 1);
    assert_eq!(answer.original[0].key(), &k("transactions.inventory.a32"));
    // The augmentation reveals the discount and the catalogue entry, plus
    // everything the consistency condition propagated.
    let keys: Vec<String> = answer.augmented.iter().map(|a| a.object.key().to_string()).collect();
    assert!(keys.contains(&"catalogue.albums.d1".to_string()), "{keys:?}");
    assert!(keys.contains(&"discount.drop.k1:cure:wish".to_string()), "{keys:?}");
    // The discount value really came from the kv store.
    let discount = answer
        .augmented
        .iter()
        .find(|a| a.object.key() == &k("discount.drop.k1:cure:wish"))
        .unwrap();
    assert_eq!(discount.object.value().as_str(), Some("40%"));
    // Ranked by probability.
    assert!(answer.augmented.windows(2).all(|w| w[0].probability >= w[1].probability));
}

#[test]
fn all_augmenters_agree() {
    let quepa = polyphony();
    let mut baseline: Option<Vec<(String, String)>> = None;
    for kind in AugmenterKind::ALL {
        for threads in [1, 4] {
            for batch in [1, 3, 100] {
                quepa.set_config(QuepaConfig {
                    augmenter: kind,
                    batch_size: batch,
                    threads_size: threads,
                    cache_size: 0, // cache off so every strategy hits the stores
                    ..QuepaConfig::default()
                });
                let answer =
                    quepa.augmented_search("transactions", "SELECT * FROM inventory", 1).unwrap();
                let got: Vec<(String, String)> = answer
                    .augmented
                    .iter()
                    .map(|a| (a.object.key().to_string(), a.probability.to_string()))
                    .collect();
                match &baseline {
                    None => baseline = Some(got),
                    Some(b) => {
                        assert_eq!(&got, b, "augmenter {kind} t={threads} b={batch} diverged")
                    }
                }
            }
        }
    }
}

#[test]
fn levels_expand_the_answer() {
    let quepa = polyphony();
    let q = "SELECT * FROM sales WHERE total > 15";
    let l0 = quepa.augmented_search("transactions", q, 0).unwrap();
    let l1 = quepa.augmented_search("transactions", q, 1).unwrap();
    let l2 = quepa.augmented_search("transactions", q, 2).unwrap();
    assert!(l0.augmented.len() <= l1.augmented.len());
    assert!(l1.augmented.len() <= l2.augmented.len());
    // Level 0 from s8 reaches the customer and the sale details.
    let keys0: Vec<String> = l0.augmented.iter().map(|a| a.object.key().to_string()).collect();
    assert!(keys0.contains(&"catalogue.customers.c1".to_string()));
    // Level 1 additionally reaches the inventory item via sales_details.
    let keys1: Vec<String> = l1.augmented.iter().map(|a| a.object.key().to_string()).collect();
    assert!(keys1.contains(&"transactions.inventory.a32".to_string()));
}

#[test]
fn aggregates_are_refused() {
    let quepa = polyphony();
    let err =
        quepa.augmented_search("transactions", "SELECT COUNT(*) FROM inventory", 0).unwrap_err();
    assert!(matches!(err, QuepaError::NotAugmentable { .. }));
    let err = quepa.augmented_search("catalogue", "db.albums.count()", 0).unwrap_err();
    assert!(matches!(err, QuepaError::NotAugmentable { .. }));
}

#[test]
fn projection_is_rewritten_so_keys_survive() {
    let quepa = polyphony();
    // `SELECT name` lacks the pk; the validator rewrites to `SELECT *`.
    let answer = quepa
        .augmented_search("transactions", "SELECT name FROM inventory WHERE name = 'Wish'", 0)
        .unwrap();
    assert_eq!(answer.original.len(), 1);
    assert!(!answer.augmented.is_empty());
}

#[test]
fn every_store_can_be_the_target() {
    let quepa = polyphony();
    // Document store query in its native language.
    let a = quepa
        .augmented_search("catalogue", r#"db.albums.find({"title":{"$like":"%wish%"}})"#, 0)
        .unwrap();
    assert!(a.augmented.iter().any(|x| x.object.key() == &k("transactions.inventory.a32")));
    // Key-value GET.
    let a = quepa.augmented_search("discount", "GET k1:cure:wish", 0).unwrap();
    assert!(a.augmented.iter().any(|x| x.object.key() == &k("catalogue.albums.d1")));
    // Graph pattern.
    let a =
        quepa.augmented_search("similar", "MATCH (n:Album {title: 'Wish'}) RETURN n", 0).unwrap();
    assert!(a.augmented.iter().any(|x| x.object.key() == &k("catalogue.albums.d1")));
}

#[test]
fn exploration_follows_example5() {
    let quepa = polyphony();
    // Example 5: start from the sale, walk to the detail, then onwards.
    let mut session =
        quepa.explore("transactions", "SELECT * FROM sales WHERE total > 15").unwrap();
    assert_eq!(session.results().len(), 1);
    let frontier = session.select(0).unwrap();
    let frontier_keys: Vec<String> = frontier.iter().map(|a| a.object.key().to_string()).collect();
    assert!(frontier_keys.contains(&"transactions.sales_details.i1".to_string()));
    assert!(frontier_keys.contains(&"catalogue.customers.c1".to_string()));
    // Click the sale detail i1.
    let i1_pos = frontier_keys.iter().position(|f| f == "transactions.sales_details.i1").unwrap();
    let frontier = session.step(i1_pos).unwrap();
    let keys: Vec<String> = frontier.iter().map(|a| a.object.key().to_string()).collect();
    assert!(keys.contains(&"transactions.inventory.a32".to_string()), "{keys:?}");
    // Already-visited objects are hidden from the frontier.
    assert!(!keys.contains(&"transactions.sales.s8".to_string()));
    assert_eq!(session.path().len(), 2);
    assert_eq!(session.steps(), 2);
}

#[test]
fn exploration_selection_bounds() {
    let quepa = polyphony();
    let mut session = quepa.explore("transactions", "SELECT * FROM sales").unwrap();
    let err = session.select(99).unwrap_err();
    assert!(matches!(err, QuepaError::BadSelection { index: 99, available: 1 }));
    let err = session.step(0).unwrap_err();
    assert!(matches!(err, QuepaError::BadSelection { .. }), "empty frontier before select");
}

#[test]
fn repeated_exploration_promotes_a_shortcut() {
    let quepa = polyphony();
    let from = k("transactions.sales.s8");
    let to = k("transactions.inventory.a32");
    assert!(quepa.index().edge(&from, &to, quepa_pdm::RelationKind::Matching).is_none());
    // Walk s8 → i1 → a32 repeatedly until promotion fires.
    let mut promoted = false;
    for _ in 0..32 {
        let mut session =
            quepa.explore("transactions", "SELECT * FROM sales WHERE total > 15").unwrap();
        let frontier = session.select(0).unwrap();
        let i1 = frontier
            .iter()
            .position(|a| a.object.key() == &k("transactions.sales_details.i1"))
            .unwrap();
        let frontier = session.step(i1).unwrap();
        let a32 = frontier
            .iter()
            .position(|a| a.object.key() == &k("transactions.inventory.a32"))
            .unwrap();
        session.step(a32).unwrap();
        promoted |= session.finish().unwrap();
        if promoted {
            break;
        }
    }
    assert!(promoted, "the frequently walked path must promote");
    let edge = quepa
        .index()
        .edge(&from, &to, quepa_pdm::RelationKind::Matching)
        .expect("shortcut edge exists");
    assert!(matches!(edge.origin, quepa_aindex::EdgeOrigin::Promoted));
    // The shortcut now surfaces a32 at level 0 from s8.
    let answer =
        quepa.augmented_search("transactions", "SELECT * FROM sales WHERE total > 15", 0).unwrap();
    assert!(answer.augmented.iter().any(|a| a.object.key() == &to));
}

#[test]
fn lazy_deletion_on_vanished_objects() {
    let quepa = polyphony();
    // Someone deletes the discount behind QUEPA's back.
    quepa.polystore().execute_update("discount", "DEL k1:cure:wish").unwrap();
    let answer = quepa
        .augmented_search("transactions", "SELECT * FROM inventory WHERE name = 'Wish'", 0)
        .unwrap();
    assert_eq!(answer.lazily_deleted, 1);
    assert!(!answer.augmented.iter().any(|a| a.object.key() == &k("discount.drop.k1:cure:wish")));
    // The index forgot the object: the next run reports nothing missing.
    assert!(!quepa.index().contains(&k("discount.drop.k1:cure:wish")));
    let again = quepa
        .augmented_search("transactions", "SELECT * FROM inventory WHERE name = 'Wish'", 0)
        .unwrap();
    assert_eq!(again.lazily_deleted, 0);
}

#[test]
fn cache_serves_repeated_runs() {
    let quepa = polyphony();
    quepa.set_config(QuepaConfig { cache_size: 1024, ..QuepaConfig::default() });
    let cold = quepa.augmented_search("transactions", "SELECT * FROM inventory", 1).unwrap();
    assert_eq!(cold.cache_hits, 0);
    let warm = quepa.augmented_search("transactions", "SELECT * FROM inventory", 1).unwrap();
    assert_eq!(warm.cache_hits, warm.augmented.len(), "fully cache-served");
    quepa.drop_caches();
    let cold_again = quepa.augmented_search("transactions", "SELECT * FROM inventory", 1).unwrap();
    assert_eq!(cold_again.cache_hits, 0);
}

#[test]
fn run_logs_accumulate() {
    let quepa = polyphony();
    quepa.augmented_search("transactions", "SELECT * FROM inventory", 0).unwrap();
    quepa.augmented_search("transactions", "SELECT * FROM sales", 1).unwrap();
    let logs = quepa.take_logs();
    assert_eq!(logs.len(), 2);
    assert_eq!(logs[0].features.result_size, 2);
    assert_eq!(logs[1].features.level, 1);
    assert!(quepa.take_logs().is_empty(), "take drains");
}

/// A server never drains its run logs: each shard keeps its newest
/// `RUN_LOG_RING` records and forgets the rest.
#[test]
fn run_logs_are_a_bounded_ring_of_the_newest() {
    let quepa = polyphony();
    let extra = 40;
    for i in 0..RUN_LOG_RING + extra {
        // The oldest `extra` searches are the only ones at level 1.
        let level = usize::from(i < extra);
        quepa.augmented_search("transactions", "SELECT * FROM sales", level).unwrap();
    }
    // One thread logs into one shard.
    let logs = quepa.take_logs();
    assert_eq!(logs.len(), RUN_LOG_RING, "a shard kept more than its ring");
    assert!(logs.iter().all(|log| log.features.level == 0), "the ring dropped a newer record");
}

#[test]
fn optimizer_hook_is_used() {
    struct Fixed;
    impl quepa_core::Optimizer for Fixed {
        fn choose(&self, _f: &quepa_core::QueryFeatures, current: &QuepaConfig) -> QuepaConfig {
            QuepaConfig { augmenter: AugmenterKind::Sequential, ..*current }
        }
        fn name(&self) -> &'static str {
            "FIXED"
        }
    }
    let quepa = polyphony();
    quepa.set_optimizer(Some(Box::new(Fixed)));
    let answer = quepa.augmented_search("transactions", "SELECT * FROM inventory", 0).unwrap();
    assert_eq!(answer.config_used.augmenter, AugmenterKind::Sequential);
}

#[test]
fn cache_size_moves_by_tenth_of_delta() {
    struct WantsBigCache;
    impl quepa_core::Optimizer for WantsBigCache {
        fn choose(&self, _f: &quepa_core::QueryFeatures, current: &QuepaConfig) -> QuepaConfig {
            QuepaConfig { cache_size: 10_000, ..*current }
        }
        fn name(&self) -> &'static str {
            "BIG"
        }
    }
    let quepa = polyphony();
    quepa.set_config(QuepaConfig { cache_size: 1000, ..QuepaConfig::default() });
    quepa.set_optimizer(Some(Box::new(WantsBigCache)));
    let answer = quepa.augmented_search("transactions", "SELECT * FROM inventory", 0).unwrap();
    // (10000 − 1000) / 10 = 900 → 1900, not 10000.
    assert_eq!(answer.config_used.cache_size, 1900);
    assert_eq!(quepa.config().cache_size, 1900);
}
