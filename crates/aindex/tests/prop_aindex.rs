//! Property-based tests: the A' index invariants under random operation
//! sequences.

use proptest::prelude::*;
use quepa_aindex::shard::route;
use quepa_aindex::{AIndex, IndexOp, IndexView, ShardedIndex};
use quepa_pdm::{GlobalKey, Probability, RelationKind};

#[derive(Debug, Clone)]
enum Op {
    Identity(u8, u8, f64),
    Matching(u8, u8, f64),
    RemoveObject(u8),
    DeleteIdentity(u8, u8),
    DeleteMatching(u8, u8),
}

fn key(i: u8) -> GlobalKey {
    format!("db{}.coll.k{}", i % 4, i).parse().unwrap()
}

fn arb_op() -> impl Strategy<Value = Op> {
    let n = 0u8..12;
    let p = 0.05f64..=1.0;
    prop_oneof![
        4 => (n.clone(), n.clone(), p.clone()).prop_map(|(a, b, p)| Op::Identity(a, b, p)),
        4 => (n.clone(), n.clone(), p).prop_map(|(a, b, p)| Op::Matching(a, b, p)),
        1 => n.clone().prop_map(Op::RemoveObject),
        1 => (n.clone(), n.clone()).prop_map(|(a, b)| Op::DeleteIdentity(a, b)),
        1 => (n.clone(), n).prop_map(|(a, b)| Op::DeleteMatching(a, b)),
    ]
}

fn apply(ix: &mut AIndex, op: &Op) {
    match op {
        Op::Identity(a, b, p) => ix.insert_identity(&key(*a), &key(*b), Probability::of(*p)),
        Op::Matching(a, b, p) => ix.insert_matching(&key(*a), &key(*b), Probability::of(*p)),
        Op::RemoveObject(a) => ix.remove_object(&key(*a)),
        Op::DeleteIdentity(a, b) => {
            ix.delete_prelation(&key(*a), &key(*b), RelationKind::Identity);
        }
        Op::DeleteMatching(a, b) => {
            ix.delete_prelation(&key(*a), &key(*b), RelationKind::Matching);
        }
    }
}

/// Edge deletions can legitimately break closure (the paper's Keep policy
/// deliberately leaves inferred edges dangling, and removing one edge of a
/// clique leaves the rest); consistency is only promised after *insert*
/// sequences.
fn is_insert(op: &Op) -> bool {
    matches!(op, Op::Identity(..) | Op::Matching(..))
}

proptest! {
    /// After any sequence of inserts, the Consistency Condition and the
    /// identity-transitivity closure hold.
    #[test]
    fn inserts_preserve_consistency(ops in prop::collection::vec(arb_op().prop_filter("insert", is_insert), 1..40)) {
        let mut ix = AIndex::new();
        for op in &ops {
            apply(&mut ix, op);
        }
        prop_assert!(ix.check_consistency().is_none(), "violated: {:?}", ix.check_consistency());
    }

    /// Augmentation results are sorted by probability, never contain seeds,
    /// and grow monotonically with the level.
    #[test]
    fn augment_invariants(
        ops in prop::collection::vec(arb_op(), 1..50),
        seed in 0u8..12,
        level in 0usize..4,
    ) {
        let mut ix = AIndex::new();
        for op in &ops {
            apply(&mut ix, op);
        }
        let view = IndexView::of(&ix);
        let out = view.augment(&[key(seed)], level);
        prop_assert!(out.windows(2).all(|w| w[0].probability >= w[1].probability));
        prop_assert!(out.iter().all(|a| a.key != key(seed)));
        prop_assert!(out.iter().all(|a| a.distance <= level + 1 && a.distance >= 1));
        // Level monotonicity: every key found at level L appears at L+1
        // with at least the same probability.
        let bigger = view.augment(&[key(seed)], level + 1);
        for a in &out {
            let found = bigger.iter().find(|b| b.key == a.key);
            prop_assert!(found.is_some(), "key lost when level grew");
            prop_assert!(found.unwrap().probability >= a.probability);
        }
        // No duplicates.
        let mut keys: Vec<_> = out.iter().map(|a| a.key.clone()).collect();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), out.len());
    }

    /// Removing an object removes it from every future answer.
    #[test]
    fn removed_objects_never_reappear(
        ops in prop::collection::vec(arb_op().prop_filter("insert", is_insert), 1..40),
        victim in 0u8..12,
        seed in 0u8..12,
    ) {
        prop_assume!(victim != seed);
        let mut ix = AIndex::new();
        for op in &ops {
            apply(&mut ix, op);
        }
        ix.remove_object(&key(victim));
        prop_assert!(!ix.contains(&key(victim)));
        let out = IndexView::of(&ix).augment(&[key(seed)], 3);
        prop_assert!(out.iter().all(|a| a.key != key(victim)));
        prop_assert!(ix.neighbors(&key(victim)).is_empty());
    }

    /// Keep policy: deleting one edge never deletes any *other* edge.
    #[test]
    fn keep_policy_deletes_exactly_one(
        ops in prop::collection::vec(arb_op().prop_filter("insert", is_insert), 1..30),
        pick_a in 0u8..12,
        pick_b in 0u8..12,
    ) {
        let mut ix = AIndex::new();
        for op in &ops {
            apply(&mut ix, op);
        }
        let before = ix.edge_count();
        let deleted = ix.delete_prelation(&key(pick_a), &key(pick_b), RelationKind::Identity);
        let after = ix.edge_count();
        prop_assert_eq!(after, before - usize::from(deleted));
    }

    /// Stats agree with edge_count.
    #[test]
    fn stats_consistent(ops in prop::collection::vec(arb_op(), 1..50)) {
        let mut ix = AIndex::new();
        for op in &ops {
            apply(&mut ix, op);
        }
        let s = ix.stats();
        prop_assert_eq!(s.identity_edges + s.matching_edges, ix.edge_count());
        prop_assert_eq!(s.nodes, ix.node_count());
        prop_assert_eq!(s.nodes, ix.keys().count());
    }

    /// Serialization round-trips any insert-built graph exactly (same
    /// nodes, edges and augmentation answers).
    #[test]
    fn serialization_roundtrip(
        ops in prop::collection::vec(arb_op().prop_filter("insert", is_insert), 1..40),
        seed in 0u8..12,
        level in 0usize..3,
    ) {
        let mut ix = AIndex::new();
        for op in &ops {
            apply(&mut ix, op);
        }
        let text = quepa_aindex::serial::to_string(&ix);
        let back = quepa_aindex::serial::from_str(&text).unwrap();
        prop_assert_eq!(back.node_count(), ix.node_count());
        prop_assert_eq!(back.edge_count(), ix.edge_count());
        prop_assert_eq!(
            IndexView::of(&back).augment(&[key(seed)], level),
            IndexView::of(&ix).augment(&[key(seed)], level)
        );
        prop_assert!(back.check_consistency().is_none());
    }

    /// `augment_multi` is the one-pass equivalent of the historical
    /// per-seed loop: its answer equals the canonical multi-seed
    /// `augment`, and its ownership vector equals the first-owner
    /// partition built by augmenting each seed alone, in order, and
    /// claiming keys no earlier seed claimed.
    #[test]
    fn augment_multi_matches_per_seed_oracle(
        ops in prop::collection::vec(arb_op(), 1..50),
        raw_seeds in prop::collection::vec(0u8..16, 1..7),
        level in 0usize..4,
    ) {
        let mut ix = AIndex::new();
        for op in &ops {
            apply(&mut ix, op);
        }
        // Seeds may repeat, be absent from the index, or be dead.
        let seeds: Vec<GlobalKey> = raw_seeds.iter().map(|s| key(*s)).collect();

        let view = IndexView::of(&ix);
        let (multi, owners) = view.augment_multi(&seeds, level);
        prop_assert_eq!(&multi, &view.augment(&seeds, level), "answer must be canonical");
        prop_assert_eq!(owners.len(), multi.len());

        // Oracle: the historical per-seed loop over the same seeds.
        let mut claimed: std::collections::HashMap<GlobalKey, u32> =
            seeds.iter().map(|s| (s.clone(), u32::MAX)).collect();
        for (j, seed) in seeds.iter().enumerate() {
            for a in view.augment(std::slice::from_ref(seed), level) {
                claimed.entry(a.key).or_insert(j as u32);
            }
        }
        for (a, owner) in multi.iter().zip(&owners) {
            prop_assert!((*owner as usize) < seeds.len());
            prop_assert_eq!(
                claimed.get(&a.key),
                Some(owner),
                "wrong owner for {:?}",
                a.key
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The view a `ShardedIndex` maintains incrementally — journal drains
    /// into overlays, overlays folded by compaction — answers exactly as a
    /// fresh projection of the same ledger. The scripts insert, remove and
    /// re-insert over a pool that crowds one shard, so its overlay crosses
    /// the compaction trigger mid-script and keeps mutating afterwards.
    #[test]
    fn maintained_view_matches_fresh_projection(
        script in prop::collection::vec(arb_script_op(), 80..160),
        raw_seeds in prop::collection::vec(0usize..POOL, 1..6),
    ) {
        let pool = crowded_pool();
        let sharded = ShardedIndex::new(AIndex::new());
        let seeds: Vec<GlobalKey> = raw_seeds.iter().map(|&s| pool[s].clone()).collect();
        for (i, op) in script.iter().enumerate() {
            sharded.apply(&[match *op {
                ScriptOp::Identity(a, b, p) => IndexOp::InsertIdentity {
                    a: pool[a].clone(),
                    b: pool[b].clone(),
                    p: Probability::of(p),
                },
                ScriptOp::Matching(a, b, p) => IndexOp::InsertMatching {
                    a: pool[a].clone(),
                    b: pool[b].clone(),
                    p: Probability::of(p),
                },
                ScriptOp::Remove(a) => IndexOp::RemoveObject { key: pool[a].clone() },
            }]);
            if i % 16 != 15 && i + 1 != script.len() {
                continue;
            }
            let (view, fresh) = (sharded.view(), IndexView::of(&sharded.snapshot()));
            prop_assert_eq!(view.stats(), fresh.stats(), "stats after op {}", i);
            for level in 0..3 {
                prop_assert_eq!(view.augment(&seeds, level), fresh.augment(&seeds, level));
                prop_assert_eq!(
                    view.augment_multi(&seeds, level),
                    fresh.augment_multi(&seeds, level),
                    "owners at level {} after op {}", level, i
                );
            }
            for key in &pool {
                prop_assert_eq!(view.neighbors(key), fresh.neighbors(key));
            }
        }
    }
}

const POOL: usize = 144;

/// 120 keys that all route to one shard plus 24 that route elsewhere.
fn crowded_pool() -> Vec<GlobalKey> {
    let candidates =
        || (0..).map(|i| format!("db{}.coll.p{i}", i % 4).parse::<GlobalKey>().unwrap());
    let crowded = route(&candidates().next().unwrap());
    let mut pool: Vec<GlobalKey> = candidates().filter(|k| route(k) == crowded).take(120).collect();
    pool.extend(candidates().filter(|k| route(k) != crowded).take(POOL - 120));
    pool
}

#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Identity(usize, usize, f64),
    Matching(usize, usize, f64),
    Remove(usize),
}

fn arb_script_op() -> impl Strategy<Value = ScriptOp> {
    let n = 0usize..POOL;
    let p = 0.05f64..=1.0;
    prop_oneof![
        2 => (n.clone(), n.clone(), p.clone()).prop_map(|(a, b, p)| ScriptOp::Identity(a, b, p)),
        5 => (n.clone(), n.clone(), p).prop_map(|(a, b, p)| ScriptOp::Matching(a, b, p)),
        2 => n.prop_map(ScriptOp::Remove),
    ]
}
