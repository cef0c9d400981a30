//! Supernode removal through the sharded serving path: rewriting a hub
//! with thousands of p-relations republishes exactly its home shard
//! (per-shard swap counters prove it), and concurrent readers racing
//! the removal sequence observe only the predicted prefix states —
//! never a torn half-removal.

use quepa_aindex::shard::route;
use quepa_aindex::{AIndex, AugmentedKey, IndexOp, IndexView, ShardedIndex};
use quepa_pdm::GlobalKey;
use quepa_workload::TopologyFamily;

const SCALE: usize = 3_000;

fn supernode() -> (quepa_workload::HostileTopology, ShardedIndex) {
    let topo = TopologyFamily::Supernode.generate(SCALE, 7);
    let sharded = ShardedIndex::new(topo.index());
    (topo, sharded)
}

#[test]
fn hub_removal_republishes_exactly_its_home_shard() {
    let (topo, sharded) = supernode();
    let hub = topo.key(topo.hub.expect("supernode has a hub"));
    let before: Vec<u64> = sharded.shard_stats().iter().map(|s| s.swaps).collect();
    assert!(before.iter().all(|&s| s == 0), "construction must not count as swaps");

    sharded.apply(&[IndexOp::RemoveObject { key: hub.clone() }]);
    let after: Vec<u64> = sharded.shard_stats().iter().map(|s| s.swaps).collect();
    let home = route(&hub);
    for (shard, (&b, &a)) in before.iter().zip(after.iter()).enumerate() {
        if shard == home {
            assert_eq!(a, b + 1, "hub removal must republish its home shard exactly once");
        } else {
            assert_eq!(a, b, "shard {shard} must be untouched by the hub removal");
        }
    }

    // A satellite removal afterwards also touches exactly one shard —
    // the hub's thousands of dead half-edges don't leak republishes.
    let satellite = topo.key(1);
    let before = after;
    sharded.apply(&[IndexOp::RemoveObject { key: satellite.clone() }]);
    let after: Vec<u64> = sharded.shard_stats().iter().map(|s| s.swaps).collect();
    let home = route(&satellite);
    for (shard, (&b, &a)) in before.iter().zip(after.iter()).enumerate() {
        let want = if shard == home { b + 1 } else { b };
        assert_eq!(a, want, "satellite removal touched shard {shard} unexpectedly");
    }
}

/// The predicted answer after removing `victims[..prefix]`: a fresh
/// projection of the ledger at each prefix.
fn predicted(
    mut ledger: AIndex,
    victims: &[GlobalKey],
    probes: &[GlobalKey],
) -> Vec<(Vec<AugmentedKey>, Vec<u32>)> {
    let mut states = vec![IndexView::of(&ledger).augment_multi(probes, 1)];
    for victim in victims {
        ledger.remove_object(victim);
        states.push(IndexView::of(&ledger).augment_multi(probes, 1));
    }
    states
}

#[test]
fn racing_readers_observe_only_predicted_prefix_states() {
    let (topo, sharded) = supernode();
    let hub = topo.key(topo.hub.expect("supernode has a hub"));
    // The hub dies mid-sequence: two satellites, the hub, two more.
    // (Post-hub removals don't perturb the probed neighborhood — their
    // predicted states are duplicates, which the matcher must tolerate.)
    let victims: Vec<GlobalKey> = vec![topo.key(10), topo.key(20), hub, topo.key(30), topo.key(40)];
    // Probe from satellites only, so every state (including post-hub)
    // still resolves the seeds themselves.
    let probes: Vec<GlobalKey> = (1..=8).map(|i| topo.key(i * 3 + 1)).collect();
    let states = predicted(topo.index(), &victims, &probes);
    // The removals must actually change the answer, or the test is
    // vacuous.
    assert!(
        states.windows(2).any(|w| w[0] != w[1]),
        "removal sequence must perturb the probed neighborhood"
    );

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (sharded, states, probes, stop) = (&sharded, &states, &probes, &stop);
        let readers: Vec<_> = (0..4)
            .map(|reader| {
                scope.spawn(move || {
                    let mut last = 0usize;
                    let mut observed = 0usize;
                    loop {
                        let done = stop.load(std::sync::atomic::Ordering::Acquire);
                        let answer = sharded.view().augment_multi(probes, 1);
                        // First match — duplicate tail states collapse to
                        // the earliest prefix with the same answer, which
                        // keeps the monotonicity check meaningful.
                        let state = states
                            .iter()
                            .position(|s| *s == answer)
                            .unwrap_or_else(|| panic!("reader {reader} saw an unpredicted state"));
                        assert!(
                            state >= last,
                            "reader {reader} went backwards: prefix {state} after {last}"
                        );
                        last = state;
                        observed += 1;
                        if done {
                            return observed;
                        }
                    }
                })
            })
            .collect();
        for victim in &victims {
            sharded.apply(&[IndexOp::RemoveObject { key: victim.clone() }]);
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        for handle in readers {
            assert!(handle.join().expect("reader thread") > 0);
        }
    });

    // Settled: every fresh view answers the full-prefix state.
    let final_answer = sharded.view().augment_multi(&probes, 1);
    assert_eq!(&final_answer, states.last().expect("states nonempty"));
}
