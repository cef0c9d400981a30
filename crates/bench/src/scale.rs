//! The million-object scale sweep (`benches/scale.rs`; `bench_gate`
//! measures the 10⁴ mutation row).
//!
//! One [`ScaleLab`] is the A' index of a `WorkloadConfig::at_scale`
//! polystore, served through the sharded index. The sweep prints, per
//! object count:
//!
//! * **build_s** — wall time to build the polystore + index;
//! * **resident bytes** — the sharded index's own accounting, summed
//!   over shards;
//! * **cold/warm augmentation latency per level** — a fixed 50-seed
//!   `augment_multi` on a fresh view (cold: first traversal, scratch
//!   allocation and cache misses included) and repeated on the same view
//!   (warm). The seed set and the per-key neighborhood are
//!   scale-invariant by the workload's uniform-density construction, so
//!   any latency growth is the index's own — the acceptance bar is ≤2×
//!   while objects grow 100×;
//! * **mutation throughput under concurrent readers** — a writer applies
//!   `remove_object` calls while [`READERS`] closed-loop reader threads
//!   augment continuously, once against the sharded delta-overlay path
//!   (`ShardedIndex::apply`: one shard republished per removal) and once
//!   against the whole-index-swap baseline (clone the ledger, mutate
//!   the clone, `ShardedIndex::replace`: the whole ledger copied and
//!   every shard republished per removal). The sharded path must win by
//!   ≥5×.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use quepa_aindex::{AIndex, IndexOp, ShardedIndex};
use quepa_pdm::GlobalKey;
use quepa_polystore::Deployment;
use quepa_workload::{BuiltPolystore, TopologyFamily, WorkloadConfig};

use crate::sample::{self, Summary};

/// Augmentation levels the sweep records.
pub const LEVELS: [usize; 3] = [0, 1, 2];

/// Seeds per augmentation call — matches the serving benches' 50-object
/// local query.
pub const SEEDS: usize = 50;

/// Concurrent reader threads of the mutation benchmark.
pub const READERS: usize = 16;

/// Removals applied per mutation measurement.
pub const MUTATIONS: usize = 48;

/// One built scale point.
pub struct ScaleLab {
    /// The object-count target this lab was built for.
    pub objects: usize,
    /// Wall seconds to build the polystore + index.
    pub build_s: f64,
    /// Sharded-index resident bytes, summed over shards.
    pub resident_bytes: usize,
    /// Interned index entries, summed over shards.
    pub entries: usize,
    /// The index under test, behind the sharded serving path.
    pub sharded: ShardedIndex,
    /// A pristine ledger clone (each mutation measurement starts here).
    pub ledger: AIndex,
    /// The fixed augmentation seed set.
    pub seeds: Vec<GlobalKey>,
    /// Distinct removal victims, disjoint from the seeds.
    pub victims: Vec<GlobalKey>,
}

/// Builds the scale point for `objects` total data objects (in-process
/// deployment: the sweep measures the index, not simulated round trips).
pub fn build(objects: usize) -> ScaleLab {
    let config = WorkloadConfig::at_scale(objects, Deployment::InProcess, 42);
    let t0 = Instant::now();
    let built = BuiltPolystore::build(config);
    let build_s = t0.elapsed().as_secs_f64();
    let ledger = built.index;

    let all: Vec<GlobalKey> = ledger.keys().cloned().collect();
    assert!(all.len() > SEEDS + MUTATIONS, "scale lab too small: {} keys", all.len());
    let seeds: Vec<GlobalKey> = all[..SEEDS].to_vec();
    // Victims stride through the middle of the key range so every
    // measurement removes live, well-connected nodes far from the seeds.
    let stride = (all.len() - SEEDS) / (MUTATIONS + 1);
    let victims: Vec<GlobalKey> =
        (0..MUTATIONS).map(|i| all[SEEDS + (i + 1) * stride].clone()).collect();

    let sharded = ShardedIndex::new(ledger.clone());
    let stats = sharded.shard_stats();
    ScaleLab {
        objects,
        build_s,
        resident_bytes: stats.iter().map(|s| s.resident_bytes).sum(),
        entries: stats.iter().map(|s| s.entries).sum(),
        sharded,
        ledger,
        seeds,
        victims,
    }
}

/// Cold and warm augmentation seconds at `level` over `runs` measured
/// pairs. Cold is the first `augment_multi` on a fresh view; warm repeats
/// it on the same view.
pub fn augment_latency(lab: &ScaleLab, level: usize, runs: usize) -> (Summary, Summary) {
    augment_latency_on(&lab.sharded, &lab.seeds, level, runs)
}

/// [`augment_latency`] against any sharded index + seed set (the scale
/// sweep and the hostile labs share the measurement).
pub fn augment_latency_on(
    sharded: &ShardedIndex,
    seeds: &[GlobalKey],
    level: usize,
    runs: usize,
) -> (Summary, Summary) {
    let mut cold = Vec::with_capacity(runs);
    let warm = sample::measure(0, runs, || {
        let view = sharded.view();
        let t0 = Instant::now();
        let first = view.augment_multi(seeds, level);
        cold.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let second = view.augment_multi(seeds, level);
        let warm = t1.elapsed().as_secs_f64();
        assert_eq!(first, second, "augmentation must be deterministic on one view");
        warm
    });
    (sample::summarize(&mut cold), warm)
}

/// Objects per hostile topology in the sweep: large enough that
/// the supernode hub carries ~1e5 p-relations — the degree the tentpole
/// names — and the deep-chain family holds >1500 chains of depth 64.
pub const HOSTILE_SCALE: usize = 100_000;

/// One built adversarial-topology point: a [`TopologyFamily`] instance
/// served through the same sharded path as the uniform scale sweep.
pub struct HostileLab {
    /// The topology family this lab instantiates.
    pub family: TopologyFamily,
    /// Objects in the topology.
    pub objects: usize,
    /// P-relations declared by the generator (identity edges expand
    /// further inside the index via clique materialization).
    pub relations: usize,
    /// Wall seconds to materialize the A' index from the topology.
    pub build_s: f64,
    /// Interned index entries, summed over shards.
    pub entries: usize,
    /// Sharded-index resident bytes, summed over shards.
    pub resident_bytes: usize,
    /// The index under test, behind the sharded serving path.
    pub sharded: ShardedIndex,
    /// The family's canonical probe seeds (hub + satellites, chain
    /// heads, or cluster representatives).
    pub seeds: Vec<GlobalKey>,
    /// The supernode hub's key, when the family has one.
    pub hub: Option<GlobalKey>,
}

/// The augmentation level each family is probed at: deep chains
/// are a depth stress, the other two are breadth stresses.
pub fn hostile_level(family: TopologyFamily) -> usize {
    match family {
        TopologyFamily::DeepChain => 2,
        TopologyFamily::Supernode | TopologyFamily::NearDup => 1,
    }
}

/// Builds the hostile point for `family` at `scale` objects (seed 42,
/// like every lab).
pub fn build_hostile(family: TopologyFamily, scale: usize) -> HostileLab {
    let topo = family.generate(scale, 42);
    let relations = topo.relations.len();
    let objects = topo.objects;
    let hub = topo.hub.map(|i| topo.key(i));
    let seeds = topo.probe_keys();
    let t0 = Instant::now();
    let index = topo.index();
    let build_s = t0.elapsed().as_secs_f64();
    let sharded = ShardedIndex::new(index);
    let stats = sharded.shard_stats();
    HostileLab {
        family,
        objects,
        relations,
        build_s,
        entries: stats.iter().map(|s| s.entries).sum(),
        resident_bytes: stats.iter().map(|s| s.resident_bytes).sum(),
        sharded,
        seeds,
        hub,
    }
}

/// One measured mutation run.
#[derive(Debug, Clone, Copy)]
pub struct MutationPoint {
    /// Removals applied.
    pub mutations: usize,
    /// Removals per wall-clock second.
    pub qps: f64,
    /// Wall seconds per removal.
    pub mean_s: f64,
    /// Reader augmentations completed during the run.
    pub reads: usize,
}

/// Mutation throughput through the sharded delta-overlay path: each
/// removal locks the writer, edits the home shard's overlay and
/// publishes one directory swap, while [`READERS`] threads keep
/// augmenting on their own views.
pub fn mutation_throughput_sharded(lab: &ScaleLab) -> MutationPoint {
    run_mutations(lab, |sharded, key| {
        sharded.apply(&[IndexOp::RemoveObject { key: key.clone() }]);
    })
}

/// Mutation throughput through the whole-index-swap baseline the
/// delta-overlay path replaced: every removal is published by cloning
/// the entire ledger (its pair index; the shard states are shared until
/// the clone edits one), mutating the clone and republishing every
/// shard.
pub fn mutation_throughput_swap(lab: &ScaleLab) -> MutationPoint {
    run_mutations(lab, |sharded, key| {
        let mut ledger = sharded.snapshot();
        ledger.remove_object(key);
        sharded.replace(ShardedIndex::new(ledger));
    })
}

/// Applies `write` once per victim to a fresh sharded copy of the lab's
/// ledger while [`READERS`] threads augment on views of it.
fn run_mutations(lab: &ScaleLab, write: impl Fn(&ShardedIndex, &GlobalKey)) -> MutationPoint {
    let sharded = ShardedIndex::new(lab.ledger.clone());
    let (victims, seeds) = (&lab.victims, &lab.seeds);
    let stop = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    let mut reads = 0usize;
    let mut wall = 0.0f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let (sharded, stop, start) = (&sharded, &stop, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut done = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        sharded.view().augment_multi(seeds, 1);
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for key in victims {
            write(&sharded, key);
        }
        wall = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        reads = handles.into_iter().map(|h| h.join().expect("reader thread")).sum();
    });
    MutationPoint {
        mutations: victims.len(),
        qps: victims.len() as f64 / wall,
        mean_s: wall / victims.len() as f64,
        reads,
    }
}

/// The printed label of an object count (`1e4`, `1e5`, …).
pub fn scale_label(objects: usize) -> String {
    let exp = (objects as f64).log10().round() as u32;
    if objects == 10usize.pow(exp) {
        format!("1e{exp}")
    } else {
        format!("{objects}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_lab_measures_and_mutates() {
        let lab = build(2_000);
        assert!(lab.build_s > 0.0 && lab.resident_bytes > 0 && lab.entries > 0);
        let (cold, warm) = augment_latency(&lab, 1, 3);
        assert!(cold.median > 0.0 && warm.median > 0.0);
        let sharded = mutation_throughput_sharded(&lab);
        let swap = mutation_throughput_swap(&lab);
        assert_eq!(sharded.mutations, MUTATIONS);
        assert!(sharded.qps > 0.0 && swap.qps > 0.0);
        assert!(sharded.reads > 0, "readers must make progress during mutations");
        // The full ≥5× claim is checked by bench_gate at 1e4 and by the
        // sweep at 1e6; at this tiny scale just require a win.
        assert!(
            sharded.mean_s < swap.mean_s,
            "sharded removals ({:.6}s) must beat whole-index swaps ({:.6}s)",
            sharded.mean_s,
            swap.mean_s
        );
    }

    #[test]
    fn hostile_labs_build_and_probe() {
        for family in TopologyFamily::ALL {
            let lab = build_hostile(family, 2_000);
            assert_eq!(lab.family, family);
            assert!(lab.build_s > 0.0 && lab.entries > 0 && lab.resident_bytes > 0);
            assert!(lab.relations > 0 && lab.objects >= 2_000, "{}", family.name());
            assert_eq!(lab.hub.is_some(), family == TopologyFamily::Supernode);
            let (cold, warm) =
                augment_latency_on(&lab.sharded, &lab.seeds, hostile_level(family), 3);
            assert!(cold.median > 0.0 && warm.median > 0.0, "{}", family.name());
        }
    }

    #[test]
    fn labels_and_median() {
        assert_eq!(scale_label(10_000), "1e4");
        assert_eq!(scale_label(1_000_000), "1e6");
        assert_eq!(scale_label(12_345), "12345");
        assert_eq!(sample::summarize(&mut [3.0, 1.0, 2.0]).median, 2.0);
    }
}
