//! Adversarial topology families: named, seeded p-relation shapes built
//! to break the assumptions uniform workloads leave untested.
//!
//! The music workload wires its A' index with *uniform density* — every
//! object has a comparable neighborhood, so augmentation cost is flat
//! across seeds and scales. Real polystore link graphs are not like
//! that, and each family here reproduces one hostile departure:
//!
//! * [`TopologyFamily::Supernode`] — one hub object carrying the
//!   configured number of p-relations (10⁵ at bench scale). Augmenting
//!   anywhere near the hub fans out over the entire satellite set in a
//!   single hop; the family stresses frontier growth, scratch sizing and
//!   the cost of removing the best-connected object in the index.
//! * [`TopologyFamily::DeepChain`] — parallel p-relation chains of depth
//!   [`DEEP_CHAIN_DEPTH`] (≥64). Multi-level augmentation walks genuine
//!   long paths instead of bottoming out in a shallow neighborhood; the
//!   family stresses per-hop bookkeeping and distance accounting.
//! * [`TopologyFamily::NearDup`] — clusters of [`NEAR_DUP_CLUSTER`]
//!   near-identical objects joined by identity chains. Identity inserts
//!   materialize the transitive clique, so every cluster multiplies its
//!   edges quadratically at build time; the family stresses linkage /
//!   clique materialization and the entry-count blowup it causes.
//!
//! Generation is pure: `(family, scale, seed)` fully determines the
//! topology, independent of the music generator's component streams (the
//! golden fingerprints over there must not move when families evolve).

use quepa_aindex::AIndex;
use quepa_pdm::{GlobalKey, Probability};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Depth of every deep-chain path (the family's defining floor).
pub const DEEP_CHAIN_DEPTH: usize = 64;

/// Objects per near-duplicate cluster. An identity chain over a cluster
/// materializes the full clique: `k·(k−1)/2` edges for `k` members.
pub const NEAR_DUP_CLUSTER: usize = 8;

/// Longest run of consecutive identity edges a deep chain may contain —
/// keeps clique materialization a bounded local effect so the chain's
/// cost stays in its *depth*, not in accidental cliques.
const DEEP_CHAIN_MAX_IDENTITY_RUN: usize = 3;

/// A named adversarial topology family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TopologyFamily {
    /// One hub object with `scale` p-relations.
    Supernode,
    /// `scale / DEEP_CHAIN_DEPTH` parallel chains of depth ≥64.
    DeepChain,
    /// `scale / NEAR_DUP_CLUSTER` identity-clique clusters on a matching
    /// backbone.
    NearDup,
}

impl TopologyFamily {
    /// Every family, in catalog order.
    pub const ALL: [TopologyFamily; 3] =
        [TopologyFamily::Supernode, TopologyFamily::DeepChain, TopologyFamily::NearDup];

    /// The stable name used in scenario files, baselines and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            TopologyFamily::Supernode => "supernode",
            TopologyFamily::DeepChain => "deep-chain",
            TopologyFamily::NearDup => "near-dup",
        }
    }

    /// Parses a [`name`](TopologyFamily::name) back.
    pub fn parse(name: &str) -> Option<TopologyFamily> {
        TopologyFamily::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Generates the family's topology at roughly `scale` explicit
    /// p-relations, fully determined by `(self, scale, seed)`.
    pub fn generate(self, scale: usize, seed: u64) -> HostileTopology {
        match self {
            TopologyFamily::Supernode => supernode(scale, seed),
            TopologyFamily::DeepChain => deep_chain(scale, seed),
            TopologyFamily::NearDup => near_dup(scale, seed),
        }
    }
}

/// One p-relation between topology-local object indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostileRelation {
    /// First endpoint (topology-local object index).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Identity (true) or matching (false).
    pub identity: bool,
    /// Probability in thousandths (1..=1000).
    pub prob_millis: u32,
}

/// A generated adversarial topology: objects `0..objects` and the
/// explicit p-relations between them. Structure only — callers map the
/// object indices onto stores (the check harness) or intern them
/// directly (the benches, via [`HostileTopology::index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostileTopology {
    /// The family this topology instantiates.
    pub family: TopologyFamily,
    /// The seed it was generated from.
    pub seed: u64,
    /// Total objects (indices `0..objects`).
    pub objects: usize,
    /// The hub object, if the family has one (supernode only).
    pub hub: Option<usize>,
    /// Designated augmentation probes: the objects a benchmark or check
    /// should seed its queries with to hit the family's hostile shape
    /// (the hub, chain heads, cluster representatives).
    pub probes: Vec<usize>,
    /// The explicit p-relations, in insertion order. Identity relations
    /// additionally materialize their transitive cliques on insert.
    pub relations: Vec<HostileRelation>,
}

impl HostileTopology {
    /// The global key of topology-local object `i` when the topology is
    /// interned directly (bench path; the check harness maps indices
    /// onto its own per-store keys instead).
    pub fn key(&self, i: usize) -> GlobalKey {
        GlobalKey::parse_parts("hostile", "objects", format!("o{i}"))
            .expect("hostile keys are well-formed")
    }

    /// Builds the A' index of this topology (bench path).
    pub fn index(&self) -> AIndex {
        let mut index = AIndex::new();
        for rel in &self.relations {
            let a = self.key(rel.a);
            let b = self.key(rel.b);
            let p = Probability::of(rel.prob_millis as f64 / 1000.0);
            if rel.identity {
                index.insert_identity(&a, &b, p);
            } else {
                index.insert_matching(&a, &b, p);
            }
        }
        index
    }

    /// The probe objects as global keys (bench path).
    pub fn probe_keys(&self) -> Vec<GlobalKey> {
        self.probes.iter().map(|&i| self.key(i)).collect()
    }
}

/// One hub (object 0) with `scale` matching spokes to satellites
/// `1..=scale`, plus a sparse sprinkle of disjoint satellite–satellite
/// identity pairs (near-identical leaves under the same hub). The spokes
/// are *matching*, not identity — an identity hub would materialize the
/// O(scale²) clique at build time and the family would measure the
/// materializer, not the traversal.
fn supernode(scale: usize, seed: u64) -> HostileTopology {
    let scale = scale.max(2);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut relations = Vec::with_capacity(scale + scale / 32);
    for i in 1..=scale {
        relations.push(HostileRelation {
            a: 0,
            b: i,
            identity: false,
            prob_millis: rng.gen_range(300..=900),
        });
    }
    // Disjoint identity pairs on ~2% of satellites: small cliques of 2
    // that ride the hub's fan-out without compounding it.
    let mut i = 1;
    while i < scale {
        if rng.gen_range(0..100) < 2 {
            relations.push(HostileRelation {
                a: i,
                b: i + 1,
                identity: true,
                prob_millis: rng.gen_range(850..=990),
            });
            i += 2;
        } else {
            i += 1;
        }
    }
    // Probes: the hub plus satellites strided across the spoke range —
    // augmenting from a satellite crosses the hub and fans back out.
    let mut probes = vec![0];
    let stride = (scale / 7).max(1);
    probes.extend((1..=scale).step_by(stride).take(7));
    HostileTopology {
        family: TopologyFamily::Supernode,
        seed,
        objects: scale + 1,
        hub: Some(0),
        probes,
        relations,
    }
}

/// `max(1, scale / DEEP_CHAIN_DEPTH)` parallel chains, each a path of
/// [`DEEP_CHAIN_DEPTH`] p-relations. Mostly matching edges with short
/// identity runs (capped at [`DEEP_CHAIN_MAX_IDENTITY_RUN`]), so the
/// chains are long *paths*, not accidental cliques.
fn deep_chain(scale: usize, seed: u64) -> HostileTopology {
    let depth = DEEP_CHAIN_DEPTH;
    let chains = (scale / depth).max(1);
    let span = depth + 1;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut relations = Vec::with_capacity(chains * depth);
    let mut probes = Vec::with_capacity(chains.min(50));
    for c in 0..chains {
        let base = c * span;
        if probes.len() < 50 {
            probes.push(base);
        }
        let mut identity_run = 0usize;
        for j in 0..depth {
            let identity = identity_run < DEEP_CHAIN_MAX_IDENTITY_RUN && rng.gen_range(0..100) < 15;
            identity_run = if identity { identity_run + 1 } else { 0 };
            relations.push(HostileRelation {
                a: base + j,
                b: base + j + 1,
                identity,
                prob_millis: if identity {
                    rng.gen_range(850..=990)
                } else {
                    rng.gen_range(600..=950)
                },
            });
        }
    }
    HostileTopology {
        family: TopologyFamily::DeepChain,
        seed,
        objects: chains * span,
        hub: None,
        probes,
        relations,
    }
}

/// `max(1, scale / NEAR_DUP_CLUSTER)` clusters of [`NEAR_DUP_CLUSTER`]
/// near-identical objects. Each cluster is an identity *chain* whose
/// insertion materializes the full clique — `k·(k−1)/2` edges per
/// cluster — and cluster representatives sit on a matching backbone so
/// augmentation can walk from clique to clique.
fn near_dup(scale: usize, seed: u64) -> HostileTopology {
    let k = NEAR_DUP_CLUSTER;
    let clusters = (scale / k).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut relations = Vec::with_capacity(clusters * k);
    let mut probes = Vec::with_capacity(clusters.min(50));
    let probe_stride = (clusters / 50).max(1);
    for c in 0..clusters {
        let base = c * k;
        if c % probe_stride == 0 && probes.len() < 50 {
            probes.push(base);
        }
        for j in 0..k - 1 {
            relations.push(HostileRelation {
                a: base + j,
                b: base + j + 1,
                identity: true,
                prob_millis: rng.gen_range(900..=995),
            });
        }
        if c + 1 < clusters {
            relations.push(HostileRelation {
                a: base,
                b: base + k,
                identity: false,
                prob_millis: rng.gen_range(400..=800),
            });
        }
    }
    HostileTopology {
        family: TopologyFamily::NearDup,
        seed,
        objects: clusters * k,
        hub: None,
        probes,
        relations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        for family in TopologyFamily::ALL {
            let a = family.generate(1_000, 7);
            let b = family.generate(1_000, 7);
            assert_eq!(a, b, "{}: same seed ⇒ same topology", family.name());
            let c = family.generate(1_000, 8);
            assert_ne!(a, c, "{}: different seed ⇒ different topology", family.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for family in TopologyFamily::ALL {
            assert_eq!(TopologyFamily::parse(family.name()), Some(family));
        }
        assert_eq!(TopologyFamily::parse("uniform"), None);
    }

    #[test]
    fn supernode_hub_carries_the_scale() {
        let topo = TopologyFamily::Supernode.generate(500, 3);
        assert_eq!(topo.hub, Some(0));
        assert_eq!(topo.objects, 501);
        let spokes =
            topo.relations.iter().filter(|r| !r.identity && (r.a == 0 || r.b == 0)).count();
        assert_eq!(spokes, 500, "every satellite hangs off the hub");
        assert!(
            topo.relations.iter().filter(|r| r.identity).all(|r| r.a != 0 && r.b != 0),
            "identity edges never touch the hub (no O(n²) clique)"
        );
        assert!(topo.probes.contains(&0));
    }

    #[test]
    fn deep_chains_are_full_depth_paths_with_bounded_identity_runs() {
        let topo = TopologyFamily::DeepChain.generate(4 * DEEP_CHAIN_DEPTH, 9);
        assert_eq!(topo.relations.len(), 4 * DEEP_CHAIN_DEPTH);
        assert_eq!(topo.objects, 4 * (DEEP_CHAIN_DEPTH + 1));
        assert_eq!(topo.probes.len(), 4);
        let mut run = 0usize;
        for r in &topo.relations {
            assert_eq!(r.b, r.a + 1, "chains are consecutive paths");
            run = if r.identity { run + 1 } else { 0 };
            assert!(run <= DEEP_CHAIN_MAX_IDENTITY_RUN, "identity run exceeded the cap");
        }
    }

    #[test]
    fn near_dup_clusters_materialize_cliques() {
        let topo = TopologyFamily::NearDup.generate(4 * NEAR_DUP_CLUSTER, 5);
        let identity = topo.relations.iter().filter(|r| r.identity).count();
        assert_eq!(identity, 4 * (NEAR_DUP_CLUSTER - 1), "one identity chain per cluster");
        let index = topo.index();
        // Each cluster's chain materializes the full k-clique:
        // the interned edge count must exceed the explicit relations.
        let k = NEAR_DUP_CLUSTER;
        let explicit = topo.relations.len();
        let clique_edges = 4 * (k * (k - 1)) / 2;
        let stats = index.stats();
        assert!(
            stats.identity_edges >= clique_edges,
            "clique materialization must blow up the edge count: {} < {clique_edges}",
            stats.identity_edges
        );
        assert!(explicit < clique_edges);
    }

    #[test]
    fn probes_augment_into_the_hostile_shape() {
        for family in TopologyFamily::ALL {
            let topo = family.generate(256, 11);
            let index = topo.index();
            let sharded = quepa_aindex::ShardedIndex::new(index);
            let view = sharded.view();
            let probes = topo.probe_keys();
            let (out, _) = view.augment_multi(&probes, 1);
            assert!(!out.is_empty(), "{}: probes must reach neighbors", family.name());
        }
    }
}
