//! The reference model: a deliberately naive, obviously-correct
//! implementation of the A' index and the augmentation operator, straight
//! off the paper's definitions.
//!
//! No CSR, no scratch pools, no caches, no sharding, no batching — plain
//! `Vec`s and per-hop cloning. The model exists to be *read and believed*,
//! so the driver can hold the real system to it:
//!
//! * **Closure** (Definitions 1–2, Consistency Condition): identity
//!   inserts materialize transitive identities and propagate matchings;
//!   matching inserts spread across both identity cliques. The model
//!   replays the same per-relation insertion discipline the real index
//!   documents (snapshot the cliques, then propagate reading live state),
//!   with probabilities combined in the same order — so a correct real
//!   index agrees *bit for bit*, and any divergence in the CSR build,
//!   dedup, or adjacency bookkeeping shows up as an edge- or answer-set
//!   mismatch.
//! * **Augmentation** (Definition 3): a layered dynamic program —
//!   `f[h][n] = max(f[h-1][n], max over edges (m,n) of f[h-1][m]·p)` with
//!   seeds pinned at 1 — instead of the real label-correcting BFS. Both
//!   compute, for every node, the maximum walk-product within `level + 1`
//!   hops and the first hop achieving it, but by different algorithms:
//!   exactly what differential testing wants.
//! * **Partial answers** (PR 2): which referenced keys must come back
//!   `missing`, and with which structured reason, under a fault plan.

use std::collections::BTreeMap;

use quepa_pdm::{GlobalKey, Probability};

/// The kind of a p-relation edge (mirrors `quepa_aindex::RelationKind`
/// without depending on its representation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModelKind {
    /// Identity: same real-world entity.
    Identity,
    /// Matching: related entities.
    Matching,
}

#[derive(Debug, Clone)]
struct ModelEdge {
    a: usize,
    b: usize,
    kind: ModelKind,
    prob: Probability,
    alive: bool,
}

impl ModelEdge {
    fn other(&self, n: usize) -> usize {
        if self.a == n {
            self.b
        } else {
            self.a
        }
    }
}

/// One augmented key as the model predicts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelAugmented {
    /// The related key.
    pub key: GlobalKey,
    /// Best walk-product probability within the hop budget.
    pub probability: Probability,
    /// First hop count achieving that probability.
    pub distance: usize,
}

/// The naive reference index.
#[derive(Debug, Clone, Default)]
pub struct ModelIndex {
    keys: Vec<GlobalKey>,
    ids: BTreeMap<GlobalKey, usize>,
    alive_node: Vec<bool>,
    edges: Vec<ModelEdge>,
    /// Per node: incident edge ids in creation order (the order the real
    /// index's adjacency preserves, and the order propagation reads).
    adjacency: Vec<Vec<usize>>,
    /// (min node, max node, kind) → edge id, for keep-higher dedup.
    pair: BTreeMap<(usize, usize, ModelKind), usize>,
}

impl ModelIndex {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, key: &GlobalKey) -> usize {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.keys.len();
        self.keys.push(key.clone());
        self.alive_node.push(true);
        self.adjacency.push(Vec::new());
        self.ids.insert(key.clone(), id);
        id
    }

    /// Adds or strengthens an edge; `None` for reflexive pairs. Duplicate
    /// edges keep the higher probability, exactly like the real index.
    fn add_edge(
        &mut self,
        a: usize,
        b: usize,
        kind: ModelKind,
        prob: Probability,
    ) -> Option<usize> {
        if a == b {
            return None;
        }
        let key = (a.min(b), a.max(b), kind);
        if let Some(&eid) = self.pair.get(&key) {
            if prob > self.edges[eid].prob {
                self.edges[eid].prob = prob;
            }
            return Some(eid);
        }
        let eid = self.edges.len();
        self.edges.push(ModelEdge { a: key.0, b: key.1, kind, prob, alive: true });
        self.adjacency[key.0].push(eid);
        self.adjacency[key.1].push(eid);
        self.pair.insert(key, eid);
        Some(eid)
    }

    /// The identity clique around `n`: `(other, probability)` in
    /// canonical neighbour-key order — the same order the real index
    /// iterates, so composed probability bits match exactly.
    fn identity_clique(&self, n: usize) -> Vec<(usize, Probability)> {
        let mut out: Vec<_> = self.adjacency[n]
            .iter()
            .map(|&eid| &self.edges[eid])
            .filter(|e| e.alive && e.kind == ModelKind::Identity)
            .filter(|e| self.alive_node[e.other(n)])
            .map(|e| (e.other(n), e.prob))
            .collect();
        out.sort_unstable_by(|x, y| self.keys[x.0].cmp(&self.keys[y.0]));
        out
    }

    /// The matchings of `n`, in canonical neighbour-key order.
    fn matchings(&self, n: usize) -> Vec<(usize, Probability)> {
        let mut out: Vec<_> = self.adjacency[n]
            .iter()
            .map(|&eid| &self.edges[eid])
            .filter(|e| e.alive && e.kind == ModelKind::Matching)
            .filter(|e| self.alive_node[e.other(n)])
            .map(|e| (e.other(n), e.prob))
            .collect();
        out.sort_unstable_by(|x, y| self.keys[x.0].cmp(&self.keys[y.0]));
        out
    }

    /// Inserts an identity p-relation `a ~_p b`: snapshot both cliques,
    /// link them (x∈A×{b}, {a}×y∈B, x∈A×y∈B), then propagate matchings
    /// across every new identity edge reading live state.
    pub fn insert_identity(&mut self, a: &GlobalKey, b: &GlobalKey, p: Probability) {
        let na = self.intern(a);
        let nb = self.intern(b);
        if na == nb {
            return;
        }
        let clique_a = self.identity_clique(na);
        let clique_b = self.identity_clique(nb);

        let Some(direct) = self.add_edge(na, nb, ModelKind::Identity, p) else { return };

        let mut new_identity_edges: Vec<(usize, usize, usize)> = vec![(na, nb, direct)];
        for &(x, p_xa) in &clique_a {
            if let Some(eid) = self.add_edge(x, nb, ModelKind::Identity, p_xa.and(p)) {
                new_identity_edges.push((x, nb, eid));
            }
        }
        for &(y, p_by) in &clique_b {
            if let Some(eid) = self.add_edge(na, y, ModelKind::Identity, p.and(p_by)) {
                new_identity_edges.push((na, y, eid));
            }
        }
        for &(x, p_xa) in &clique_a {
            for &(y, p_by) in &clique_b {
                if x == y {
                    continue;
                }
                if let Some(eid) = self.add_edge(x, y, ModelKind::Identity, p_xa.and(p).and(p_by)) {
                    new_identity_edges.push((x, y, eid));
                }
            }
        }

        // Consistency Condition, reading *live* state per new edge.
        for (x, y, id_edge) in new_identity_edges {
            let p_xy = self.edges[id_edge].prob;
            for (m, q) in self.matchings(x) {
                if m != y {
                    self.add_edge(m, y, ModelKind::Matching, q.and(p_xy));
                }
            }
            for (m, q) in self.matchings(y) {
                if m != x {
                    self.add_edge(m, x, ModelKind::Matching, q.and(p_xy));
                }
            }
        }
    }

    /// Inserts a matching p-relation `a ≡_p b` and spreads it across the
    /// identity cliques of both endpoints.
    pub fn insert_matching(&mut self, a: &GlobalKey, b: &GlobalKey, p: Probability) {
        let na = self.intern(a);
        let nb = self.intern(b);
        if na == nb {
            return;
        }
        let Some(_direct) = self.add_edge(na, nb, ModelKind::Matching, p) else { return };
        let clique_a = self.identity_clique(na);
        let clique_b = self.identity_clique(nb);
        // a ≡ y for y ∈ clique(b).
        let mut a_to: Vec<(usize, Probability)> = vec![(nb, p)];
        for &(y, p_by) in &clique_b {
            if y == na {
                continue;
            }
            let prob = p.and(p_by);
            if self.add_edge(na, y, ModelKind::Matching, prob).is_some() {
                a_to.push((y, prob));
            }
        }
        // x ≡ y for x ∈ clique(a) × the ys above.
        for &(x, p_xa) in &clique_a {
            for &(y, p_ay) in &a_to {
                if x != y {
                    self.add_edge(x, y, ModelKind::Matching, p_xa.and(p_ay));
                }
            }
        }
    }

    /// Removes a key: the node dies and every incident edge dies with it,
    /// but edges *inferred through* it between surviving nodes remain —
    /// exactly the real index's lazy-deletion semantics (`remove_object`).
    pub fn remove_key(&mut self, key: &GlobalKey) {
        let Some(&n) = self.ids.get(key) else { return };
        self.alive_node[n] = false;
        for &eid in &self.adjacency[n] {
            self.edges[eid].alive = false;
        }
    }

    /// Number of interned keys.
    pub fn node_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All keys the model knows.
    pub fn keys(&self) -> impl Iterator<Item = &GlobalKey> {
        self.keys.iter()
    }

    /// The edge set in a canonical normal form: `(min key, max key, kind,
    /// probability bits)` — for differential comparison against the real
    /// index's `live_edges()`.
    pub fn edge_set(&self) -> std::collections::BTreeSet<(String, String, ModelKind, u64)> {
        self.edges
            .iter()
            .filter(|e| e.alive && self.alive_node[e.a] && self.alive_node[e.b])
            .map(|e| {
                let (ka, kb) = (self.keys[e.a].to_string(), self.keys[e.b].to_string());
                let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
                (lo, hi, e.kind, e.prob.get().to_bits())
            })
            .collect()
    }

    /// **The augmentation operator**, as a layered dynamic program.
    ///
    /// `f[0][seed] = 1`; for each hop `h ≤ level + 1`,
    /// `f[h][n] = max(f[h-1][n], max over live edges (m,n) of f[h-1][m]·p)`.
    /// The answer is every non-seed node with `f[H][n]` defined, carrying
    /// `probability = f[H][n]` and `distance = min h with f[h][n] = f[H][n]`
    /// (tracked as the hop of the last strict improvement), ordered by
    /// probability descending then key ascending.
    pub fn augment(&self, seeds: &[GlobalKey], level: usize) -> Vec<ModelAugmented> {
        let n = self.keys.len();
        let mut best: Vec<Option<Probability>> = vec![None; n];
        let mut dist: Vec<usize> = vec![0; n];
        let mut is_seed = vec![false; n];
        for key in seeds {
            if let Some(&i) = self.ids.get(key) {
                if self.alive_node[i] {
                    best[i] = Some(Probability::ONE);
                    is_seed[i] = true;
                }
            }
        }
        let max_hops = level + 1;
        for hop in 1..=max_hops {
            // Strictly layered: hop h reads only f[h-1].
            let prev = best.clone();
            for e in self.edges.iter().filter(|e| e.alive) {
                if !self.alive_node[e.a] || !self.alive_node[e.b] {
                    continue;
                }
                for (m, to) in [(e.a, e.b), (e.b, e.a)] {
                    let Some(pm) = prev[m] else { continue };
                    let cand = pm.and(e.prob);
                    if best[to].is_none_or(|b| cand > b) {
                        best[to] = Some(cand);
                        dist[to] = hop;
                    }
                }
            }
        }
        let mut out: Vec<ModelAugmented> = (0..n)
            .filter(|&i| !is_seed[i] && self.alive_node[i])
            .filter_map(|i| {
                best[i].map(|probability| ModelAugmented {
                    key: self.keys[i].clone(),
                    probability,
                    distance: dist[i],
                })
            })
            .collect();
        out.sort_by(|x, y| y.probability.cmp(&x.probability).then_with(|| x.key.cmp(&y.key)));
        out
    }

    /// Per-seed hop distances (unweighted), for the ownership oracle: the
    /// owner of an augmented key is the lowest seed index whose hop
    /// distance to it is within `level + 1`.
    pub fn owners(&self, seeds: &[GlobalKey], level: usize) -> BTreeMap<GlobalKey, u32> {
        let max_hops = level + 1;
        let n = self.keys.len();
        let mut owner: Vec<Option<u32>> = vec![None; n];
        for (j, key) in seeds.iter().enumerate() {
            let Some(&start) = self.ids.get(key) else { continue };
            if !self.alive_node[start] {
                continue;
            }
            // Plain BFS from this seed.
            let mut hops: Vec<Option<usize>> = vec![None; n];
            hops[start] = Some(0);
            let mut frontier = vec![start];
            for h in 1..=max_hops {
                let mut next = Vec::new();
                for &m in &frontier {
                    for &eid in &self.adjacency[m] {
                        if !self.edges[eid].alive {
                            continue;
                        }
                        let to = self.edges[eid].other(m);
                        if self.alive_node[to] && hops[to].is_none() {
                            hops[to] = Some(h);
                            next.push(to);
                        }
                    }
                }
                frontier = next;
            }
            for i in 0..n {
                if hops[i].is_some() && owner[i].is_none() {
                    owner[i] = Some(j as u32);
                }
            }
        }
        let seed_ids: Vec<usize> = seeds.iter().filter_map(|k| self.ids.get(k).copied()).collect();
        (0..n)
            .filter(|i| !seed_ids.contains(i))
            .filter_map(|i| owner[i].map(|o| (self.keys[i].clone(), o)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_aindex::{AIndex, IndexView};

    fn key(s: &str) -> GlobalKey {
        s.parse().unwrap()
    }

    fn p(v: f64) -> Probability {
        Probability::of(v)
    }

    /// Hand-checkable closure: a chain of identities forms a clique with
    /// product probabilities, and a matching spreads over it.
    #[test]
    fn closure_matches_paper_example() {
        let mut m = ModelIndex::new();
        m.insert_identity(&key("d1.c.a"), &key("d2.c.b"), p(0.9));
        m.insert_identity(&key("d2.c.b"), &key("d3.c.c"), p(0.8));
        // Transitivity: a ~ c with 0.8 · 0.9 (clique iteration order).
        assert_eq!(m.edge_count(), 3);
        m.insert_matching(&key("d1.c.a"), &key("d4.c.m"), p(0.5));
        // Consistency: m ≡ b and m ≡ c materialize too.
        assert_eq!(m.edge_count(), 6);
        let out = m.augment(&[key("d4.c.m")], 0);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].key, key("d1.c.a"));
        assert!((out[0].probability.get() - 0.5).abs() < 1e-12);
    }

    /// The model and the real index agree bit-for-bit on a mixed insert
    /// sequence — edge sets and augmented answers.
    #[test]
    fn agrees_with_real_index_on_mixed_sequence() {
        let inserts: Vec<(&str, &str, f64, bool)> = vec![
            ("d0.c.k0", "d1.c.k1", 0.9, true),
            ("d1.c.k1", "d2.c.k2", 0.85, true),
            ("d0.c.k3", "d1.c.k1", 0.7, false),
            ("d2.c.k2", "d2.c.k4", 0.6, false),
            ("d0.c.k0", "d2.c.k5", 0.95, true),
            ("d0.c.k3", "d2.c.k4", 0.8, false),
            ("d1.c.k1", "d0.c.k0", 0.99, true), // duplicate, keeps higher
        ];
        let mut real = AIndex::new();
        let mut model = ModelIndex::new();
        for &(a, b, prob, identity) in &inserts {
            let (a, b, prob) = (key(a), key(b), p(prob));
            if identity {
                real.insert_identity(&a, &b, prob);
                model.insert_identity(&a, &b, prob);
            } else {
                real.insert_matching(&a, &b, prob);
                model.insert_matching(&a, &b, prob);
            }
        }
        let real_edges: std::collections::BTreeSet<_> = real
            .live_edges()
            .into_iter()
            .map(|(a, b, kind, prob, _)| {
                let (a, b) = (a.to_string(), b.to_string());
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let kind = match kind {
                    quepa_pdm::RelationKind::Identity => ModelKind::Identity,
                    quepa_pdm::RelationKind::Matching => ModelKind::Matching,
                };
                (lo, hi, kind, prob.get().to_bits())
            })
            .collect();
        assert_eq!(real_edges, model.edge_set());

        for level in 0..3 {
            let seeds = [key("d0.c.k0"), key("d0.c.k3")];
            let real_out = IndexView::of(&real).augment(&seeds, level);
            let model_out = model.augment(&seeds, level);
            assert_eq!(real_out.len(), model_out.len(), "level {level}");
            for (r, m) in real_out.iter().zip(&model_out) {
                assert_eq!(r.key, m.key, "level {level}");
                assert_eq!(r.probability.get().to_bits(), m.probability.get().to_bits());
                assert_eq!(r.distance, m.distance);
            }
        }
    }

    #[test]
    fn seeds_are_excluded_and_unknown_seeds_ignored() {
        let mut m = ModelIndex::new();
        m.insert_matching(&key("d0.c.a"), &key("d1.c.b"), p(0.5));
        let out = m.augment(&[key("d0.c.a"), key("d9.c.ghost")], 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, key("d1.c.b"));
        assert_eq!(out[0].distance, 1);
    }

    #[test]
    fn ownership_is_lowest_seed_within_budget() {
        let mut m = ModelIndex::new();
        // s0 - x - y,  s1 - y
        m.insert_matching(&key("d0.c.s0"), &key("d1.c.x"), p(0.9));
        m.insert_matching(&key("d1.c.x"), &key("d1.c.y"), p(0.9));
        m.insert_matching(&key("d0.c.s1"), &key("d1.c.y"), p(0.9));
        let owners = m.owners(&[key("d0.c.s0"), key("d0.c.s1")], 0);
        // Budget 1 hop: x owned by seed 0; y reachable only from seed 1.
        assert_eq!(owners.get(&key("d1.c.x")), Some(&0));
        assert_eq!(owners.get(&key("d1.c.y")), Some(&1));
        let owners = m.owners(&[key("d0.c.s0"), key("d0.c.s1")], 1);
        // Budget 2: seed 0 reaches y too and is lower-indexed.
        assert_eq!(owners.get(&key("d1.c.y")), Some(&0));
    }
}
