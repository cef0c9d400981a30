//! The A' index writer: [`AIndex`] decides what a mutation does — key
//! interning, liveness and incarnations, edge dedup, transitivity
//! materialization, the Consistency Condition — and does it by editing
//! the shard states of [`crate::shard`], the one store of the graph. It
//! does not traverse: the augmentation primitive lives once, in
//! [`crate::shard::IndexView`], which reads the same states.
//!
//! Beside the shard states the writer keeps only the pair index: one id
//! per endpoint pair and kind, issued in creation order and kept by a
//! deleted edge so that its revival takes its old place, plus which
//! endpoint the edge was first inserted from.

use std::sync::Arc;

use quepa_pdm::{GlobalKey, Probability, RelationKind};

use crate::shard::{
    make_ref, route, shard_of, slot_of, word, Graph, HalfEdge, Map, NodeRef, OverlayNode, Shard,
    ShardBase,
};

/// Where an edge came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOrigin {
    /// Inserted by the Collector (or by hand).
    Direct,
    /// Materialized by transitivity / the Consistency Condition. Deleting
    /// a relation keeps the edges inferred from it (§III-C(b)).
    Inferred,
    /// Added by p-relation promotion from a frequently traversed path.
    Promoted,
}

/// One element of an augmented answer: a related global key, the
/// probability that it is related to a seed, and its hop distance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AugmentedKey {
    /// The related object's global key.
    pub key: GlobalKey,
    /// Best path-product probability from any seed.
    pub probability: Probability,
    /// Hop distance of the best (highest-probability) path.
    pub distance: usize,
}

/// Size statistics of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Live nodes.
    pub nodes: usize,
    /// Live identity edges.
    pub identity_edges: usize,
    /// Live matching edges.
    pub matching_edges: usize,
    /// Edges that were materialized by inference.
    pub inferred_edges: usize,
    /// Edges added by promotion.
    pub promoted_edges: usize,
}

impl IndexStats {
    /// Tallies one live edge.
    pub(crate) fn count_edge(&mut self, kind: RelationKind, origin: EdgeOrigin) {
        match kind {
            RelationKind::Identity => self.identity_edges += 1,
            RelationKind::Matching => self.matching_edges += 1,
        }
        match origin {
            EdgeOrigin::Inferred => self.inferred_edges += 1,
            EdgeOrigin::Promoted => self.promoted_edges += 1,
            EdgeOrigin::Direct => {}
        }
    }
}

/// The A' index ledger: one node per global key, identity/matching
/// edges with probabilities. Read it through an
/// [`IndexView`](crate::shard::IndexView).
#[derive(Debug, Clone, Default)]
pub struct AIndex {
    /// The graph, one state per shard.
    pub(crate) graph: Graph,
    /// `(min(a, b), max(a, b), kind)` → the edge's id shifted left by
    /// one, with the low bit set if `min` is the end it was first
    /// inserted from.
    pair_index: Map<(NodeRef, NodeRef, RelationKind), u32>,
}

impl AIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node of `key`, creating it in the next slot of its home shard
    /// if the key is new and resurrecting it (next incarnation, empty
    /// entry) if it was lazily deleted.
    fn intern(&mut self, key: &GlobalKey) -> NodeRef {
        if let Some(n) = self.graph.name(key) {
            if !self.graph.alive(n) {
                let node = self.node_mut(n);
                node.alive = true;
                node.inc += 1;
            }
            return n;
        }
        let shard = route(key);
        let state = self.shard_mut(shard);
        let slot = state.slots();
        state.overlay.keys.push(key.clone());
        state.overlay.names.insert(key.clone(), slot);
        state.overlay.fresh.push(OverlayNode { alive: true, inc: 0, edges: Vec::new() });
        make_ref(shard, slot)
    }

    // -- editing the shard states ------------------------------------------

    /// Shard `s`'s state for editing, copied first if a view shares it.
    /// Edits land in the overlay, which [`ShardedIndex`] folds at
    /// publication.
    ///
    /// [`ShardedIndex`]: crate::ShardedIndex
    fn shard_mut(&mut self, s: usize) -> &mut Shard {
        Arc::make_mut(&mut self.graph.shards[s])
    }

    /// Node `n`'s entry for editing, copied from the base on first edit.
    fn node_mut(&mut self, n: NodeRef) -> &mut OverlayNode {
        self.shard_mut(shard_of(n)).node_mut(slot_of(n))
    }

    /// Folds every non-empty overlay into its base. The state words of
    /// all shards are worked out first, so checking a half-edge's far end
    /// is an array lookup rather than an overlay probe.
    pub(crate) fn fold_all(&mut self) {
        let words: Vec<Vec<u32>> = self.graph.shards.iter().map(|s| s.state_words()).collect();
        let live = |e: &HalfEdge| {
            words[shard_of(e.other)][slot_of(e.other) as usize] == word(true, e.other_inc)
        };
        for (s, shard_words) in words.iter().enumerate() {
            if !self.graph.shards[s].overlay.is_empty() {
                let packed = self.graph.shards[s].pack(shard_words, live);
                self.install(s, shard_words.clone(), packed);
            }
        }
    }

    /// Folds shard `s`'s overlay into a fresh packed base.
    pub(crate) fn fold(&mut self, s: usize) {
        let words = self.graph.shards[s].state_words();
        let packed = self.graph.shards[s].pack(&words, |e| self.graph.target(e).is_some());
        self.install(s, words, packed);
    }

    /// Makes shard `s`'s base the packed entries and state words, with
    /// its overlay's keys. A base no view shares hands its keys over
    /// instead of having them copied.
    fn install(&mut self, s: usize, states: Vec<u32>, (offsets, edges): (Vec<u32>, Vec<HalfEdge>)) {
        let state = self.shard_mut(s);
        let overlay = std::mem::take(&mut state.overlay);
        let (mut keys, mut names) = match Arc::get_mut(&mut state.base) {
            Some(base) => (std::mem::take(&mut base.keys), std::mem::take(&mut base.names)),
            None => (state.base.keys.clone(), state.base.names.clone()),
        };
        keys.extend(overlay.keys);
        if names.is_empty() {
            names = overlay.names;
        } else {
            names.extend(overlay.names);
        }
        state.base = Arc::new(ShardBase::new(names, keys, states, offsets, edges));
    }

    // -- reads --------------------------------------------------------------

    /// True if the key has a live node.
    pub fn contains(&self, key: &GlobalKey) -> bool {
        self.graph.resolve(key).is_some()
    }

    /// Live-node count.
    pub fn node_count(&self) -> usize {
        self.graph.live_nodes().count()
    }

    /// Live-edge count (both kinds).
    pub fn edge_count(&self) -> usize {
        let s = self.stats();
        s.identity_edges + s.matching_edges
    }

    /// Detailed size statistics.
    pub fn stats(&self) -> IndexStats {
        self.graph.stats()
    }

    /// Iterates over the live keys, shard by shard in slot order.
    pub fn keys(&self) -> impl Iterator<Item = &GlobalKey> {
        self.graph.live_nodes().map(|n| self.graph.key_of(n))
    }

    // -- edge plumbing -----------------------------------------------------

    fn pair(a: NodeRef, b: NodeRef, kind: RelationKind) -> (NodeRef, NodeRef, RelationKind) {
        if a <= b {
            (a, b, kind)
        } else {
            (b, a, kind)
        }
    }

    /// Adds (or strengthens) an edge; false for a reflexive pair.
    /// Existing edges keep the *higher* probability (a second evidence
    /// source never weakens a relation); a deleted edge is revived with
    /// its old id and orientation.
    fn add_edge(
        &mut self,
        a: NodeRef,
        b: NodeRef,
        kind: RelationKind,
        prob: Probability,
        origin: EdgeOrigin,
    ) -> bool {
        if a == b {
            return false; // reflexivity is implicit
        }
        let next = u32::try_from(self.pair_index.len()).ok().filter(|&id| id < 1 << 31);
        let fresh = next.expect("edge ids fit in 31 bits") << 1 | (a < b) as u32;
        let tag = *self.pair_index.entry(Self::pair(a, b, kind)).or_insert(fresh);
        let id = tag >> 1;
        match self.live_half(a, id) {
            Some(e) if prob > e.prob => self.link(a, HalfEdge { prob, ..e }),
            Some(_) => {}
            None => {
                let (other_inc, first) = (self.graph.inc(b), (tag & 1 == 1) == (a < b));
                self.link(a, HalfEdge { other: b, other_inc, prob, id, kind, origin, first });
            }
        }
        true
    }

    /// Writes `e` into `a`'s entry and its mirror into the far end's,
    /// each at its id's place (replacing a stale half with that id).
    fn link(&mut self, a: NodeRef, e: HalfEdge) {
        let mirror = HalfEdge { other: a, other_inc: self.graph.inc(a), first: !e.first, ..e };
        for (n, half) in [(a, e), (e.other, mirror)] {
            let entry = &mut self.node_mut(n).edges;
            match entry.binary_search_by_key(&half.id, |h| h.id) {
                Ok(i) => entry[i] = half,
                Err(i) => entry.insert(i, half),
            }
        }
    }

    /// The live half-edge of edge `id` in `n`'s entry.
    fn live_half(&self, n: NodeRef, id: u32) -> Option<HalfEdge> {
        let entry = self.graph.edges(n);
        let e = entry[entry.binary_search_by_key(&id, |h| h.id).ok()?];
        self.graph.target(&e).map(|_| e)
    }

    /// The live `kind` edge between two nodes, as `a`'s half.
    fn edge_between(&self, a: NodeRef, b: NodeRef, kind: RelationKind) -> Option<HalfEdge> {
        self.live_half(a, self.pair_index.get(&Self::pair(a, b, kind))? >> 1)
    }

    /// The live `kind` neighbours of `n` with their edges' probabilities
    /// (for identity: the rest of its clique, by the closure invariant).
    ///
    /// Sorted by the neighbour's key, **not** entry order:
    /// materialization composes floating-point products while iterating
    /// these lists and feeds stored values back into later offers, so
    /// the bits it produces depend on iteration order. Canonical order
    /// makes every insert a pure function of the live edge-value map —
    /// which is what lets durable recovery (rebuild the graph from a
    /// checkpoint, whose edge order differs from the original
    /// insertion order, then replay the WAL tail) answer bit-identically
    /// to the never-crashed instance.
    ///
    /// The kind is tested before liveness: a hub's clique lookup skips
    /// its many matchings without visiting their far ends.
    fn related(&self, n: NodeRef, kind: RelationKind) -> Vec<(NodeRef, Probability)> {
        let graph = &self.graph;
        let mut out: Vec<_> = graph
            .edges(n)
            .iter()
            .filter(|e| e.kind == kind && graph.target(e).is_some())
            .map(|e| (e.other, e.prob))
            .collect();
        out.sort_unstable_by(|x, y| graph.key_of(x.0).cmp(graph.key_of(y.0)));
        out
    }

    fn identity_clique(&self, n: NodeRef) -> Vec<(NodeRef, Probability)> {
        self.related(n, RelationKind::Identity)
    }

    fn matching_edges_of(&self, n: NodeRef) -> Vec<(NodeRef, Probability)> {
        self.related(n, RelationKind::Matching)
    }

    // -- public mutation ----------------------------------------------------

    /// Inserts an identity p-relation `a ~_p b`, materializing transitive
    /// identities (Example 7) and the matchings required by the Consistency
    /// Condition.
    pub fn insert_identity(&mut self, a: &GlobalKey, b: &GlobalKey, p: Probability) {
        let na = self.intern(a);
        let nb = self.intern(b);
        if na == nb {
            return;
        }
        // Snapshot the two cliques *before* linking them.
        let clique_a = self.identity_clique(na);
        let clique_b = self.identity_clique(nb);
        self.add_edge(na, nb, RelationKind::Identity, p, EdgeOrigin::Direct);

        // Cross-materialize identities: x∈A×{b}, {a}×y∈B, and x∈A×y∈B.
        let inferred = EdgeOrigin::Inferred;
        let mut new_identity_edges: Vec<(NodeRef, NodeRef)> = vec![(na, nb)];
        for &(x, p_xa) in &clique_a {
            if self.add_edge(x, nb, RelationKind::Identity, p_xa.and(p), inferred) {
                new_identity_edges.push((x, nb));
            }
        }
        for &(y, p_by) in &clique_b {
            if self.add_edge(na, y, RelationKind::Identity, p.and(p_by), inferred) {
                new_identity_edges.push((na, y));
            }
        }
        for &(x, p_xa) in &clique_a {
            for &(y, p_by) in &clique_b {
                if x == y {
                    continue;
                }
                let prob = p_xa.and(p).and(p_by);
                if self.add_edge(x, y, RelationKind::Identity, prob, inferred) {
                    new_identity_edges.push((x, y));
                }
            }
        }

        // Consistency Condition: each new identity edge (x ~ y) propagates
        // every matching of x to y and vice versa.
        for (x, y) in new_identity_edges {
            let p_xy = self.edge_between(x, y, RelationKind::Identity).expect("just linked").prob;
            for (m, q) in self.matching_edges_of(x) {
                if m != y {
                    self.add_edge(m, y, RelationKind::Matching, q.and(p_xy), inferred);
                }
            }
            for (m, q) in self.matching_edges_of(y) {
                if m != x {
                    self.add_edge(m, x, RelationKind::Matching, q.and(p_xy), inferred);
                }
            }
        }
    }

    /// Inserts a matching p-relation `a ≡_p b` and propagates it across the
    /// identity cliques of both endpoints (Consistency Condition).
    pub fn insert_matching(&mut self, a: &GlobalKey, b: &GlobalKey, p: Probability) {
        self.insert_matching_with_origin(a, b, p, EdgeOrigin::Direct);
    }

    fn insert_matching_with_origin(
        &mut self,
        a: &GlobalKey,
        b: &GlobalKey,
        p: Probability,
        origin: EdgeOrigin,
    ) {
        let na = self.intern(a);
        let nb = self.intern(b);
        if !self.add_edge(na, nb, RelationKind::Matching, p, origin) {
            return;
        }
        // The Consistency Condition must connect every member of a's
        // identity clique to every member of b's: a ≡ b ∧ b ~ y ⇒ a ≡ y,
        // and then x ~ a ∧ a ≡ y ⇒ x ≡ y.
        let inferred = EdgeOrigin::Inferred;
        let clique_a = self.identity_clique(na);
        let clique_b = self.identity_clique(nb);
        // a ≡ y for y in clique(b), remembering the probabilities offered.
        let mut a_to: Vec<(NodeRef, Probability)> = vec![(nb, p)];
        for &(y, p_by) in &clique_b {
            if y == na {
                continue;
            }
            let prob = p.and(p_by);
            if self.add_edge(na, y, RelationKind::Matching, prob, inferred) {
                a_to.push((y, prob));
            }
        }
        // x ≡ y for x in clique(a) and every y the previous step covered.
        for &(x, p_xa) in &clique_a {
            for &(y, p_ay) in &a_to {
                if x != y {
                    self.add_edge(x, y, RelationKind::Matching, p_xa.and(p_ay), inferred);
                }
            }
        }
    }

    /// Adds a promoted matching edge (from path promotion). Does nothing if
    /// an equivalent live edge already exists (per §III-D(a): "if not yet
    /// present").
    ///
    /// Returns whether a new edge was added.
    pub fn insert_promoted(&mut self, a: &GlobalKey, b: &GlobalKey, p: Probability) -> bool {
        let na = self.intern(a);
        let nb = self.intern(b);
        if na == nb || self.edge_between(na, nb, RelationKind::Matching).is_some() {
            return false;
        }
        // A promoted edge is a matching p-relation like any other, so it
        // propagates across identity cliques (Consistency Condition).
        self.insert_matching_with_origin(a, b, p, EdgeOrigin::Promoted);
        true
    }

    /// Creates a node for `key` without any relation (or revives it) —
    /// used by deserialization for isolated nodes.
    pub fn ensure_node(&mut self, key: &GlobalKey) {
        self.intern(key);
    }

    /// Inserts an edge *without* running transitivity materialization or
    /// the Consistency Condition. Only sound when the surrounding graph is
    /// already closed (deserialization of a previously consistent index);
    /// for everything else use [`insert_identity`](AIndex::insert_identity)
    /// / [`insert_matching`](AIndex::insert_matching).
    pub fn insert_raw(
        &mut self,
        a: &GlobalKey,
        b: &GlobalKey,
        kind: RelationKind,
        prob: Probability,
        origin: EdgeOrigin,
    ) {
        let na = self.intern(a);
        let nb = self.intern(b);
        self.add_edge(na, nb, kind, prob, origin);
    }

    /// Every live edge as `(a, b, kind, probability, origin)`, in creation
    /// order and oriented as first inserted — the serialization surface.
    pub fn live_edges(
        &self,
    ) -> Vec<(&GlobalKey, &GlobalKey, RelationKind, Probability, EdgeOrigin)> {
        let graph = &self.graph;
        let mut edges: Vec<(NodeRef, &HalfEdge)> = graph
            .live_nodes()
            .flat_map(|n| graph.live_edges_of(n).filter(|e| e.first).map(move |e| (n, e)))
            .collect();
        edges.sort_unstable_by_key(|(_, e)| e.id);
        edges
            .into_iter()
            .map(|(n, e)| (graph.key_of(n), graph.key_of(e.other), e.kind, e.prob, e.origin))
            .collect()
    }

    /// Removes an object and all its incident edges — the lazy-deletion
    /// path, invoked when augmentation discovers the object no longer
    /// exists in the polystore (§III-C(b)).
    pub fn remove_object(&mut self, key: &GlobalKey) {
        let Some(n) = self.graph.resolve(key) else { return };
        // Only the node's own entry changes, so a removal edits one
        // shard: the far halves of its edges point at a dead node now,
        // and at an older incarnation once it is resurrected.
        let node = self.node_mut(n);
        node.alive = false;
        node.edges = Vec::new();
    }

    /// Deletes one p-relation. Edges inferred from it survive, as the
    /// paper prescribes (§III-C(b)).
    ///
    /// Returns whether a live edge was found and deleted.
    pub fn delete_prelation(&mut self, a: &GlobalKey, b: &GlobalKey, kind: RelationKind) -> bool {
        let (Some(na), Some(nb)) = (self.graph.resolve(a), self.graph.resolve(b)) else {
            return false;
        };
        let Some(e) = self.edge_between(na, nb, kind) else { return false };
        for n in [na, nb] {
            let entry = &mut self.node_mut(n).edges;
            entry.retain(|h| h.id != e.id);
        }
        true
    }

    // -- point lookups ------------------------------------------------------

    /// The direct p-relations of `key`: `(other key, kind, probability)`.
    pub fn neighbors(&self, key: &GlobalKey) -> Vec<(GlobalKey, RelationKind, Probability)> {
        self.graph.neighbors(key)
    }

    /// Details of a specific edge, if it is live.
    pub fn edge(&self, a: &GlobalKey, b: &GlobalKey, kind: RelationKind) -> Option<EdgeInfo> {
        let e = self.edge_between(self.graph.resolve(a)?, self.graph.resolve(b)?, kind)?;
        Some(EdgeInfo { probability: e.prob, origin: e.origin })
    }

    /// Verifies the Consistency Condition over the whole graph (test and
    /// debugging aid — O(nodes × edges²) worst case).
    ///
    /// Returns the first violating triple, if any.
    pub fn check_consistency(&self) -> Option<(GlobalKey, GlobalKey, GlobalKey)> {
        let key = |n| self.graph.key_of(n).clone();
        let triple = |x, y, z| Some((key(x), key(y), key(z)));
        for n2 in self.graph.live_nodes() {
            let matchings = self.matching_edges_of(n2);
            let identities = self.identity_clique(n2);
            for &(n1, _) in &matchings {
                for &(n3, _) in &identities {
                    if n1 != n3 && self.edge_between(n1, n3, RelationKind::Matching).is_none() {
                        return triple(n1, n2, n3);
                    }
                }
            }
            // Identity transitivity closure: the clique must be complete.
            for &(x, _) in &identities {
                for &(y, _) in &identities {
                    if x != y && self.edge_between(x, y, RelationKind::Identity).is_none() {
                        return triple(x, n2, y);
                    }
                }
            }
        }
        None
    }
}

/// Details of one live edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// The edge's probability.
    pub probability: Probability,
    /// Where the edge came from.
    pub origin: EdgeOrigin,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::IndexView;

    /// The read side of a ledger: augmentation answers come from here.
    fn view(ix: &AIndex) -> IndexView {
        IndexView::of(ix)
    }

    fn k(s: &str) -> GlobalKey {
        s.parse().unwrap()
    }

    fn p(f: f64) -> Probability {
        Probability::of(f)
    }

    /// The index of Fig. 3 (abridged to the part the examples use).
    fn fig3() -> AIndex {
        let mut ix = AIndex::new();
        ix.insert_identity(&k("catalogue.albums.d1"), &k("transactions.inventory.a32"), p(0.9));
        ix.insert_matching(
            &k("transactions.inventory.a32"),
            &k("transactions.sales_details.i1"),
            p(0.7),
        );
        ix
    }

    #[test]
    fn example7_transitivity_materialization() {
        // Fig. 4: inserting d1 ~0.8 k1:cure:wish when d1 ~0.85 a32 exists
        // materializes k1:cure:wish ~0.68 a32.
        let mut ix = AIndex::new();
        ix.insert_identity(&k("catalogue.albums.d1"), &k("transactions.inventory.a32"), p(0.85));
        ix.insert_identity(&k("catalogue.albums.d1"), &k("discount.drop.k1:cure:wish"), p(0.8));
        let e = ix
            .edge(
                &k("discount.drop.k1:cure:wish"),
                &k("transactions.inventory.a32"),
                RelationKind::Identity,
            )
            .expect("inferred identity must be materialized");
        assert!((e.probability.get() - 0.68).abs() < 1e-12);
        assert_eq!(e.origin, EdgeOrigin::Inferred);
        assert!(ix.check_consistency().is_none());
    }
    #[test]
    fn consistency_condition_on_identity_insert() {
        // m ≡ a, then a ~ b ⇒ m ≡ b must be materialized.
        let mut ix = AIndex::new();
        ix.insert_matching(&k("x.c.m"), &k("x.c.a"), p(0.7));
        ix.insert_identity(&k("x.c.a"), &k("x.c.b"), p(0.9));
        let e = ix.edge(&k("x.c.m"), &k("x.c.b"), RelationKind::Matching).expect("m ≡ b");
        assert!((e.probability.get() - 0.63).abs() < 1e-12);
        assert!(ix.check_consistency().is_none());
    }

    #[test]
    fn consistency_condition_on_matching_insert() {
        // a ~ b exists, then m ≡ a ⇒ m ≡ b.
        let mut ix = AIndex::new();
        ix.insert_identity(&k("x.c.a"), &k("x.c.b"), p(0.9));
        ix.insert_matching(&k("x.c.m"), &k("x.c.a"), p(0.6));
        assert!(ix.edge(&k("x.c.m"), &k("x.c.b"), RelationKind::Matching).is_some());
        assert!(ix.check_consistency().is_none());
    }

    #[test]
    fn merging_two_cliques_stays_consistent() {
        let mut ix = AIndex::new();
        // Clique 1: a ~ b ~ c (via transitivity).
        ix.insert_identity(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_identity(&k("d.c.b"), &k("d.c.c"), p(0.8));
        // Clique 2: x ~ y.
        ix.insert_identity(&k("d.c.x"), &k("d.c.y"), p(0.95));
        // Matchings on both sides.
        ix.insert_matching(&k("d.c.m1"), &k("d.c.a"), p(0.7));
        ix.insert_matching(&k("d.c.m2"), &k("d.c.y"), p(0.6));
        // Merge the cliques.
        ix.insert_identity(&k("d.c.c"), &k("d.c.x"), p(0.85));
        assert!(ix.check_consistency().is_none(), "{:?}", ix.check_consistency());
        // The merged clique is one 5-node component: every pair has an
        // identity edge: C(5,2) = 10 identity edges.
        assert_eq!(ix.stats().identity_edges, 10);
        // m1 must now match every clique member (5 edges), same for m2.
        assert_eq!(ix.stats().matching_edges, 10);
    }

    #[test]
    fn reflexive_inserts_are_noops() {
        let mut ix = AIndex::new();
        ix.insert_identity(&k("d.c.a"), &k("d.c.a"), p(0.9));
        ix.insert_matching(&k("d.c.a"), &k("d.c.a"), p(0.9));
        assert_eq!(ix.edge_count(), 0);
        assert_eq!(ix.node_count(), 1);
    }

    #[test]
    fn duplicate_edge_keeps_higher_probability() {
        let mut ix = AIndex::new();
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.5));
        ix.insert_matching(&k("d.c.b"), &k("d.c.a"), p(0.8));
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.3));
        let e = ix.edge(&k("d.c.a"), &k("d.c.b"), RelationKind::Matching).unwrap();
        assert_eq!(e.probability, p(0.8));
        assert_eq!(ix.edge_count(), 1);
    }

    #[test]
    fn identity_and_matching_are_distinct_edges() {
        let mut ix = AIndex::new();
        ix.insert_identity(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.6));
        assert_eq!(ix.edge_count(), 2);
    }

    #[test]
    fn augment_level0_is_direct_neighbourhood() {
        let ix = fig3();
        let out = view(&ix).augment(&[k("catalogue.albums.d1")], 0);
        // Direct: a32 (identity 0.9) and — via consistency propagation —
        // the matching to i1 (0.7·0.9 = 0.63).
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].key, k("transactions.inventory.a32"));
        assert_eq!(out[0].probability, p(0.9));
        assert_eq!(out[0].distance, 1);
    }

    #[test]
    fn augment_is_sorted_by_probability() {
        let ix = fig3();
        let out = view(&ix).augment(&[k("catalogue.albums.d1")], 1);
        assert!(out.windows(2).all(|w| w[0].probability >= w[1].probability));
    }

    #[test]
    fn augment_level_bounds_hops() {
        let mut ix = AIndex::new();
        // Chain of matchings: a ≡ b ≡ c ≡ d (matching is not transitive, so
        // no materialization happens).
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_matching(&k("d.c.b"), &k("d.c.c"), p(0.8));
        ix.insert_matching(&k("d.c.c"), &k("d.c.d"), p(0.7));
        let l0 = view(&ix).augment(&[k("d.c.a")], 0);
        assert_eq!(l0.len(), 1);
        let l1 = view(&ix).augment(&[k("d.c.a")], 1);
        assert_eq!(l1.len(), 2);
        let l2 = view(&ix).augment(&[k("d.c.a")], 2);
        assert_eq!(l2.len(), 3);
        // Path products: b=0.9, c=0.72, d=0.504.
        assert!((l2[2].probability.get() - 0.504).abs() < 1e-12);
        assert_eq!(l2[2].distance, 3);
    }

    #[test]
    fn augment_takes_best_path() {
        let mut ix = AIndex::new();
        // Two paths a→c: direct 0.5 and via b 0.9·0.9 = 0.81.
        ix.insert_matching(&k("d.c.a"), &k("d.c.c"), p(0.5));
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_matching(&k("d.c.b"), &k("d.c.c"), p(0.9));
        let out = view(&ix).augment(&[k("d.c.a")], 1);
        let c = out.iter().find(|x| x.key == k("d.c.c")).unwrap();
        assert!((c.probability.get() - 0.81).abs() < 1e-12);
        assert_eq!(c.distance, 2);
    }

    #[test]
    fn augment_multiple_seeds_excludes_seeds() {
        let mut ix = AIndex::new();
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_matching(&k("d.c.b"), &k("d.c.c"), p(0.8));
        let out = view(&ix).augment(&[k("d.c.a"), k("d.c.c")], 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, k("d.c.b"));
        assert_eq!(out[0].probability, p(0.9));
    }

    #[test]
    fn augment_unknown_seed_is_empty() {
        let ix = fig3();
        assert!(view(&ix).augment(&[k("no.such.key")], 3).is_empty());
    }

    #[test]
    fn augment_multi_matches_augment() {
        let ix = fig3();
        let seeds = [k("catalogue.albums.d1"), k("transactions.sales_details.i1")];
        let (multi, owners) = view(&ix).augment_multi(&seeds, 1);
        assert_eq!(multi, view(&ix).augment(&seeds, 1));
        assert_eq!(owners.len(), multi.len());
    }

    #[test]
    fn augment_multi_first_seed_owns_shared_keys() {
        // a — b — c: both end seeds reach b, the earlier one owns it.
        let mut ix = AIndex::new();
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_matching(&k("d.c.b"), &k("d.c.c"), p(0.8));
        let (out, owners) = view(&ix).augment_multi(&[k("d.c.a"), k("d.c.c")], 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, k("d.c.b"));
        assert_eq!(owners, vec![0]);
        let (out_rev, owners_rev) = view(&ix).augment_multi(&[k("d.c.c"), k("d.c.a")], 0);
        assert_eq!(out_rev, out);
        assert_eq!(owners_rev, vec![0], "reversed order: c now claims b first");
    }

    #[test]
    fn augment_multi_ownership_is_reach_not_distance() {
        // Seed 1 sits one hop from x, seed 0 two hops; with a budget
        // covering both, ownership goes to the *earlier* seed, not the
        // closer one (matching the historical per-seed loop).
        let mut ix = AIndex::new();
        ix.insert_matching(&k("d.c.s0"), &k("d.c.mid"), p(0.9));
        ix.insert_matching(&k("d.c.mid"), &k("d.c.x"), p(0.9));
        ix.insert_matching(&k("d.c.s1"), &k("d.c.x"), p(0.9));
        let (out, owners) = view(&ix).augment_multi(&[k("d.c.s0"), k("d.c.s1")], 1);
        let xi = out.iter().position(|a| a.key == k("d.c.x")).unwrap();
        assert_eq!(owners[xi], 0);
        // With a one-hop budget only seed 1 reaches x.
        let (out0, owners0) = view(&ix).augment_multi(&[k("d.c.s0"), k("d.c.s1")], 0);
        let xi0 = out0.iter().position(|a| a.key == k("d.c.x")).unwrap();
        assert_eq!(owners0[xi0], 1);
    }

    #[test]
    fn augment_multi_skips_unknown_seeds_in_ownership() {
        let mut ix = AIndex::new();
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.9));
        let (out, owners) = view(&ix).augment_multi(&[k("no.such.key"), k("d.c.a")], 0);
        assert_eq!(out.len(), 1);
        assert_eq!(owners, vec![1], "owner indices refer to the original seed slice");
    }

    #[test]
    fn augment_multi_scales_past_64_seeds() {
        // More seeds than one bitmask word exercises the chunked path.
        let mut ix = AIndex::new();
        for i in 0..70 {
            ix.insert_matching(&k(&format!("d.c.s{i}")), &k("d.c.hub"), p(0.9));
        }
        let seeds: Vec<GlobalKey> = (0..70).map(|i| k(&format!("d.c.s{i}"))).collect();
        let (out, owners) = view(&ix).augment_multi(&seeds, 0);
        let hub = out.iter().position(|a| a.key == k("d.c.hub")).unwrap();
        assert_eq!(owners[hub], 0);
        // The 69th seed alone owns the hub when listed first.
        let mut rev = seeds.clone();
        rev.rotate_left(69);
        let (out_rev, owners_rev) = view(&ix).augment_multi(&rev, 0);
        let hub_rev = out_rev.iter().position(|a| a.key == k("d.c.hub")).unwrap();
        assert_eq!(owners_rev[hub_rev], 0, "rotation makes s69 the first seed");
        assert_eq!(out_rev.len(), out.len());
    }

    #[test]
    fn repeated_queries_reuse_scratch_correctly() {
        // Exercises epoch stamping across many queries on one view.
        let view = view(&fig3());
        let baseline = view.augment(&[k("catalogue.albums.d1")], 1);
        for _ in 0..100 {
            assert_eq!(view.augment(&[k("catalogue.albums.d1")], 1), baseline);
        }
    }

    #[test]
    fn lazy_deletion_removes_node_and_edges() {
        let mut ix = fig3();
        assert!(ix.contains(&k("transactions.inventory.a32")));
        ix.remove_object(&k("transactions.inventory.a32"));
        assert!(!ix.contains(&k("transactions.inventory.a32")));
        let out = view(&ix).augment(&[k("catalogue.albums.d1")], 0);
        // a32 is gone; only the propagated matching to i1 remains.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, k("transactions.sales_details.i1"));
    }

    #[test]
    fn keep_policy_preserves_inferred_edges() {
        let mut ix = AIndex::new();
        ix.insert_identity(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_identity(&k("d.c.b"), &k("d.c.c"), p(0.8));
        // a~c was inferred. Deleting a~b keeps it (paper's strategy).
        assert!(ix.delete_prelation(&k("d.c.a"), &k("d.c.b"), RelationKind::Identity));
        assert!(ix.edge(&k("d.c.a"), &k("d.c.c"), RelationKind::Identity).is_some());
    }

    #[test]
    fn delete_missing_edge_returns_false() {
        let mut ix = fig3();
        assert!(!ix.delete_prelation(&k("d.c.x"), &k("d.c.y"), RelationKind::Identity));
        assert!(!ix.delete_prelation(
            &k("catalogue.albums.d1"),
            &k("transactions.sales_details.i1"),
            RelationKind::Identity,
        ));
    }

    #[test]
    fn reinsert_after_removal_resurrects() {
        let mut ix = fig3();
        ix.remove_object(&k("transactions.inventory.a32"));
        ix.insert_identity(&k("transactions.inventory.a32"), &k("catalogue.albums.d1"), p(0.5));
        assert!(ix.contains(&k("transactions.inventory.a32")));
        let e = ix
            .edge(
                &k("transactions.inventory.a32"),
                &k("catalogue.albums.d1"),
                RelationKind::Identity,
            )
            .unwrap();
        assert_eq!(e.probability, p(0.5));
    }

    #[test]
    fn promoted_edges_do_not_override() {
        let mut ix = AIndex::new();
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.6));
        assert!(!ix.insert_promoted(&k("d.c.a"), &k("d.c.b"), p(0.9)), "already present");
        assert!(ix.insert_promoted(&k("d.c.a"), &k("d.c.z"), p(0.7)));
        let e = ix.edge(&k("d.c.a"), &k("d.c.z"), RelationKind::Matching).unwrap();
        assert_eq!(e.origin, EdgeOrigin::Promoted);
        assert_eq!(ix.stats().promoted_edges, 1);
    }

    #[test]
    fn neighbors_sorted_desc() {
        let ix = fig3();
        let n = ix.neighbors(&k("transactions.inventory.a32"));
        assert_eq!(n.len(), 2);
        assert!(n[0].2 >= n[1].2);
        assert!(ix.neighbors(&k("no.such.key")).is_empty());
    }

    #[test]
    fn stats_counts() {
        let ix = fig3();
        let s = ix.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.identity_edges, 1);
        // Direct matching + the consistency-propagated one.
        assert_eq!(s.matching_edges, 2);
        assert_eq!(s.inferred_edges, 1);
    }
}
