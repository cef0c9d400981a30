//! The A' index ledger: the write side of the index.
//!
//! [`AIndex`] owns everything a mutation has to decide — key interning,
//! liveness and incarnations, the edge list with its pair index,
//! transitivity materialization, the Consistency Condition — plus the
//! point lookups those rules and the serializers read. It does not
//! traverse: the augmentation primitive lives once, in
//! [`crate::shard::IndexView`].
//!
//! Layout: the ledger shares its projection's id space. A new key takes
//! the next slot of its home shard, so a ledger node id *is* the packed
//! `(slot << 4) | shard` reference the read side addresses it by. Each
//! shard's slots hold key, liveness, incarnation and an incrementally
//! compacted CSR (compressed sparse row) list of edge ids.

use std::collections::HashMap;

use quepa_pdm::{GlobalKey, Probability, RelationKind};

use crate::shard::{make_ref, route, shard_of, slot_of, NodeRef, SHARD_COUNT};

/// Node handle inside the index: the node's shard reference.
type NodeId = NodeRef;
/// Edge handle inside the index.
type EdgeId = u32;

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

/// One p-relation. The endpoints keep the orientation of the insertion
/// that created the edge, which is the order serialization writes them in.
#[derive(Debug, Clone)]
struct Edge {
    a: NodeId,
    b: NodeId,
    prob: Probability,
    kind: RelationKind,
    origin: EdgeOrigin,
    alive: bool,
}

impl Edge {
    fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            self.a
        }
    }
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

/// Incrementally built CSR adjacency: most edge ids live in one packed
/// array (`offsets`/`packed`), edges added since the last compaction sit
/// in small per-node overflow vectors, and compaction re-packs once the
/// overflow exceeds a fraction of the packed size (amortized O(1) per
/// insertion). Per-node edge order — packed segment first, then overflow
/// in insertion order — is insertion order.
#[derive(Debug, Clone, Default)]
struct CsrAdjacency {
    /// Per compacted node, start of its segment in `packed`; one extra
    /// trailing entry holds the total. Nodes created after the last
    /// compaction have no segment yet.
    offsets: Vec<u32>,
    /// Edge ids of all compacted nodes, segment by segment.
    packed: Vec<EdgeId>,
    /// Per node, edge ids added since the last compaction.
    overflow: Vec<Vec<EdgeId>>,
    /// Total entries across all overflow vectors.
    overflow_len: usize,
}

impl CsrAdjacency {
    fn add_node(&mut self) {
        self.overflow.push(Vec::new());
    }

    fn compacted_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn push_edge(&mut self, n: u32, eid: EdgeId) {
        self.overflow[n as usize].push(eid);
        self.overflow_len += 1;
        if self.overflow_len > 64 && self.overflow_len * 4 > self.packed.len() {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let nodes = self.overflow.len();
        let mut packed = Vec::with_capacity(self.packed.len() + self.overflow_len);
        let mut offsets = Vec::with_capacity(nodes + 1);
        for n in 0..nodes {
            offsets.push(packed.len() as u32);
            packed.extend_from_slice(self.segment(n));
            packed.extend_from_slice(&self.overflow[n]);
            self.overflow[n] = Vec::new();
        }
        offsets.push(packed.len() as u32);
        self.packed = packed;
        self.offsets = offsets;
        self.overflow_len = 0;
    }

    /// The packed (pre-compaction) segment of node `n`.
    fn segment(&self, n: usize) -> &[EdgeId] {
        if n < self.compacted_nodes() {
            &self.packed[self.offsets[n] as usize..self.offsets[n + 1] as usize]
        } else {
            &[]
        }
    }

    /// All edge ids of `n`, in insertion order.
    fn edges_of(&self, n: u32) -> impl Iterator<Item = EdgeId> + '_ {
        let i = n as usize;
        self.segment(i).iter().copied().chain(self.overflow[i].iter().copied())
    }
}

/// One shard's nodes, indexed by slot.
#[derive(Debug, Clone, Default)]
struct Slots {
    keys: Vec<GlobalKey>,
    alive: Vec<bool>,
    /// Times each node was resurrected after a lazy deletion. A half-edge
    /// recorded under an older incarnation stays invisible.
    incs: Vec<u32>,
    adjacency: CsrAdjacency,
}

/// One entry of the mutation journal (see [`AIndex::set_journaling`]).
/// A consumer rebuilds the projected state of every touched node from
/// the ledger, so the ops only need to tell a rebuild from a change that
/// needs none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JournalOp {
    /// A node's liveness, incarnation or incident-edge set changed, or it
    /// was interned for the first time.
    Touched(NodeId),
    /// A live node lost an edge to a node `remove_object` just killed. Its
    /// projected state needs no rebuild (the dead endpoint hides the edge
    /// from readers), but its serialized form no longer lists that edge.
    Unlinked(NodeId),
}

/// The A' index ledger: one node per global key, identity/matching
/// edges with probabilities. Read it through an
/// [`IndexView`](crate::shard::IndexView).
#[derive(Debug, Clone, Default)]
pub struct AIndex {
    shards: [Slots; SHARD_COUNT],
    ids: HashMap<GlobalKey, NodeId>,
    edges: Vec<Edge>,
    /// (min(a,b), max(a,b), kind) → edge id, for dedup.
    pair_index: HashMap<(NodeId, NodeId, RelationKind), EdgeId>,
    /// Mutation journal for the sharded projection layer; empty and
    /// unmaintained unless journaling is on (a bare ledger pays nothing).
    journal: Vec<JournalOp>,
    journaling: bool,
}

impl AIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node of `key`, creating it in the next slot of its home shard
    /// if the key is new and resurrecting it (next incarnation) if it was
    /// lazily deleted.
    fn intern(&mut self, key: &GlobalKey) -> NodeId {
        if let Some(&id) = self.ids.get(key) {
            let slots = &mut self.shards[shard_of(id)];
            let slot = slot_of(id) as usize;
            if !slots.alive[slot] {
                slots.alive[slot] = true;
                slots.incs[slot] += 1;
                self.journal_touched(id);
            }
            return id;
        }
        let shard = route(key);
        let slots = &mut self.shards[shard];
        let id = make_ref(shard, slots.keys.len() as u32);
        slots.keys.push(key.clone());
        slots.alive.push(true);
        slots.incs.push(0);
        slots.adjacency.add_node();
        self.ids.insert(key.clone(), id);
        self.journal_touched(id);
        id
    }

    // -- mutation journal --------------------------------------------------

    /// Turns the mutation journal on or off. Maintained by the sharded
    /// projection layer ([`crate::shard::ShardedIndex`]); a bare ledger
    /// leaves it off and pays a single branch per mutation.
    pub(crate) fn set_journaling(&mut self, on: bool) {
        self.journaling = on;
        if !on {
            self.journal.clear();
        }
    }

    /// Drains the accumulated journal.
    pub(crate) fn take_journal(&mut self) -> Vec<JournalOp> {
        std::mem::take(&mut self.journal)
    }

    fn journal_touched(&mut self, n: NodeId) {
        if self.journaling {
            self.journal.push(JournalOp::Touched(n));
        }
    }

    // -- the shard slots the projection reads -------------------------------

    /// Slots interned in `shard` (live and dead).
    pub(crate) fn shard_len(&self, shard: usize) -> u32 {
        self.shards[shard].keys.len() as u32
    }

    /// The key of an interned node.
    pub(crate) fn key_at(&self, n: NodeId) -> &GlobalKey {
        &self.shards[shard_of(n)].keys[slot_of(n) as usize]
    }

    /// Whether an interned node is live.
    pub(crate) fn node_alive(&self, n: NodeId) -> bool {
        self.shards[shard_of(n)].alive[slot_of(n) as usize]
    }

    /// The current incarnation of an interned node.
    pub(crate) fn inc_of(&self, n: NodeId) -> u32 {
        self.shards[shard_of(n)].incs[slot_of(n) as usize]
    }

    /// Live incident edges of `n` whose other endpoint is also live, as
    /// `(other, kind, probability, origin)`, in insertion order.
    pub(crate) fn live_incident_of(
        &self,
        n: NodeId,
    ) -> impl Iterator<Item = (NodeId, RelationKind, Probability, EdgeOrigin)> + '_ {
        self.incident(n).map(move |e| (e.other(n), e.kind, e.prob, e.origin))
    }

    fn node(&self, key: &GlobalKey) -> Option<NodeId> {
        let id = *self.ids.get(key)?;
        self.node_alive(id).then_some(id)
    }

    /// True if the key has a live node.
    pub fn contains(&self, key: &GlobalKey) -> bool {
        self.node(key).is_some()
    }

    /// Live-node count.
    pub fn node_count(&self) -> usize {
        self.live_nodes().count()
    }

    /// Live-edge count (both kinds).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.alive).count()
    }

    /// Detailed size statistics.
    pub fn stats(&self) -> IndexStats {
        let mut s = IndexStats { nodes: self.node_count(), ..Default::default() };
        for e in self.edges.iter().filter(|e| e.alive) {
            s.count_edge(e.kind, e.origin);
        }
        s
    }

    /// Iterates over the live keys, shard by shard in slot order.
    pub fn keys(&self) -> impl Iterator<Item = &GlobalKey> {
        self.live_nodes().map(|n| self.key_at(n))
    }

    /// The live nodes, shard by shard in slot order.
    fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..SHARD_COUNT)
            .flat_map(move |s| (0..self.shard_len(s)).map(move |i| make_ref(s, i)))
            .filter(|&n| self.node_alive(n))
    }

    // -- edge plumbing -----------------------------------------------------

    fn pair(a: NodeId, b: NodeId, kind: RelationKind) -> (NodeId, NodeId, RelationKind) {
        if a <= b {
            (a, b, kind)
        } else {
            (b, a, kind)
        }
    }

    /// Adds (or strengthens) an edge; returns its id, or `None` for a
    /// reflexive pair. Existing edges keep the *higher* probability (a
    /// second evidence source never weakens a relation).
    fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        kind: RelationKind,
        prob: Probability,
        origin: EdgeOrigin,
    ) -> Option<EdgeId> {
        if a == b {
            return None; // reflexivity is implicit
        }
        let key = Self::pair(a, b, kind);
        if let Some(&eid) = self.pair_index.get(&key) {
            let e = &mut self.edges[eid as usize];
            if e.alive {
                if prob > e.prob {
                    e.prob = prob;
                    self.journal_edge(a, b);
                }
                return Some(eid);
            }
            // Revive a deleted slot in place.
            e.prob = prob;
            e.origin = origin;
            e.alive = true;
            self.journal_edge(a, b);
            return Some(eid);
        }
        let eid = self.edges.len() as EdgeId;
        self.edges.push(Edge { a, b, prob, kind, origin, alive: true });
        for n in [a, b] {
            self.shards[shard_of(n)].adjacency.push_edge(slot_of(n), eid);
        }
        self.pair_index.insert(key, eid);
        self.journal_edge(a, b);
        Some(eid)
    }

    /// Journals the endpoints of a changed edge. A live edge has two live
    /// endpoints except while `remove_object` kills the edges of the node
    /// it just marked dead: those journal only the surviving endpoint, as
    /// `Unlinked` — the dead endpoint alone hides them from shard
    /// readers, which is what keeps a removal confined to one shard.
    fn journal_edge(&mut self, a: NodeId, b: NodeId) {
        if !self.journaling {
            return;
        }
        match (self.node_alive(a), self.node_alive(b)) {
            (true, true) => {
                self.journal.push(JournalOp::Touched(a));
                self.journal.push(JournalOp::Touched(b));
            }
            (true, false) => self.journal.push(JournalOp::Unlinked(a)),
            (false, true) => self.journal.push(JournalOp::Unlinked(b)),
            (false, false) => {}
        }
    }

    fn edge_between(&self, a: NodeId, b: NodeId, kind: RelationKind) -> Option<EdgeId> {
        let eid = *self.pair_index.get(&Self::pair(a, b, kind))?;
        self.edges[eid as usize].alive.then_some(eid)
    }

    /// Live incident edges of a node.
    fn incident(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.shards[shard_of(n)].adjacency.edges_of(slot_of(n)).filter_map(move |eid| {
            let e = &self.edges[eid as usize];
            (e.alive && self.node_alive(e.other(n))).then_some(e)
        })
    }

    /// The live `kind` neighbours of `n` with their edges' probabilities
    /// (for identity: the rest of its clique, by the closure invariant).
    ///
    /// Sorted by the neighbour's key, **not** adjacency order:
    /// materialization composes floating-point products while iterating
    /// these lists and feeds stored values back into later offers, so
    /// the bits it produces depend on iteration order. Canonical order
    /// makes every insert a pure function of the live edge-value map —
    /// which is what lets durable recovery (rebuild the graph from a
    /// checkpoint, whose adjacency order differs from the original
    /// insertion order, then replay the WAL tail) answer bit-identically
    /// to the never-crashed instance.
    fn related(&self, n: NodeId, kind: RelationKind) -> Vec<(NodeId, Probability)> {
        let mut out: Vec<_> =
            self.incident(n).filter(|e| e.kind == kind).map(|e| (e.other(n), e.prob)).collect();
        out.sort_unstable_by(|x, y| self.key_at(x.0).cmp(self.key_at(y.0)));
        out
    }

    fn identity_clique(&self, n: NodeId) -> Vec<(NodeId, Probability)> {
        self.related(n, RelationKind::Identity)
    }

    fn matching_edges_of(&self, n: NodeId) -> Vec<(NodeId, Probability)> {
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

        let Some(direct) = self.add_edge(na, nb, RelationKind::Identity, p, EdgeOrigin::Direct)
        else {
            return;
        };

        // Cross-materialize identities: x∈A×{b}, {a}×y∈B, and x∈A×y∈B.
        let inferred = EdgeOrigin::Inferred;
        let mut new_identity_edges: Vec<(NodeId, NodeId, EdgeId)> = vec![(na, nb, direct)];
        for &(x, p_xa) in &clique_a {
            if let Some(eid) = self.add_edge(x, nb, RelationKind::Identity, p_xa.and(p), inferred) {
                new_identity_edges.push((x, nb, eid));
            }
        }
        for &(y, p_by) in &clique_b {
            if let Some(eid) = self.add_edge(na, y, RelationKind::Identity, p.and(p_by), inferred) {
                new_identity_edges.push((na, y, eid));
            }
        }
        for &(x, p_xa) in &clique_a {
            for &(y, p_by) in &clique_b {
                if x == y {
                    continue;
                }
                let prob = p_xa.and(p).and(p_by);
                if let Some(eid) = self.add_edge(x, y, RelationKind::Identity, prob, inferred) {
                    new_identity_edges.push((x, y, eid));
                }
            }
        }

        // Consistency Condition: each new identity edge (x ~ y) propagates
        // every matching of x to y and vice versa.
        for (x, y, id_edge) in new_identity_edges {
            let p_xy = self.edges[id_edge as usize].prob;
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
        if na == nb || self.add_edge(na, nb, RelationKind::Matching, p, origin).is_none() {
            return;
        }
        // The Consistency Condition must connect every member of a's
        // identity clique to every member of b's: a ≡ b ∧ b ~ y ⇒ a ≡ y,
        // and then x ~ a ∧ a ≡ y ⇒ x ≡ y.
        let inferred = EdgeOrigin::Inferred;
        let clique_a = self.identity_clique(na);
        let clique_b = self.identity_clique(nb);
        // a ≡ y for y in clique(b), remembering the probabilities offered.
        let mut a_to: Vec<(NodeId, Probability)> = vec![(nb, p)];
        for &(y, p_by) in &clique_b {
            if y == na {
                continue;
            }
            let prob = p.and(p_by);
            if self.add_edge(na, y, RelationKind::Matching, prob, inferred).is_some() {
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
        self.edges
            .iter()
            .filter(|e| e.alive && self.node_alive(e.a) && self.node_alive(e.b))
            .map(|e| (self.key_at(e.a), self.key_at(e.b), e.kind, e.prob, e.origin))
            .collect()
    }

    /// Removes an object and all its incident edges — the lazy-deletion
    /// path, invoked when augmentation discovers the object no longer
    /// exists in the polystore (§III-C(b)).
    pub fn remove_object(&mut self, key: &GlobalKey) {
        let Some(n) = self.node(key) else { return };
        self.shards[shard_of(n)].alive[slot_of(n) as usize] = false;
        // The node's own Touched entry makes it dead in its home shard;
        // its incident edges journal their far endpoints as Unlinked, so
        // a removal republishes exactly one shard.
        self.journal_touched(n);
        let incident: Vec<EdgeId> =
            self.shards[shard_of(n)].adjacency.edges_of(slot_of(n)).collect();
        for eid in incident {
            self.kill_edge(eid);
        }
    }

    /// Deletes one p-relation. Edges inferred from it survive, as the
    /// paper prescribes (§III-C(b)).
    ///
    /// Returns whether a live edge was found and deleted.
    pub fn delete_prelation(&mut self, a: &GlobalKey, b: &GlobalKey, kind: RelationKind) -> bool {
        let (Some(na), Some(nb)) = (self.node(a), self.node(b)) else { return false };
        let Some(eid) = self.edge_between(na, nb, kind) else { return false };
        self.kill_edge(eid);
        true
    }

    fn kill_edge(&mut self, eid: EdgeId) {
        let e = &mut self.edges[eid as usize];
        if e.alive {
            e.alive = false;
            let (a, b) = (e.a, e.b);
            self.journal_edge(a, b);
        }
    }

    // -- point lookups ------------------------------------------------------

    /// The direct p-relations of `key`: `(other key, kind, probability)`.
    pub fn neighbors(&self, key: &GlobalKey) -> Vec<(GlobalKey, RelationKind, Probability)> {
        let Some(n) = self.node(key) else { return Vec::new() };
        let mut out: Vec<_> =
            self.incident(n).map(|e| (self.key_at(e.other(n)).clone(), e.kind, e.prob)).collect();
        out.sort_by(|x, y| y.2.cmp(&x.2).then_with(|| x.0.cmp(&y.0)));
        out
    }

    /// Details of a specific edge, if it is live.
    pub fn edge(&self, a: &GlobalKey, b: &GlobalKey, kind: RelationKind) -> Option<EdgeInfo> {
        let (na, nb) = (self.node(a)?, self.node(b)?);
        let eid = self.edge_between(na, nb, kind)?;
        let e = &self.edges[eid as usize];
        Some(EdgeInfo { probability: e.prob, origin: e.origin })
    }

    /// Verifies the Consistency Condition over the whole graph (test and
    /// debugging aid — O(nodes × edges²) worst case).
    ///
    /// Returns the first violating triple, if any.
    pub fn check_consistency(&self) -> Option<(GlobalKey, GlobalKey, GlobalKey)> {
        let triple = |x, y, z| {
            Some((self.key_at(x).clone(), self.key_at(y).clone(), self.key_at(z).clone()))
        };
        for n2 in self.live_nodes() {
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
    fn ledger_edge_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Edge>(), 24);
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
