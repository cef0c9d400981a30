//! The A' index's one store of its graph — [`SHARD_COUNT`] hash shards,
//! each a shared packed base plus a small delta overlay — and the one
//! traversal kernel that reads them.
//!
//! A node lives in the shard its global key hashes to, at the next free
//! slot; its *entry* there holds its key, liveness, incarnation and the
//! half-edges of its live edges. The [`AIndex`] writer edits these shard
//! states in place (copying a node's base entry into the overlay on its
//! first edit) and keeps beside them only the pair index that dedups
//! edges. A batch of [`IndexOp`]s ([`ShardedIndex::apply`]) runs under the
//! writer lock and then publishes every shard it edited as one atomic
//! directory swap, so a lazy deletion republishes exactly one shard while
//! every other shard (and any in-flight [`IndexView`]) is untouched. An
//! amortized compactor folds an overlay into a fresh packed base once it
//! grows past a fraction of the base. Every augmentation — served
//! queries, baselines, the differential harness — reads through an
//! [`IndexView`]: either the published one ([`ShardedIndex::view`]) or a
//! borrowed ledger's current states ([`IndexView::of`]).
//!
//! ## Visibility rules
//!
//! Node `a`'s entry lists `(b, inc_b, kind, prob, origin)` for its edges
//! `a—b`. A half-edge is traversable iff `b` is currently alive **and**
//! `b`'s current incarnation equals the recorded `inc_b`. Incarnations
//! bump only when a lazily-deleted node is resurrected, which closes the
//! ghost-edge hole: killing `b` clears `b`'s own entry and hides all of
//! `b`'s edges without touching the neighbouring shards (their stale
//! half-edges fail the liveness check), and resurrecting `b` later does
//! not revive them (the stale half-edges now fail the incarnation check).
//! Any other edge change — insert, strengthen, revive, delete between two
//! survivors — rewrites both endpoints' entries, so a live edge is always
//! recorded on both sides with current incarnations. An edge is live iff
//! its half-edge is traversable; compaction drops the rest, which can
//! never become traversable again.
//!
//! ## Order
//!
//! Each half-edge carries its edge's id (creation order, kept when a
//! deleted edge is revived) and whether its end was inserted first; an
//! entry is sorted by id. That is the order and orientation serialization
//! writes ([`AIndex::live_edges`], [`ShardedIndex::serialize_shard`]).
//! The BFS relaxation and the ownership min-label pass are both
//! order-independent (best probability wins with strict improvement;
//! `min` distributes over path unions), and the final sort canonicalizes
//! by `(probability desc, key asc)` — so where a half-edge sits (packed
//! base or overlay, before or after a compaction) never shows in an
//! answer. The differential harness (`quepa-check`) pins the kernel
//! against an independent reference model across the full scenario
//! smoke.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quepa_pdm::{GlobalKey, Probability, RelationKind};

use crate::index::{AIndex, AugmentedKey, EdgeInfo, EdgeOrigin, IndexStats};
use crate::op::IndexOp;
use crate::serial;

/// Number of shards the key space is hashed over.
pub const SHARD_COUNT: usize = 16;
const SHARD_BITS: u32 = 4;
const SHARD_MASK: u32 = (SHARD_COUNT as u32) - 1;

/// Packed node reference: local slot in the high bits, shard in the low
/// [`SHARD_BITS`] bits. Slots are dense per shard and never reused, so
/// the reference space stays compact enough for epoch-stamped scratch.
pub(crate) type NodeRef = u32;

#[inline]
pub(crate) fn shard_of(r: NodeRef) -> usize {
    (r & SHARD_MASK) as usize
}

#[inline]
pub(crate) fn slot_of(r: NodeRef) -> u32 {
    r >> SHARD_BITS
}

#[inline]
pub(crate) fn make_ref(shard: usize, slot: u32) -> NodeRef {
    (slot << SHARD_BITS) | shard as u32
}

/// Shard a key routes to, derived from its precomputed FNV-1a hash.
#[inline]
pub fn route(key: &GlobalKey) -> usize {
    let h = key.precomputed_hash();
    ((h ^ (h >> 32)) & SHARD_MASK as u64) as usize
}

/// A one-multiply hasher for the maps keyed by slot numbers and node
/// pairs — ids this program issues, so there is no crafted key to
/// resist. Their lookups sit on every traversal step and every edit,
/// where SipHash's cost shows. Maps keyed by global keys, which come
/// from the stores, keep the default hasher.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A hash map over [`MixHasher`].
pub(crate) type Map<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// One directed half of an edge, stored in its owning endpoint's entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HalfEdge {
    pub(crate) other: NodeRef,
    /// The other endpoint's incarnation when this half was written.
    pub(crate) other_inc: u32,
    pub(crate) prob: Probability,
    /// The edge's id, fixed for its endpoint pair and kind for good.
    pub(crate) id: u32,
    pub(crate) kind: RelationKind,
    pub(crate) origin: EdgeOrigin,
    /// Whether this end was the first endpoint of the insertion that
    /// created the edge.
    pub(crate) first: bool,
}

/// A slot's liveness and incarnation as one state word.
pub(crate) fn word(alive: bool, inc: u32) -> u32 {
    inc << 1 | alive as u32
}

/// The packed, immutable part of a shard: produced by compaction, shared
/// (via `Arc`) across successive overlay publications.
#[derive(Debug, Default)]
pub(crate) struct ShardBase {
    /// key → slot, for every node named in this shard at compaction time.
    pub(crate) names: HashMap<GlobalKey, u32>,
    /// slot → key.
    pub(crate) keys: Vec<GlobalKey>,
    /// Per slot [`word`]: one load answers a visibility check.
    states: Vec<u32>,
    /// CSR offsets over `edges`; `len == keys.len() + 1`.
    offsets: Vec<u32>,
    edges: Vec<HalfEdge>,
    live_nodes: usize,
    resident_bytes: usize,
}

impl ShardBase {
    fn edges_of(&self, slot: u32) -> &[HalfEdge] {
        let i = slot as usize;
        if i + 1 < self.offsets.len() {
            &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
        } else {
            &[]
        }
    }

    /// The entry of a base slot, as an overlay node to edit.
    pub(crate) fn node(&self, slot: u32) -> OverlayNode {
        let (alive, inc) = self.state(slot);
        OverlayNode { alive, inc, edges: self.edges_of(slot).to_vec() }
    }

    fn state(&self, slot: u32) -> (bool, u32) {
        let w = self.states[slot as usize];
        (w & 1 == 1, w >> 1)
    }

    /// A packed base over slots' keys, state words and CSR entries.
    pub(crate) fn new(
        names: HashMap<GlobalKey, u32>,
        keys: Vec<GlobalKey>,
        states: Vec<u32>,
        offsets: Vec<u32>,
        edges: Vec<HalfEdge>,
    ) -> Self {
        let live_nodes = states.iter().filter(|&&w| w & 1 == 1).count();
        let mut base =
            ShardBase { names, keys, states, offsets, edges, live_nodes, resident_bytes: 0 };
        base.resident_bytes = base.measure();
        base
    }

    /// Approximate heap bytes. `names` and `keys` hold handles to the
    /// same key allocations, so each key's heap is counted once.
    fn measure(&self) -> usize {
        let key_bytes: usize = self.keys.iter().map(key_heap_bytes).sum();
        key_bytes
            + self.names.len() * (std::mem::size_of::<GlobalKey>() + 16)
            + self.keys.len() * (std::mem::size_of::<GlobalKey>() + 4 + 4)
            + self.edges.len() * std::mem::size_of::<HalfEdge>()
    }
}

fn key_heap_bytes(k: &GlobalKey) -> usize {
    k.database().as_str().len() + k.collection().as_str().len() + k.key().as_str().len()
}

/// One node's state, overriding the base until compaction.
#[derive(Debug, Clone)]
pub(crate) struct OverlayNode {
    pub(crate) alive: bool,
    pub(crate) inc: u32,
    /// Sorted by edge id.
    pub(crate) edges: Vec<HalfEdge>,
}

/// The mutable delta layered over a [`ShardBase`]. Cloned on the first
/// edit after a publication; a served index keeps it small by folding it
/// away at publication.
#[derive(Debug, Clone, Default)]
pub(crate) struct Overlay {
    /// slot → node state.
    pub(crate) nodes: Map<u32, OverlayNode>,
    /// Keys of the slots created since the base was built, in slot order.
    pub(crate) keys: Vec<GlobalKey>,
    /// key → slot for those.
    pub(crate) names: HashMap<GlobalKey, u32>,
}

/// One shard's state: a shared packed base plus a small overlay readers
/// merge on the fly.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    pub(crate) base: Arc<ShardBase>,
    pub(crate) overlay: Overlay,
}

impl Shard {
    /// Total slots (base slots + nodes created since).
    pub(crate) fn slots(&self) -> u32 {
        (self.base.keys.len() + self.overlay.keys.len()) as u32
    }

    fn name(&self, key: &GlobalKey) -> Option<u32> {
        self.overlay.names.get(key).or_else(|| self.base.names.get(key)).copied()
    }

    /// A slot's liveness and incarnation.
    #[inline]
    pub(crate) fn state(&self, slot: u32) -> (bool, u32) {
        match self.overlay.nodes.get(&slot) {
            Some(o) => (o.alive, o.inc),
            None => self.base.state(slot),
        }
    }

    fn key(&self, slot: u32) -> &GlobalKey {
        let base = self.base.keys.len();
        match (slot as usize).checked_sub(base) {
            Some(i) => &self.overlay.keys[i],
            None => &self.base.keys[slot as usize],
        }
    }

    /// Every slot's state [`word`].
    pub(crate) fn state_words(&self) -> Vec<u32> {
        (0..self.slots())
            .map(|slot| self.state(slot))
            .map(|(alive, inc)| word(alive, inc))
            .collect()
    }

    /// The entries packed as CSR offsets and half-edges: the live slots'
    /// half-edges that `live` accepts, dropping those that can never be
    /// traversed again. `words` are [`Shard::state_words`].
    pub(crate) fn pack(
        &self,
        words: &[u32],
        live: impl Fn(&HalfEdge) -> bool,
    ) -> (Vec<u32>, Vec<HalfEdge>) {
        let overlaid: usize = self.overlay.nodes.values().map(|n| n.edges.len()).sum();
        let mut edges = Vec::with_capacity(self.base.edges.len() + overlaid);
        let mut offsets = Vec::with_capacity(words.len() + 1);
        for (slot, &w) in words.iter().enumerate() {
            offsets.push(edges.len() as u32);
            if w & 1 == 1 {
                edges.extend(self.edges(slot as u32).iter().filter(|e| live(e)).copied());
            }
        }
        offsets.push(edges.len() as u32);
        (offsets, edges)
    }

    fn edges(&self, slot: u32) -> &[HalfEdge] {
        match self.overlay.nodes.get(&slot) {
            Some(o) => &o.edges,
            None => self.base.edges_of(slot),
        }
    }

    fn live_count(&self) -> usize {
        let mut live = self.base.live_nodes as isize;
        for (&slot, node) in &self.overlay.nodes {
            let was = self.base.states.get(slot as usize).is_some_and(|w| w & 1 == 1);
            live += node.alive as isize - was as isize;
        }
        live.max(0) as usize
    }

    fn resident_bytes(&self) -> usize {
        let nodes: usize = self
            .overlay
            .nodes
            .values()
            .map(|n| n.edges.len() * std::mem::size_of::<HalfEdge>() + 48)
            .sum();
        let names: usize = self.overlay.keys.iter().map(|k| key_heap_bytes(k) + 32).sum();
        self.base.resident_bytes + nodes + names
    }
}

/// The whole graph: one state per shard. The writer owns one and edits
/// it (copy-on-write per shard); a view shares a published one.
#[derive(Debug, Clone, Default)]
pub(crate) struct Graph {
    pub(crate) shards: [Arc<Shard>; SHARD_COUNT],
}

impl Graph {
    #[inline]
    pub(crate) fn shard(&self, r: NodeRef) -> &Shard {
        &self.shards[shard_of(r)]
    }

    /// The node of `key`, live or dead.
    pub(crate) fn name(&self, key: &GlobalKey) -> Option<NodeRef> {
        let shard = route(key);
        Some(make_ref(shard, self.shards[shard].name(key)?))
    }

    /// The live node of `key`.
    pub(crate) fn resolve(&self, key: &GlobalKey) -> Option<NodeRef> {
        self.name(key).filter(|&r| self.alive(r))
    }

    pub(crate) fn alive(&self, r: NodeRef) -> bool {
        self.shard(r).state(slot_of(r)).0
    }

    pub(crate) fn inc(&self, r: NodeRef) -> u32 {
        self.shard(r).state(slot_of(r)).1
    }

    pub(crate) fn key_of(&self, r: NodeRef) -> &GlobalKey {
        self.shard(r).key(slot_of(r))
    }

    /// Every half-edge in `r`'s entry, traversable or not.
    pub(crate) fn edges(&self, r: NodeRef) -> &[HalfEdge] {
        self.shard(r).edges(slot_of(r))
    }

    /// The target of a half-edge, if the edge is currently traversable.
    #[inline]
    pub(crate) fn target(&self, e: &HalfEdge) -> Option<NodeRef> {
        (self.shard(e.other).state(slot_of(e.other)) == (true, e.other_inc)).then_some(e.other)
    }

    /// The live edges of `r`, in edge-id order.
    pub(crate) fn live_edges_of(&self, r: NodeRef) -> impl Iterator<Item = &HalfEdge> {
        self.edges(r).iter().filter(|e| self.target(e).is_some())
    }

    /// The live nodes, shard by shard in slot order.
    pub(crate) fn live_nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        (0..SHARD_COUNT)
            .flat_map(move |s| (0..self.shards[s].slots()).map(move |i| make_ref(s, i)))
            .filter(|&n| self.alive(n))
    }

    /// The live `kind` edge between two keys.
    pub(crate) fn edge(
        &self,
        a: &GlobalKey,
        b: &GlobalKey,
        kind: RelationKind,
    ) -> Option<EdgeInfo> {
        let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
        self.live_edges_of(ra)
            .find(|e| e.kind == kind && e.other == rb)
            .map(|e| EdgeInfo { probability: e.prob, origin: e.origin })
    }

    /// The live edges of `key`, by probability desc then key.
    pub(crate) fn neighbors(&self, key: &GlobalKey) -> Vec<(GlobalKey, RelationKind, Probability)> {
        let Some(r) = self.resolve(key) else { return Vec::new() };
        let mut out: Vec<_> =
            self.live_edges_of(r).map(|e| (self.key_of(e.other).clone(), e.kind, e.prob)).collect();
        out.sort_by(|x, y| y.2.cmp(&x.2).then_with(|| x.0.cmp(&y.0)));
        out
    }

    /// Live nodes and edges, counted.
    pub(crate) fn stats(&self) -> IndexStats {
        let mut s = IndexStats::default();
        for n in self.live_nodes() {
            s.nodes += 1;
            // Count each live edge once, from its lower endpoint.
            for e in self.live_edges_of(n).filter(|e| n < e.other) {
                s.count_edge(e.kind, e.origin);
            }
        }
        s
    }
}

/// Published per-shard statistics (the observability surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardIndexStats {
    /// Shard number.
    pub shard: usize,
    /// Live nodes resident in the shard.
    pub entries: usize,
    /// Overlay entries layered over the packed base.
    pub overlay_depth: usize,
    /// Approximate bytes held by the published snapshot.
    pub resident_bytes: usize,
    /// Times the shard's base was recompacted.
    pub compactions: u64,
    /// Times a new snapshot of this shard was published.
    pub swaps: u64,
}

// ---------------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------------

/// Per-query BFS workspace over the packed [`NodeRef`] space. The `stamp`
/// array carries a query generation counter: a node's `best_*`/`slot`
/// entries are valid only when `stamp[r] == epoch`, so successive queries
/// reuse the buffers without clearing them.
#[derive(Debug, Default)]
struct ViewScratch {
    epoch: u32,
    stamp: Vec<u32>,
    best_prob: Vec<Probability>,
    best_dist: Vec<u32>,
    /// Dense per-query slot of a stamped node (index into `touched`).
    slot: Vec<u32>,
    /// Nodes stamped this query, in first-touch order.
    touched: Vec<NodeRef>,
    frontier: Vec<(NodeRef, Probability)>,
    next: Vec<(NodeRef, Probability)>,
    /// Per-slot owning-seed label for the ownership pass (`u32::MAX` =
    /// unowned so far).
    own_label: Vec<u32>,
    /// Slots whose label changed last round, with the label to push.
    own_frontier: Vec<(u32, u32)>,
    own_next: Vec<(u32, u32)>,
}

impl ViewScratch {
    /// Starts a new query generation over `refs` node references.
    fn begin(&mut self, refs: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        if self.stamp.len() < refs {
            self.stamp.resize(refs, 0);
            self.best_prob.resize(refs, Probability::ONE);
            self.best_dist.resize(refs, 0);
            self.slot.resize(refs, 0);
        }
        self.touched.clear();
        self.frontier.clear();
        self.next.clear();
    }

    /// Stamps `r` for this query with its first-touch probability and hop.
    fn mark(&mut self, r: NodeRef, prob: Probability, dist: u32) {
        let i = r as usize;
        self.stamp[i] = self.epoch;
        self.best_prob[i] = prob;
        self.best_dist[i] = dist;
        self.slot[i] = self.touched.len() as u32;
        self.touched.push(r);
    }

    fn is_stamped(&self, r: NodeRef) -> bool {
        self.stamp[r as usize] == self.epoch
    }
}

/// Shared pool of [`ViewScratch`] buffers; sized once for the largest
/// shard and reused across queries and views, so steady-state traversal
/// at million-node scale never re-allocates or re-zeroes visit arrays.
#[derive(Debug, Default)]
struct ViewScratchPool {
    pool: Mutex<Vec<ViewScratch>>,
}

impl ViewScratchPool {
    fn acquire(&self) -> ViewScratch {
        self.pool.lock().pop().unwrap_or_default()
    }

    fn release(&self, scratch: ViewScratch) {
        let mut pool = self.pool.lock();
        if pool.len() < 16 {
            pool.push(scratch);
        }
    }
}

/// A lock-free, immutable read handle over the index: the 16 shard
/// states current at construction time. Taking one from a
/// [`ShardedIndex`] is cheap (one lock plus one `Arc` clone) and the view
/// is stable for its lifetime — concurrent mutations publish new
/// states without disturbing an existing view.
#[derive(Clone)]
pub struct IndexView {
    graph: Arc<Graph>,
    scratch: Arc<ViewScratchPool>,
}

impl std::fmt::Debug for IndexView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexView").field("stats", &self.stats()).finish()
    }
}

impl IndexView {
    /// A standalone view of a borrowed ledger's current state, for
    /// callers that hold a bare [`AIndex`] and read it many times
    /// (baselines, tools, tests): it shares the ledger's shard states,
    /// and the ledger copies a shard's overlay on its next edit there. A
    /// served index publishes its view per batch instead: see
    /// [`ShardedIndex`].
    pub fn of(ledger: &AIndex) -> IndexView {
        IndexView { graph: Arc::new(ledger.graph.clone()), scratch: Arc::default() }
    }

    /// True if the key has a live node.
    pub fn contains(&self, key: &GlobalKey) -> bool {
        self.graph.resolve(key).is_some()
    }

    /// Details of a specific edge, if it is live.
    pub fn edge(&self, a: &GlobalKey, b: &GlobalKey, kind: RelationKind) -> Option<EdgeInfo> {
        self.graph.edge(a, b, kind)
    }

    /// The direct p-relations of `key`: `(other key, kind, probability)`.
    pub fn neighbors(&self, key: &GlobalKey) -> Vec<(GlobalKey, RelationKind, Probability)> {
        self.graph.neighbors(key)
    }

    /// Size statistics — the same count [`AIndex::stats`] takes. Full
    /// scan with visibility checks — a diagnostic surface, not a hot
    /// path.
    pub fn stats(&self) -> IndexStats {
        self.graph.stats()
    }

    /// **The augmentation primitive** (Definitions 2 and 3): all keys
    /// reachable from the `seeds` within `level + 1` hops, excluding the
    /// seeds themselves, each with the best path-product probability and
    /// ordered by decreasing probability (ties broken by key for
    /// determinism).
    ///
    /// Level 0 returns the direct p-relations of the seeds; each further
    /// level applies the construct to the previous result again.
    pub fn augment(&self, seeds: &[GlobalKey], level: usize) -> Vec<AugmentedKey> {
        self.augment_inner(seeds, level, false).0
    }

    /// The multi-seed hot path: the canonical neighbourhood (identical to
    /// [`augment`](IndexView::augment) over the same seeds) **plus**, for
    /// each returned key, the index into `seeds` of its owning seed — the
    /// first (lowest-index) seed whose own level-`level` augmentation
    /// contains the key. Both are computed in one BFS over the index
    /// instead of one traversal per seed.
    ///
    /// The ownership partition is exactly what the historical per-seed
    /// loop produced: iterate seeds in order, augment each alone, and
    /// assign every not-yet-claimed key to the current seed.
    pub fn augment_multi(
        &self,
        seeds: &[GlobalKey],
        level: usize,
    ) -> (Vec<AugmentedKey>, Vec<u32>) {
        self.augment_inner(seeds, level, true)
    }

    fn augment_inner(
        &self,
        seeds: &[GlobalKey],
        level: usize,
        ownership: bool,
    ) -> (Vec<AugmentedKey>, Vec<u32>) {
        let graph = &*self.graph;
        let mut scratch = self.scratch.acquire();
        let max_slots = graph.shards.iter().map(|s| s.slots()).max().unwrap_or(0);
        scratch.begin((max_slots as usize) << SHARD_BITS);
        for key in seeds {
            if let Some(r) = graph.resolve(key) {
                if !scratch.is_stamped(r) {
                    scratch.mark(r, Probability::ONE, 0);
                    scratch.frontier.push((r, Probability::ONE));
                }
            }
        }
        let max_hops = (level + 1) as u32;
        for hop in 1..=max_hops {
            if scratch.frontier.is_empty() {
                break;
            }
            let frontier = std::mem::take(&mut scratch.frontier);
            for &(r, p) in &frontier {
                for e in graph.edges(r) {
                    let Some(m) = graph.target(e) else { continue };
                    let cand = p.and(e.prob);
                    if !scratch.is_stamped(m) {
                        scratch.mark(m, cand, hop);
                        scratch.next.push((m, cand));
                    } else if cand > scratch.best_prob[m as usize] {
                        scratch.best_prob[m as usize] = cand;
                        scratch.best_dist[m as usize] = hop;
                        scratch.next.push((m, cand));
                    }
                }
            }
            // Recycle the spent frontier as the next `next` buffer.
            let mut spent = frontier;
            spent.clear();
            scratch.frontier = std::mem::replace(&mut scratch.next, spent);
        }

        // Seeds carry distance 0 (first-touch stamping wins, so a seed
        // reached again over an edge keeps it) and are excluded, as the
        // definition requires.
        let mut reached: Vec<(NodeRef, AugmentedKey)> = Vec::with_capacity(scratch.touched.len());
        for &r in &scratch.touched {
            let i = r as usize;
            if scratch.best_dist[i] == 0 {
                continue;
            }
            reached.push((
                r,
                AugmentedKey {
                    key: graph.key_of(r).clone(),
                    probability: scratch.best_prob[i],
                    distance: scratch.best_dist[i] as usize,
                },
            ));
        }
        reached.sort_by(|x, y| {
            y.1.probability.cmp(&x.1.probability).then_with(|| x.1.key.cmp(&y.1.key))
        });

        let owners = if ownership {
            self.ownership_pass(seeds, max_hops, &mut scratch, &reached)
        } else {
            Vec::new()
        };
        let out = reached.into_iter().map(|(_, k)| k).collect();
        self.scratch.release(scratch);
        (out, owners)
    }

    /// Computes first-reaching-seed ownership over the BFS-reached
    /// subgraph by layered min-label propagation. The owner of a node is
    /// the lowest seed index within `max_hops`, and minimum distributes
    /// over path unions, so a single `u32` label per slot suffices:
    /// after `h` strictly layered rounds a slot's label is the lowest
    /// seed index within `h` hops. Only slots whose label changed last
    /// round push this round, and a value pushed in round `h` was valid
    /// at distance `h - 1`, so labels never travel faster than one hop
    /// per round. Restricting propagation to reached nodes is lossless:
    /// every intermediate node of a within-budget path is itself within
    /// budget.
    fn ownership_pass(
        &self,
        seeds: &[GlobalKey],
        max_hops: u32,
        scratch: &mut ViewScratch,
        reached: &[(NodeRef, AugmentedKey)],
    ) -> Vec<u32> {
        const UNOWNED: u32 = u32::MAX;
        let slots = scratch.touched.len();
        scratch.own_label.clear();
        scratch.own_label.resize(slots, UNOWNED);
        scratch.own_frontier.clear();
        scratch.own_next.clear();
        for (j, key) in seeds.iter().enumerate() {
            if let Some(r) = self.graph.resolve(key) {
                let s = scratch.slot[r as usize];
                let label = &mut scratch.own_label[s as usize];
                if (j as u32) < *label {
                    if *label == UNOWNED {
                        scratch.own_frontier.push((s, 0));
                    }
                    *label = j as u32;
                }
            }
        }
        for entry in &mut scratch.own_frontier {
            entry.1 = scratch.own_label[entry.0 as usize];
        }
        for _ in 1..=max_hops {
            if scratch.own_frontier.is_empty() {
                break;
            }
            let frontier = std::mem::take(&mut scratch.own_frontier);
            for &(s, v) in &frontier {
                let r = scratch.touched[s as usize];
                for e in self.graph.edges(r) {
                    let Some(m) = self.graph.target(e) else { continue };
                    if scratch.stamp[m as usize] != scratch.epoch {
                        continue;
                    }
                    let sm = scratch.slot[m as usize];
                    if v < scratch.own_label[sm as usize] {
                        scratch.own_label[sm as usize] = v;
                        scratch.own_next.push((sm, v));
                    }
                }
            }
            let mut spent = frontier;
            spent.clear();
            scratch.own_frontier = std::mem::replace(&mut scratch.own_next, spent);
        }
        reached
            .iter()
            .map(|&(r, _)| {
                let owner = scratch.own_label[scratch.slot[r as usize] as usize];
                assert_ne!(owner, UNOWNED, "reached node must be owned by some seed");
                owner
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------------

/// Compaction trigger: fold an overlay into a fresh base once it
/// exceeds an eighth of the base (with a floor so small shards do not
/// recompact on every batch).
fn wants_compaction(overlay_len: usize, base_len: usize) -> bool {
    overlay_len > 64.max(base_len / 8)
}

/// What one [`ShardedIndex::apply`] call did to the
/// published index. The durability layer uses `dirty` to track which
/// shards to re-serialize at the next checkpoint cut and `compacted` as
/// the cut trigger (a compaction has just rebuilt exactly the state a
/// checkpoint serializes).
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Shards whose published snapshot was replaced by this update.
    pub touched: Vec<usize>,
    /// Shards whose packed base was rebuilt by this update.
    pub compacted: Vec<usize>,
    /// Shards whose [serialized form](ShardedIndex::serialize_shard)
    /// changed: every `touched` shard, plus the home shards of a lazily
    /// removed object's neighbours — each lost an edge line although its
    /// snapshot was not republished.
    pub dirty: Vec<usize>,
}

/// The served A' index: the writer-side [`AIndex`] and the shard states
/// it last published. See the module docs.
#[derive(Debug)]
pub struct ShardedIndex {
    ledger: Mutex<AIndex>,
    published: Mutex<Arc<Graph>>,
    swaps: [AtomicU64; SHARD_COUNT],
    compactions: [AtomicU64; SHARD_COUNT],
    scratch: Arc<ViewScratchPool>,
}

impl ShardedIndex {
    /// Publishes `index` with every overlay folded into its base.
    /// Construction does not count toward the swap or compaction counters
    /// — they measure post-build mutation traffic.
    pub fn new(mut index: AIndex) -> Self {
        index.fold_all();
        ShardedIndex {
            published: Mutex::new(Arc::new(index.graph.clone())),
            ledger: Mutex::new(index),
            swaps: std::array::from_fn(|_| AtomicU64::new(0)),
            compactions: std::array::from_fn(|_| AtomicU64::new(0)),
            scratch: Arc::default(),
        }
    }

    /// Takes an immutable read view of the published states.
    pub fn view(&self) -> IndexView {
        IndexView { graph: self.published.lock().clone(), scratch: Arc::clone(&self.scratch) }
    }

    /// A standalone clone of the ledger (persistence surface). It shares
    /// the shard states until either side edits them.
    pub fn snapshot(&self) -> AIndex {
        self.ledger.lock().clone()
    }

    /// Applies a batch of logical mutations to the ledger's shard states,
    /// then publishes every shard they edited as one atomic transition —
    /// every other shard untouched. Reports which shards were
    /// republished, compacted and dirtied — the checkpoint boundary.
    pub fn apply(&self, ops: &[IndexOp]) -> UpdateReport {
        let mut ledger = self.ledger.lock();
        let mut unlinked = [false; SHARD_COUNT];
        for op in ops {
            // A removal hides its edges from the far ends without editing
            // their shards, but their serialized form loses the lines.
            if let IndexOp::RemoveObject { key } = op {
                if let Some(n) = ledger.graph.resolve(key) {
                    for e in ledger.graph.live_edges_of(n) {
                        unlinked[shard_of(e.other)] = true;
                    }
                }
            }
            op.apply(&mut ledger);
        }
        let mut published = self.published.lock();
        let mut report = UpdateReport::default();
        for (shard, unlinked) in unlinked.into_iter().enumerate() {
            let state = &ledger.graph.shards[shard];
            let touched = !Arc::ptr_eq(state, &published.shards[shard]);
            if touched {
                self.swaps[shard].fetch_add(1, Ordering::Relaxed);
                report.touched.push(shard);
                if wants_compaction(state.overlay.nodes.len(), state.base.keys.len()) {
                    ledger.fold(shard);
                    self.compactions[shard].fetch_add(1, Ordering::Relaxed);
                    report.compacted.push(shard);
                }
            }
            if touched || unlinked {
                report.dirty.push(shard);
            }
        }
        if !report.touched.is_empty() {
            *published = Arc::new(ledger.graph.clone());
        }
        report
    }

    /// Serializes one shard's live members and their incident edges as
    /// checkpoint body lines (the [`crate::serial`] line format).
    /// Cross-shard edges appear once per endpoint shard; loading
    /// re-applies them idempotently.
    pub fn serialize_shard(&self, shard: usize) -> String {
        let ledger = self.ledger.lock();
        let graph = &ledger.graph;
        let mut out = String::new();
        for slot in 0..graph.shards[shard].slots() {
            let n = make_ref(shard, slot);
            if !graph.alive(n) {
                continue;
            }
            let key = graph.key_of(n);
            serial::write_node(&mut out, key);
            for e in graph.live_edges_of(n) {
                serial::write_edge(&mut out, e.kind, e.origin, e.prob, key, graph.key_of(e.other));
            }
        }
        out
    }

    /// Replaces the whole index with `staged`'s ledger and published
    /// states, built by [`ShardedIndex::new`] off the writer path (every
    /// shard counts one swap and one compaction). A caller that must
    /// persist the new index first serializes `staged` before publishing
    /// it.
    pub fn replace(&self, staged: ShardedIndex) {
        let mut ledger = self.ledger.lock();
        *ledger = staged.ledger.into_inner();
        for shard in 0..SHARD_COUNT {
            self.swaps[shard].fetch_add(1, Ordering::Relaxed);
            self.compactions[shard].fetch_add(1, Ordering::Relaxed);
        }
        *self.published.lock() = staged.published.into_inner();
    }

    /// Per-shard statistics of the published states.
    pub fn shard_stats(&self) -> Vec<ShardIndexStats> {
        let graph = self.published.lock().clone();
        graph
            .shards
            .iter()
            .enumerate()
            .map(|(shard, state)| ShardIndexStats {
                shard,
                entries: state.live_count(),
                overlay_depth: state.overlay.nodes.len(),
                resident_bytes: state.resident_bytes(),
                compactions: self.compactions[shard].load(Ordering::Relaxed),
                swaps: self.swaps[shard].load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> GlobalKey {
        s.parse().unwrap()
    }

    fn p(f: f64) -> Probability {
        Probability::of(f)
    }

    fn remove(key: &str) -> IndexOp {
        IndexOp::RemoveObject { key: k(key) }
    }

    /// A deterministic, structurally varied index: identity chains with
    /// cross-store cliques plus matchings, like the workload builder's
    /// shape but self-contained.
    fn sample_index(groups: usize) -> AIndex {
        let mut ix = AIndex::new();
        for g in 0..groups {
            let a = k(&format!("db0.c.a{g}"));
            let b = k(&format!("db1.c.b{g}"));
            let c = k(&format!("db2.c.c{g}"));
            ix.insert_identity(&a, &b, p(0.9 + 0.001 * (g % 50) as f64));
            ix.insert_identity(&b, &c, p(0.85));
            let m = k(&format!("db3.c.m{}", g / 2));
            ix.insert_matching(&a, &m, p(0.7 + 0.002 * (g % 30) as f64));
            if g > 0 {
                let prev = k(&format!("db0.c.a{}", g - 1));
                ix.insert_matching(&prev, &c, p(0.6));
            }
        }
        ix
    }

    fn seed_sets(groups: usize) -> Vec<Vec<GlobalKey>> {
        let mut sets =
            vec![vec![k("db0.c.a0")], vec![k("db1.c.b1"), k("db2.c.c2")], vec![k("no.such.key")]];
        let multi: Vec<GlobalKey> = (0..groups.min(7)).map(|g| k(&format!("db0.c.a{g}"))).collect();
        sets.push(multi);
        sets
    }

    /// A copy of `ledger` rebuilt from its live nodes and edges alone,
    /// every shard folded into a fresh base with no overlay: nothing of
    /// the maintained states (overlays, stale halves, slot numbering)
    /// carries over.
    fn rebuilt(ledger: &AIndex) -> IndexView {
        let mut copy = AIndex::new();
        for key in ledger.keys() {
            copy.ensure_node(key);
        }
        for (a, b, kind, p, origin) in ledger.live_edges() {
            copy.insert_raw(a, b, kind, p, origin);
        }
        copy.fold_all();
        assert!(copy.graph.shards.iter().all(|s| s.overlay.nodes.is_empty()));
        IndexView::of(&copy)
    }

    /// The incrementally maintained view must answer exactly as a fresh
    /// rebuild of the same ledger does, and agree with the ledger's own
    /// point lookups.
    fn assert_equivalent(sharded: &ShardedIndex, groups: usize) {
        let ledger = sharded.snapshot();
        let fresh = rebuilt(&ledger);
        let view = sharded.view();
        assert_eq!(fresh.stats(), view.stats(), "stats diverge from a fresh rebuild");
        for seeds in seed_sets(groups) {
            for level in 0..3 {
                let (want, want_own) = fresh.augment_multi(&seeds, level);
                let (got, got_own) = view.augment_multi(&seeds, level);
                assert_eq!(want, got, "augment diverges (level {level}, seeds {seeds:?})");
                assert_eq!(want_own, got_own, "ownership diverges (level {level})");
            }
        }
        for g in 0..groups {
            let key = k(&format!("db0.c.a{g}"));
            assert_eq!(ledger.contains(&key), view.contains(&key));
            assert_eq!(fresh.neighbors(&key), view.neighbors(&key));
            let b = k(&format!("db1.c.b{g}"));
            assert_eq!(
                ledger.edge(&key, &b, RelationKind::Identity),
                view.edge(&key, &b, RelationKind::Identity)
            );
        }
    }

    #[test]
    fn projection_matches_master_after_build() {
        let sharded = ShardedIndex::new(sample_index(20));
        assert_equivalent(&sharded, 20);
    }

    #[test]
    fn projection_matches_master_under_mutation() {
        let sharded = ShardedIndex::new(sample_index(20));
        // Interleave removals, inserts and re-inserts.
        for g in [3usize, 7, 11] {
            sharded.apply(&[remove(&format!("db1.c.b{g}"))]);
        }
        sharded.apply(&[
            IndexOp::InsertIdentity { a: k("db0.c.a3"), b: k("db4.c.fresh"), p: p(0.8) },
            IndexOp::InsertMatching { a: k("db4.c.fresh"), b: k("db3.c.m1"), p: p(0.55) },
        ]);
        // Resurrect a removed key with a new relation.
        sharded.apply(&[IndexOp::InsertIdentity {
            a: k("db1.c.b7"),
            b: k("db2.c.c7"),
            p: p(0.95),
        }]);
        assert_equivalent(&sharded, 20);
    }

    #[test]
    fn removal_swaps_exactly_one_shard() {
        let sharded = ShardedIndex::new(sample_index(12));
        let before: Vec<u64> = sharded.shard_stats().iter().map(|s| s.swaps).collect();
        assert!(before.iter().all(|&s| s == 0), "construction must not count as swaps");
        let victim = k("db0.c.a5");
        sharded.apply(&[IndexOp::RemoveObject { key: victim.clone() }]);
        let after: Vec<u64> = sharded.shard_stats().iter().map(|s| s.swaps).collect();
        let home = route(&victim);
        for (shard, (&b, &a)) in before.iter().zip(after.iter()).enumerate() {
            if shard == home {
                assert_eq!(a, b + 1, "home shard must republish exactly once");
            } else {
                assert_eq!(a, b, "shard {shard} must be untouched by a removal");
            }
        }
        assert!(!sharded.view().contains(&victim));
    }

    #[test]
    fn removal_hides_edges_without_touching_neighbor_shards() {
        let sharded = ShardedIndex::new(sample_index(12));
        let victim = k("db1.c.b4");
        let neighbor = k("db0.c.a4");
        assert!(sharded.view().edge(&neighbor, &victim, RelationKind::Identity).is_some());
        sharded.apply(&[IndexOp::RemoveObject { key: victim.clone() }]);
        let view = sharded.view();
        assert!(view.edge(&neighbor, &victim, RelationKind::Identity).is_none());
        assert!(view.contains(&neighbor));
        assert_eq!(sharded.snapshot().stats(), view.stats());
    }

    #[test]
    fn removal_reports_neighbor_shards_dirty_but_republishes_only_home() {
        let sharded = ShardedIndex::new(sample_index(12));
        let victim = k("db1.c.b4");
        let mut expected: Vec<usize> =
            sharded.view().neighbors(&victim).iter().map(|(n, _, _)| route(n)).collect();
        expected.push(route(&victim));
        expected.sort_unstable();
        expected.dedup();
        assert!(expected.len() > 1, "the sample must spread the victim's neighbours");
        let report = sharded.apply(&[IndexOp::RemoveObject { key: victim.clone() }]);
        assert_eq!(report.touched, vec![route(&victim)]);
        assert_eq!(report.dirty, expected, "every shard that lost a serialized line is dirty");
    }

    #[test]
    fn resurrection_does_not_revive_stale_edges() {
        let sharded = ShardedIndex::new(sample_index(8));
        let victim = k("db2.c.c3");
        sharded.apply(&[IndexOp::RemoveObject { key: victim.clone() }]);
        // Re-insert the key with a single fresh relation; the old edges
        // stay dead even though neighbouring shards still hold stale
        // half-edges (their incarnation check must fail).
        sharded.apply(&[IndexOp::InsertMatching {
            a: victim.clone(),
            b: k("db5.c.new"),
            p: p(0.5),
        }]);
        assert_equivalent(&sharded, 8);
        let view = sharded.view();
        assert!(view.contains(&victim));
        assert!(view.edge(&k("db1.c.b3"), &victim, RelationKind::Identity).is_none());
        assert!(view.edge(&victim, &k("db5.c.new"), RelationKind::Matching).is_some());
    }

    #[test]
    fn views_are_stable_snapshots() {
        let sharded = ShardedIndex::new(sample_index(10));
        let victim = k("db0.c.a2");
        let before = sharded.view();
        assert!(before.contains(&victim));
        let reached_before = before.augment(std::slice::from_ref(&victim), 1);
        sharded.apply(&[IndexOp::RemoveObject { key: victim.clone() }]);
        // The old view still sees the pre-mutation world…
        assert!(before.contains(&victim));
        assert_eq!(before.augment(std::slice::from_ref(&victim), 1), reached_before);
        // …while a fresh view sees the post-mutation world.
        assert!(!sharded.view().contains(&victim));
    }

    #[test]
    fn overlay_compaction_folds_and_stays_equivalent() {
        let groups = 40;
        let sharded = ShardedIndex::new(sample_index(groups));
        // Enough single-key mutations to push overlays past the trigger
        // floor (64 entries per shard) — each round creates `groups`
        // fresh nodes that stay in their shard's overlay until folded.
        for round in 0..30 {
            for g in 0..groups {
                sharded.apply(&[IndexOp::InsertMatching {
                    a: k(&format!("db3.c.m{}", g / 2)),
                    b: k(&format!("db6.c.x{round}_{g}")),
                    p: p(0.4 + 0.01 * (g % 10) as f64),
                }]);
            }
        }
        let stats = sharded.shard_stats();
        assert!(
            stats.iter().any(|s| s.compactions > 0),
            "sustained mutation must trigger compaction: {stats:?}"
        );
        assert_equivalent(&sharded, groups);
    }

    #[test]
    fn deleting_a_relation_between_survivors_republishes_both_shards() {
        let (a, c, m) = (k("db0.c.a"), k("db2.c.c"), k("db3.c.m"));
        // The deleted relation's endpoints live in different shards.
        let b = (0..).map(|i| k(&format!("db1.c.b{i}"))).find(|b| route(b) != route(&a)).unwrap();
        let mut ix = AIndex::new();
        ix.insert_identity(&a, &b, p(0.9));
        ix.insert_identity(&b, &c, p(0.8));
        ix.insert_matching(&a, &m, p(0.7));
        let sharded = ShardedIndex::new(ix);
        assert!(sharded.view().edge(&a, &b, RelationKind::Identity).is_some());
        // Deleting a ~ b keeps a ~ c, which was inferred through it.
        let report = sharded.apply(&[IndexOp::DeleteRelation {
            a: a.clone(),
            b: b.clone(),
            kind: RelationKind::Identity,
        }]);
        let mut endpoints = vec![route(&a), route(&b)];
        endpoints.sort_unstable();
        assert_eq!(report.touched, endpoints, "both endpoint shards republish");
        let ledger = sharded.snapshot();
        let fresh = rebuilt(&ledger);
        let view = sharded.view();
        assert!(view.edge(&a, &b, RelationKind::Identity).is_none());
        let sibling = view.edge(&a, &c, RelationKind::Identity).expect("inferred sibling survives");
        assert_eq!(sibling.origin, EdgeOrigin::Inferred);
        assert_eq!(ledger.stats(), view.stats());
        assert_eq!(fresh.stats(), view.stats());
        for key in [&a, &b, &c, &m] {
            assert_eq!(fresh.neighbors(key), view.neighbors(key));
        }
        for seeds in [vec![a.clone()], vec![c.clone(), m.clone()]] {
            for level in 0..3 {
                assert_eq!(fresh.augment_multi(&seeds, level), view.augment_multi(&seeds, level));
            }
        }
    }

    #[test]
    fn half_edge_is_24_bytes() {
        assert_eq!(std::mem::size_of::<HalfEdge>(), 24);
    }

    #[test]
    fn apply_reports_compactions() {
        let groups = 40;
        let sharded = ShardedIndex::new(sample_index(groups));
        let mut reported: Vec<usize> = Vec::new();
        for round in 0..30 {
            for g in 0..groups {
                let report = sharded.apply(&[IndexOp::InsertMatching {
                    a: k(&format!("db3.c.m{}", g / 2)),
                    b: k(&format!("db6.c.y{round}_{g}")),
                    p: p(0.5),
                }]);
                reported.extend(report.compacted);
            }
        }
        let stats = sharded.shard_stats();
        for s in &stats {
            let seen = reported.iter().filter(|&&c| c == s.shard).count() as u64;
            assert_eq!(seen, s.compactions, "shard {} compaction count", s.shard);
        }
        assert!(!reported.is_empty(), "sustained mutation must compact");
    }

    #[test]
    fn serialize_shard_covers_every_live_node_once() {
        let sharded = ShardedIndex::new(sample_index(15));
        sharded.apply(&[remove("db1.c.b4")]);
        let mut node_lines = 0;
        for shard in 0..SHARD_COUNT {
            let body = sharded.serialize_shard(shard);
            node_lines += body.lines().filter(|l| l.starts_with("node ")).count();
            assert!(!body.contains(&format!("node {}", "db1.c.b4")), "dead node serialized");
        }
        assert_eq!(node_lines, sharded.snapshot().stats().nodes);
    }

    #[test]
    fn shard_stats_account_entries_and_bytes() {
        let sharded = ShardedIndex::new(sample_index(30));
        let stats = sharded.shard_stats();
        let total: usize = stats.iter().map(|s| s.entries).sum();
        assert_eq!(total, sharded.snapshot().stats().nodes);
        assert!(stats.iter().map(|s| s.resident_bytes).sum::<usize>() > 0);
        assert!(stats.iter().filter(|s| s.entries > 0).count() > 1, "keys must spread shards");
    }

    /// Regression: re-projecting a node that already sits in the overlay
    /// replaces its bytes in the gauge instead of adding to them.
    #[test]
    fn resident_bytes_do_not_grow_when_the_same_nodes_are_retouched() {
        let resident_after = |touches: usize| {
            let sharded = ShardedIndex::new(sample_index(12));
            for i in 0..touches {
                // Each strengthening rewrites the same endpoints.
                sharded.apply(&[IndexOp::InsertMatching {
                    a: k("db0.c.a1"),
                    b: k("db3.c.m5"),
                    p: p(0.5 + 0.01 * i as f64),
                }]);
            }
            let stats = sharded.shard_stats();
            assert!(stats.iter().all(|s| s.compactions == 0), "must stay in the overlay");
            stats.iter().map(|s| s.resident_bytes).sum::<usize>()
        };
        assert_eq!(resident_after(40), resident_after(1));
    }

    #[test]
    fn replace_rebuilds_every_shard() {
        let sharded = ShardedIndex::new(sample_index(5));
        sharded.replace(ShardedIndex::new(sample_index(9)));
        assert_equivalent(&sharded, 9);
        assert!(sharded.shard_stats().iter().all(|s| s.swaps == 1 && s.compactions == 1));
    }
}
