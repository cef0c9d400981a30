//! Sharded A' index: per-shard immutable snapshots with delta overlays,
//! and the one traversal kernel that reads them.
//!
//! The [`AIndex`] ledger decides what a mutation does but cannot publish
//! it cheaply: handing concurrent readers a changed ledger means cloning
//! the whole thing. [`ShardedIndex`] keeps the ledger as the single
//! writer-side source of truth and *projects* it into [`SHARD_COUNT`]
//! read-only shard snapshots, each holding the nodes whose global key
//! hashes into it plus their half-edges. The two share one id space: the
//! ledger interns a key into the next slot of its home shard, so a shard
//! is built by reading the ledger's slots for it in order, and every
//! incarnation counter lives in the ledger. Mutations run against the
//! ledger under the writer lock; a journal of touched nodes is then
//! drained into small per-shard **delta overlays**, so a lazy deletion
//! republishes exactly one shard while every other shard's snapshot (and
//! any in-flight [`IndexView`]) is untouched. An amortized compactor
//! folds an overlay back into a fresh packed base once it grows past a
//! fraction of the base. Every augmentation — served queries, baselines,
//! the differential harness — reads through an [`IndexView`]: either the
//! maintained one ([`ShardedIndex::view`]) or a one-off projection of a
//! borrowed ledger ([`IndexView::of`]).
//!
//! ## Visibility rules
//!
//! A shard stores *half-edges*: node `a`'s entry lists `(b, inc_b, kind,
//! prob, origin)` for every edge `a—b` that was live when the entry was
//! built. A half-edge is traversable iff `b` is currently alive **and**
//! `b`'s current incarnation equals the recorded `inc_b`. Incarnations
//! bump only when a lazily-deleted node is resurrected, which closes the
//! ghost-edge hole: killing `b` hides all of `b`'s edges without touching
//! the neighbouring shards (their stale half-edges fail the liveness
//! check), and resurrecting `b` later does not revive them (the stale
//! half-edges now fail the incarnation check). Any *edge* change —
//! insert, strengthen, revive, kill between two survivors — rebuilds
//! both endpoints' entries, so a live edge is always recorded on both
//! sides with current incarnations. Consequently the maintained view
//! answers every query exactly as a fresh projection of the ledger does.
//!
//! ## Determinism
//!
//! The BFS relaxation and the ownership min-label pass are both
//! order-independent (best probability wins with strict improvement;
//! `min` distributes over path unions), and the final sort canonicalizes
//! by `(probability desc, key asc)` — so the order half-edges sit in a
//! shard (packed base or overlay, before or after a compaction) never
//! shows in an answer. The differential harness (`quepa-check`) pins the
//! kernel against an independent reference model across the full
//! scenario smoke.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quepa_pdm::{GlobalKey, Probability, RelationKind};

use crate::index::{AIndex, AugmentedKey, EdgeInfo, EdgeOrigin, IndexStats, JournalOp};
use crate::serial;

/// Number of shards the key space is hashed over.
pub const SHARD_COUNT: usize = 16;
const SHARD_BITS: u32 = 4;
const SHARD_MASK: u32 = (SHARD_COUNT as u32) - 1;

/// Packed node reference: local slot in the high bits, shard in the low
/// [`SHARD_BITS`] bits — the ledger's node id and the projection's
/// address at once. Slots are dense per shard and never reused, so the
/// reference space stays compact enough for epoch-stamped scratch.
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

/// One directed half of an edge, stored in its owning endpoint's shard.
#[derive(Debug, Clone, Copy)]
struct HalfEdge {
    other: NodeRef,
    /// The other endpoint's incarnation when this entry was built.
    other_inc: u32,
    kind: RelationKind,
    prob: Probability,
    origin: EdgeOrigin,
}

/// The packed, immutable part of a shard: produced by compaction, shared
/// (via `Arc`) across successive overlay publications.
#[derive(Debug, Default)]
struct ShardBase {
    /// key → slot, for every node named in this shard at compaction time.
    names: HashMap<GlobalKey, u32>,
    /// slot → key.
    keys: Vec<GlobalKey>,
    alive: Vec<bool>,
    incs: Vec<u32>,
    /// CSR offsets over `edges`; `len == keys.len() + 1`.
    offsets: Vec<u32>,
    edges: Vec<HalfEdge>,
    live_nodes: usize,
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

    fn resident_bytes(&self) -> usize {
        let key_bytes: usize = self.keys.iter().map(key_heap_bytes).sum();
        // Names hold a second copy of every key plus map overhead.
        key_bytes * 2
            + self.names.len() * (std::mem::size_of::<GlobalKey>() + 16)
            + self.keys.len()
                * (std::mem::size_of::<GlobalKey>() + 1 + 4 + std::mem::size_of::<u32>())
            + self.edges.len() * std::mem::size_of::<HalfEdge>()
            + self.offsets.len() * 4
    }
}

fn key_heap_bytes(k: &GlobalKey) -> usize {
    k.database().as_str().len() + k.collection().as_str().len() + k.key().as_str().len()
}

/// Projected state of one node, overriding the base until compaction.
#[derive(Debug, Clone)]
struct OverlayNode {
    key: GlobalKey,
    alive: bool,
    inc: u32,
    edges: Vec<HalfEdge>,
}

impl OverlayNode {
    fn resident_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<HalfEdge>() + 48
    }
}

/// The mutable delta layered over a [`ShardBase`]. Cloned on publication
/// (it stays small by construction — compaction folds it away).
#[derive(Debug, Clone, Default)]
struct Overlay {
    /// slot → projected node state.
    nodes: HashMap<u32, OverlayNode>,
    /// Names registered since the base was built.
    names: HashMap<GlobalKey, u32>,
}

/// One shard's published snapshot: an immutable packed base plus a small
/// overlay readers merge on the fly.
#[derive(Debug)]
struct ShardSnap {
    base: Arc<ShardBase>,
    overlay: Overlay,
    /// Total slots in this shard (base slots + nodes created since).
    slots: u32,
    resident_bytes: usize,
}

impl ShardSnap {
    fn name(&self, key: &GlobalKey) -> Option<u32> {
        self.overlay.names.get(key).or_else(|| self.base.names.get(key)).copied()
    }

    fn alive(&self, slot: u32) -> bool {
        if let Some(o) = self.overlay.nodes.get(&slot) {
            return o.alive;
        }
        self.base.alive.get(slot as usize).copied().unwrap_or(false)
    }

    fn inc(&self, slot: u32) -> u32 {
        if let Some(o) = self.overlay.nodes.get(&slot) {
            return o.inc;
        }
        self.base.incs.get(slot as usize).copied().unwrap_or(0)
    }

    fn key(&self, slot: u32) -> &GlobalKey {
        if let Some(o) = self.overlay.nodes.get(&slot) {
            return &o.key;
        }
        &self.base.keys[slot as usize]
    }

    fn edges(&self, slot: u32) -> &[HalfEdge] {
        if let Some(o) = self.overlay.nodes.get(&slot) {
            return &o.edges;
        }
        self.base.edges_of(slot)
    }

    fn live_count(&self) -> usize {
        let mut live = self.base.live_nodes as isize;
        for (&slot, node) in &self.overlay.nodes {
            let was = self.base.alive.get(slot as usize).copied().unwrap_or(false);
            live += node.alive as isize - was as isize;
        }
        live.max(0) as usize
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

/// The atomically published projection: one snapshot per shard.
#[derive(Debug)]
struct Directory {
    shards: [Arc<ShardSnap>; SHARD_COUNT],
    max_slots: u32,
}

impl Directory {
    fn new(shards: [Arc<ShardSnap>; SHARD_COUNT]) -> Self {
        let max_slots = shards.iter().map(|s| s.slots).max().unwrap_or(0);
        Directory { shards, max_slots }
    }
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
/// snapshots current at construction time. Taking one from a
/// [`ShardedIndex`] is cheap (one lock plus one `Arc` clone) and the view
/// is stable for its lifetime — concurrent mutations publish new
/// snapshots without disturbing an existing view.
#[derive(Clone)]
pub struct IndexView {
    dir: Arc<Directory>,
    scratch: Arc<ViewScratchPool>,
}

impl std::fmt::Debug for IndexView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexView").field("stats", &self.stats()).finish()
    }
}

impl IndexView {
    /// Projects a borrowed ledger into a standalone view — a full build
    /// of every shard, for callers that hold a bare [`AIndex`] and read
    /// it many times (baselines, tools, tests). A served index keeps its
    /// view current incrementally instead: see [`ShardedIndex`].
    pub fn of(ledger: &AIndex) -> IndexView {
        IndexView { dir: Arc::new(project_ledger(ledger)), scratch: Arc::default() }
    }

    #[inline]
    fn snap(&self, shard: usize) -> &ShardSnap {
        &self.dir.shards[shard]
    }

    /// Resolves a key to its node reference, if live.
    fn resolve(&self, key: &GlobalKey) -> Option<NodeRef> {
        let shard = route(key);
        let snap = self.snap(shard);
        let slot = snap.name(key)?;
        snap.alive(slot).then(|| make_ref(shard, slot))
    }

    /// The target of a half-edge, if the edge is currently traversable.
    #[inline]
    fn target(&self, e: &HalfEdge) -> Option<NodeRef> {
        let snap = self.snap(shard_of(e.other));
        let slot = slot_of(e.other);
        (snap.alive(slot) && snap.inc(slot) == e.other_inc).then_some(e.other)
    }

    fn key_of(&self, r: NodeRef) -> &GlobalKey {
        self.snap(shard_of(r)).key(slot_of(r))
    }

    /// True if the key has a live node.
    pub fn contains(&self, key: &GlobalKey) -> bool {
        self.resolve(key).is_some()
    }

    /// Details of a specific edge, if it is live.
    pub fn edge(&self, a: &GlobalKey, b: &GlobalKey, kind: RelationKind) -> Option<EdgeInfo> {
        let ra = self.resolve(a)?;
        let rb = self.resolve(b)?;
        self.snap(shard_of(ra))
            .edges(slot_of(ra))
            .iter()
            .find(|e| e.kind == kind && e.other == rb && self.target(e) == Some(rb))
            .map(|e| EdgeInfo { probability: e.prob, origin: e.origin })
    }

    /// The direct p-relations of `key`: `(other key, kind, probability)`.
    pub fn neighbors(&self, key: &GlobalKey) -> Vec<(GlobalKey, RelationKind, Probability)> {
        let Some(r) = self.resolve(key) else { return Vec::new() };
        let mut out: Vec<_> = self
            .snap(shard_of(r))
            .edges(slot_of(r))
            .iter()
            .filter_map(|e| self.target(e).map(|t| (self.key_of(t).clone(), e.kind, e.prob)))
            .collect();
        out.sort_by(|x, y| y.2.cmp(&x.2).then_with(|| x.0.cmp(&y.0)));
        out
    }

    /// Size statistics, identical to the ledger's [`AIndex::stats`]. Full
    /// scan with visibility checks — a diagnostic surface, not a hot
    /// path.
    pub fn stats(&self) -> IndexStats {
        let mut s = IndexStats::default();
        for (shard, snap) in self.dir.shards.iter().enumerate() {
            for slot in 0..snap.slots {
                if !snap.alive(slot) {
                    continue;
                }
                s.nodes += 1;
                let me = make_ref(shard, slot);
                for e in snap.edges(slot) {
                    // Count each live edge once, from its lower endpoint.
                    if me < e.other && self.target(e).is_some() {
                        s.count_edge(e.kind, e.origin);
                    }
                }
            }
        }
        s
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
        let mut scratch = self.scratch.acquire();
        scratch.begin((self.dir.max_slots as usize) << SHARD_BITS);
        for key in seeds {
            if let Some(r) = self.resolve(key) {
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
                let snap = self.snap(shard_of(r));
                for e in snap.edges(slot_of(r)) {
                    let Some(m) = self.target(e) else { continue };
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
                    key: self.key_of(r).clone(),
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
            if let Some(r) = self.resolve(key) {
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
                let snap = self.snap(shard_of(r));
                for e in snap.edges(slot_of(r)) {
                    let Some(m) = self.target(e) else { continue };
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

/// The traversable half-edges of ledger node `n`, stamped with each far
/// endpoint's current incarnation.
fn half_edges(ledger: &AIndex, n: NodeRef) -> impl Iterator<Item = HalfEdge> + '_ {
    ledger.live_incident_of(n).map(|(other, kind, prob, origin)| HalfEdge {
        other,
        other_inc: ledger.inc_of(other),
        kind,
        prob,
        origin,
    })
}

/// Builds the projected state of one ledger node.
fn project(ledger: &AIndex, n: NodeRef) -> OverlayNode {
    let alive = ledger.node_alive(n);
    let edges = if alive { half_edges(ledger, n).collect() } else { Vec::new() };
    OverlayNode { key: ledger.key_at(n).clone(), alive, inc: ledger.inc_of(n), edges }
}

/// Packs one shard's base from the ledger's slots (build and compaction).
fn compact_shard(ledger: &AIndex, shard: usize) -> ShardSnap {
    let slots = ledger.shard_len(shard);
    let len = slots as usize;
    let mut base = ShardBase {
        names: HashMap::with_capacity(len),
        keys: Vec::with_capacity(len),
        alive: Vec::with_capacity(len),
        incs: Vec::with_capacity(len),
        offsets: Vec::with_capacity(len + 1),
        edges: Vec::new(),
        live_nodes: 0,
    };
    for slot in 0..slots {
        let n = make_ref(shard, slot);
        let key = ledger.key_at(n);
        base.names.insert(key.clone(), slot);
        base.keys.push(key.clone());
        let alive = ledger.node_alive(n);
        base.alive.push(alive);
        base.incs.push(ledger.inc_of(n));
        base.offsets.push(base.edges.len() as u32);
        if alive {
            base.live_nodes += 1;
            base.edges.extend(half_edges(ledger, n));
        }
    }
    base.offsets.push(base.edges.len() as u32);
    let resident_bytes = base.resident_bytes();
    ShardSnap { base: Arc::new(base), overlay: Overlay::default(), slots, resident_bytes }
}

/// Projects a whole ledger: packs all [`SHARD_COUNT`] shard bases.
fn project_ledger(ledger: &AIndex) -> Directory {
    Directory::new(std::array::from_fn(|shard| Arc::new(compact_shard(ledger, shard))))
}

/// Takes ownership of `ledger`, journaling from here on, and projects it
/// in full.
fn journaled(mut ledger: AIndex) -> (AIndex, Directory) {
    ledger.set_journaling(true);
    ledger.take_journal();
    let dir = project_ledger(&ledger);
    (ledger, dir)
}

/// Compaction trigger: fold the overlay into a fresh base once it
/// exceeds an eighth of the base (with a floor so small shards do not
/// recompact on every drain).
fn wants_compaction(overlay_len: usize, base_len: usize) -> bool {
    overlay_len > 64.max(base_len / 8)
}

/// What one [`ShardedIndex::update_reporting`] call did to the
/// projection. The durability layer uses `dirty` to track which shards
/// to re-serialize at the next checkpoint cut and `compacted` as the cut
/// trigger (a compaction has just rebuilt exactly the state a checkpoint
/// serializes).
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

/// The sharded A' index: a writer-side [`AIndex`] ledger projected into
/// hash shards with delta-overlay mutation. See the module docs.
#[derive(Debug)]
pub struct ShardedIndex {
    ledger: Mutex<AIndex>,
    published: Mutex<Arc<Directory>>,
    swaps: [AtomicU64; SHARD_COUNT],
    compactions: [AtomicU64; SHARD_COUNT],
    scratch: Arc<ViewScratchPool>,
}

impl ShardedIndex {
    /// Builds the sharded projection of `index` (a full compaction of
    /// every shard). Construction does not count toward the swap or
    /// compaction counters — they measure post-build mutation traffic.
    pub fn new(index: AIndex) -> Self {
        let (ledger, dir) = journaled(index);
        ShardedIndex {
            ledger: Mutex::new(ledger),
            published: Mutex::new(Arc::new(dir)),
            swaps: std::array::from_fn(|_| AtomicU64::new(0)),
            compactions: std::array::from_fn(|_| AtomicU64::new(0)),
            scratch: Arc::default(),
        }
    }

    /// Takes an immutable read view of the current projection.
    pub fn view(&self) -> IndexView {
        IndexView { dir: self.published.lock().clone(), scratch: Arc::clone(&self.scratch) }
    }

    /// A standalone clone of the ledger (persistence surface).
    pub fn snapshot(&self) -> AIndex {
        let mut index = self.ledger.lock().clone();
        index.set_journaling(false);
        index
    }

    /// Runs a mutation against the ledger, then drains the journal into
    /// the affected shards' overlays and publishes them — one new
    /// snapshot per *touched* shard, every other shard untouched.
    pub fn update<R>(&self, f: impl FnOnce(&mut AIndex) -> R) -> R {
        self.update_reporting(f).0
    }

    /// Like [`update`](ShardedIndex::update), but also reports which
    /// shards the drain republished, compacted and dirtied — the
    /// checkpoint boundary.
    pub fn update_reporting<R>(&self, f: impl FnOnce(&mut AIndex) -> R) -> (R, UpdateReport) {
        let mut ledger = self.ledger.lock();
        let out = f(&mut ledger);
        let report = self.drain(&mut ledger);
        (out, report)
    }

    /// Serializes one shard's live members and their incident edges as
    /// checkpoint body lines (the [`crate::serial`] line format).
    /// Cross-shard edges appear once per endpoint shard; loading
    /// re-applies them idempotently.
    pub fn serialize_shard(&self, shard: usize) -> String {
        let ledger = self.ledger.lock();
        let mut out = String::new();
        for slot in 0..ledger.shard_len(shard) {
            let n = make_ref(shard, slot);
            if !ledger.node_alive(n) {
                continue;
            }
            let key = ledger.key_at(n);
            serial::write_node(&mut out, key);
            for (o, kind, prob, origin) in ledger.live_incident_of(n) {
                serial::write_edge(&mut out, kind, origin, prob, key, ledger.key_at(o));
            }
        }
        out
    }

    /// Replaces the whole index (full rebuild of every shard).
    pub fn replace(&self, index: AIndex) {
        let mut ledger = self.ledger.lock();
        let (fresh, dir) = journaled(index);
        *ledger = fresh;
        for shard in 0..SHARD_COUNT {
            self.swaps[shard].fetch_add(1, Ordering::Relaxed);
            self.compactions[shard].fetch_add(1, Ordering::Relaxed);
        }
        *self.published.lock() = Arc::new(dir);
    }

    /// Applies the journal accumulated in the ledger to the projection.
    /// Reports the shards that were republished, compacted and dirtied.
    fn drain(&self, ledger: &mut AIndex) -> UpdateReport {
        let ops = ledger.take_journal();
        if ops.is_empty() {
            return UpdateReport::default();
        }
        // Nodes to re-project, deduped, grouped by shard; `dirty` also
        // covers the shards of merely unlinked nodes.
        let mut stale: Vec<Vec<NodeRef>> = vec![Vec::new(); SHARD_COUNT];
        let mut dirty = [false; SHARD_COUNT];
        let mut seen: HashSet<NodeRef> = HashSet::new();
        for op in ops {
            let (n, reproject) = match op {
                JournalOp::Touched(n) => (n, true),
                JournalOp::Unlinked(n) => (n, false),
            };
            let shard = shard_of(n);
            dirty[shard] = true;
            if reproject && seen.insert(n) {
                stale[shard].push(n);
            }
        }
        let dirty: Vec<usize> = (0..SHARD_COUNT).filter(|&shard| dirty[shard]).collect();

        let current = self.published.lock().clone();
        let mut shards = current.shards.clone();
        let mut touched: Vec<usize> = Vec::new();
        let mut compacted: Vec<usize> = Vec::new();
        for (shard, nodes) in stale.iter().enumerate() {
            if nodes.is_empty() {
                continue;
            }
            let old = &current.shards[shard];
            let snap =
                if wants_compaction(old.overlay.nodes.len() + nodes.len(), old.base.keys.len()) {
                    self.compactions[shard].fetch_add(1, Ordering::Relaxed);
                    compacted.push(shard);
                    compact_shard(ledger, shard)
                } else {
                    let mut overlay = old.overlay.clone();
                    let mut resident = old.resident_bytes;
                    for &n in nodes {
                        let slot = slot_of(n);
                        let node = project(ledger, n);
                        // Slots past the published count were interned
                        // by this update: readers need their names.
                        if slot >= old.slots {
                            overlay.names.insert(node.key.clone(), slot);
                            resident += key_heap_bytes(&node.key) + 32;
                        }
                        resident += node.resident_bytes();
                        if let Some(replaced) = overlay.nodes.insert(slot, node) {
                            resident -= replaced.resident_bytes();
                        }
                    }
                    ShardSnap {
                        base: Arc::clone(&old.base),
                        overlay,
                        slots: ledger.shard_len(shard),
                        resident_bytes: resident,
                    }
                };
            self.swaps[shard].fetch_add(1, Ordering::Relaxed);
            shards[shard] = Arc::new(snap);
            touched.push(shard);
        }
        if !touched.is_empty() {
            *self.published.lock() = Arc::new(Directory::new(shards));
        }
        UpdateReport { touched, compacted, dirty }
    }

    /// Per-shard statistics of the published projection.
    pub fn shard_stats(&self) -> Vec<ShardIndexStats> {
        let dir = self.published.lock().clone();
        dir.shards
            .iter()
            .enumerate()
            .map(|(shard, snap)| ShardIndexStats {
                shard,
                entries: snap.live_count(),
                overlay_depth: snap.overlay.nodes.len(),
                resident_bytes: snap.resident_bytes,
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

    /// The incrementally maintained view must answer exactly as a fresh
    /// projection of the same ledger does, and agree with the ledger's own
    /// point lookups.
    fn assert_equivalent(sharded: &ShardedIndex, groups: usize) {
        let ledger = sharded.snapshot();
        let fresh = IndexView::of(&ledger);
        let view = sharded.view();
        assert_eq!(ledger.stats(), view.stats(), "stats diverge");
        assert_eq!(fresh.stats(), view.stats(), "stats diverge from a fresh projection");
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
            assert_eq!(ledger.neighbors(&key), view.neighbors(&key));
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
            sharded.update(|ix| ix.remove_object(&k(&format!("db1.c.b{g}"))));
        }
        sharded.update(|ix| {
            ix.insert_identity(&k("db0.c.a3"), &k("db4.c.fresh"), p(0.8));
            ix.insert_matching(&k("db4.c.fresh"), &k("db3.c.m1"), p(0.55));
        });
        // Resurrect a removed key with a new relation.
        sharded.update(|ix| ix.insert_identity(&k("db1.c.b7"), &k("db2.c.c7"), p(0.95)));
        assert_equivalent(&sharded, 20);
    }

    #[test]
    fn removal_swaps_exactly_one_shard() {
        let sharded = ShardedIndex::new(sample_index(12));
        let before: Vec<u64> = sharded.shard_stats().iter().map(|s| s.swaps).collect();
        assert!(before.iter().all(|&s| s == 0), "construction must not count as swaps");
        let victim = k("db0.c.a5");
        sharded.update(|ix| ix.remove_object(&victim));
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
        sharded.update(|ix| ix.remove_object(&victim));
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
        let (_, report) = sharded.update_reporting(|ix| ix.remove_object(&victim));
        assert_eq!(report.touched, vec![route(&victim)]);
        assert_eq!(report.dirty, expected, "every shard that lost a serialized line is dirty");
    }

    #[test]
    fn resurrection_does_not_revive_stale_edges() {
        let sharded = ShardedIndex::new(sample_index(8));
        let victim = k("db2.c.c3");
        sharded.update(|ix| ix.remove_object(&victim));
        // Re-insert the key with a single fresh relation; the old edges
        // stay dead even though neighbouring shards still hold stale
        // half-edges (their incarnation check must fail).
        sharded.update(|ix| ix.insert_matching(&victim, &k("db5.c.new"), p(0.5)));
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
        sharded.update(|ix| ix.remove_object(&victim));
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
                let key = k(&format!("db3.c.m{}", g / 2));
                sharded.update(|ix| {
                    ix.insert_matching(
                        &key,
                        &k(&format!("db6.c.x{round}_{g}")),
                        p(0.4 + 0.01 * (g % 10) as f64),
                    );
                });
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
        // Deleting a ~ b keeps a ~ c, which was inferred through it.
        let (deleted, report) =
            sharded.update_reporting(|ix| ix.delete_prelation(&a, &b, RelationKind::Identity));
        assert!(deleted);
        let mut endpoints = vec![route(&a), route(&b)];
        endpoints.sort_unstable();
        assert_eq!(report.touched, endpoints, "both endpoint shards republish");
        let ledger = sharded.snapshot();
        let fresh = IndexView::of(&ledger);
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
    fn update_reporting_surfaces_compactions() {
        let groups = 40;
        let sharded = ShardedIndex::new(sample_index(groups));
        let mut reported: Vec<usize> = Vec::new();
        for round in 0..30 {
            for g in 0..groups {
                let key = k(&format!("db3.c.m{}", g / 2));
                let (_, report) = sharded.update_reporting(|ix| {
                    ix.insert_matching(&key, &k(&format!("db6.c.y{round}_{g}")), p(0.5));
                });
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
        sharded.update(|ix| ix.remove_object(&k("db1.c.b4")));
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
                // Each strengthening re-projects the same endpoints.
                sharded.update(|ix| {
                    ix.insert_matching(&k("db0.c.a1"), &k("db3.c.m5"), p(0.5 + 0.01 * i as f64))
                });
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
        sharded.replace(sample_index(9));
        assert_equivalent(&sharded, 9);
        assert!(sharded.shard_stats().iter().all(|s| s.swaps == 1 && s.compactions == 1));
    }
}
