//! The LRU object cache (§IV-C).
//!
//! "All augmenters rely on a caching mechanism with a LRU policy that
//! allows the fast access to the last accessed data objects by means of
//! their global-key." The paper uses Ehcache; this is a thread-safe,
//! intrusive-list LRU with O(1) get/insert.
//!
//! To keep the concurrent augmenters from serializing on a single lock,
//! large caches are split into `SHARD_COUNT` shards, each an exact LRU
//! over its own key-hash slice with its own `parking_lot` mutex. Small
//! caches (below `SHARD_THRESHOLD`) stay single-sharded so that the
//! global LRU order — which unit tests and tiny-capacity configurations
//! rely on — is exact. The shard count is a function of the capacity,
//! whether it was set by [`new`](ObjectCache::new) or by
//! [`resize`](ObjectCache::resize) (the knob the adaptive optimizer
//! turns by ±(predicted−current)/10): a resize that keeps the count
//! redistributes capacity over the existing shards (`total / n` each, the
//! remainder spread over the first shards, so the shard capacities always
//! sum to the configured total); one that crosses the threshold rebuilds
//! the shard set and moves the entries over, least recent first.
//!
//! The fetch path talks to the cache a unit at a time:
//! [`probe_many`](ObjectCache::probe_many) and
//! [`insert_many`](ObjectCache::insert_many) lock each touched shard once
//! and visit its keys in input order, so hits, misses, recency order and
//! victims are exactly those of the same calls made one key at a time.
//! An insert into a full shard reuses the victim's slot in place, and the
//! victim is freed after the shard lock is released.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};
use quepa_pdm::{DataObject, GlobalKey};

const NIL: usize = usize::MAX;

/// Shard fan-out for large caches.
const SHARD_COUNT: usize = 8;

/// Total capacity below which the cache stays single-sharded (exact
/// global LRU).
const SHARD_THRESHOLD: usize = 256;

#[derive(Debug)]
struct Entry {
    value: DataObject,
    prev: usize,
    next: usize,
}

/// One shard: an exact LRU over its key-hash slice.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    map: HashMap<GlobalKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
}

/// The shard set and the total capacity it was split from; replaced
/// whole when a resize changes the shard count.
#[derive(Debug)]
struct Shards {
    capacity: usize,
    lrus: Vec<Mutex<Lru>>,
}

/// A thread-safe LRU cache of data objects keyed by global key.
#[derive(Debug)]
pub struct ObjectCache {
    shards: RwLock<Shards>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Splits `total` capacity over `n` shards: `total / n` each, remainder
/// spread over the first shards, so the shard capacities sum to `total`.
fn split_capacity(total: usize, n: usize) -> impl Iterator<Item = usize> {
    let base = total / n;
    let extra = total % n;
    (0..n).map(move |i| base + usize::from(i < extra))
}

impl Shards {
    fn count(capacity: usize) -> usize {
        if capacity >= SHARD_THRESHOLD {
            SHARD_COUNT
        } else {
            1
        }
    }

    fn new(capacity: usize) -> Self {
        let count = Shards::count(capacity);
        Shards {
            capacity,
            lrus: split_capacity(capacity, count).map(|c| Mutex::new(Lru::new(c))).collect(),
        }
    }

    fn index(&self, key: &GlobalKey) -> usize {
        if self.lrus.len() == 1 {
            return 0;
        }
        // Fibonacci-mix the key's precomputed hash so the shard index draws
        // on all of its bits, not just the low ones.
        let mixed = key.precomputed_hash().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> 32) as usize % self.lrus.len()
    }

    fn of(&self, key: &GlobalKey) -> &Mutex<Lru> {
        &self.lrus[self.index(key)]
    }
}

impl ObjectCache {
    /// Creates a cache holding at most `capacity` objects (0 disables it).
    pub fn new(capacity: usize) -> Self {
        ObjectCache {
            shards: RwLock::new(Shards::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The current total capacity.
    pub fn capacity(&self) -> usize {
        self.shards.read().capacity
    }

    /// Adjusts the capacity, evicting LRU entries from shards that shrank.
    /// This is the knob the adaptive optimizer turns by
    /// ±(predicted−current)/10. The shard count follows the capacity as
    /// in [`new`](ObjectCache::new); when it changes, the entries move to
    /// the new shard set least recent first, taking the old shards in
    /// turn, so each old shard's own recency order is kept and the
    /// capacity keeps the most recent of them.
    pub fn resize(&self, capacity: usize) {
        let mut victims = Vec::new();
        let mut shards = self.shards.write();
        if shards.capacity == capacity {
            return;
        }
        if Shards::count(capacity) == shards.lrus.len() {
            shards.capacity = capacity;
            let count = shards.lrus.len();
            for (lru, cap) in shards.lrus.iter_mut().zip(split_capacity(capacity, count)) {
                let lru = lru.get_mut();
                lru.capacity = cap;
                while lru.map.len() > cap {
                    lru.evict_tail();
                }
            }
        } else {
            let old = std::mem::replace(&mut *shards, Shards::new(capacity));
            let mut runs: Vec<_> =
                old.lrus.into_iter().map(|lru| lru.into_inner().into_recency_order()).collect();
            loop {
                let mut moved = false;
                for object in runs.iter_mut().filter_map(Iterator::next) {
                    moved = true;
                    let shard = shards.index(object.key());
                    victims.extend(shards.lrus[shard].get_mut().insert(object));
                }
                if !moved {
                    break;
                }
            }
        }
        drop(shards);
        drop(victims);
    }

    /// Number of cached objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.read().lrus.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a key, marking it most-recently-used on a hit.
    pub fn get(&self, key: &GlobalKey) -> Option<DataObject> {
        let result = self.probe(key);
        match result.is_some() {
            true => self.tally(1, 0),
            false => self.tally(0, 1),
        }
        result
    }

    /// Looks up a key *without* touching the hit/miss counters (the LRU
    /// position still updates). The fetch path probes first and decides
    /// afterwards how the lookup counts: a waiter that receives a
    /// coalesced object tallies a hit — exactly what a serial execution
    /// would have recorded — while the flight leader tallies the miss.
    pub fn probe(&self, key: &GlobalKey) -> Option<DataObject> {
        self.shards.read().of(key).lock().probe(key)
    }

    /// [`probe`](ObjectCache::probe) over every key of a unit, one result
    /// per key in input order: each touched shard is locked once and
    /// visits its keys in input order, so the recency order ends exactly
    /// as after the same probes made one by one.
    pub fn probe_many<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k GlobalKey>,
    ) -> Vec<Option<DataObject>> {
        let shards = self.shards.read();
        let mut keys: Vec<(usize, usize, &GlobalKey)> =
            keys.into_iter().enumerate().map(|(i, k)| (shards.index(k), i, k)).collect();
        keys.sort_unstable_by_key(|&(shard, i, _)| (shard, i));
        let mut found = vec![None; keys.len()];
        for run in keys.chunk_by(|a, b| a.0 == b.0) {
            let mut lru = shards.lrus[run[0].0].lock();
            for &(_, i, key) in run {
                found[i] = lru.probe(key);
            }
        }
        found
    }

    /// Adds to the hit/miss counters: the fetch path counts a unit's
    /// lookups once they are settled (see [`probe`](ObjectCache::probe)).
    pub fn tally(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Inserts (or refreshes) an object, evicting the shard's LRU entry if
    /// the shard is full.
    pub fn insert(&self, object: DataObject) {
        self.insert_many([object]);
    }

    /// [`insert`](ObjectCache::insert) for every object of a unit, in
    /// input order per shard, each touched shard locked once; the
    /// objects evicted are freed after the locks are released.
    pub fn insert_many(&self, objects: impl IntoIterator<Item = DataObject>) {
        let mut victims = Vec::new();
        let shards = self.shards.read();
        let mut objects: Vec<(usize, usize, DataObject)> =
            objects.into_iter().enumerate().map(|(i, o)| (shards.index(o.key()), i, o)).collect();
        objects.sort_unstable_by_key(|&(shard, i, _)| (shard, i));
        let mut objects = objects.into_iter().peekable();
        while let Some((shard, _, first)) = objects.next() {
            let mut lru = shards.lrus[shard].lock();
            victims.extend(lru.insert(first));
            while let Some((_, _, object)) = objects.next_if(|&(s, ..)| s == shard) {
                victims.extend(lru.insert(object));
            }
        }
        drop(shards);
        drop(victims);
    }

    /// Removes a key (used when lazy deletion discovers a vanished object).
    pub fn remove(&self, key: &GlobalKey) -> bool {
        let shards = self.shards.read();
        let mut lru = shards.of(key).lock();
        let Some(slot) = lru.map.remove(key) else { return false };
        lru.detach(slot);
        lru.free.push(slot);
        true
    }

    /// Clears the cache (cold-cache experiment runs).
    pub fn clear(&self) {
        let shards = self.shards.read();
        for shard in &shards.lrus {
            let mut lru = shard.lock();
            let fresh = Lru::new(lru.capacity);
            let old = std::mem::replace(&mut *lru, fresh);
            drop(lru);
            drop(old);
        }
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Resets the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn probe(&mut self, key: &GlobalKey) -> Option<DataObject> {
        let &slot = self.map.get(key)?;
        if slot != self.head {
            self.detach(slot);
            self.attach_front(slot);
        }
        Some(self.slab[slot].value.clone())
    }

    /// Inserts or refreshes `object` as the most recent entry. Returns
    /// what left the shard — the replaced value, the evicted entry, or
    /// `object` itself when the shard holds nothing — for the caller to
    /// free once the lock is released.
    fn insert(&mut self, object: DataObject) -> Option<DataObject> {
        if self.capacity == 0 {
            return Some(object);
        }
        if let Some(&slot) = self.map.get(object.key()) {
            let old = std::mem::replace(&mut self.slab[slot].value, object);
            self.detach(slot);
            self.attach_front(slot);
            return Some(old);
        }
        let key = object.key().clone();
        let (slot, victim) = if self.map.len() >= self.capacity {
            // Full: the least recent entry's slot takes the new object in
            // place.
            let slot = self.tail;
            self.detach(slot);
            let victim = std::mem::replace(&mut self.slab[slot].value, object);
            self.map.remove(victim.key());
            (slot, Some(victim))
        } else if let Some(slot) = self.free.pop() {
            // A slot freed by `remove` or a shrinking resize still holds
            // its old object.
            (slot, Some(std::mem::replace(&mut self.slab[slot].value, object)))
        } else {
            self.slab.push(Entry { value: object, prev: NIL, next: NIL });
            (self.slab.len() - 1, None)
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
        victim
    }

    fn evict_tail(&mut self) {
        let tail = self.tail;
        if tail == NIL {
            return;
        }
        self.detach(tail);
        self.map.remove(self.slab[tail].value.key());
        self.free.push(tail);
    }

    /// The cached objects, least recent first.
    fn into_recency_order(self) -> std::vec::IntoIter<DataObject> {
        let mut slots = Vec::with_capacity(self.map.len());
        let mut slot = self.tail;
        while slot != NIL {
            slots.push(slot);
            slot = self.slab[slot].prev;
        }
        let mut values: Vec<Option<DataObject>> =
            self.slab.into_iter().map(|e| Some(e.value)).collect();
        let ordered: Vec<DataObject> =
            slots.into_iter().map(|s| values[s].take().expect("each slot listed once")).collect();
        ordered.into_iter()
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            let head = self.head;
            self.slab[head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quepa_pdm::Value;

    fn obj(i: usize) -> DataObject {
        DataObject::new(
            format!("d.c.k{i}").parse().unwrap(),
            Value::object([("n", Value::Int(i as i64))]),
        )
    }

    fn key(i: usize) -> GlobalKey {
        format!("d.c.k{i}").parse().unwrap()
    }

    impl ObjectCache {
        /// Every shard's keys, most recent first: the order the next
        /// victims leave in.
        fn recency(&self) -> Vec<Vec<GlobalKey>> {
            let shards = self.shards.read();
            shards
                .lrus
                .iter()
                .map(|lru| {
                    let lru = lru.lock();
                    let mut keys = Vec::new();
                    let mut slot = lru.head;
                    while slot != NIL {
                        keys.push(lru.slab[slot].value.key().clone());
                        slot = lru.slab[slot].next;
                    }
                    keys
                })
                .collect()
        }

        fn shard_capacities(&self) -> Vec<usize> {
            self.shards.read().lrus.iter().map(|l| l.lock().capacity).collect()
        }
    }

    #[test]
    fn insert_get() {
        let c = ObjectCache::new(4);
        c.insert(obj(1));
        assert_eq!(c.get(&key(1)).unwrap().value().get("n"), Some(&Value::Int(1)));
        assert!(c.get(&key(2)).is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let c = ObjectCache::new(3);
        for i in 0..3 {
            c.insert(obj(i));
        }
        // Touch 0 so 1 becomes LRU.
        assert!(c.get(&key(0)).is_some());
        c.insert(obj(3));
        assert!(c.get(&key(1)).is_none(), "1 was LRU and evicted");
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(2)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinsert_refreshes() {
        let c = ObjectCache::new(2);
        c.insert(obj(1));
        c.insert(obj(2));
        c.insert(obj(1)); // refresh 1 — 2 becomes LRU
        c.insert(obj(3));
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(1)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ObjectCache::new(0);
        c.insert(obj(1));
        c.insert_many([obj(2), obj(3)]);
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let c = ObjectCache::new(4);
        for i in 0..4 {
            c.insert(obj(i));
        }
        c.resize(2);
        assert_eq!(c.len(), 2);
        // The two most recent survive.
        assert!(c.get(&key(2)).is_some());
        assert!(c.get(&key(3)).is_some());
        c.resize(8);
        for i in 10..16 {
            c.insert(obj(i));
        }
        assert_eq!(c.len(), 8);
    }

    /// A resize below the shard threshold must drop to one shard: eight
    /// shards over a capacity of 5 would leave three of them with
    /// capacity 0 (their keys never cached) and the LRU inexact.
    #[test]
    fn resize_follows_the_shard_rule_of_new() {
        let c = ObjectCache::new(4096);
        c.resize(5);
        for i in 0..5 {
            c.insert(obj(i));
        }
        assert_eq!(c.len(), 5, "a cache of capacity 5 holds 5 objects");
        assert!((0..5).all(|i| c.probe(&key(i)).is_some()));
        c.insert(obj(5));
        assert!(c.probe(&key(0)).is_none(), "exact LRU: the least recent leaves");
        assert!((1..6).all(|i| c.probe(&key(i)).is_some()));
        assert_eq!(c.shard_capacities(), [5]);

        // Back across the threshold: eight shards again, contents kept.
        c.resize(4096);
        assert_eq!(c.shard_capacities().len(), SHARD_COUNT);
        assert_eq!(c.len(), 5);
        assert!((1..6).all(|i| c.probe(&key(i)).is_some()));
    }

    #[test]
    fn crossing_the_threshold_keeps_the_most_recent() {
        let c = ObjectCache::new(600);
        for i in 0..600 {
            c.insert(obj(i));
        }
        let before = c.recency();
        assert_eq!(before.len(), SHARD_COUNT);
        c.resize(100);
        assert_eq!(c.len(), 100);
        assert_eq!(c.capacity(), 100);
        let [after]: [Vec<GlobalKey>; 1] = c.recency().try_into().expect("one shard");
        // Per old shard: the survivors are its most recent keys, in its
        // own recency order.
        for old in &before {
            let kept: Vec<&GlobalKey> = after.iter().filter(|k| old.contains(k)).collect();
            assert!(old.iter().take(kept.len()).eq(kept), "a prefix of {old:?}");
        }
    }

    #[test]
    fn remove_and_reuse_slot() {
        let c = ObjectCache::new(4);
        c.insert(obj(1));
        assert!(c.remove(&key(1)));
        assert!(!c.remove(&key(1)));
        c.insert(obj(2));
        assert!(c.get(&key(2)).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let c = ObjectCache::new(4);
        c.insert(obj(1));
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let c = Arc::new(ObjectCache::new(64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        c.insert(obj(t * 1000 + i % 100));
                        c.get(&key(t * 1000 + (i + 1) % 100));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 64);
    }

    #[test]
    fn single_entry_edge_cases() {
        let c = ObjectCache::new(1);
        c.insert(obj(1));
        c.insert(obj(2));
        assert_eq!(c.len(), 1);
        assert!(c.get(&key(1)).is_none());
        assert!(c.get(&key(2)).is_some());
        assert!(c.remove(&key(2)));
        assert!(c.is_empty());
        c.insert(obj(3));
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn small_caches_use_one_shard() {
        let c = ObjectCache::new(SHARD_THRESHOLD - 1);
        assert_eq!(c.shard_capacities().len(), 1);
        let c = ObjectCache::new(SHARD_THRESHOLD);
        assert_eq!(c.shard_capacities().len(), SHARD_COUNT);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for total in [256, 257, 260, 263, 1000, 4096] {
            let c = ObjectCache::new(total);
            assert_eq!(c.capacity(), total);
            let sum: usize = c.shard_capacities().iter().sum();
            assert_eq!(sum, total, "shard capacities must sum to {total}");
        }
    }

    #[test]
    fn sharded_cache_caps_total_size() {
        let c = ObjectCache::new(300);
        assert_eq!(c.shard_capacities().len(), SHARD_COUNT);
        for i in 0..2000 {
            c.insert(obj(i));
        }
        assert!(c.len() <= 300, "len {} exceeds capacity", c.len());
        // Every shard respects its own bound.
        for lru in &c.shards.read().lrus {
            let lru = lru.lock();
            assert!(lru.map.len() <= lru.capacity);
        }
    }

    #[test]
    fn sharded_resize_redistributes_and_evicts() {
        let c = ObjectCache::new(512);
        for i in 0..512 {
            c.insert(obj(i));
        }
        c.resize(300);
        assert!(c.len() <= 300);
        assert_eq!(c.capacity(), 300);
        let sum: usize = c.shard_capacities().iter().sum();
        assert_eq!(sum, 300);
        c.resize(512);
        for i in 1000..1512 {
            c.insert(obj(i));
        }
        assert!(c.len() <= 512);
    }

    #[test]
    fn sharded_get_insert_remove_roundtrip() {
        let c = ObjectCache::new(1024);
        for i in 0..500 {
            c.insert(obj(i));
        }
        for i in 0..500 {
            assert!(c.get(&key(i)).is_some(), "key {i} must be cached");
        }
        for i in 0..500 {
            assert!(c.remove(&key(i)));
        }
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_concurrent_access() {
        use std::sync::Arc;
        let c = Arc::new(ObjectCache::new(512));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.insert(obj(t * 10000 + i % 300));
                        c.get(&key(t * 10000 + (i + 1) % 300));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 512);
    }

    /// One step of the batched ≡ per-key property.
    #[derive(Debug, Clone)]
    enum Op {
        Probe(Vec<usize>),
        Insert(Vec<(usize, i64)>),
        Remove(usize),
        Resize(usize),
        Clear,
    }

    fn op(keys: usize, sizes: std::ops::Range<usize>) -> impl Strategy<Value = Op> {
        prop_oneof![
            8 => prop::collection::vec(0..keys, 0..48).prop_map(Op::Probe),
            8 => prop::collection::vec((0..keys, 0i64..3), 0..48).prop_map(Op::Insert),
            2 => (0..keys).prop_map(Op::Remove),
            1 => prop_oneof![1 => sizes, 1 => 0usize..300].prop_map(Op::Resize),
            1 => Just(Op::Clear),
        ]
    }

    fn versioned(i: usize, version: i64) -> DataObject {
        DataObject::new(key(i), Value::object([("v", Value::Int(version))]))
    }

    /// Runs `ops` through `probe_many`/`insert_many` on one cache and
    /// through per-key `get`/`insert` on its twin, comparing every
    /// result, `len`, `stats` and each shard's recency order (the order
    /// victims leave in) after every step.
    fn batched_equals_per_key(capacity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        let (batched, single) = (ObjectCache::new(capacity), ObjectCache::new(capacity));
        for op in ops {
            match op {
                Op::Probe(ids) => {
                    let keys: Vec<GlobalKey> = ids.iter().map(|&i| key(i)).collect();
                    let found = batched.probe_many(&keys);
                    let hits = found.iter().flatten().count() as u64;
                    batched.tally(hits, found.len() as u64 - hits);
                    let one_by_one: Vec<_> = keys.iter().map(|k| single.get(k)).collect();
                    prop_assert_eq!(found, one_by_one);
                }
                Op::Insert(objects) => {
                    batched.insert_many(objects.iter().map(|&(i, v)| versioned(i, v)));
                    objects.iter().for_each(|&(i, v)| single.insert(versioned(i, v)));
                }
                Op::Remove(i) => prop_assert_eq!(batched.remove(&key(*i)), single.remove(&key(*i))),
                Op::Resize(n) => {
                    batched.resize(*n);
                    single.resize(*n);
                }
                Op::Clear => {
                    batched.clear();
                    single.clear();
                }
            }
            prop_assert_eq!(batched.len(), single.len());
            prop_assert_eq!(batched.stats(), single.stats());
            prop_assert_eq!(batched.recency(), single.recency());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn batched_calls_equal_per_key_calls_on_one_shard(
            capacity in 0usize..24,
            ops in prop::collection::vec(op(40, 0..24), 1..40),
        ) {
            batched_equals_per_key(capacity, &ops)?;
        }

        #[test]
        fn batched_calls_equal_per_key_calls_on_eight_shards(
            capacity in 256usize..300,
            ops in prop::collection::vec(op(700, 256..300), 1..40),
        ) {
            batched_equals_per_key(capacity, &ops)?;
        }
    }
}
