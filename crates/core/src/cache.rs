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
//! rely on — is exact. The shard count is fixed at construction; resizing
//! redistributes capacity over the existing shards (`total / n` each, the
//! remainder spread over the first shards), so the CACHE_SIZE accounting
//! the adaptive optimizer adjusts (±(predicted−current)/10) is unchanged:
//! the shard capacities always sum to the configured total.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use quepa_pdm::{DataObject, GlobalKey};

const NIL: usize = usize::MAX;

/// Shard fan-out for large caches.
const SHARD_COUNT: usize = 8;

/// Total capacity below which the cache stays single-sharded (exact
/// global LRU).
const SHARD_THRESHOLD: usize = 256;

#[derive(Debug)]
struct Entry {
    key: GlobalKey,
    value: DataObject,
    prev: usize,
    next: usize,
}

#[derive(Debug, Default)]
struct LruInner {
    map: HashMap<GlobalKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
}

/// One shard: an exact LRU over its key-hash slice.
#[derive(Debug)]
struct Shard {
    inner: Mutex<ShardInner>,
}

#[derive(Debug)]
struct ShardInner {
    capacity: usize,
    lru: LruInner,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            inner: Mutex::new(ShardInner {
                capacity,
                lru: LruInner { head: NIL, tail: NIL, ..Default::default() },
            }),
        }
    }
}

/// A thread-safe LRU cache of data objects keyed by global key.
#[derive(Debug)]
pub struct ObjectCache {
    shards: Vec<Shard>,
    capacity: Mutex<usize>,
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

impl ObjectCache {
    /// Creates a cache holding at most `capacity` objects (0 disables it).
    pub fn new(capacity: usize) -> Self {
        let shard_count = if capacity >= SHARD_THRESHOLD { SHARD_COUNT } else { 1 };
        ObjectCache {
            shards: split_capacity(capacity, shard_count).map(Shard::new).collect(),
            capacity: Mutex::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The current total capacity.
    pub fn capacity(&self) -> usize {
        *self.capacity.lock()
    }

    /// Adjusts the capacity, evicting LRU entries from shards that shrank.
    /// This is the knob the adaptive optimizer turns by
    /// ±(predicted−current)/10. The shard count does not change.
    pub fn resize(&self, capacity: usize) {
        *self.capacity.lock() = capacity;
        for (shard, cap) in self.shards.iter().zip(split_capacity(capacity, self.shards.len())) {
            let mut inner = shard.inner.lock();
            inner.capacity = cap;
            while inner.lru.map.len() > cap {
                evict_tail(&mut inner.lru);
            }
        }
    }

    /// Number of cached objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().lru.map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &GlobalKey) -> &Shard {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        // Fibonacci-mix the key's precomputed hash so the shard index draws
        // on all of its bits, not just the low ones.
        let mixed = key.precomputed_hash().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// Looks up a key, marking it most-recently-used on a hit.
    pub fn get(&self, key: &GlobalKey) -> Option<DataObject> {
        let result = self.probe(key);
        match result.is_some() {
            true => self.tally_hit(),
            false => self.tally_miss(),
        }
        result
    }

    /// Looks up a key *without* touching the hit/miss counters (the LRU
    /// position still updates). The single-flight layer probes first and
    /// decides afterwards how the lookup counts: a waiter that receives a
    /// coalesced object tallies a hit — exactly what a serial execution
    /// would have recorded — while the flight leader tallies the miss.
    pub fn probe(&self, key: &GlobalKey) -> Option<DataObject> {
        let mut inner = self.shard(key).inner.lock();
        let &slot = inner.lru.map.get(key)?;
        detach(&mut inner.lru, slot);
        attach_front(&mut inner.lru, slot);
        Some(inner.lru.slab[slot].value.clone())
    }

    /// Counts one hit (for probes resolved out-of-band — see
    /// [`probe`](ObjectCache::probe)).
    pub fn tally_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one miss (for probes resolved out-of-band).
    pub fn tally_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts (or refreshes) an object, evicting the shard's LRU entry if
    /// the shard is full.
    pub fn insert(&self, object: DataObject) {
        let key = object.key().clone();
        let mut inner = self.shard(&key).inner.lock();
        let capacity = inner.capacity;
        if capacity == 0 {
            return;
        }
        if let Some(&slot) = inner.lru.map.get(&key) {
            inner.lru.slab[slot].value = object;
            detach(&mut inner.lru, slot);
            attach_front(&mut inner.lru, slot);
            return;
        }
        if inner.lru.map.len() >= capacity {
            evict_tail(&mut inner.lru);
        }
        let slot = match inner.lru.free.pop() {
            Some(slot) => {
                inner.lru.slab[slot] =
                    Entry { key: key.clone(), value: object, prev: NIL, next: NIL };
                slot
            }
            None => {
                inner.lru.slab.push(Entry {
                    key: key.clone(),
                    value: object,
                    prev: NIL,
                    next: NIL,
                });
                inner.lru.slab.len() - 1
            }
        };
        inner.lru.map.insert(key, slot);
        attach_front(&mut inner.lru, slot);
    }

    /// Removes a key (used when lazy deletion discovers a vanished object).
    pub fn remove(&self, key: &GlobalKey) -> bool {
        let mut inner = self.shard(key).inner.lock();
        let Some(slot) = inner.lru.map.remove(key) else { return false };
        detach(&mut inner.lru, slot);
        inner.lru.free.push(slot);
        true
    }

    /// Clears the cache (cold-cache experiment runs).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            inner.lru.map.clear();
            inner.lru.slab.clear();
            inner.lru.free.clear();
            inner.lru.head = NIL;
            inner.lru.tail = NIL;
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

fn detach(inner: &mut LruInner, slot: usize) {
    let (prev, next) = (inner.slab[slot].prev, inner.slab[slot].next);
    if prev != NIL {
        inner.slab[prev].next = next;
    } else if inner.head == slot {
        inner.head = next;
    }
    if next != NIL {
        inner.slab[next].prev = prev;
    } else if inner.tail == slot {
        inner.tail = prev;
    }
    inner.slab[slot].prev = NIL;
    inner.slab[slot].next = NIL;
}

fn attach_front(inner: &mut LruInner, slot: usize) {
    inner.slab[slot].prev = NIL;
    inner.slab[slot].next = inner.head;
    if inner.head != NIL {
        let head = inner.head;
        inner.slab[head].prev = slot;
    }
    inner.head = slot;
    if inner.tail == NIL {
        inner.tail = slot;
    }
}

fn evict_tail(inner: &mut LruInner) {
    let tail = inner.tail;
    if tail == NIL {
        return;
    }
    let key = inner.slab[tail].key.clone();
    detach(inner, tail);
    inner.map.remove(&key);
    inner.free.push(tail);
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(c.shards.len(), 1);
        let c = ObjectCache::new(SHARD_THRESHOLD);
        assert_eq!(c.shards.len(), SHARD_COUNT);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for total in [256, 257, 260, 263, 1000, 4096] {
            let c = ObjectCache::new(total);
            assert_eq!(c.capacity(), total);
            let sum: usize = c.shards.iter().map(|s| s.inner.lock().capacity).sum();
            assert_eq!(sum, total, "shard capacities must sum to {total}");
        }
    }

    #[test]
    fn sharded_cache_caps_total_size() {
        let c = ObjectCache::new(300);
        assert_eq!(c.shards.len(), SHARD_COUNT);
        for i in 0..2000 {
            c.insert(obj(i));
        }
        assert!(c.len() <= 300, "len {} exceeds capacity", c.len());
        // Every shard respects its own bound.
        for s in &c.shards {
            let inner = s.inner.lock();
            assert!(inner.lru.map.len() <= inner.capacity);
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
        let sum: usize = c.shards.iter().map(|s| s.inner.lock().capacity).sum();
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
}
