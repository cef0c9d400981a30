//! Cross-query single-flight coalescing for key fetches.
//!
//! When concurrent queries want the same `(database, key)` at the same
//! moment, only one of them — the *leader* — performs the store round
//! trip; the others park as *waiters* and receive the published outcome.
//! The flight table is the in-flight extension of the LRU cache: a
//! waiter that is handed a `Found` object accounts it exactly like a
//! cache hit (which is what a serial execution of the same queries would
//! have seen), so per-query answers and metrics stay identical to the
//! serial run.
//!
//! A query leads per *group*, not per key: [`FlightTable::join_group`]
//! creates one flight with a slot for every key the query ends up
//! leading, and hands back one [`GroupLeader`] for all of them. The
//! leader records each key's outcome with [`GroupLeader::set`]; nothing
//! is visible to other queries until the leader drops, when the whole
//! group lands at once.
//!
//! Ordering contract that makes the serial-equality argument work:
//!
//! 1. A landing fills the cache with every `Found` object *before* it
//!    removes the group's flight entries (one lock per flight-table
//!    shard), and only then publishes the outcomes (one `notify_all`,
//!    skipped when nobody waits). A joiner that finds no entry therefore
//!    re-checks the cache under that same shard lock — the window
//!    between "flight gone" and "cache filled" is closed, so no query
//!    ever performs a redundant round trip for a key that was just
//!    coalesced. The lock order is flight table before cache.
//! 2. `join_group` registers *all* keys of a batch group atomically
//!    (locking the involved shards in ascending order), so for identical
//!    concurrent queries each batch group has exactly one leader — the
//!    round-trip count and group composition match the serial run, which
//!    is what keeps metrics snapshots bit-identical.
//! 3. A leader whose round trip fails leaves its slots unset; an unset
//!    slot lands as `Failed` and its waiters fall back to their own
//!    direct fetch, preserving per-query retry and breaker accounting
//!    under faults. Landing happens on drop, so a panicking leader can
//!    never strand its waiters — and a leader lands its own group before
//!    it waits on anyone else's, so two queries that each wait on the
//!    other's keys cannot deadlock.
//!
//! Coalescing is only engaged when the cache is enabled: with
//! `CACHE_SIZE = 0` a serial run performs every round trip itself, so
//! sharing one would *change* observable behaviour, not preserve it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use quepa_pdm::{DataObject, GlobalKey};

use crate::cache::ObjectCache;

/// Flight-table shard fan-out.
const SHARD_COUNT: usize = 16;

/// What a completed flight produced for one key.
#[derive(Debug, Clone)]
pub enum FlightOutcome {
    /// The round trip returned the object (it is already in the cache).
    Found(DataObject),
    /// The store answered and the object is gone (lazy-deletion signal).
    NotFound,
    /// The leader's round trip failed — waiters must fetch for
    /// themselves so their own retry/breaker accounting applies.
    Failed,
}

/// One leader's in-flight round trip: waiters park on `done` until the
/// leader publishes every slot at once.
struct Flight {
    outcomes: Mutex<Option<Vec<FlightOutcome>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { outcomes: Mutex::new(None), done: Condvar::new() }
    }

    fn publish(&self, outcomes: Vec<FlightOutcome>) {
        *self.outcomes.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcomes);
        self.done.notify_all();
    }
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Flight")
    }
}

/// A waiter's claim on one slot of another query's flight.
#[derive(Debug, Clone)]
pub struct FlightSlot {
    flight: Arc<Flight>,
    slot: usize,
}

impl FlightSlot {
    /// Parks until the leader publishes, then returns this slot's outcome.
    pub fn wait(&self) -> FlightOutcome {
        let mut outcomes = self.flight.outcomes.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcomes) = &*outcomes {
                return outcomes[self.slot].clone();
            }
            outcomes = self.flight.done.wait(outcomes).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A joiner's role for one key.
#[derive(Debug)]
pub enum KeyRole {
    /// The cache answered while holding the shard lock (a flight for this
    /// key just landed) — account it as a plain cache hit.
    Cached(DataObject),
    /// This query leads the key: it performs the round trip and records
    /// the outcome in this slot of its [`GroupLeader`].
    Leader(usize),
    /// Another query is already fetching this key — wait for its
    /// published outcome.
    Waiter(FlightSlot),
}

/// The sharded registry of in-flight fetches, shared by every query of
/// one `Quepa` instance: each entry names the flight and slot that will
/// publish the key's outcome.
#[derive(Debug)]
pub struct FlightTable {
    shards: Vec<parking_lot::Mutex<HashMap<GlobalKey, FlightSlot>>>,
}

impl Default for FlightTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightTable {
    /// An empty flight table.
    pub fn new() -> Self {
        FlightTable {
            shards: (0..SHARD_COUNT).map(|_| parking_lot::Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard_of(&self, key: &GlobalKey) -> usize {
        let mixed = key.precomputed_hash().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> 32) as usize % self.shards.len()
    }

    /// Joins every key of a batch group atomically: the involved shards
    /// are locked together (in ascending order — no deadlock), so
    /// concurrent queries fetching the same group see it either wholly
    /// unclaimed or wholly in flight, never split. Keys no flight claims
    /// probe `cache` under those locks, as one batch. Returns one
    /// [`KeyRole`] per key, in input order, and the leader of the keys
    /// this query claimed — `None` when it claimed none.
    pub fn join_group<'a>(
        &'a self,
        keys: impl IntoIterator<Item = &'a GlobalKey>,
        cache: &'a ObjectCache,
    ) -> (Vec<KeyRole>, Option<GroupLeader<'a>>) {
        let keys: Vec<(usize, &GlobalKey)> =
            keys.into_iter().map(|k| (self.shard_of(k), k)).collect();
        let mut wanted = [false; SHARD_COUNT];
        for &(shard, _) in &keys {
            wanted[shard] = true;
        }
        // `from_fn` fills in index order: the shards lock ascending.
        let mut maps: [Option<_>; SHARD_COUNT] =
            std::array::from_fn(|shard| wanted[shard].then(|| self.shards[shard].lock()));
        let claimed: Vec<Option<FlightSlot>> = keys
            .iter()
            .map(|&(shard, key)| {
                maps[shard].as_ref().expect("every involved shard is locked").get(key).cloned()
            })
            .collect();
        // No flight: any earlier one has fully landed, and it filled the
        // cache before dropping its entry — probe under the shard locks
        // so a just-coalesced object is not fetched again.
        let unclaimed = keys.iter().zip(&claimed).filter(|(_, c)| c.is_none()).map(|(k, _)| k.1);
        let mut cached = cache.probe_many(unclaimed).into_iter();
        let mut flight: Option<Arc<Flight>> = None;
        let mut led = Vec::new();
        let mut roles = Vec::with_capacity(keys.len());
        for (&(shard, key), claim) in keys.iter().zip(claimed) {
            if let Some(theirs) = claim {
                roles.push(KeyRole::Waiter(theirs));
                continue;
            }
            if let Some(object) = cached.next().expect("one probe per unclaimed key") {
                roles.push(KeyRole::Cached(object));
                continue;
            }
            let flight = flight.get_or_insert_with(|| Arc::new(Flight::new()));
            let map = maps[shard].as_mut().expect("every involved shard is locked");
            roles.push(match map.entry(key.clone()) {
                // The same key twice in one group: the second waits on
                // the first, which lands before anyone waits.
                Entry::Occupied(e) => KeyRole::Waiter(e.get().clone()),
                Entry::Vacant(e) => {
                    e.insert(FlightSlot { flight: Arc::clone(flight), slot: led.len() });
                    led.push((shard, key));
                    KeyRole::Leader(led.len() - 1)
                }
            });
        }
        drop(maps);
        let leader = flight.map(|flight| GroupLeader {
            table: self,
            cache,
            flight,
            outcomes: vec![None; led.len()],
            led,
        });
        (roles, leader)
    }

    /// In-flight fetches right now (diagnostics and tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Proof of leadership for the keys one query claimed in one
/// [`FlightTable::join_group`]. The leader performs the round trip and
/// [`set`](GroupLeader::set)s each slot's outcome; dropping the leader
/// lands the whole group — cache fill, flight entries retired, waiters
/// woken — and a slot never set lands as [`FlightOutcome::Failed`], so
/// waiters are released (to their own fallback fetch) even if the leader
/// panics.
#[derive(Debug)]
pub struct GroupLeader<'a> {
    table: &'a FlightTable,
    cache: &'a ObjectCache,
    flight: Arc<Flight>,
    /// Each led key with its flight-table shard, in slot order.
    led: Vec<(usize, &'a GlobalKey)>,
    outcomes: Vec<Option<FlightOutcome>>,
}

impl GroupLeader<'_> {
    /// Records the outcome of led slot `slot`. A `Found` object enters
    /// the cache when the group lands, *before* its flight entry retires
    /// — see the module contract.
    pub fn set(&mut self, slot: usize, outcome: FlightOutcome) {
        self.outcomes[slot] = Some(outcome);
    }
}

impl Drop for GroupLeader<'_> {
    fn drop(&mut self) {
        let outcomes: Vec<FlightOutcome> = std::mem::take(&mut self.outcomes)
            .into_iter()
            .map(|o| o.unwrap_or(FlightOutcome::Failed))
            .collect();
        self.cache.insert_many(outcomes.iter().filter_map(|o| match o {
            FlightOutcome::Found(object) => Some(object.clone()),
            _ => None,
        }));
        let mut led = std::mem::take(&mut self.led);
        led.sort_unstable_by_key(|&(shard, _)| shard);
        for run in led.chunk_by(|a, b| a.0 == b.0) {
            let mut map = self.table.shards[run[0].0].lock();
            for (_, key) in run {
                map.remove(*key);
            }
        }
        // With every entry gone no new waiter can appear, and one that
        // joined earlier holds a count on the flight (taken under a shard
        // lock this landing has since acquired).
        if Arc::strong_count(&self.flight) > 1 {
            self.flight.publish(outcomes);
        }
    }
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

    /// Joins one key: its role and, when it leads, the leader.
    fn join<'a>(
        table: &'a FlightTable,
        key: &'a GlobalKey,
        cache: &'a ObjectCache,
    ) -> (KeyRole, Option<GroupLeader<'a>>) {
        let (mut roles, leader) = table.join_group([key], cache);
        (roles.pop().expect("one role per key"), leader)
    }

    #[test]
    fn exactly_one_leader_per_key() {
        let table = FlightTable::new();
        let cache = ObjectCache::new(64);
        let k = key(1);
        let (first, leader) = join(&table, &k, &cache);
        let (second, none) = join(&table, &k, &cache);
        assert!(matches!(first, KeyRole::Leader(0)));
        assert!(leader.is_some());
        assert!(matches!(second, KeyRole::Waiter(_)));
        assert!(none.is_none(), "a waiter leads nothing");
    }

    #[test]
    fn waiters_receive_the_published_object() {
        let table = FlightTable::new();
        let cache = ObjectCache::new(64);
        let k = key(1);
        let (_, leader) = join(&table, &k, &cache);
        let mut leader = leader.expect("leads");
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..4)
                .map(|_| {
                    let (KeyRole::Waiter(f), None) = join(&table, &k, &cache) else {
                        panic!("waits")
                    };
                    s.spawn(move || f.wait())
                })
                .collect();
            leader.set(0, FlightOutcome::Found(obj(1)));
            drop(leader);
            for w in waiters {
                assert!(matches!(w.join().unwrap(), FlightOutcome::Found(_)));
            }
        });
        assert!(table.is_empty(), "the flight landed");
        assert!(cache.probe(&k).is_some(), "published objects enter the cache");
    }

    #[test]
    fn late_joiner_sees_the_cache_not_a_new_flight() {
        let table = FlightTable::new();
        let cache = ObjectCache::new(64);
        let k = key(1);
        let (_, leader) = join(&table, &k, &cache);
        let mut leader = leader.expect("leads");
        leader.set(0, FlightOutcome::Found(obj(1)));
        drop(leader);
        assert!(matches!(join(&table, &k, &cache), (KeyRole::Cached(_), None)));
    }

    #[test]
    fn dropped_guard_releases_waiters_as_failed() {
        let table = FlightTable::new();
        let cache = ObjectCache::new(64);
        let k = key(1);
        let (_, leader) = join(&table, &k, &cache);
        let (KeyRole::Waiter(f), None) = join(&table, &k, &cache) else { panic!("waits") };
        drop(leader);
        assert!(matches!(f.wait(), FlightOutcome::Failed));
        assert!(table.is_empty());
    }

    #[test]
    fn a_leader_lands_the_slots_it_never_set_as_failed() {
        let table = FlightTable::new();
        let cache = ObjectCache::new(64);
        let keys = [key(1), key(2)];
        let (roles, leader) = table.join_group(&keys, &cache);
        assert!(matches!(roles[..], [KeyRole::Leader(0), KeyRole::Leader(1)]));
        let (theirs, None) = table.join_group(&keys, &cache) else { panic!("waits") };
        let mut leader = leader.expect("leads");
        leader.set(0, FlightOutcome::Found(obj(1)));
        drop(leader);
        let outcomes: Vec<FlightOutcome> = theirs
            .iter()
            .map(|r| match r {
                KeyRole::Waiter(f) => f.wait(),
                other => panic!("waits, not {other:?}"),
            })
            .collect();
        assert!(matches!(outcomes[..], [FlightOutcome::Found(_), FlightOutcome::Failed]));
        assert!(cache.probe(&keys[0]).is_some() && cache.probe(&keys[1]).is_none());
        assert!(table.is_empty());
    }

    #[test]
    fn group_join_is_atomic_per_group() {
        let table = FlightTable::new();
        let cache = ObjectCache::new(64);
        let keys: Vec<GlobalKey> = (0..8).map(key).collect();
        let (first, leader) = table.join_group(&keys, &cache);
        assert!(first.iter().enumerate().all(|(i, r)| matches!(r, KeyRole::Leader(s) if *s == i)));
        let (second, none) = table.join_group(&keys, &cache);
        assert!(second.iter().all(|r| matches!(r, KeyRole::Waiter(_))));
        assert!(none.is_none());
        assert_eq!(table.len(), 8);
        drop(leader);
        assert!(table.is_empty());
    }

    #[test]
    fn concurrent_joins_elect_a_single_leader() {
        let table = FlightTable::new();
        let cache = ObjectCache::new(64);
        let barrier = std::sync::Barrier::new(8);
        let k = key(7);
        let leaders: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        match join(&table, &k, &cache) {
                            (KeyRole::Leader(slot), Some(mut leader)) => {
                                leader.set(slot, FlightOutcome::Found(obj(7)));
                                1usize
                            }
                            (KeyRole::Waiter(f), None) => {
                                assert!(matches!(f.wait(), FlightOutcome::Found(_)));
                                0
                            }
                            (KeyRole::Cached(_), None) => 0,
                            other => panic!("a role and its leader disagree: {other:?}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(leaders, 1, "one round trip for 8 concurrent joiners");
    }
}
