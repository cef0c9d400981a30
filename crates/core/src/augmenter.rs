//! The augmentation execution engine: one semantic result, six execution
//! strategies (paper §IV).
//!
//! Every augmenter computes the *same* augmented answer — the level-*n*
//! neighbourhood of the seeds in the A' index, retrieved from the
//! polystore and ranked by probability — but distributes the key-based
//! retrieval differently over round trips (batching) and threads
//! (concurrency). The LRU cache sits in front of every lookup, and keys
//! whose objects have vanished from the polystore are reported back as
//! `missing` (the lazy-deletion signal of §III-C).
//!
//! The A' index is traversed **once** per query ([`plan`] yields the
//! canonical neighbourhood and the per-seed work partition together).
//! From there a strategy is data, not code — one row of
//! `Strategy::of`:
//!
//! | augmenter   | unit shape  | tickets             | waves        |
//! |-------------|-------------|---------------------|--------------|
//! | SEQUENTIAL  | seed run    | 1                   | one          |
//! | BATCH       | batch group | 1                   | one          |
//! | INNER       | key         | `THREADS_SIZE`      | one per seed |
//! | OUTER       | seed run    | `THREADS_SIZE`      | one          |
//! | OUTER-BATCH | batch group | `THREADS_SIZE`      | one          |
//! | OUTER-INNER | key         | `(THREADS_SIZE/2)²` | one          |
//!
//! `compile` turns the partition into waves of units — each the tasks
//! plus the `Wire` shape that fetches them (`get` per key, one
//! `multi_get`, or one `fetch_where` for a store group the planner
//! pushed the filter down to; on the wire all three are the one
//! `Polystore::fetch`) — and the one ticket executor
//! (`Engine::execute`) runs a wave: tickets claim units off a shared
//! atomic cursor. **The submitting thread is a ticket** — it starts
//! claiming at once — and the other `tickets − 1` are helpers, jobs on a
//! [`WorkerPool`] (the instance's shared one, or a one-shot pool when
//! none is attached) that the submitting thread summons once per wave,
//! the first time a unit's cache probe leaves keys pending, i.e. before
//! its own first blocking call. Threads exist to overlap round trips
//! (§IV): a cold wave fans out exactly as wide as the table says, a wave
//! the cache answers in full never touches the pool, and a pool that is
//! saturated or wedged costs a query its overlap, never its answer — the
//! caller drains the cursor itself. Outcomes settle per unit (slot *i*
//! for unit *i*) on a [`Latch`] that counts units, so no query waits for
//! a helper that found nothing left to claim; they merge in unit order,
//! the first failure in unit order (panic or error) being the wave's,
//! and the final sort by (probability desc, key asc) makes the outcome
//! independent of worker interleaving and merge order.
//!
//! Every unit goes through the one fetch routine
//! (`Engine::fetch_unit`): cache probe → flight join, when a
//! [`FlightTable`] is attached (and the cache is enabled, and the run is
//! unfiltered) → one round trip for the keys this query must fetch
//! itself → on a degradable batch failure, the per-key ladder → settle,
//! and land the led group → settle the waiters. The routine pays per
//! unit, not per key: one batched probe, one flight join and one landing
//! lock each touched cache or flight-table shard once, one
//! [`GroupLeader`] covers every key the
//! query leads, and the hit/miss counters move once per unit. With a
//! flight table, fetches coalesce across queries: one leader per key
//! performs the round trip, waiters account the published object
//! exactly like a cache hit. See [`crate::flight`] for the equality
//! argument.

use std::cell::{Cell, OnceCell};
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use quepa_aindex::{AugmentedKey, IndexView};
use quepa_obs::{MetricsRegistry, Stage};
use quepa_pdm::{
    CollectionName, DataObject, DatabaseName, GlobalKey, LocalKey, Probability, Pushdown,
};
use quepa_polystore::retry::{BreakerSet, CircuitBreaker};
use quepa_polystore::{PolyError, Polystore, StoreKind};

use crate::cache::ObjectCache;
use crate::config::{AugmenterKind, DegradeMode, QuepaConfig, ResilienceConfig};
use crate::error::Result;
use crate::flight::{FlightOutcome, FlightSlot, FlightTable, GroupLeader, KeyRole};
use crate::pool::{Latch, WorkerPool};

/// One element of an augmented answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentedObject {
    /// The related object, fetched from its home store.
    pub object: DataObject,
    /// The probability that it relates to the original answer (best path
    /// product over the A' index).
    pub probability: Probability,
    /// Hop distance of the best path.
    pub distance: usize,
}

/// Why a key the A' index pointed at is absent from the augmentation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissingReason {
    /// The store answered and the object is gone — the lazy-deletion
    /// signal of §III-C: the key leaves the index and the cache.
    NotFound,
    /// The store could not be reached: every allowed attempt failed (or
    /// the circuit breaker rejected the call, in which case `attempts`
    /// is 0). The object may well still exist — the index keeps it.
    Unreachable {
        /// The database that failed to answer.
        database: DatabaseName,
        /// Round-trip attempts made before giving up.
        attempts: u32,
    },
}

/// One key missing from an augmented answer, with the reason.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MissingKey {
    /// The key the A' index pointed at.
    pub key: GlobalKey,
    /// Why it is not in the answer.
    pub reason: MissingReason,
}

impl MissingKey {
    /// A key whose object vanished from its store.
    pub fn not_found(key: GlobalKey) -> Self {
        MissingKey { key, reason: MissingReason::NotFound }
    }

    /// A key whose store could not be reached.
    pub fn unreachable(key: GlobalKey, database: DatabaseName, attempts: u32) -> Self {
        MissingKey { key, reason: MissingReason::Unreachable { database, attempts } }
    }

    /// True for the lazy-deletion case.
    pub fn is_not_found(&self) -> bool {
        self.reason == MissingReason::NotFound
    }
}

/// The result of executing an augmentation.
#[derive(Debug, Clone, Default)]
pub struct AugmentationOutcome {
    /// Related objects, ordered by decreasing probability (ties broken by
    /// key for determinism).
    pub objects: Vec<AugmentedObject>,
    /// Keys the A' index knows but this run could not retrieve: gone from
    /// the store ([`MissingReason::NotFound`], the lazy-deletion signal)
    /// or behind an unreachable store
    /// ([`MissingReason::Unreachable`], a partial-answer degradation).
    pub missing: Vec<MissingKey>,
    /// How many lookups the cache answered.
    pub cache_hits: usize,
}

/// A unit of retrieval work.
#[derive(Debug, Clone)]
struct Task {
    key: GlobalKey,
    probability: Probability,
    distance: usize,
}

/// The index-side answer to an augmentation, computed in one traversal:
/// the canonical neighbourhood plus the first-reaching-seed work
/// partition the outer strategies distribute over threads.
#[derive(Debug, Clone)]
pub struct AugmentPlan {
    /// The canonical augmented keys, identical to
    /// [`IndexView::augment`] over the same seeds and level.
    pub augmented: Vec<AugmentedKey>,
    /// Per `augmented` entry, the index of its owning seed.
    ownership: Vec<u32>,
    /// Length of the seed slice the plan was computed for.
    seed_count: usize,
}

/// Traverses the A' index once, producing the retrieval plan for `seeds`.
pub fn plan(index: &IndexView, seed_keys: &[GlobalKey], level: usize) -> AugmentPlan {
    let (augmented, ownership) = index.augment_multi(seed_keys, level);
    AugmentPlan { augmented, ownership, seed_count: seed_keys.len() }
}

/// The shared serving-path machinery an execution borrows from its
/// [`Quepa`] instance: long-lived breaker state, the metrics registry,
/// the shared worker pool, and the cross-query flight table. A
/// standalone caller of [`run_planned_with`] passes fresh breakers and
/// `None` for the rest.
///
/// [`Quepa`]: crate::system::Quepa
pub struct FetchRuntime<'a> {
    /// Circuit breakers that persist across runs.
    pub breakers: &'a Arc<BreakerSet>,
    /// Metrics registry; workers report round trips / probes / retries.
    pub obs: Option<&'a Arc<MetricsRegistry>>,
    /// The instance's shared fetch pool; `None` runs the tickets on a
    /// one-shot pool of their own (standalone executions).
    pub pool: Option<&'a WorkerPool>,
    /// Cross-query single-flight table; only engaged while the cache is
    /// enabled (see [`crate::flight`]).
    pub flight: Option<&'a Arc<FlightTable>>,
}

/// Executes a previously computed [`AugmentPlan`] — callers that already
/// traversed the index (e.g. for feature extraction) retrieve without a
/// second traversal — on the serving-path machinery `runtime` lends it:
/// breaker state (closed → open → half-open) persists across runs that
/// share a [`BreakerSet`], workers report to the metrics registry when
/// one is attached, tickets run on the shared pool, and fetches coalesce
/// across queries through the flight table.
pub fn run_planned_with(
    polystore: &Polystore,
    cache: &Arc<ObjectCache>,
    plan: &AugmentPlan,
    config: &QuepaConfig,
    runtime: &FetchRuntime<'_>,
) -> Result<AugmentationOutcome> {
    run_plan(polystore, cache, plan, config, runtime, None).map(|(outcome, _)| outcome)
}

/// Which side of the wire evaluates a filtered group's predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupStrategy {
    /// One `fetch_where` round trip carries the predicate to the store;
    /// only matching objects travel back.
    Pushdown,
    /// The configured augmenter fetches every key; the predicate is
    /// evaluated client-side.
    FetchAll,
}

/// Why a store group landed on its strategy (the `EXPLAIN` surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// The planner picked pushdown.
    Chosen,
    /// Pushdown is disabled by configuration.
    Disabled,
    /// The connector declined the filter (no native path).
    Declined,
    /// The planner predicted fetch-all to be faster for this group.
    Predicted,
}

/// The planner's verdict for one (database, collection) group of a
/// filtered augmentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDecision {
    /// The group's target database.
    pub database: DatabaseName,
    /// The group's target collection.
    pub collection: CollectionName,
    /// Keys in the group.
    pub keys: usize,
    /// The strategy the group executed under.
    pub strategy: GroupStrategy,
    /// Why.
    pub reason: DecisionReason,
}

/// The per-group pushdown decision hook: given the target store's kind
/// and the group's key count, return `true` to execute the group as one
/// pushdown round trip (the connector has already said it supports the
/// filter). The adaptive planner supplies a model-backed implementation;
/// `None` means "pushdown whenever supported".
pub type PushdownDecider<'a> = dyn Fn(StoreKind, usize) -> bool + Sync + 'a;

/// Executes a plan under a [`Pushdown`] filter: only objects matching the
/// predicate are returned, keys whose objects exist but fail it appear in
/// neither `objects` nor `missing`, and `missing` keeps its exact
/// unfiltered meaning (gone or unreachable). Per (database, collection)
/// group the planner chooses pushdown or fetch-all — the answer is
/// bit-identical either way; only the wire traffic differs.
///
/// Cache contract under a filter: probes serve hits (evaluated
/// client-side) but only *matched* objects are ever inserted, in both
/// strategies, so the cache state cannot reveal which strategy ran.
/// Cross-query flight coalescing is disabled (a leader's published
/// outcome is not filter-aware).
pub fn run_planned_filtered(
    polystore: &Polystore,
    cache: &Arc<ObjectCache>,
    plan: &AugmentPlan,
    config: &QuepaConfig,
    runtime: &FetchRuntime<'_>,
    filter: &Pushdown,
    decider: Option<&PushdownDecider<'_>>,
) -> Result<(AugmentationOutcome, Vec<GroupDecision>)> {
    let filter = (!filter.is_trivial()).then_some((filter, decider));
    run_plan(polystore, cache, plan, config, runtime, filter)
}

/// The body of every run: plan the groups (filtered runs only), compile
/// the configured strategy into waves of units, execute each wave, sort.
fn run_plan(
    polystore: &Polystore,
    cache: &Arc<ObjectCache>,
    plan: &AugmentPlan,
    config: &QuepaConfig,
    runtime: &FetchRuntime<'_>,
    filter: Option<(&Pushdown, Option<&PushdownDecider<'_>>)>,
) -> Result<(AugmentationOutcome, Vec<GroupDecision>)> {
    let config = config.sanitized();
    let owned = partition(plan);
    // A disabled cache means a serial run performs every round trip
    // itself — coalescing would change behaviour, not preserve it. A
    // filtered run never joins either: a leader's published outcome is
    // not filter-aware.
    let coalesce = config.cache_size > 0 && filter.is_none();
    let engine = Arc::new(Engine {
        polystore: polystore.clone(),
        cache: Arc::clone(cache),
        resilience: config.resilience,
        breakers: Arc::clone(runtime.breakers),
        obs: runtime.obs.map(Arc::clone),
        flight: runtime.flight.filter(|_| coalesce).map(Arc::clone),
        filter: filter.map(|(f, _)| f.clone()),
    });
    // The calling thread is a ticket of every wave: observe it like any
    // helper.
    let _ctx = engine.observe_fetch();
    let decisions = match filter {
        Some((f, decider)) => decide_groups(polystore, &owned, &config, f, decider),
        None => Vec::new(),
    };
    let strategy = Strategy::of(&config);
    let mut sink = Sink::default();
    for wave in compile(owned, &strategy, config.batch_size, &decisions) {
        sink.merge(engine.execute(wave, strategy.tickets, runtime.pool)?);
    }
    Ok((finish(sink, &config, runtime), decisions))
}

/// Dry-runs the planner: the per-group verdicts a filtered augmentation
/// of `plan` would execute under, without touching any store (the
/// `EXPLAIN` surface). A trivial filter plans no groups. Unlike a real
/// run, no observation context is installed here, so the planner
/// counters stay untouched — explaining a query must not dirty the
/// metrics a differential check compares.
pub fn explain_groups(
    polystore: &Polystore,
    plan: &AugmentPlan,
    config: &QuepaConfig,
    filter: &Pushdown,
    decider: Option<&PushdownDecider<'_>>,
) -> Vec<GroupDecision> {
    if filter.is_trivial() {
        return Vec::new();
    }
    decide_groups(polystore, &partition(plan), &config.sanitized(), filter, decider)
}

/// The planner: one verdict per (database, collection) group, in sorted
/// group order. Connector capability is consulted first (declines are
/// counted per store); the decider only arbitrates supported groups.
fn decide_groups(
    polystore: &Polystore,
    owned: &[Vec<Task>],
    config: &QuepaConfig,
    filter: &Pushdown,
    decider: Option<&PushdownDecider<'_>>,
) -> Vec<GroupDecision> {
    let mut sizes: std::collections::BTreeMap<(DatabaseName, CollectionName), usize> =
        std::collections::BTreeMap::new();
    for task in owned.iter().flatten() {
        *sizes.entry((task.key.database().clone(), task.key.collection().clone())).or_default() +=
            1;
    }
    sizes
        .into_iter()
        .map(|((database, collection), keys)| {
            let supported = polystore
                .connector(&database)
                .map(|c| (c.kind(), c.supports_pushdown(filter)))
                .ok();
            let (strategy, reason) = match supported {
                _ if !config.pushdown => (GroupStrategy::FetchAll, DecisionReason::Disabled),
                // Unknown database: let the fetch path surface the error.
                None => (GroupStrategy::FetchAll, DecisionReason::Declined),
                Some((_, false)) => {
                    quepa_obs::record_pushdown_declined(database.as_str());
                    (GroupStrategy::FetchAll, DecisionReason::Declined)
                }
                Some((kind, true)) => {
                    if decider.is_none_or(|d| d(kind, keys)) {
                        quepa_obs::record_pushdown_chosen(database.as_str());
                        (GroupStrategy::Pushdown, DecisionReason::Chosen)
                    } else {
                        (GroupStrategy::FetchAll, DecisionReason::Predicted)
                    }
                }
            };
            GroupDecision { database, collection, keys, strategy, reason }
        })
        .collect()
}

/// Work partition for the outer/inner strategies: each target key is
/// owned by the first seed that reaches it (the paper's augmenters
/// iterate the original answer and skip already-retrieved objects).
fn partition(plan: &AugmentPlan) -> Vec<Vec<Task>> {
    let mut owned: Vec<Vec<Task>> = vec![Vec::new(); plan.seed_count];
    for (a, &owner) in plan.augmented.iter().zip(&plan.ownership) {
        owned[owner as usize].push(Task {
            key: a.key.clone(),
            probability: a.probability,
            distance: a.distance,
        });
    }
    owned
}

/// How a unit's cache misses cross the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    /// One `get` per key: the unit is a run of independent lookups.
    Get,
    /// One `multi_get` for the unit (one database, one collection).
    MultiGet,
    /// One `fetch_where` carrying the run's filter into the store.
    FetchWhere,
}

/// What a ticket claims: tasks plus the wire operation that fetches them.
#[derive(Debug)]
struct Unit {
    tasks: Vec<Task>,
    wire: Wire,
}

/// What a strategy makes one unit of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Every key on its own.
    Key,
    /// The keys one seed owns, fetched one after the other.
    SeedRun,
    /// Up to `BATCH_SIZE` keys of one (database, collection), across
    /// seeds (§IV-A).
    BatchGroup,
}

/// One row of the strategy table: an augmenter is a unit shape, a ticket
/// count, and whether all seeds share one wave of tickets or each seed
/// gets its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Strategy {
    shape: Shape,
    tickets: usize,
    wave_per_seed: bool,
}

impl Strategy {
    /// The strategy table (paper §IV, Fig. 6–7).
    fn of(config: &QuepaConfig) -> Strategy {
        let threads = config.threads_size;
        // Outer × inner parallelism, flattened: per-key units claimed by
        // outer×inner tickets give the same schedule capacity without
        // nesting pools (a nested wait inside a pool worker could
        // deadlock the shared pool).
        let split = (threads / 2).max(1);
        let (shape, tickets, wave_per_seed) = match config.augmenter {
            AugmenterKind::Sequential => (Shape::SeedRun, 1, false),
            AugmenterKind::Batch => (Shape::BatchGroup, 1, false),
            AugmenterKind::Inner => (Shape::Key, threads, true),
            AugmenterKind::Outer => (Shape::SeedRun, threads, false),
            AugmenterKind::OuterBatch => (Shape::BatchGroup, threads, false),
            AugmenterKind::OuterInner => (Shape::Key, split * split, false),
        };
        Strategy { shape, tickets, wave_per_seed }
    }
}

/// Compiles a per-seed partition into waves of units. Every store group
/// the planner pushed the filter down to becomes one `fetch_where` unit
/// at the head of the first wave, claimed by tickets like any other; the
/// rest keeps its per-seed partition and takes the strategy's shape.
fn compile(
    mut owned: Vec<Vec<Task>>,
    strategy: &Strategy,
    batch_size: usize,
    decisions: &[GroupDecision],
) -> Vec<Vec<Unit>> {
    // `decisions` come in sorted group order: binary search finds a
    // task's group without cloning its names.
    let mut pushed: Vec<(&GroupDecision, Vec<Task>)> = decisions
        .iter()
        .filter(|d| d.strategy == GroupStrategy::Pushdown)
        .map(|d| (d, Vec::with_capacity(d.keys)))
        .collect();
    if !pushed.is_empty() {
        for tasks in &mut owned {
            for task in std::mem::take(tasks) {
                let slot = (task.key.database(), task.key.collection());
                match pushed.binary_search_by(|(d, _)| (&d.database, &d.collection).cmp(&slot)) {
                    Ok(group) => pushed[group].1.push(task),
                    Err(_) => tasks.push(task),
                }
            }
        }
    }
    let shaped = |seeds: Vec<Vec<Task>>| -> Vec<Unit> {
        let (units, wire): (Vec<Vec<Task>>, Wire) = match strategy.shape {
            Shape::Key => (seeds.into_iter().flatten().map(|t| vec![t]).collect(), Wire::Get),
            Shape::SeedRun => (seeds, Wire::Get),
            Shape::BatchGroup => (batch_groups(seeds, batch_size), Wire::MultiGet),
        };
        units.into_iter().filter(|u| !u.is_empty()).map(|tasks| Unit { tasks, wire }).collect()
    };
    let mut waves: Vec<Vec<Unit>> =
        vec![pushed.into_iter().map(|(_, tasks)| Unit { tasks, wire: Wire::FetchWhere }).collect()];
    if strategy.wave_per_seed {
        waves.extend(owned.into_iter().map(|seed| shaped(vec![seed])));
    } else {
        waves[0].extend(shaped(owned));
    }
    waves
}

/// Sorts a merged sink into the canonical answer order under the Merge
/// span.
fn finish(sink: Sink, config: &QuepaConfig, runtime: &FetchRuntime<'_>) -> AugmentationOutcome {
    let mut outcome = AugmentationOutcome {
        objects: sink.objects,
        missing: sink.missing,
        cache_hits: sink.cache_hits,
    };
    let mut span =
        runtime.obs.map(|r| quepa_obs::span_on(r, Stage::Merge, config.augmenter.name()));
    if let Some(s) = span.as_mut() {
        s.add_items(outcome.objects.len() as u64);
    }
    outcome.objects.sort_by(|a, b| {
        b.probability.cmp(&a.probability).then_with(|| a.object.key().cmp(b.object.key()))
    });
    outcome.missing.sort();
    outcome
}

/// Compiles the cross-seed batching of §IV-A into group units, in the
/// order the streaming formulation emits them: a group unit is produced
/// the moment it fills to `batch_size` (encounter order), partial groups
/// flush afterwards sorted by target (deterministic remainder).
fn batch_groups(owned: Vec<Vec<Task>>, batch_size: usize) -> Vec<Vec<Task>> {
    let mut units = Vec::new();
    // One open group per (database, collection), found by comparing the
    // names against each group's first key: a plan reaches a handful of
    // collections, and equal names are usually one shared string.
    let mut groups: Vec<(GlobalKey, Vec<Task>)> = Vec::new();
    for task in owned.into_iter().flatten() {
        let found = groups.iter().position(|(first, _)| {
            first.collection() == task.key.collection() && first.database() == task.key.database()
        });
        let group = match found {
            Some(i) => &mut groups[i].1,
            None => {
                groups.push((task.key.clone(), Vec::new()));
                &mut groups.last_mut().expect("just pushed").1
            }
        };
        group.push(task);
        if group.len() >= batch_size {
            units.push(std::mem::take(group));
        }
    }
    groups.retain(|(_, g)| !g.is_empty());
    groups.sort_by(|(a, _), (b, _)| {
        (a.database(), a.collection()).cmp(&(b.database(), b.collection()))
    });
    units.extend(groups.into_iter().map(|(_, g)| g));
    units
}

/// A shard of the result, private to one worker until merged.
#[derive(Debug, Default)]
struct Sink {
    objects: Vec<AugmentedObject>,
    missing: Vec<MissingKey>,
    cache_hits: usize,
}

impl Sink {
    fn push(&mut self, task: &Task, object: DataObject) {
        self.objects.push(AugmentedObject {
            object,
            probability: task.probability,
            distance: task.distance,
        });
    }

    fn merge(&mut self, mut other: Sink) {
        self.objects.append(&mut other.objects);
        self.missing.append(&mut other.missing);
        self.cache_hits += other.cache_hits;
    }
}

/// The retrieval engine of one run, shared by handle with every wave's
/// helpers.
struct Engine {
    polystore: Polystore,
    cache: Arc<ObjectCache>,
    resilience: ResilienceConfig,
    breakers: Arc<BreakerSet>,
    obs: Option<Arc<MetricsRegistry>>,
    /// `None` unless the run coalesces (see [`run_plan`]).
    flight: Option<Arc<FlightTable>>,
    /// The active pushdown filter, if the augmentation is filtered; a
    /// filtered engine never carries a flight table.
    filter: Option<Pushdown>,
}

/// Maps a fetch error to the structured reason it would leave in the
/// `missing` list — `None` for errors that must always propagate
/// (unknown database/collection, wrong store kind: configuration
/// mistakes, not outages).
fn unreachable_reason(error: &PolyError) -> Option<MissingReason> {
    match error {
        PolyError::Unreachable { database, attempts, .. } => {
            let database = DatabaseName::new(database).ok()?;
            Some(MissingReason::Unreachable { database, attempts: *attempts })
        }
        PolyError::Store { database, .. }
        | PolyError::Timeout { database }
        | PolyError::Unavailable { database } => {
            let database = DatabaseName::new(database).ok()?;
            Some(MissingReason::Unreachable { database, attempts: 1 })
        }
        _ => None,
    }
}

/// One wave of units and where their outcomes settle. `'static` by
/// construction (the engine is a shared handle), so helper jobs need no
/// scoped lifetimes.
struct Wave {
    engine: Arc<Engine>,
    units: Vec<Unit>,
    /// The claim cursor every ticket — the caller and its helpers alike —
    /// takes units off.
    next: AtomicUsize,
    /// Slot *i* holds unit *i*'s outcome; `None` is a unit settled unrun
    /// behind a failure.
    slots: parking_lot::Mutex<Vec<Option<UnitOutcome>>>,
    /// Counts *units*, not tickets: it opens when the last unit settles,
    /// whoever ran it, so a helper that starts after the cursor ran out
    /// is never waited for.
    settled: Latch,
}

type UnitOutcome = std::result::Result<Result<Sink>, Box<dyn std::any::Any + Send + 'static>>;

impl Wave {
    /// One ticket: claims units off the cursor until it runs out, each
    /// into its own slot. `summon` is handed down to the fetch routine
    /// (see [`Engine::execute`]).
    fn drain(&self, summon: &dyn Fn()) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = self.units.get(i) else { return };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut sink = Sink::default();
                self.engine.run_unit(unit, &mut sink, summon).map(|()| sink)
            }));
            let failed = !matches!(outcome, Ok(Ok(_)));
            self.slots.lock()[i] = Some(outcome);
            let mut settled = 1;
            if failed {
                // Fail fast, as a serial run stops at its first error:
                // the failing ticket claims every unit still unclaimed
                // and settles it unrun. Units before the first failing
                // one were all claimed earlier and run to completion, so
                // which failure is first in unit order does not depend
                // on who ran what.
                let unclaimed = self.next.swap(self.units.len(), Ordering::Relaxed);
                settled += self.units.len().saturating_sub(unclaimed);
            }
            self.settled.count_down_by(settled);
        }
    }
}

/// A key this query must fetch itself, with its slot in the group this
/// query leads when the run coalesces.
type Pending<'t> = (&'t Task, Option<usize>);

/// One unit's cache lookups, counted locally and added to the cache's
/// and the registry's counters once, when the unit's fetch returns —
/// whichever way it returns.
struct Tally<'e> {
    cache: &'e ObjectCache,
    hits: u64,
    misses: u64,
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.cache.tally(self.hits, self.misses);
        quepa_obs::record_cache_probes(self.hits, self.misses);
    }
}

impl Engine {
    /// Installs the Fetch-stage observation context on the current
    /// thread; every worker calls this so its round trips, cache probes
    /// and retries report to the engine's registry. `None` (and disabled
    /// registries) cost nothing.
    fn observe_fetch(&self) -> Option<quepa_obs::ContextGuard> {
        self.obs.as_ref().map(|r| quepa_obs::observe(r, Stage::Fetch))
    }

    /// The breaker guarding `database`, when breakers are enabled.
    fn breaker(&self, database: &DatabaseName) -> Option<Arc<CircuitBreaker>> {
        if self.resilience.breaker.is_disabled() {
            return None;
        }
        self.breakers.breaker(database)
    }

    /// Whether the active filter (if any) admits this object. Client-side
    /// evaluation uses the same canonical evaluator as every native
    /// pushdown path, over the exact local key and value the connector
    /// hands back — the bit-identity argument.
    fn admits(&self, task: &Task, object: &DataObject) -> bool {
        self.filter.as_ref().is_none_or(|f| f.matches(task.key.key().as_str(), object.value()))
    }

    /// Accounts a cache (or coalesced-flight) hit. The probe is a hit
    /// whether or not the filter admits the object; a filtered-out hit
    /// just contributes nothing (and is not missing).
    fn push_hit(&self, task: &Task, object: DataObject, sink: &mut Sink, tally: &mut Tally<'_>) {
        tally.hits += 1;
        sink.cache_hits += 1;
        if self.admits(task, &object) {
            sink.push(task, object);
        }
    }

    /// Runs one unit into a ticket's local sink. A `Get` unit is a run of
    /// independent lookups: each key probes, joins and settles on its
    /// own, so the cache sees them one after the other as §IV's
    /// per-object loop does.
    fn run_unit(&self, unit: &Unit, sink: &mut Sink, summon: &dyn Fn()) -> Result<()> {
        let step = if unit.wire == Wire::Get { 1 } else { unit.tasks.len().max(1) };
        unit.tasks
            .chunks(step)
            .try_for_each(|tasks| self.fetch_unit(tasks, unit.wire, sink, summon))
    }

    /// The one fetch routine: cache first, then — for what the cache
    /// misses — the flight table (when the run coalesces), one round trip
    /// over `wire` for the keys this query ends up responsible for, and
    /// whatever other queries' leaders publish for the rest. `tasks`
    /// share one (database, collection) unless `wire` is `Get` over a
    /// single key.
    fn fetch_unit(
        &self,
        tasks: &[Task],
        wire: Wire,
        sink: &mut Sink,
        summon: &dyn Fn(),
    ) -> Result<()> {
        let mut tally = Tally { cache: &self.cache, hits: 0, misses: 0 };
        let mut pending: Vec<Pending<'_>> = Vec::with_capacity(tasks.len());
        let probed = self.cache.probe_many(tasks.iter().map(|t| &t.key));
        for (task, hit) in tasks.iter().zip(probed) {
            match hit {
                Some(object) => self.push_hit(task, object, sink, &mut tally),
                None => pending.push((task, None)),
            }
        }
        if pending.is_empty() {
            return Ok(());
        }
        // Keys the cache cannot answer: blocking work lies ahead (a
        // flight to wait on, a round trip), so the wave fans out now,
        // before this thread first blocks.
        summon();
        // The misses join the flight table as one atomic unit: this
        // query leads some keys, waits on others, and finds the rest
        // cached after all (a flight landed since the probe).
        let mut waiters: Vec<(&Task, FlightSlot)> = Vec::new();
        let mut leader: Option<GroupLeader<'_>> = None;
        if let Some(flight) = &self.flight {
            let (roles, led) = flight.join_group(pending.iter().map(|(t, _)| &t.key), &self.cache);
            leader = led;
            for ((task, _), role) in std::mem::take(&mut pending).into_iter().zip(roles) {
                match role {
                    KeyRole::Cached(object) => self.push_hit(task, object, sink, &mut tally),
                    KeyRole::Leader(slot) => pending.push((task, Some(slot))),
                    KeyRole::Waiter(theirs) => waiters.push((task, theirs)),
                }
            }
        }
        // A leader tallies its miss at election; a waiter when it
        // settles, once it knows whether a serial run would have hit.
        tally.misses += pending.len() as u64;
        if !pending.is_empty() {
            self.round_trip(pending, wire, sink, leader.as_mut())?;
        }
        // The led group lands (cache fill, flights retired, waiters
        // woken) before this query waits on anyone else's.
        drop(leader);
        for (task, theirs) in waiters {
            match theirs.wait() {
                // The flight table is the in-flight extension of the
                // cache: a serial execution would have found this object
                // cached.
                FlightOutcome::Found(object) => self.push_hit(task, object, sink, &mut tally),
                FlightOutcome::NotFound => {
                    tally.misses += 1;
                    sink.missing.push(MissingKey::not_found(task.key.clone()));
                }
                // The leader's round trip failed: fetch directly so this
                // query's own retry/breaker accounting applies.
                FlightOutcome::Failed => {
                    tally.misses += 1;
                    self.round_trip(vec![(task, None)], Wire::Get, sink, None)?;
                }
            }
        }
        Ok(())
    }

    /// One round trip over `wire` for `pending` (all in one database and
    /// collection; exactly one key under `Get`), settled into `sink`,
    /// the cache and — for the keys with a slot — `leader`. A slot left
    /// unset lands as `Failed`, so on every error path other queries'
    /// waiters fall back to their own fetch.
    fn round_trip(
        &self,
        pending: Vec<Pending<'_>>,
        wire: Wire,
        sink: &mut Sink,
        mut leader: Option<&mut GroupLeader<'_>>,
    ) -> Result<()> {
        debug_assert!(wire != Wire::Get || pending.len() == 1);
        let first = &pending[0].0.key;
        let (database, collection) = (first.database(), first.collection());
        let local_keys: Vec<LocalKey> = pending.iter().map(|(t, _)| t.key.key().clone()).collect();
        let breaker = self.breaker(database);
        // Only a pushdown unit carries the run's filter into the store;
        // it shares its retry salt and fault identity with the unfiltered
        // fetch of the same key list, so the planner's choice never
        // changes which faults fire.
        let filter = (wire == Wire::FetchWhere)
            .then(|| self.filter.as_ref().expect("only filtered runs plan pushdown units"));
        let fetched = self.polystore.fetch(
            database,
            collection,
            &local_keys,
            filter,
            &self.resilience.retry,
            breaker.as_deref(),
        );
        let fetched = match fetched {
            Ok(fetched) => fetched,
            Err(error) => {
                // Fail-fast, or not an outage: the error propagates.
                let reason = unreachable_reason(&error)
                    .filter(|_| self.resilience.degrade == DegradeMode::Partial);
                let Some(reason) = reason else { return Err(error.into()) };
                if wire == Wire::Get {
                    let key = first.clone();
                    sink.missing.push(MissingKey { key, reason });
                    return Ok(());
                }
                // A failed batch must not poison its healthy members:
                // degrade to per-key round trips (filtered client-side)
                // so only the keys that are truly unreachable land in
                // `missing`.
                if wire == Wire::FetchWhere {
                    quepa_obs::record_pushdown_fallback(database.as_str());
                }
                return pending.into_iter().try_for_each(|entry| {
                    self.round_trip(vec![entry], Wire::Get, sink, leader.as_deref_mut())
                });
            }
        };
        // Request order throughout: the cache fills, flights land and
        // `missing` grows in the order the keys were asked for, whatever
        // order the store answered in. Stores answer in request order, so
        // each key first tries the next object; a store that skipped a
        // key or answered in another order is matched through a map.
        let rejected: HashSet<&LocalKey> = fetched.rejected.iter().collect();
        let mut in_order = fetched.matched.into_iter().peekable();
        let mut by_key: HashMap<GlobalKey, DataObject> = HashMap::new();
        let mut cache_fill = Vec::new();
        for (task, slot) in pending {
            let object = match in_order.next_if(|o| *o.key() == task.key) {
                Some(object) => Some(object),
                None => {
                    by_key.extend(in_order.by_ref().map(|o| (o.key().clone(), o)));
                    by_key.remove(&task.key)
                }
            };
            match object {
                Some(object) if wire == Wire::FetchWhere || self.admits(task, &object) => {
                    match (slot, leader.as_deref_mut()) {
                        (Some(slot), Some(leader)) => {
                            leader.set(slot, FlightOutcome::Found(object.clone()))
                        }
                        _ => cache_fill.push(object.clone()),
                    }
                    sink.push(task, object);
                }
                // Exists but fails the filter — fetched and dropped here,
                // or reported `rejected` by the store: neither an answer
                // nor missing, and never cached. Under pushdown it would
                // not have crossed the wire, and the cache state must not
                // reveal which strategy ran.
                Some(_) => {}
                None if rejected.contains(task.key.key()) => {}
                // Gone from the store: the lazy-deletion signal.
                None => {
                    if let (Some(slot), Some(leader)) = (slot, leader.as_deref_mut()) {
                        leader.set(slot, FlightOutcome::NotFound);
                    }
                    sink.missing.push(MissingKey::not_found(task.key.clone()));
                }
            }
        }
        self.cache.insert_many(cache_fill);
        Ok(())
    }

    /// The ticket executor. The submitting thread is a ticket: it claims
    /// `units` off the wave's cursor itself, and a wave whose every probe
    /// hits the cache never leaves it. The other `tickets − 1` are
    /// helpers, submitted once per wave — to `pool`, or to a one-shot
    /// pool built on the spot when the run has none — the first time a
    /// unit the caller runs finds keys the cache cannot answer, i.e.
    /// before the caller's own first blocking call. The pool bounds
    /// helpers only: if none ever starts, the caller drains the cursor
    /// alone. Outcomes settle per unit and merge in unit order; the first
    /// failure in unit order — a panic re-raised, an error returned — is
    /// the wave's.
    fn execute(
        self: &Arc<Self>,
        units: Vec<Unit>,
        tickets: usize,
        pool: Option<&WorkerPool>,
    ) -> Result<Sink> {
        let helpers = tickets.min(units.len()).saturating_sub(1);
        let wave = Arc::new(Wave {
            engine: Arc::clone(self),
            next: AtomicUsize::new(0),
            slots: parking_lot::Mutex::new(units.iter().map(|_| None).collect()),
            settled: Latch::new(units.len()),
            units,
        });
        // Declared before the first job can exist and dropped (joined)
        // when this call returns: a late helper finds the cursor
        // exhausted and exits at once.
        let one_shot = OnceCell::new();
        let summoned = Cell::new(helpers == 0);
        let summon = || {
            if summoned.replace(true) {
                return;
            }
            let pool = pool.unwrap_or_else(|| one_shot.get_or_init(|| WorkerPool::new(helpers)));
            for _ in 0..helpers {
                let wave = Arc::clone(&wave);
                pool.submit(move || {
                    let _ctx = wave.engine.observe_fetch();
                    // Only the submitting thread summons.
                    wave.drain(&|| ());
                });
            }
        };
        wave.drain(&summon);
        wave.settled.wait();
        let slots = std::mem::take(&mut *wave.slots.lock());
        let mut sink = Sink::default();
        for outcome in slots.into_iter().flatten() {
            match outcome {
                Ok(shard) => sink.merge(shard?),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Ok(sink)
    }
}
