//! Scenario generation, serialization and materialization.
//!
//! A [`Scenario`] is the *entire* input of one differential check, fully
//! determined by a `u64` seed: the polystore topology (store kinds,
//! deployment, population sizes), the p-relations of the A' index
//! (including references to *phantom* objects that exist only in the
//! index — the lazy-deletion trigger), the local query, the
//! configuration points to sweep, and an optional fault plan. Everything
//! derives from forked [`SplitMix`] sub-streams, so tweaking the fault
//! plan never reshuffles the topology.
//!
//! Scenarios serialize to a line-based `.scenario` text format and parse
//! back losslessly — a failing run is replayable from the file alone
//! (`quepa-check --replay fail.scenario`).

use std::sync::Arc;
use std::time::Duration;

use quepa_aindex::AIndex;
use quepa_core::{AugmenterKind, DegradeMode, QuepaConfig, ResilienceConfig};
use quepa_docstore::DocumentDb;
use quepa_graphstore::GraphDb;
use quepa_kvstore::KvStore;
use quepa_pdm::{GlobalKey, Probability, PushOp, Pushdown};
use quepa_polystore::retry::{BreakerConfig, RetryPolicy};
use quepa_polystore::{
    Connector, Deployment, DocumentConnector, FaultPlan, FaultyConnector, GraphConnector,
    KvConnector, Polystore, PushdownGate, RelationalConnector,
};
use quepa_relstore::Database;
use quepa_workload::hostile::{HostileTopology, TopologyFamily};
use quepa_workload::queries::query_for;

use crate::model::ModelIndex;
use crate::rng::{fnv, mix, SplitMix};

pub use quepa_polystore::StoreKind;

/// Retry attempts of the harness's resilient configuration. Transient
/// fault streaks are generated strictly shorter, so retries always ride
/// them out and only *outages* surface in `missing` — keeping the
/// expected answer independent of how an augmenter batches its calls.
pub const MAX_ATTEMPTS: u32 = 4;

/// One store in the generated polystore: its kind and how many objects
/// the seeded population hook creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSpec {
    /// Which of the four store kinds.
    pub kind: StoreKind,
    /// Population size (objects `0..objects`).
    pub objects: usize,
}

/// One p-relation of the A' index. Endpoints address `(store index,
/// object index)`; an object index `>= objects` of its store references a
/// **phantom**: a key the index knows but the store does not hold, which
/// the real system must report as `NotFound` and lazily delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationSpec {
    /// First endpoint.
    pub a: (usize, usize),
    /// Second endpoint.
    pub b: (usize, usize),
    /// Identity (true) or matching (false).
    pub identity: bool,
    /// Probability in thousandths (1..=1000).
    pub prob_millis: u32,
}

/// One `QuepaConfig` point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSpec {
    /// The augmenter under test.
    pub augmenter: AugmenterKind,
    /// `BATCH_SIZE`.
    pub batch: usize,
    /// `THREADS_SIZE`.
    pub threads: usize,
    /// LRU capacity (0 disables caching).
    pub cache: usize,
    /// Fast-retry partial-degradation resilience (true) or the trivial
    /// pass-through policy (false). Always true when a fault plan is
    /// present.
    pub resilient: bool,
    /// Observability layer on.
    pub obs: bool,
    /// `PUSHDOWN` knob: whether the planner may push the scenario's
    /// filter into stores. Inert when the scenario carries no filter;
    /// with one, the differential holds answers bit-identical either way.
    pub pushdown: bool,
}

/// The fault plan of a chaos run, in harness-equalizable form: transient
/// streaks short enough to always be ridden out, latency spikes, and hard
/// outages of non-target stores. No timeouts (their per-identity draws
/// would make the missing-set depend on batch composition) and no breaker
/// (its trip state would depend on call order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the [`FaultPlan`]'s own deterministic streams.
    pub seed: u64,
    /// Transient-failure rate in percent.
    pub transient_pct: u32,
    /// Max consecutive transient failures (strictly < [`MAX_ATTEMPTS`]).
    pub max_streak: u32,
    /// Latency-spike rate in percent.
    pub spike_pct: u32,
    /// Store indices that are hard-down (never includes the query store).
    pub outages: Vec<usize>,
}

/// A deliberately planted bug, injected into the *real* side only — the
/// harness's own acceptance test: the driver must catch it and shrink the
/// scenario to a minimal reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Silently drop relation `i % relations.len()` when building the
    /// real A' index (models a lost edge in the CSR build).
    DropRelation(usize),
    /// Silently drop the last `n` records of the WAL tail during
    /// recovery (models a broken replay cursor). Caught by the crash
    /// differential: the recovered instance no longer matches its
    /// never-crashed twin.
    SkipWalTail(usize),
}

/// A seeded crash plan: run the scenario's mutation stream against a
/// *durable* instance, kill it at a chosen point, recover, and hold the
/// recovered instance to bit-for-bit agreement with a never-crashed
/// volatile twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Kill after this many mutations were durably applied (clamped to
    /// the stream length).
    pub after_ops: usize,
    /// Append a torn (incomplete) final record to the WAL after the
    /// kill — the shape an in-flight write leaves behind. Recovery must
    /// truncate it.
    pub torn_tail: bool,
    /// Force a checkpoint cut every `n` applied mutations (`0` leaves
    /// cuts to the compaction trigger alone).
    pub checkpoint_every: usize,
    /// The crash strikes *between* WAL append and in-memory apply: the
    /// next record is durable in the log but was never acknowledged.
    /// Recovery must replay it — the recovered state runs one op
    /// *ahead* of what the crashed instance ever served.
    pub partial: bool,
}

/// A complete generated scenario. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed everything derives from.
    pub seed: u64,
    /// Network deployment (store latency model).
    pub deployment: Deployment,
    /// The stores, in registration order; store `i` is named `db{i}`.
    pub stores: Vec<StoreSpec>,
    /// The p-relations inserted into the A' index, in order.
    pub relations: Vec<RelationSpec>,
    /// Index of the store the local query targets.
    pub query_store: usize,
    /// Result size the native query asks for.
    pub query_size: usize,
    /// Augmentation level.
    pub level: usize,
    /// Configuration points to sweep (all six augmenters).
    pub configs: Vec<ConfigSpec>,
    /// Optional fault plan.
    pub fault: Option<FaultSpec>,
    /// Interleaved `remove_object` mutations applied to the live index
    /// *between* (serial check) and *during* (racing check) augmentations.
    /// Endpoints address `(store, object)` like [`RelationSpec`] and may
    /// reference phantoms or keys the index never interned.
    pub removals: Vec<(usize, usize)>,
    /// Optional crash plan — when present, the crash-point differential
    /// rides along with the standard sweep.
    pub crash: Option<CrashSpec>,
    /// Optional pushdown filter, in [`quepa_pdm::Pushdown`] canonical
    /// text form. Always **key-only**, so the model side can evaluate it
    /// without fetching values. `None` runs the sweep unfiltered.
    pub filter: Option<String>,
    /// Store indices whose native pushdown is hidden behind a
    /// [`PushdownGate`] — the planner must fall back to fetch-all there,
    /// and the answers must not change.
    pub nopush: Vec<usize>,
    /// Optional planted bug (never generated; set by `--inject-bug`).
    pub mutation: Option<Mutation>,
    /// The adversarial topology family this scenario instantiates, if it
    /// came from [`Scenario::generate_hostile`]. Provenance metadata: it
    /// rides through shrinking and the `.scenario` file format so a
    /// shrunk hostile reproduction still says which family found it.
    pub family: Option<TopologyFamily>,
}

impl Scenario {
    /// Generates the scenario fully determined by `seed`.
    pub fn generate(seed: u64) -> Scenario {
        let root = SplitMix::new(seed);

        let mut topo = root.fork("topology");
        let n_stores = if topo.chance(10) { topo.range(7, 12) } else { topo.range(1, 6) };
        let kinds =
            [StoreKind::KeyValue, StoreKind::Relational, StoreKind::Document, StoreKind::Graph];
        let stores: Vec<StoreSpec> = (0..n_stores)
            .map(|_| StoreSpec { kind: *topo.pick(&kinds), objects: topo.range(4, 12) })
            .collect();
        let deployment = match topo.below(20) {
            0 => Deployment::Distributed,
            1..=3 => Deployment::Centralized,
            _ => Deployment::InProcess,
        };

        let mut rels = root.fork("relations");
        let total_objects: usize = stores.iter().map(|s| s.objects).sum();
        let n_relations = rels.range(total_objects / 2, (2 * total_objects).min(60));
        let relations: Vec<RelationSpec> = (0..n_relations)
            .map(|_| {
                let pick_end = |rng: &mut SplitMix| {
                    let s = rng.below(n_stores);
                    // One phantom slot per store: index == objects.
                    (s, rng.below(stores[s].objects + 1))
                };
                RelationSpec {
                    a: pick_end(&mut rels),
                    b: pick_end(&mut rels),
                    identity: rels.chance(40),
                    prob_millis: rels.range(100, 1000) as u32,
                }
            })
            .collect();

        let mut query = root.fork("query");
        let query_store = query.below(n_stores);
        let max_size = stores[query_store].objects;
        let query_size =
            if query.chance(20) { max_size + query.range(1, 4) } else { query.range(1, max_size) };
        let level = query.below(4);

        let mut faults = root.fork("faults");
        let fault = if faults.chance(40) {
            let fault_seed = faults.next_u64();
            let transient_pct = faults.range(0, 30) as u32;
            let max_streak = faults.range(1, (MAX_ATTEMPTS - 1) as usize) as u32;
            let spike_pct = faults.range(0, 8) as u32;
            let outages: Vec<usize> =
                (0..n_stores).filter(|&s| s != query_store && faults.chance(15)).collect();
            Some(FaultSpec { seed: fault_seed, transient_pct, max_streak, spike_pct, outages })
        } else {
            None
        };

        let mut cfg = root.fork("configs");
        let mut configs: Vec<ConfigSpec> = AugmenterKind::ALL
            .iter()
            .map(|&augmenter| ConfigSpec {
                augmenter,
                batch: cfg.range(1, 8),
                threads: cfg.range(1, 4),
                cache: if cfg.chance(50) { 4096 } else { 0 },
                resilient: fault.is_some() || cfg.chance(30),
                obs: cfg.chance(40),
                pushdown: true,
            })
            .collect();

        // Forked last so adding removals never reshuffled older streams —
        // historical seeds keep their topology/query/fault draws.
        let mut rm = root.fork("removals");
        let removals: Vec<(usize, usize)> = if rm.chance(35) {
            (0..rm.range(1, 3))
                .map(|_| {
                    let s = rm.below(n_stores);
                    (s, rm.below(stores[s].objects + 1))
                })
                .collect()
        } else {
            Vec::new()
        };

        // Crash plans get their own labelled stream, forked after every
        // older one for the same reason as removals: historical seeds
        // keep their draws.
        let mut cr = root.fork("crash");
        let crash = if cr.chance(30) {
            let total = relations.len() + removals.len();
            Some(CrashSpec {
                after_ops: cr.below(total + 1),
                torn_tail: cr.chance(35),
                checkpoint_every: if cr.chance(50) { cr.range(1, 6) } else { 0 },
                partial: cr.chance(40),
            })
        } else {
            None
        };

        // Pushdown draws fork last, like removals and crash before them:
        // a key-only filter on ~2 in 5 scenarios, per-config PUSHDOWN
        // knob, and a few stores whose native path is gated off so the
        // fetch-all fallback stays covered under the same answers.
        let mut pd = root.fork("pushdown");
        let filter = pd.chance(45).then(|| filter_text(&mut pd));
        let mut nopush = Vec::new();
        if filter.is_some() {
            for c in &mut configs {
                c.pushdown = pd.chance(60);
            }
            nopush = (0..n_stores).filter(|_| pd.chance(30)).collect();
        }

        Scenario {
            seed,
            deployment,
            stores,
            relations,
            query_store,
            query_size,
            level,
            configs,
            fault,
            removals,
            crash,
            filter,
            nopush,
            mutation: None,
            family: None,
        }
    }

    /// Generates a differential-check scenario whose index topology is an
    /// adversarial [`TopologyFamily`] instance instead of the uniform
    /// random graph: a check-sized supernode, one full-depth chain, or a
    /// handful of identity-clique clusters, mapped onto ordinary stores.
    ///
    /// Topology-local object `i` maps to `(store i % n, object i / n)`,
    /// so the standard naming, phantom and removal machinery apply
    /// unchanged. The query always targets store 0 — object 0 (the hub /
    /// first chain head / first cluster representative) is local object 0
    /// there, so every local result set contains the family's focal
    /// object. Supernode scenarios always remove the hub (the removal
    /// races pivot on it) and draw crash plans at an elevated rate (crash
    /// differential over the hub's shard).
    pub fn generate_hostile(family: TopologyFamily, seed: u64) -> Scenario {
        let root = SplitMix::new(seed);

        let mut topo = root.fork("hostile-topology");
        let scale = match family {
            TopologyFamily::Supernode => topo.range(24, 56),
            TopologyFamily::DeepChain => quepa_workload::hostile::DEEP_CHAIN_DEPTH,
            TopologyFamily::NearDup => topo.range(24, 40),
        };
        let shape: HostileTopology =
            family.generate(scale, mix(seed, fnv(family.name().as_bytes())));
        let n_stores = topo.range(2, 4);
        let kinds =
            [StoreKind::KeyValue, StoreKind::Relational, StoreKind::Document, StoreKind::Graph];
        let mut stores: Vec<StoreSpec> =
            (0..n_stores).map(|_| StoreSpec { kind: *topo.pick(&kinds), objects: 0 }).collect();
        for i in 0..shape.objects {
            stores[i % n_stores].objects += 1;
        }
        let deployment = match topo.below(10) {
            0 => Deployment::Distributed,
            1..=2 => Deployment::Centralized,
            _ => Deployment::InProcess,
        };
        let locate = |i: usize| (i % n_stores, i / n_stores);
        let mut relations: Vec<RelationSpec> = shape
            .relations
            .iter()
            .map(|r| RelationSpec {
                a: locate(r.a),
                b: locate(r.b),
                identity: r.identity,
                prob_millis: r.prob_millis,
            })
            .collect();
        // Phantom pressure: re-point a couple of non-hub endpoints at
        // their store's phantom slot (index == objects) so lazy deletion
        // runs inside the hostile shape too.
        if topo.chance(40) && !relations.is_empty() {
            for _ in 0..topo.range(1, 2) {
                let r = topo.below(relations.len());
                let (s, o) = relations[r].b;
                // Never phantom the hub itself — the family's focal
                // object must exist in its store.
                if shape.hub != Some(o * n_stores + s) {
                    relations[r].b = (s, stores[s].objects);
                }
            }
        }

        let mut query = root.fork("hostile-query");
        let query_store = 0;
        let max_size = stores[query_store].objects;
        let query_size = query.range(1, max_size.max(1));
        let level = match family {
            TopologyFamily::DeepChain => query.range(2, 3),
            _ => query.range(1, 2),
        };

        let mut faults = root.fork("hostile-faults");
        let fault = if faults.chance(35) {
            let fault_seed = faults.next_u64();
            let transient_pct = faults.range(5, 30) as u32;
            let max_streak = faults.range(1, (MAX_ATTEMPTS - 1) as usize) as u32;
            let spike_pct = faults.range(0, 6) as u32;
            let outages: Vec<usize> =
                (0..n_stores).filter(|&s| s != query_store && faults.chance(10)).collect();
            Some(FaultSpec { seed: fault_seed, transient_pct, max_streak, spike_pct, outages })
        } else {
            None
        };

        let mut cfg = root.fork("hostile-configs");
        let mut configs: Vec<ConfigSpec> = AugmenterKind::ALL
            .iter()
            .map(|&augmenter| ConfigSpec {
                augmenter,
                batch: cfg.range(1, 8),
                threads: cfg.range(1, 4),
                cache: if cfg.chance(50) { 4096 } else { 0 },
                resilient: fault.is_some() || cfg.chance(30),
                obs: cfg.chance(40),
                pushdown: true,
            })
            .collect();

        let mut rm = root.fork("hostile-removals");
        let mut removals: Vec<(usize, usize)> = Vec::new();
        match family {
            // The hub always dies: removal races and crash plans pivot
            // on deleting the best-connected object in the index.
            TopologyFamily::Supernode => {
                removals.push(locate(shape.hub.expect("supernode has a hub")));
                if rm.chance(50) {
                    removals.push(locate(rm.range(1, shape.objects - 1)));
                }
            }
            // A mid-chain node: severs the path the deep query walks.
            TopologyFamily::DeepChain => {
                if rm.chance(70) {
                    removals.push(locate(quepa_workload::hostile::DEEP_CHAIN_DEPTH / 2));
                }
            }
            // A cluster representative: its whole materialized clique
            // must survive consistently.
            TopologyFamily::NearDup => {
                if rm.chance(70) {
                    let cluster =
                        rm.below(shape.objects / quepa_workload::hostile::NEAR_DUP_CLUSTER);
                    removals.push(locate(cluster * quepa_workload::hostile::NEAR_DUP_CLUSTER));
                }
            }
        }

        let mut cr = root.fork("hostile-crash");
        let crash_pct = if family == TopologyFamily::Supernode { 60 } else { 30 };
        let crash = if cr.chance(crash_pct) {
            let total = relations.len() + removals.len();
            Some(CrashSpec {
                after_ops: cr.below(total + 1),
                torn_tail: cr.chance(35),
                checkpoint_every: if cr.chance(50) { cr.range(1, 6) } else { 0 },
                partial: cr.chance(40),
            })
        } else {
            None
        };

        let mut pd = root.fork("hostile-pushdown");
        let filter = pd.chance(40).then(|| filter_text(&mut pd));
        let mut nopush = Vec::new();
        if filter.is_some() {
            for c in &mut configs {
                c.pushdown = pd.chance(60);
            }
            nopush = (0..n_stores).filter(|_| pd.chance(30)).collect();
        }

        Scenario {
            seed,
            deployment,
            stores,
            relations,
            query_store,
            query_size,
            level,
            configs,
            fault,
            removals,
            crash,
            filter,
            nopush,
            mutation: None,
            family: Some(family),
        }
    }

    // -- naming ----------------------------------------------------------

    /// Database name of store `i`.
    pub fn store_name(i: usize) -> String {
        format!("db{i}")
    }

    /// The main collection of a store kind (matches the population hooks
    /// and `quepa_workload::queries::query_for`).
    pub fn collection(kind: StoreKind) -> &'static str {
        match kind {
            StoreKind::KeyValue => "c",
            StoreKind::Relational => "inventory",
            StoreKind::Document => "albums",
            StoreKind::Graph => "album",
        }
    }

    /// Local key of object `j` in a store of `kind`.
    pub fn local_key(kind: StoreKind, j: usize) -> String {
        match kind {
            StoreKind::KeyValue => format!("k{j}"),
            StoreKind::Relational => format!("a{j}"),
            StoreKind::Document => format!("d{j}"),
            StoreKind::Graph => format!("g{j}"),
        }
    }

    /// Global key of `(store, object)` — objects past the population are
    /// phantoms, but their keys are formed the same way.
    pub fn key_of(&self, store: usize, obj: usize) -> GlobalKey {
        let kind = self.stores[store].kind;
        format!(
            "{}.{}.{}",
            Self::store_name(store),
            Self::collection(kind),
            Self::local_key(kind, obj)
        )
        .parse()
        .expect("generated keys are well-formed")
    }

    /// Whether `(store, obj)` references a phantom.
    pub fn is_phantom(&self, store: usize, obj: usize) -> bool {
        obj >= self.stores[store].objects
    }

    /// The native local query.
    pub fn query(&self) -> String {
        query_for(self.stores[self.query_store].kind, self.query_size)
    }

    /// The parsed pushdown predicate, if the scenario carries one. The
    /// text is validated at generation / parse time, so this cannot fail.
    pub fn pushdown_filter(&self) -> Option<Pushdown> {
        self.filter
            .as_ref()
            .map(|t| Pushdown::parse(t).expect("scenario filters are validated key-only text"))
    }

    /// Forces a pushdown predicate onto the scenario (the `--pushdown`
    /// sweep): seeds that drew a filter keep it, the rest draw one —
    /// plus per-config planner toggles and per-store gates — from a
    /// labelled sub-stream, so the sweep stays replayable by seed.
    pub fn force_filter(&mut self) {
        if self.filter.is_some() {
            return;
        }
        let mut pd = SplitMix::new(self.seed).fork("forced-pushdown");
        self.filter = Some(filter_text(&mut pd));
        for c in &mut self.configs {
            c.pushdown = pd.chance(60);
        }
        self.nopush = (0..self.stores.len()).filter(|_| pd.chance(30)).collect();
    }

    /// Name of the query-target database.
    pub fn query_database(&self) -> String {
        Self::store_name(self.query_store)
    }

    // -- materialization -------------------------------------------------

    /// Builds the pristine polystore (no fault wrapping) from the seeded
    /// population hooks, with the indexes the schema declares: `seq` on
    /// `inventory`, `albums` and `:Album`, as in
    /// [`quepa_workload::BuiltPolystore::build`].
    pub fn build_polystore(&self) -> Polystore {
        self.build_stores(true)
    }

    /// The same stores with no index declared: every local query takes the
    /// scan path. The twin invariant 10 holds [`Self::build_polystore`] to.
    pub fn build_unindexed_polystore(&self) -> Polystore {
        self.build_stores(false)
    }

    fn build_stores(&self, indexed: bool) -> Polystore {
        let latency = self.deployment.latency();
        let mut polystore = Polystore::new();
        for (i, spec) in self.stores.iter().enumerate() {
            let name = Self::store_name(i);
            let store_seed = mix(self.seed, i as u64);
            match spec.kind {
                StoreKind::KeyValue => {
                    let kv = KvStore::populate_seeded(name, store_seed, spec.objects);
                    polystore.register(Arc::new(KvConnector::new(kv, "c", latency)));
                }
                StoreKind::Relational => {
                    let mut db = Database::populate_seeded(name, store_seed, spec.objects);
                    if indexed {
                        db.create_index("inventory", "seq").expect("the seeded table has a seq");
                    }
                    polystore.register(Arc::new(RelationalConnector::new(db, latency)));
                }
                StoreKind::Document => {
                    let mut db = DocumentDb::populate_seeded(name, store_seed, spec.objects);
                    if indexed {
                        db.create_index("albums", "seq");
                    }
                    polystore.register(Arc::new(DocumentConnector::new(db, latency)));
                }
                StoreKind::Graph => {
                    let mut db = GraphDb::populate_seeded(name, store_seed, spec.objects);
                    if indexed {
                        db.create_index("Album", "seq");
                    }
                    polystore.register(Arc::new(GraphConnector::new(db, latency)));
                }
            }
        }
        polystore
    }

    /// Native DML against the query-target store, derived from the
    /// scenario alone — what invariant 10 applies between its queries:
    /// the [`Self::removals`] that address that store as keyed deletes,
    /// then a window in the middle of the local query's range deleted
    /// through the store's own predicate language (so the access path
    /// picks the rows a statement changes, not only the rows it returns),
    /// and in SQL a row moved out of the range and a deleted one put back.
    pub fn store_mutations(&self) -> Vec<String> {
        let kind = self.stores[self.query_store].kind;
        let delete_key = |j: usize| {
            let key = Self::local_key(kind, j);
            match kind {
                StoreKind::KeyValue => format!("DEL {key}"),
                StoreKind::Relational => format!("DELETE FROM inventory WHERE id = '{key}'"),
                StoreKind::Document => format!(r#"db.albums.remove({{"_id":"{key}"}})"#),
                StoreKind::Graph => format!("DELETE NODE {key}"),
            }
        };
        let mut out: Vec<String> = self
            .removals
            .iter()
            .filter(|&&(store, _)| store == self.query_store)
            .map(|&(_, obj)| delete_key(obj))
            .collect();
        let (lo, hi) = (self.query_size / 3, self.query_size / 2);
        match kind {
            StoreKind::Relational => {
                out.push(format!("DELETE FROM inventory WHERE seq >= {lo} AND seq < {hi}"));
                out.push(format!("UPDATE inventory SET seq = {} WHERE seq = 0", self.query_size));
                out.push(format!("INSERT INTO inventory VALUES ('a{lo}', 'back', {lo})"));
            }
            StoreKind::Document => {
                out.push(format!(r#"db.albums.remove({{"seq":{{"$gte":{lo},"$lt":{hi}}}}})"#));
            }
            // The graph's update language is `DELETE NODE` alone and the
            // kv store has no `seq`: the window goes key by key.
            StoreKind::Graph | StoreKind::KeyValue => out.extend((lo..hi).take(4).map(delete_key)),
        }
        out
    }

    /// The [`FaultPlan`] the spec describes, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        let spec = self.fault.as_ref()?;
        let mut plan = FaultPlan::new(spec.seed);
        if spec.transient_pct > 0 {
            plan = plan.with_transient_faults(spec.transient_pct as f64 / 100.0, spec.max_streak);
        }
        if spec.spike_pct > 0 {
            plan =
                plan.with_latency_spikes(spec.spike_pct as f64 / 100.0, Duration::from_micros(40));
        }
        for &s in &spec.outages {
            plan = plan.with_outage(&Self::store_name(s));
        }
        Some(plan)
    }

    /// The polystore the system under test sees: stores in `nopush` get a
    /// [`PushdownGate`] (the planner must fall back to fetch-all there),
    /// then everything except the query target (whose local query must
    /// still run) is fault-wrapped when a plan is present. The gate sits
    /// *inside* the fault wrapper, so fault decisions keep the same
    /// per-call identities whether pushdown is gated or not.
    pub fn build_wrapped_polystore(&self) -> Polystore {
        let pristine = self.build_polystore();
        let gated: Vec<String> = self.nopush.iter().map(|&s| Self::store_name(s)).collect();
        let plan = self.fault_plan().map(Arc::new);
        if gated.is_empty() && plan.is_none() {
            return pristine;
        }
        let target = self.query_database();
        pristine.wrap_connectors(|inner| {
            let inner: Arc<dyn Connector> = if gated.iter().any(|g| g == inner.database().as_str())
            {
                Arc::new(PushdownGate::new(inner))
            } else {
                inner
            };
            match &plan {
                Some(plan) if inner.database().as_str() != target => {
                    Arc::new(FaultyConnector::new(inner, Arc::clone(plan)))
                }
                _ => inner,
            }
        })
    }

    /// Builds the **real** A' index, honouring the planted mutation.
    pub fn build_index(&self) -> AIndex {
        let dropped = match self.mutation {
            Some(Mutation::DropRelation(_)) if self.relations.is_empty() => Some(usize::MAX),
            Some(Mutation::DropRelation(i)) => Some(i % self.relations.len()),
            _ => None,
        };
        let mut index = AIndex::new();
        for (i, rel) in self.relations.iter().enumerate() {
            if Some(i) == dropped {
                continue;
            }
            let a = self.key_of(rel.a.0, rel.a.1);
            let b = self.key_of(rel.b.0, rel.b.1);
            let p = Probability::of(rel.prob_millis as f64 / 1000.0);
            if rel.identity {
                index.insert_identity(&a, &b, p);
            } else {
                index.insert_matching(&a, &b, p);
            }
        }
        index
    }

    /// Builds the **reference model** index (never mutated).
    pub fn build_model(&self) -> ModelIndex {
        let mut model = ModelIndex::new();
        for rel in &self.relations {
            let a = self.key_of(rel.a.0, rel.a.1);
            let b = self.key_of(rel.b.0, rel.b.1);
            let p = Probability::of(rel.prob_millis as f64 / 1000.0);
            if rel.identity {
                model.insert_identity(&a, &b, p);
            } else {
                model.insert_matching(&a, &b, p);
            }
        }
        model
    }

    /// Materializes one configuration point.
    pub fn config_of(&self, spec: &ConfigSpec) -> QuepaConfig {
        QuepaConfig {
            augmenter: spec.augmenter,
            batch_size: spec.batch,
            threads_size: spec.threads,
            cache_size: spec.cache,
            resilience: if spec.resilient {
                fast_partial_resilience()
            } else {
                ResilienceConfig::default()
            },
            observability: spec.obs,
            pushdown: spec.pushdown,
        }
    }

    // -- serialization ---------------------------------------------------

    /// Serializes to the `.scenario` text format.
    pub fn serialize(&self) -> String {
        let mut out = String::from("quepa-scenario v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        if let Some(family) = self.family {
            out.push_str(&format!("family {}\n", family.name()));
        }
        out.push_str(&format!("deployment {}\n", deployment_name(self.deployment)));
        for s in &self.stores {
            out.push_str(&format!("store {} {}\n", kind_name(s.kind), s.objects));
        }
        for r in &self.relations {
            out.push_str(&format!(
                "relation {} {} {} {} {} {}\n",
                r.a.0,
                r.a.1,
                r.b.0,
                r.b.1,
                if r.identity { "identity" } else { "matching" },
                r.prob_millis
            ));
        }
        out.push_str(&format!("query {} {}\n", self.query_store, self.query_size));
        out.push_str(&format!("level {}\n", self.level));
        for c in &self.configs {
            out.push_str(&format!(
                "config {} {} {} {} {} {} {}\n",
                c.augmenter.name(),
                c.batch,
                c.threads,
                c.cache,
                if c.resilient { "resilient" } else { "trivial" },
                if c.obs { "obs-on" } else { "obs-off" },
                if c.pushdown { "push-on" } else { "push-off" }
            ));
        }
        if let Some(f) = &self.filter {
            out.push_str(&format!("filter {f}\n"));
        }
        for &s in &self.nopush {
            out.push_str(&format!("nopush {s}\n"));
        }
        if let Some(f) = &self.fault {
            out.push_str(&format!(
                "fault {} {} {} {}\n",
                f.seed, f.transient_pct, f.max_streak, f.spike_pct
            ));
            for &s in &f.outages {
                out.push_str(&format!("outage {s}\n"));
            }
        }
        for &(s, o) in &self.removals {
            out.push_str(&format!("remove {s} {o}\n"));
        }
        if let Some(c) = &self.crash {
            out.push_str(&format!(
                "crash {} {} {} {}\n",
                c.after_ops,
                if c.torn_tail { "torn" } else { "clean" },
                c.checkpoint_every,
                if c.partial { "partial" } else { "all" }
            ));
        }
        match self.mutation {
            Some(Mutation::DropRelation(i)) => {
                out.push_str(&format!("mutation drop-relation {i}\n"));
            }
            Some(Mutation::SkipWalTail(n)) => {
                out.push_str(&format!("mutation skip-wal-tail {n}\n"));
            }
            None => {}
        }
        out
    }

    /// Parses the `.scenario` text format back.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut lines =
            text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some("quepa-scenario v1") {
            return Err("missing `quepa-scenario v1` header".into());
        }
        let mut scenario = Scenario {
            seed: 0,
            deployment: Deployment::InProcess,
            stores: Vec::new(),
            relations: Vec::new(),
            query_store: 0,
            query_size: 1,
            level: 0,
            configs: Vec::new(),
            fault: None,
            removals: Vec::new(),
            crash: None,
            filter: None,
            nopush: Vec::new(),
            mutation: None,
            family: None,
        };
        for line in lines {
            let mut it = line.split_whitespace();
            let tag = it.next().unwrap_or_default();
            let rest: Vec<&str> = it.collect();
            let int = |s: &str| s.parse::<usize>().map_err(|_| format!("bad integer `{s}`"));
            match tag {
                "seed" => {
                    scenario.seed = rest
                        .first()
                        .ok_or("seed needs a value")?
                        .parse()
                        .map_err(|_| "bad seed")?;
                }
                "deployment" => {
                    scenario.deployment = parse_deployment(rest.first().copied().unwrap_or(""))?;
                }
                "family" => {
                    let name = rest.first().copied().unwrap_or("");
                    scenario.family = Some(
                        TopologyFamily::parse(name)
                            .ok_or_else(|| format!("unknown topology family `{name}`"))?,
                    );
                }
                "store" => {
                    let [kind, objects] = rest[..] else {
                        return Err(format!("bad store line `{line}`"));
                    };
                    scenario
                        .stores
                        .push(StoreSpec { kind: parse_kind(kind)?, objects: int(objects)? });
                }
                "relation" => {
                    let [a_s, a_o, b_s, b_o, kind, prob] = rest[..] else {
                        return Err(format!("bad relation line `{line}`"));
                    };
                    scenario.relations.push(RelationSpec {
                        a: (int(a_s)?, int(a_o)?),
                        b: (int(b_s)?, int(b_o)?),
                        identity: match kind {
                            "identity" => true,
                            "matching" => false,
                            other => return Err(format!("bad relation kind `{other}`")),
                        },
                        prob_millis: int(prob)? as u32,
                    });
                }
                "query" => {
                    let [store, size] = rest[..] else {
                        return Err(format!("bad query line `{line}`"));
                    };
                    scenario.query_store = int(store)?;
                    scenario.query_size = int(size)?;
                }
                "level" => {
                    scenario.level = int(rest.first().ok_or("level needs a value")?)?;
                }
                "config" => {
                    // The pushdown token is optional: pre-pushdown
                    // scenario files carry six tokens and default to on.
                    let (core, push) = match rest[..] {
                        [aug, batch, threads, cache, res, obs] => {
                            ([aug, batch, threads, cache, res, obs], "push-on")
                        }
                        [aug, batch, threads, cache, res, obs, push] => {
                            ([aug, batch, threads, cache, res, obs], push)
                        }
                        _ => return Err(format!("bad config line `{line}`")),
                    };
                    let [aug, batch, threads, cache, res, obs] = core;
                    scenario.configs.push(ConfigSpec {
                        augmenter: AugmenterKind::parse(aug)
                            .ok_or_else(|| format!("unknown augmenter `{aug}`"))?,
                        batch: int(batch)?,
                        threads: int(threads)?,
                        cache: int(cache)?,
                        resilient: match res {
                            "resilient" => true,
                            "trivial" => false,
                            other => return Err(format!("bad resilience `{other}`")),
                        },
                        obs: match obs {
                            "obs-on" => true,
                            "obs-off" => false,
                            other => return Err(format!("bad obs flag `{other}`")),
                        },
                        pushdown: match push {
                            "push-on" => true,
                            "push-off" => false,
                            other => return Err(format!("bad pushdown flag `{other}`")),
                        },
                    });
                }
                "filter" => {
                    let text = line.strip_prefix("filter").unwrap_or_default().trim();
                    let parsed = Pushdown::parse(text)
                        .map_err(|e| format!("bad filter line `{line}`: {e}"))?;
                    if parsed.is_trivial() {
                        return Err(format!("filter line `{line}` is trivial"));
                    }
                    if !parsed.key_only() {
                        return Err(format!(
                            "filter line `{line}` is not key-only; the model cannot evaluate it"
                        ));
                    }
                    scenario.filter = Some(parsed.to_string());
                }
                "nopush" => {
                    scenario.nopush.push(int(rest.first().ok_or("nopush needs a store")?)?);
                }
                "fault" => {
                    let [seed, transient, streak, spike] = rest[..] else {
                        return Err(format!("bad fault line `{line}`"));
                    };
                    scenario.fault = Some(FaultSpec {
                        seed: seed.parse().map_err(|_| "bad fault seed")?,
                        transient_pct: int(transient)? as u32,
                        max_streak: int(streak)? as u32,
                        spike_pct: int(spike)? as u32,
                        outages: Vec::new(),
                    });
                }
                "outage" => {
                    let store = int(rest.first().ok_or("outage needs a store")?)?;
                    scenario.fault.as_mut().ok_or("outage before fault line")?.outages.push(store);
                }
                "remove" => {
                    let [store, obj] = rest[..] else {
                        return Err(format!("bad remove line `{line}`"));
                    };
                    scenario.removals.push((int(store)?, int(obj)?));
                }
                "crash" => {
                    let [after, tail, every, batch] = rest[..] else {
                        return Err(format!("bad crash line `{line}`"));
                    };
                    scenario.crash = Some(CrashSpec {
                        after_ops: int(after)?,
                        torn_tail: match tail {
                            "torn" => true,
                            "clean" => false,
                            other => return Err(format!("bad crash tail `{other}`")),
                        },
                        checkpoint_every: int(every)?,
                        partial: match batch {
                            "partial" => true,
                            "all" => false,
                            other => return Err(format!("bad crash batch `{other}`")),
                        },
                    });
                }
                "mutation" => match rest[..] {
                    ["drop-relation", i] => {
                        scenario.mutation = Some(Mutation::DropRelation(int(i)?));
                    }
                    ["skip-wal-tail", n] => {
                        scenario.mutation = Some(Mutation::SkipWalTail(int(n)?));
                    }
                    _ => return Err(format!("bad mutation line `{line}`")),
                },
                other => return Err(format!("unknown line tag `{other}`")),
            }
        }
        if scenario.stores.is_empty() {
            return Err("scenario has no stores".into());
        }
        if scenario.query_store >= scenario.stores.len() {
            return Err("query store out of range".into());
        }
        if scenario.configs.is_empty() {
            return Err("scenario has no configs".into());
        }
        Ok(scenario)
    }
}

/// Draws a random **key-only** pushdown predicate in canonical text form.
///
/// Literals are built from the per-kind local-key letters (`k`/`a`/`d`/
/// `g`, optionally with a leading digit), so a filter is selective on the
/// stores whose keys share its letter and rejects everything on the rest —
/// both regimes the differential must hold bit-identical.
fn filter_text(rng: &mut SplitMix) -> String {
    let letters = ["k", "a", "d", "g"];
    let letter = *rng.pick(&letters);
    let ops = [PushOp::Prefix, PushOp::Contains, PushOp::Gte, PushOp::Lt, PushOp::Ne, PushOp::Eq];
    let op = *rng.pick(&ops);
    let literal = if rng.chance(60) { format!("{letter}{}", rng.below(10)) } else { letter.into() };
    Pushdown::key(op, literal).to_string()
}

/// The harness's resilient configuration: µs-scale backoffs (the fault
/// latencies are simulated, real sleeps must stay tiny), no breaker, and
/// partial-answer degradation.
pub fn fast_partial_resilience() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: MAX_ATTEMPTS,
            base_backoff: Duration::from_micros(5),
            max_backoff: Duration::from_micros(40),
            jitter_pct: 50,
            deadline: None,
        },
        breaker: BreakerConfig { trip_after: 0, cooldown_calls: 8 },
        degrade: DegradeMode::Partial,
    }
}

fn kind_name(kind: StoreKind) -> &'static str {
    match kind {
        StoreKind::KeyValue => "kv",
        StoreKind::Relational => "relational",
        StoreKind::Document => "document",
        StoreKind::Graph => "graph",
    }
}

fn parse_kind(name: &str) -> Result<StoreKind, String> {
    match name {
        "kv" => Ok(StoreKind::KeyValue),
        "relational" => Ok(StoreKind::Relational),
        "document" => Ok(StoreKind::Document),
        "graph" => Ok(StoreKind::Graph),
        other => Err(format!("unknown store kind `{other}`")),
    }
}

fn deployment_name(d: Deployment) -> &'static str {
    match d {
        Deployment::InProcess => "inprocess",
        Deployment::Centralized => "centralized",
        Deployment::Distributed => "distributed",
    }
}

fn parse_deployment(name: &str) -> Result<Deployment, String> {
    match name {
        "inprocess" => Ok(Deployment::InProcess),
        "centralized" => Ok(Deployment::Centralized),
        "distributed" => Ok(Deployment::Distributed),
        other => Err(format!("unknown deployment `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
        assert_ne!(Scenario::generate(1), Scenario::generate(2));
    }

    #[test]
    fn serialization_round_trips() {
        for seed in 0..50u64 {
            let mut s = Scenario::generate(seed);
            if seed % 5 == 0 {
                s.mutation = Some(Mutation::DropRelation(seed as usize));
            } else if seed % 5 == 1 {
                s.mutation = Some(Mutation::SkipWalTail(1 + seed as usize % 3));
            }
            if seed % 4 == 0 {
                s.crash = Some(CrashSpec {
                    after_ops: seed as usize % 7,
                    torn_tail: seed % 2 == 0,
                    checkpoint_every: seed as usize % 3,
                    partial: seed % 3 == 0,
                });
            }
            let text = s.serialize();
            let back = Scenario::parse(&text).expect("parses");
            assert_eq!(s, back, "seed {seed}\n{text}");
        }
    }

    /// Pre-pushdown scenario files (six-token config lines, no `filter` /
    /// `nopush` lines) still parse: the knob defaults to on.
    #[test]
    fn old_config_lines_parse_with_pushdown_on() {
        let text = "quepa-scenario v1\nseed 7\ndeployment inprocess\nstore kv 4\n\
                    query 0 2\nlevel 1\nconfig sequential 2 1 0 trivial obs-off\n";
        let s = Scenario::parse(text).expect("parses");
        assert!(s.configs[0].pushdown);
        assert!(s.filter.is_none() && s.nopush.is_empty());
    }

    #[test]
    fn filter_lines_round_trip_and_are_validated() {
        let mut s = Scenario::generate(3);
        s.filter = Some("key prefix \"k1\"".into());
        s.nopush = vec![0];
        s.configs[0].pushdown = false;
        let back = Scenario::parse(&s.serialize()).expect("parses");
        assert_eq!(s, back);
        assert!(back.pushdown_filter().unwrap().key_only());
        // Non-key-only and trivial filters are rejected at parse time.
        let head = "quepa-scenario v1\nseed 1\ndeployment inprocess\nstore kv 4\n\
                    query 0 1\nlevel 0\nconfig sequential 1 1 0 trivial obs-off push-on\n";
        assert!(Scenario::parse(&format!("{head}filter .seq gte 3\n")).is_err());
        assert!(Scenario::parse(&format!("{head}filter \n")).is_err());
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        for seed in 0..100u64 {
            let s = Scenario::generate(seed);
            assert!((1..=12).contains(&s.stores.len()), "seed {seed}");
            assert!(s.query_store < s.stores.len());
            assert!(s.level <= 3);
            assert_eq!(s.configs.len(), AugmenterKind::ALL.len());
            for r in &s.relations {
                assert!(r.a.0 < s.stores.len() && r.b.0 < s.stores.len());
                assert!((100..=1000).contains(&r.prob_millis));
            }
            assert!(s.removals.len() <= 3);
            for &(store, obj) in &s.removals {
                assert!(store < s.stores.len(), "seed {seed}");
                // Object index may be the phantom slot but nothing past it.
                assert!(obj <= s.stores[store].objects, "seed {seed}");
            }
            if let Some(c) = &s.crash {
                assert!(c.after_ops <= s.relations.len() + s.removals.len(), "seed {seed}");
                assert!(c.checkpoint_every <= 6, "seed {seed}");
            }
            if let Some(f) = s.pushdown_filter() {
                assert!(!f.is_trivial() && f.key_only(), "seed {seed}");
            } else {
                assert!(s.nopush.is_empty(), "gates only ride with a filter");
            }
            for &g in &s.nopush {
                assert!(g < s.stores.len(), "seed {seed}");
            }
            if let Some(f) = &s.fault {
                assert!(f.max_streak < MAX_ATTEMPTS);
                assert!(!f.outages.contains(&s.query_store));
                for c in &s.configs {
                    assert!(c.resilient, "fault runs must ride out transients");
                }
            }
        }
    }

    /// The whole generated seed range covers every store kind as a query
    /// target and both fault modes — the coverage the CI smoke run claims.
    #[test]
    fn seed_range_covers_kinds_and_fault_modes() {
        let mut kinds = std::collections::BTreeSet::new();
        let (mut faulty, mut clean, mut removing, mut crashing) = (0, 0, 0, 0);
        let (mut torn, mut partial, mut scheduled) = (0, 0, 0);
        let (mut filtered, mut gated, mut pushed_off) = (0, 0, 0);
        for seed in 0..200u64 {
            let s = Scenario::generate(seed);
            kinds.insert(kind_name(s.stores[s.query_store].kind));
            if s.filter.is_some() {
                filtered += 1;
                gated += (!s.nopush.is_empty()) as u64;
                pushed_off += s.configs.iter().any(|c| !c.pushdown) as u64;
            }
            if s.fault.is_some() {
                faulty += 1;
            } else {
                clean += 1;
            }
            if !s.removals.is_empty() {
                removing += 1;
            }
            if let Some(c) = &s.crash {
                crashing += 1;
                torn += c.torn_tail as u64;
                partial += c.partial as u64;
                scheduled += (c.checkpoint_every > 0) as u64;
            }
        }
        assert_eq!(kinds.len(), 4, "all four store kinds appear as query targets");
        assert!(faulty >= 20 && clean >= 20, "both fault modes well represented");
        assert!(removing >= 20, "index removals well represented: {removing}");
        assert!(crashing >= 20, "crash plans well represented: {crashing}");
        assert!(
            torn >= 5 && partial >= 5 && scheduled >= 5,
            "crash shapes all drawn: torn {torn}, partial {partial}, scheduled {scheduled}"
        );
        assert!(
            filtered >= 20 && gated >= 5 && pushed_off >= 10,
            "pushdown regimes all drawn: filtered {filtered}, gated {gated}, off {pushed_off}"
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Scenario::parse("").is_err());
        assert!(Scenario::parse("quepa-scenario v1\n").is_err());
        assert!(Scenario::parse("quepa-scenario v1\nstore kv 4\nnonsense 1\n").is_err());
        assert!(Scenario::parse("quepa-scenario v1\nstore marble 4\n").is_err());
        assert!(Scenario::parse("quepa-scenario v1\nfamily uniform\nstore kv 4\n").is_err());
    }

    /// Satellite pin: the `family` header round-trips through the
    /// `.scenario` format for every topology family — a shrunk hostile
    /// reproduction replayed via `--replay` keeps its provenance.
    #[test]
    fn family_header_round_trips() {
        for family in TopologyFamily::ALL {
            for seed in 0..10u64 {
                let s = Scenario::generate_hostile(family, seed);
                assert_eq!(s.family, Some(family));
                let text = s.serialize();
                assert!(
                    text.contains(&format!("family {}", family.name())),
                    "family header missing:\n{text}"
                );
                let back = Scenario::parse(&text).expect("parses");
                assert_eq!(s, back, "{} seed {seed}\n{text}", family.name());
            }
        }
        // Familyless scenarios serialize without the header and parse
        // back to None — old files stay readable.
        let plain = Scenario::generate(3);
        assert!(!plain.serialize().contains("family "));
        assert_eq!(Scenario::parse(&plain.serialize()).unwrap().family, None);
    }

    #[test]
    fn hostile_generation_is_deterministic_and_well_formed() {
        for family in TopologyFamily::ALL {
            for seed in 0..30u64 {
                let s = Scenario::generate_hostile(family, seed);
                assert_eq!(s, Scenario::generate_hostile(family, seed));
                assert!((2..=4).contains(&s.stores.len()), "{} seed {seed}", family.name());
                assert_eq!(s.query_store, 0, "the focal object's store is the query target");
                assert!(s.query_size >= 1 && s.query_size <= s.stores[0].objects);
                assert!((1..=3).contains(&s.level));
                assert_eq!(s.configs.len(), AugmenterKind::ALL.len());
                for r in &s.relations {
                    assert!(r.a.0 < s.stores.len() && r.b.0 < s.stores.len());
                    assert!(r.a.1 <= s.stores[r.a.0].objects, "{} seed {seed}", family.name());
                    assert!(r.b.1 <= s.stores[r.b.0].objects, "{} seed {seed}", family.name());
                    assert!((1..=1000).contains(&r.prob_millis));
                }
                for &(store, obj) in &s.removals {
                    assert!(store < s.stores.len());
                    assert!(obj <= s.stores[store].objects);
                }
                if let Some(f) = &s.fault {
                    assert!(f.transient_pct > 0, "hostile fault plans always exercise transients");
                    assert!(f.max_streak < MAX_ATTEMPTS);
                    assert!(!f.outages.contains(&s.query_store));
                }
                match family {
                    TopologyFamily::Supernode => {
                        assert_eq!(s.removals.first(), Some(&(0, 0)), "the hub always dies");
                        let hub_degree =
                            s.relations.iter().filter(|r| r.a == (0, 0) || r.b == (0, 0)).count();
                        assert!(hub_degree >= 24, "{seed}: hub degree {hub_degree}");
                    }
                    TopologyFamily::DeepChain => {
                        assert!(s.relations.len() >= quepa_workload::hostile::DEEP_CHAIN_DEPTH);
                        assert!(s.level >= 2, "deep chains are checked at multi-level depth");
                    }
                    TopologyFamily::NearDup => {
                        let identity = s.relations.iter().filter(|r| r.identity).count();
                        assert!(identity >= 18, "{seed}: clusters must dominate: {identity}");
                    }
                }
            }
        }
    }
}
