//! The rule-based optimizer (§V) and the baseline optimizers of §VII-C.
//!
//! ADAPTIVE trains four models on the run logs:
//!
//! * `T1` — a C4.5 decision tree choosing the augmenter;
//! * `T2` — a REPTree regression tree choosing `BATCH_SIZE` (consulted when
//!   `T1` picks BATCH or OUTER-BATCH);
//! * `T3` — a REPTree choosing `THREADS_SIZE` (when a concurrent augmenter
//!   is selected);
//! * `T4` — a REPTree choosing `CACHE_SIZE` (applied softly: the system
//!   moves the cache by `(predicted − current) / 10`, see
//!   [`crate::system::Quepa`]);
//! * `T5` — a C4.5 tree deciding, per store group of a *filtered*
//!   augmentation, whether to push the predicate down to the store or
//!   fetch all keys and filter client-side. Answers are bit-identical
//!   either way, so `T5` is pure performance counsel — it learns from
//!   the same run logs, grouped by the same situations.
//!
//! [`OnlineOptimizer`] closes the adaptive loop at runtime: it keeps a
//! bounded deterministic [`Reservoir`] of the live run-log stream and
//! periodically refits all five trees, publishing each new model behind
//! a [`SnapshotCell`] swap so in-flight queries never block on a refit.

use parking_lot::Mutex;
use quepa_ml::c45::{C45Params, DecisionTree};
use quepa_ml::dataset::{AttrKind, Dataset, DatasetBuilder, FeatureValue, Schema};
use quepa_ml::reptree::{RegressionTree, RepTreeParams};
use quepa_ml::stream::Reservoir;
use quepa_polystore::StoreKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{AugmenterKind, QuepaConfig};
use crate::logs::{QueryFeatures, RunLog};
use crate::snapshot::SnapshotCell;

/// Something that can pick a configuration for a query.
pub trait Optimizer: Send + Sync {
    /// Chooses the configuration for a query with the given
    /// characteristics; `current` is the configuration in effect.
    fn choose(&self, features: &QueryFeatures, current: &QuepaConfig) -> QuepaConfig;

    /// Per-store-group pushdown counsel for a filtered augmentation:
    /// should the group of `group_keys` keys living on a `kind` store be
    /// fetched with the predicate pushed down, or fetched whole and
    /// filtered client-side? `None` means no opinion — the planner then
    /// pushes wherever the connector supports it.
    fn pushdown_for(
        &self,
        _features: &QueryFeatures,
        _kind: StoreKind,
        _group_keys: usize,
    ) -> Option<bool> {
        None
    }

    /// Feeds one completed run back into the optimizer (the online
    /// optimizer's retrain stream); a no-op for offline optimizers.
    fn observe(&self, _log: &RunLog) {}

    /// Name used in experiment output.
    fn name(&self) -> &'static str;
}

const KINDS: [StoreKind; 4] =
    [StoreKind::Relational, StoreKind::Document, StoreKind::KeyValue, StoreKind::Graph];

fn feature_schema() -> Schema {
    let mut schema = Schema::new(&[
        ("target_kind", AttrKind::Categorical),
        ("store_count", AttrKind::Numeric),
        ("result_size", AttrKind::Numeric),
        ("augmented_size", AttrKind::Numeric),
        ("level", AttrKind::Numeric),
        ("distributed", AttrKind::Categorical),
        ("filtered", AttrKind::Categorical),
    ]);
    for k in KINDS {
        schema.intern(0, k.name());
    }
    schema.intern(5, "no");
    schema.intern(5, "yes");
    schema.intern(6, "no");
    schema.intern(6, "yes");
    schema
}

fn feature_row(schema: &Schema, f: &QueryFeatures) -> Vec<FeatureValue> {
    vec![
        FeatureValue::Cat(schema.category_id(0, f.target_kind.name()).expect("pre-interned")),
        FeatureValue::Num(f.store_count as f64),
        FeatureValue::Num(f.result_size as f64),
        FeatureValue::Num(f.augmented_size as f64),
        FeatureValue::Num(f.level as f64),
        FeatureValue::Cat(
            schema.category_id(5, if f.distributed { "yes" } else { "no" }).expect("pre-interned"),
        ),
        FeatureValue::Cat(
            schema.category_id(6, if f.filtered { "yes" } else { "no" }).expect("pre-interned"),
        ),
    ]
}

/// The trained ADAPTIVE optimizer.
pub struct AdaptiveOptimizer {
    schema: Schema,
    t1_augmenter: DecisionTree,
    t2_batch: Option<RegressionTree>,
    t3_threads: Option<RegressionTree>,
    t4_cache: Option<RegressionTree>,
    t5_pushdown: Option<DecisionTree>,
    fallback: QuepaConfig,
}

impl AdaptiveOptimizer {
    /// Trains the four models from run logs (§V Phase 2). Logs are grouped
    /// by *situation* (same query characteristics); within each group the
    /// fastest run defines the best configuration.
    ///
    /// Returns `None` when the logs contain fewer than two distinct
    /// situations — there is nothing to learn from yet, and the paper's
    /// remedy ("we run, in background, previously executed queries with
    /// different configurations") is the caller's job.
    pub fn train(logs: &[RunLog]) -> Option<Self> {
        let schema = feature_schema();
        // situation → (best duration, features, best config). A BTreeMap,
        // not a HashMap: `values()` feeds the training rows, and row order
        // breaks ties inside the tree fits — retraining from the same logs
        // must yield the same trees (the online optimizer's determinism
        // contract).
        let mut best: std::collections::BTreeMap<
            _,
            (std::time::Duration, QueryFeatures, QuepaConfig),
        > = std::collections::BTreeMap::new();
        for log in logs {
            match best.entry(log.situation()) {
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    if log.duration < o.get().0 {
                        o.insert((log.duration, log.features, log.config));
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert((log.duration, log.features, log.config));
                }
            }
        }
        if best.len() < 2 {
            return None;
        }

        let mut t1 = DatasetBuilder::new(schema.clone());
        let mut t2 = DatasetBuilder::new(schema.clone());
        let mut t3 = DatasetBuilder::new(schema.clone());
        let mut t4 = DatasetBuilder::new(schema.clone());
        let mut t5 = DatasetBuilder::new(schema.clone());
        for (_, features, config) in best.values() {
            let row = feature_row(&schema, features);
            t1.push_classified(row.clone(), config.augmenter.name());
            if config.augmenter.uses_batching() {
                t2.push_regression(row.clone(), config.batch_size as f64);
            }
            if config.augmenter.uses_threads() {
                t3.push_regression(row.clone(), config.threads_size as f64);
            }
            if features.filtered {
                t5.push_classified(row.clone(), if config.pushdown { "push" } else { "fetch" });
            }
            t4.push_regression(row, config.cache_size as f64);
        }

        let c45 = C45Params { min_leaf: 2, ..Default::default() };
        let rep = RepTreeParams { min_leaf: 2, prune_fraction: 0.2, ..Default::default() };
        let fit_reg = |d: Dataset| (!d.is_empty()).then(|| RegressionTree::fit(&d, rep));
        let fit_cls = |d: Dataset| (!d.is_empty()).then(|| DecisionTree::fit(&d, c45));
        Some(AdaptiveOptimizer {
            t1_augmenter: DecisionTree::fit(&t1.build(), c45),
            t2_batch: fit_reg(t2.build()),
            t3_threads: fit_reg(t3.build()),
            t4_cache: fit_reg(t4.build()),
            t5_pushdown: fit_cls(t5.build()),
            schema,
            fallback: QuepaConfig::default(),
        })
    }
}

impl AdaptiveOptimizer {
    /// Renders the learned `T1` decision tree as indented text — the
    /// paper's Fig. 8 shows an example of this tree.
    pub fn render_t1(&self) -> String {
        let names: Vec<String> = self.schema.names().iter().map(|s| s.to_string()).collect();
        self.t1_augmenter
            .render(&names, |attr, cat| self.schema.category_name(attr, cat).to_owned())
    }
}

impl Optimizer for AdaptiveOptimizer {
    fn choose(&self, features: &QueryFeatures, current: &QuepaConfig) -> QuepaConfig {
        let row = feature_row(&self.schema, features);
        let augmenter = AugmenterKind::parse(self.t1_augmenter.predict_name(&row))
            .unwrap_or(self.fallback.augmenter);
        let batch_size = if augmenter.uses_batching() {
            self.t2_batch
                .as_ref()
                .map(|t| t.predict(&row).round().max(1.0) as usize)
                .unwrap_or(current.batch_size)
        } else {
            current.batch_size
        };
        let threads_size = if augmenter.uses_threads() {
            self.t3_threads
                .as_ref()
                .map(|t| t.predict(&row).round().max(1.0) as usize)
                .unwrap_or(current.threads_size)
        } else {
            current.threads_size
        };
        let cache_size = self
            .t4_cache
            .as_ref()
            .map(|t| t.predict(&row).round().max(0.0) as usize)
            .unwrap_or(current.cache_size);
        let pushdown = if features.filtered {
            self.t5_pushdown
                .as_ref()
                .map(|t| t.predict_name(&row) == "push")
                .unwrap_or(current.pushdown)
        } else {
            current.pushdown
        };
        QuepaConfig {
            augmenter,
            batch_size,
            threads_size,
            cache_size,
            resilience: current.resilience,
            pushdown,
            observability: current.observability,
        }
    }

    fn pushdown_for(
        &self,
        features: &QueryFeatures,
        kind: StoreKind,
        group_keys: usize,
    ) -> Option<bool> {
        // The per-group question is the per-query question with the
        // group's own paradigm and fan-out substituted in: the group's
        // store kind replaces the query target and the group's key count
        // is the augmentation it pays for.
        let probe = QueryFeatures {
            target_kind: kind,
            augmented_size: group_keys,
            filtered: true,
            ..*features
        };
        let row = feature_row(&self.schema, &probe);
        self.t5_pushdown.as_ref().map(|t| t.predict_name(&row) == "push")
    }

    fn name(&self) -> &'static str {
        "ADAPTIVE"
    }
}

/// The HUMAN optimizer of §VII-C: an expert's fixed rules of thumb.
#[derive(Debug, Clone, Copy)]
pub struct HumanOptimizer {
    /// Number of CPU cores the expert assumes.
    pub cores: usize,
}

impl HumanOptimizer {
    /// The pinned core count [`Default`] assumes, so optimizer decisions
    /// are reproducible across machines.
    pub const DEFAULT_CORES: usize = 8;

    /// An expert sized for an explicit core count.
    pub fn new(cores: usize) -> Self {
        HumanOptimizer { cores: cores.max(1) }
    }

    /// An expert sized for *this* machine — the only constructor that
    /// reads `available_parallelism`, and therefore the only one whose
    /// decisions vary across hosts. Experiments that must reproduce
    /// byte-for-byte use [`Default`] or [`new`](HumanOptimizer::new).
    pub fn detected() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
    }
}

impl Default for HumanOptimizer {
    fn default() -> Self {
        HumanOptimizer { cores: Self::DEFAULT_CORES }
    }
}

impl Optimizer for HumanOptimizer {
    fn choose(&self, features: &QueryFeatures, current: &QuepaConfig) -> QuepaConfig {
        // The expert's reasoning mirrors §VII-B's findings: tiny queries on
        // few stores don't amortize thread setup; distributed deployments
        // reward batching above all; large local queries want OUTER-BATCH.
        let augmenter = if features.augmented_size < 32 && features.store_count <= 4 {
            AugmenterKind::Sequential
        } else if features.distributed {
            AugmenterKind::Batch
        } else if features.result_size <= 4 {
            // Exploration-like shape: inner concurrency.
            AugmenterKind::Inner
        } else {
            AugmenterKind::OuterBatch
        };
        QuepaConfig {
            augmenter,
            batch_size: if features.distributed { 512 } else { 64 },
            threads_size: self.cores.clamp(2, 16),
            cache_size: current.cache_size,
            resilience: current.resilience,
            // The expert's rule of thumb: pushing a filter to the store
            // can only shrink the wire traffic, so always allow it.
            pushdown: true,
            observability: current.observability,
        }
    }

    fn name(&self) -> &'static str {
        "HUMAN"
    }
}

/// The RANDOM optimizer of §VII-C: uniform draws from the knob palettes.
pub struct RandomOptimizer {
    rng: parking_lot::Mutex<StdRng>,
}

impl RandomOptimizer {
    /// Creates a seeded random optimizer (deterministic experiment runs).
    pub fn new(seed: u64) -> Self {
        RandomOptimizer { rng: parking_lot::Mutex::new(StdRng::seed_from_u64(seed)) }
    }
}

impl Optimizer for RandomOptimizer {
    fn choose(&self, _features: &QueryFeatures, current: &QuepaConfig) -> QuepaConfig {
        const BATCHES: [usize; 6] = [1, 8, 32, 128, 512, 2048];
        const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
        const CACHES: [usize; 4] = [0, 1024, 8192, 65536];
        let mut rng = self.rng.lock();
        QuepaConfig {
            augmenter: AugmenterKind::ALL[rng.gen_range(0..AugmenterKind::ALL.len())],
            batch_size: BATCHES[rng.gen_range(0..BATCHES.len())],
            threads_size: THREADS[rng.gen_range(0..THREADS.len())],
            cache_size: if rng.gen_bool(0.5) {
                current.cache_size
            } else {
                CACHES[rng.gen_range(0..CACHES.len())]
            },
            resilience: current.resilience,
            // A fair coin exercises both pushdown paths (answers are
            // bit-identical either way, so RANDOM stays correct).
            pushdown: rng.gen_bool(0.5),
            observability: current.observability,
        }
    }

    fn name(&self) -> &'static str {
        "RANDOM"
    }
}

/// The online-retrained optimizer: [`AdaptiveOptimizer`] fed from the
/// live run-log stream.
///
/// Each completed run is [`observe`](Optimizer::observe)d into a bounded
/// deterministic [`Reservoir`]; every `refit_every` observations the five
/// trees are refit from the current sample and the new model is published
/// with a [`SnapshotCell`] swap — queries in flight keep the model they
/// loaded, the next query sees the new one, and nothing ever blocks on
/// the refit. Until the stream holds two distinct situations the
/// optimizer has no model: `choose` pins the current configuration and
/// [`pushdown_for`](Optimizer::pushdown_for) has no opinion (the planner
/// then pushes wherever the connector supports it).
///
/// Determinism: the reservoir draws are a pure function of `(seed,
/// stream prefix)` and the tree fits are deterministic, so two instances
/// fed the same logs in the same order make identical decisions.
pub struct OnlineOptimizer {
    model: SnapshotCell<Option<AdaptiveOptimizer>>,
    state: Mutex<OnlineState>,
    refit_every: u64,
}

struct OnlineState {
    reservoir: Reservoir<RunLog>,
    since_refit: u64,
    refits: u64,
}

impl OnlineOptimizer {
    /// An untrained online optimizer sampling at most `capacity` logs
    /// and refitting every `refit_every` observations (floored to 1).
    pub fn new(seed: u64, capacity: usize, refit_every: u64) -> Self {
        OnlineOptimizer {
            model: SnapshotCell::new(None),
            state: Mutex::new(OnlineState {
                reservoir: Reservoir::new(capacity, seed),
                since_refit: 0,
                refits: 0,
            }),
            refit_every: refit_every.max(1),
        }
    }

    /// True once a refit has produced a model.
    pub fn is_trained(&self) -> bool {
        self.model.load().is_some()
    }

    /// Number of successful refits so far.
    pub fn refits(&self) -> u64 {
        self.state.lock().refits
    }

    /// Renders the current model's `T1` tree, if trained.
    pub fn render_t1(&self) -> Option<String> {
        self.model.load().as_ref().as_ref().map(AdaptiveOptimizer::render_t1)
    }
}

impl Optimizer for OnlineOptimizer {
    fn choose(&self, features: &QueryFeatures, current: &QuepaConfig) -> QuepaConfig {
        match self.model.load().as_ref() {
            Some(m) => m.choose(features, current),
            None => *current,
        }
    }

    fn pushdown_for(
        &self,
        features: &QueryFeatures,
        kind: StoreKind,
        group_keys: usize,
    ) -> Option<bool> {
        self.model.load().as_ref().as_ref().and_then(|m| m.pushdown_for(features, kind, group_keys))
    }

    fn observe(&self, log: &RunLog) {
        let mut state = self.state.lock();
        state.reservoir.push(log.clone());
        state.since_refit += 1;
        if state.since_refit >= self.refit_every {
            state.since_refit = 0;
            // Refit under the state lock (observers serialize; that's the
            // stream order determinism depends on), publish with a swap
            // (readers never wait).
            if let Some(model) = AdaptiveOptimizer::train(state.reservoir.items()) {
                state.refits += 1;
                self.model.store(Some(model));
            }
        }
    }

    fn name(&self) -> &'static str {
        "ONLINE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn features(result_size: usize, distributed: bool) -> QueryFeatures {
        QueryFeatures {
            target_kind: StoreKind::Relational,
            store_count: 10,
            result_size,
            augmented_size: result_size * 4,
            level: 0,
            distributed,
            filtered: false,
        }
    }

    fn filtered_features(kind: StoreKind, result_size: usize) -> QueryFeatures {
        QueryFeatures { target_kind: kind, filtered: true, ..features(result_size, false) }
    }

    fn log(f: QueryFeatures, config: QuepaConfig, ms: u64) -> RunLog {
        RunLog { features: f, config, duration: Duration::from_millis(ms) }
    }

    /// Synthetic logs where small queries run best SEQUENTIAL and large
    /// ones best OUTER-BATCH with big batches.
    fn training_logs() -> Vec<RunLog> {
        let mut logs = Vec::new();
        for scale in 0..6u32 {
            let size = 10usize << (2 * scale); // 10, 40, 160, ... distinct buckets
            let f = features(size, false);
            let small = size < 100;
            for aug in AugmenterKind::ALL {
                let cfg = QuepaConfig {
                    augmenter: aug,
                    batch_size: if small { 4 } else { 256 },
                    threads_size: if small { 1 } else { 8 },
                    cache_size: 4096,
                    ..QuepaConfig::default()
                };
                let time = match (small, aug) {
                    (true, AugmenterKind::Sequential) => 5,
                    (true, _) => 20,
                    (false, AugmenterKind::OuterBatch) => 50,
                    (false, _) => 200,
                };
                logs.push(log(f, cfg, time));
            }
        }
        logs
    }

    #[test]
    fn adaptive_learns_the_regimes() {
        let opt = AdaptiveOptimizer::train(&training_logs()).expect("trainable");
        let current = QuepaConfig::default();
        let small = opt.choose(&features(10, false), &current);
        assert_eq!(small.augmenter, AugmenterKind::Sequential);
        let large = opt.choose(&features(10_240, false), &current);
        assert_eq!(large.augmenter, AugmenterKind::OuterBatch);
        assert!(large.batch_size >= 64, "learned a big batch: {}", large.batch_size);
        assert!(large.threads_size >= 2);
    }

    #[test]
    fn adaptive_needs_enough_situations() {
        assert!(AdaptiveOptimizer::train(&[]).is_none());
        let one = vec![log(features(10, false), QuepaConfig::default(), 5)];
        assert!(AdaptiveOptimizer::train(&one).is_none());
    }

    #[test]
    fn human_rules() {
        let h = HumanOptimizer { cores: 8 };
        let current = QuepaConfig::default();
        let tiny = h.choose(
            &QueryFeatures {
                target_kind: StoreKind::KeyValue,
                store_count: 4,
                result_size: 3,
                augmented_size: 9,
                level: 0,
                distributed: false,
                filtered: false,
            },
            &current,
        );
        assert_eq!(tiny.augmenter, AugmenterKind::Sequential);
        let dist = h.choose(&features(1000, true), &current);
        assert_eq!(dist.augmenter, AugmenterKind::Batch);
        assert_eq!(dist.batch_size, 512);
        let big = h.choose(&features(10_000, false), &current);
        assert_eq!(big.augmenter, AugmenterKind::OuterBatch);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let current = QuepaConfig::default();
        let a: Vec<_> = {
            let r = RandomOptimizer::new(9);
            (0..5).map(|_| r.choose(&features(10, false), &current)).collect()
        };
        let b: Vec<_> = {
            let r = RandomOptimizer::new(9);
            (0..5).map(|_| r.choose(&features(10, false), &current)).collect()
        };
        assert_eq!(a, b);
        // And actually varies across draws.
        let r = RandomOptimizer::new(1);
        let picks: std::collections::HashSet<_> =
            (0..20).map(|_| r.choose(&features(10, false), &current).augmenter).collect();
        assert!(picks.len() > 1);
    }

    #[test]
    fn t1_renders_like_fig8() {
        let opt = AdaptiveOptimizer::train(&training_logs()).unwrap();
        let text = opt.render_t1();
        assert!(text.contains('?'), "{text}");
        assert!(text.contains("→"), "{text}");
        // The learned tree splits on a size feature and names augmenters.
        assert!(text.contains("SEQUENTIAL") || text.contains("OUTER-BATCH"), "{text}");
    }

    #[test]
    fn optimizer_names() {
        assert_eq!(HumanOptimizer::default().name(), "HUMAN");
        assert_eq!(RandomOptimizer::new(0).name(), "RANDOM");
        assert_eq!(OnlineOptimizer::new(0, 16, 4).name(), "ONLINE");
        let opt = AdaptiveOptimizer::train(&training_logs()).unwrap();
        assert_eq!(opt.name(), "ADAPTIVE");
    }

    /// Filtered logs where pushdown wins on relational stores and loses
    /// on graph stores (say, the traversal filter is expensive there).
    fn pushdown_logs() -> Vec<RunLog> {
        let mut logs = Vec::new();
        for scale in 0..3u32 {
            let size = 10usize << (2 * scale);
            for (kind, push_wins) in [(StoreKind::Relational, true), (StoreKind::Graph, false)] {
                let f = filtered_features(kind, size);
                for push in [true, false] {
                    let cfg = QuepaConfig { pushdown: push, ..QuepaConfig::default() };
                    let time = if push == push_wins { 5 } else { 80 };
                    logs.push(log(f, cfg, time));
                }
            }
        }
        logs
    }

    #[test]
    fn t5_learns_per_store_pushdown() {
        let opt = AdaptiveOptimizer::train(&pushdown_logs()).expect("trainable");
        let f = filtered_features(StoreKind::Relational, 40);
        assert_eq!(opt.pushdown_for(&f, StoreKind::Relational, 160), Some(true));
        assert_eq!(opt.pushdown_for(&f, StoreKind::Graph, 160), Some(false));
        // choose() folds the same counsel into the config.
        let current = QuepaConfig::default();
        assert!(opt.choose(&f, &current).pushdown);
        assert!(!opt.choose(&filtered_features(StoreKind::Graph, 40), &current).pushdown);
    }

    #[test]
    fn t5_without_filtered_logs_defers_to_current() {
        let opt = AdaptiveOptimizer::train(&training_logs()).expect("trainable");
        let f = filtered_features(StoreKind::Relational, 40);
        assert_eq!(opt.pushdown_for(&f, StoreKind::Relational, 160), None, "no T5 → no opinion");
        let pinned = QuepaConfig { pushdown: false, ..QuepaConfig::default() };
        assert!(!opt.choose(&f, &pinned).pushdown, "current.pushdown is preserved");
    }

    #[test]
    fn unfiltered_queries_never_consult_t5() {
        let opt = AdaptiveOptimizer::train(&pushdown_logs()).expect("trainable");
        let pinned = QuepaConfig { pushdown: false, ..QuepaConfig::default() };
        let chosen = opt.choose(&features(10, false), &pinned);
        assert!(!chosen.pushdown, "unfiltered queries keep the pinned knob");
    }

    #[test]
    fn online_retrain_flips_the_pushdown_decision_mid_stream() {
        let online = OnlineOptimizer::new(9, 256, 8);
        let f = filtered_features(StoreKind::Relational, 40);
        assert_eq!(online.pushdown_for(&f, StoreKind::Relational, 160), None, "untrained");
        assert!(!online.is_trained());

        // Phase 1: fetch-all wins everywhere (a run of unselective
        // filters) — the model learns to decline.
        for scale in 0..3u32 {
            let size = 10usize << (2 * scale);
            let lf = filtered_features(StoreKind::Relational, size);
            for push in [true, false] {
                let cfg = QuepaConfig { pushdown: push, ..QuepaConfig::default() };
                online.observe(&log(lf, cfg, if push { 80 } else { 10 }));
            }
        }
        for _ in 0..2 {
            // pad to the refit boundary
            online.observe(&log(features(7, false), QuepaConfig::default(), 30));
        }
        assert!(online.is_trained(), "refit after 8 observations");
        assert_eq!(online.pushdown_for(&f, StoreKind::Relational, 160), Some(false));

        // Phase 2: the workload turns selective — pushdown runs now beat
        // the best fetch-all times, and the next refits flip the counsel
        // without any restart.
        for round in 0..4u32 {
            for scale in 0..3u32 {
                let size = 10usize << (2 * scale);
                let lf = filtered_features(StoreKind::Relational, size);
                let cfg = QuepaConfig { pushdown: true, ..QuepaConfig::default() };
                online.observe(&log(lf, cfg, 2));
                let _ = round;
            }
        }
        assert_eq!(online.pushdown_for(&f, StoreKind::Relational, 160), Some(true));
        assert!(online.refits() >= 2);
        assert!(online.render_t1().is_some());
    }

    #[test]
    fn online_is_deterministic_per_seed_and_stream() {
        let run = || {
            let online = OnlineOptimizer::new(5, 32, 4);
            let mut choices = Vec::new();
            for i in 0..40usize {
                let lf = filtered_features(
                    if i % 2 == 0 { StoreKind::Relational } else { StoreKind::Graph },
                    10 << (i % 5),
                );
                let cfg = QuepaConfig { pushdown: i % 3 == 0, ..QuepaConfig::default() };
                online.observe(&log(lf, cfg, 5 + (i as u64 * 13) % 90));
                choices.push((
                    online.choose(&lf, &QuepaConfig::default()),
                    online.pushdown_for(&lf, StoreKind::Document, 64),
                ));
            }
            choices
        };
        assert_eq!(run(), run(), "same seed + same stream ⇒ same decisions");
    }
}
