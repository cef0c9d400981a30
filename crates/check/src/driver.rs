//! The differential driver: run the real [`Quepa`] and the reference
//! model on the same scenario and hold them to bit-for-bit agreement.
//!
//! One [`check_scenario`] call sweeps every configuration point of the
//! scenario and folds in the system-level invariants:
//!
//! 1. **Model equality** — each config's [`AnswerNormalForm`] equals the
//!    model's prediction (augmented set with exact probabilities and
//!    distances, `missing` set with structured reasons). This subsumes
//!    all-augmenters-agree and cache-on == cache-off: every config is
//!    compared against the *same* prediction.
//! 2. **Original stability** — the local query returns the same objects
//!    under every config.
//! 3. **Lazy deletion accounting** — `lazily_deleted` equals the
//!    `NotFound` count, and a warm re-run on the same instance (phantoms
//!    now lazily deleted) equals the model re-run on a phantom-stripped
//!    graph: dead nodes take their incident edges with them, so paths
//!    *through* phantoms vanish and survivors' probabilities can drop.
//! 4. **Warm cache** — with a cache, a second identical search returns
//!    the same answer from cache (`cache_hits` covers the augmented set).
//! 5. **`augment_multi` == per-seed union** — the served kernel's
//!    one-pass multi-seed BFS (an [`IndexView`] of the
//!    scenario's index) equals its plain `augment`, and its ownership
//!    partition equals the model's lowest-seed-within-budget rule.
//! 6. **Metrics determinism** — twin instances produce bit-identical
//!    metrics snapshots (histograms are of *simulated* latency), and the
//!    store/cache sections are invariant under a thread-count change.
//! 7. **Retry accounting** — under a fault plan, per-store retry counters
//!    equal an independent replay of the plan's public `decide` stream;
//!    timeouts and breaker trips stay zero.
//! 8. **Removal quiescence** — the scenario's interleaved `remove_object`
//!    mutations are applied one at a time to a live instance, and after
//!    every single removal (a *quiesce point*) the overlay-served answer
//!    equals a reference model with the same removal prefix applied. The
//!    concurrent variant races readers against the removals and holds
//!    every in-flight answer to *some* removal prefix — the atomic
//!    shard-directory publication means no reader may observe a torn
//!    half-applied state.
//! 9. **Crash recovery** — scenarios carrying a `CrashSpec` also run
//!    the crash-point differential of [`crate::crash`]: a durable
//!    instance is killed at the seeded point (optionally leaving a torn
//!    or unacknowledged WAL record behind), recovered, and held to
//!    bit-for-bit agreement with a never-crashed twin.
//! 10. **Index ≡ scan** — the local query, run on a polystore built with
//!     the declared store indexes and on its twin built without them,
//!     returns the same objects in the same order — and again after each
//!     of the scenario's store mutations
//!     ([`Scenario::store_mutations`]), applied to both twins.
//! 11. **Exploration contract** — a pick of object `o` at step k of an
//!     exploration session shows `α¹({o})` (`α⁰` for the first pick)
//!     minus the path so far: one session per scenario follows a
//!     seed-derived pick sequence and every frontier is held to the
//!     model's augmentation of the picked key, so a session's frontier
//!     is a function of its picks — replayable from them. The concurrent
//!     variant races one session per client on a shared instance.
//!     Sessions are dropped, not finished: nothing is promoted.
//!
//! Every run builds *fresh* twin systems — lazy deletion mutates the
//! index, so instances are never reused across runs (except where reuse
//! is the point, as in 3 and 4).

use std::collections::BTreeMap;

use quepa_aindex::IndexView;
use quepa_core::{
    pool_width, AnswerNormalForm, AugmentedAnswer, AugmenterKind, IndexOp, MissingKey,
    MissingReason, Quepa,
};
use quepa_pdm::{GlobalKey, Pushdown, Value};
use quepa_polystore::fault::call_identity;
use quepa_polystore::FaultDecision;

use crate::model::{ModelAugmented, ModelIndex};
use crate::rng::SplitMix;
use crate::scenario::{ConfigSpec, Scenario, MAX_ATTEMPTS};

/// A scenario that diverged from the model or broke an invariant.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// Seed of the failing scenario.
    pub seed: u64,
    /// Human-readable diagnosis (which config, which invariant, both
    /// normal forms).
    pub message: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario seed {}: {}", self.seed, self.message)
    }
}

/// Statistics of a passing scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckReport {
    /// Configuration points swept.
    pub configs: usize,
    /// Augmented keys in the (model-predicted) answer.
    pub augmented: usize,
    /// Missing keys in the (model-predicted) answer.
    pub missing: usize,
    /// Whether a fault plan was active.
    pub faulted: bool,
}

/// Runs the full differential check. `Ok` carries run statistics; `Err`
/// carries the first divergence found.
pub fn check_scenario(scenario: &Scenario) -> Result<CheckReport, CheckFailure> {
    let fail = |message: String| CheckFailure { seed: scenario.seed, message };
    let database = scenario.query_database();
    let query = scenario.query();
    let model = scenario.build_model();

    let mut expected_original: Option<Vec<GlobalKey>> = None;
    let mut expected: Option<AnswerNormalForm> = None;
    let mut warm: Option<AnswerNormalForm> = None;
    let mut model_out: Vec<ModelAugmented> = Vec::new();

    for spec in &scenario.configs {
        let quepa = build_quepa(scenario, spec);
        let answer = search_answer(&quepa, scenario, &database, &query)
            .map_err(|e| fail(format!("config {}: search failed: {e}", describe(spec))))?;
        let original: Vec<GlobalKey> = answer.original.iter().map(|o| o.key().clone()).collect();

        // First config fixes the seeds; the model predicts from them.
        match &expected_original {
            None => {
                model_out = model.augment(&original, scenario.level);
                let predicted = predict_normal_form(scenario, &model_out);
                // The warm expectation: lazy deletion removes every
                // NotFound node *and its incident edges* from the index,
                // so re-augment a phantom-stripped model clone.
                let mut warm_model = model.clone();
                for m in predicted.missing.iter().filter(|m| m.is_not_found()) {
                    warm_model.remove_key(&m.key);
                }
                let warm_out = warm_model.augment(&original, scenario.level);
                warm = Some(predict_normal_form(scenario, &warm_out));
                expected = Some(predicted);
                expected_original = Some(original);
            }
            Some(first) => {
                if *first != original {
                    return Err(fail(format!(
                        "config {}: original answer differs across configs:\n  first: {:?}\n  now:   {:?}",
                        describe(spec),
                        first.iter().map(ToString::to_string).collect::<Vec<_>>(),
                        original.iter().map(ToString::to_string).collect::<Vec<_>>(),
                    )));
                }
            }
        }
        let expected = expected.as_ref().expect("set on the first config");

        let got = answer.normal_form();
        if got != *expected {
            return Err(fail(format!(
                "config {}: answer diverges from reference model\n--- real ---\n{got}--- model ---\n{expected}",
                describe(spec)
            )));
        }

        // Lazy-deletion accounting.
        let not_found = got.missing.iter().filter(|m| m.is_not_found()).count();
        if answer.lazily_deleted != not_found {
            return Err(fail(format!(
                "config {}: lazily_deleted = {} but NotFound missing = {}",
                describe(spec),
                answer.lazily_deleted,
                not_found
            )));
        }

        // Warm re-run on the same instance: phantoms are now lazily
        // deleted (along with their incident edges), so the answer must
        // match the phantom-stripped model; with a cache, the augmented
        // set must come back from cache.
        let again = search_answer(&quepa, scenario, &database, &query)
            .map_err(|e| fail(format!("config {}: warm re-run failed: {e}", describe(spec))))?;
        let warm_expected = warm.as_ref().expect("set on the first config");
        let warm_got = again.normal_form();
        if warm_got != *warm_expected {
            return Err(fail(format!(
                "config {}: warm re-run after lazy deletion diverges\n--- real ---\n{warm_got}--- expected ---\n{warm_expected}",
                describe(spec)
            )));
        }
        if spec.cache > 0 && !again.augmented.is_empty() && again.cache_hits < again.augmented.len()
        {
            return Err(fail(format!(
                "config {}: warm re-run hit cache {} times for {} augmented objects",
                describe(spec),
                again.cache_hits,
                again.augmented.len()
            )));
        }
    }

    let seeds = expected_original.expect("at least one config ran");
    let expected = expected.expect("at least one config ran");

    check_multi_seed(scenario, &seeds, &fail)?;
    check_metrics_determinism(scenario, &database, &query, &fail)?;
    check_retry_accounting(scenario, &database, &query, &model_out, &fail)?;
    check_removal_quiesce(scenario, &fail)?;
    check_pushdown_modes(scenario, &database, &query, &fail)?;
    check_access_paths(scenario, &database, &query, &fail)?;
    let explorer = build_quepa(scenario, exploration_spec(scenario));
    explore_against_model(&explorer, scenario, &mut scenario.build_model(), "explore", &fail)?;
    // Invariant 9: scenarios carrying a crash plan also run the
    // crash-point recovery differential (no-op without one).
    crate::crash::check_crash_scenario(scenario)?;

    Ok(CheckReport {
        configs: scenario.configs.len(),
        augmented: expected.augmented.len(),
        missing: expected.missing.len(),
        faulted: scenario.fault.is_some(),
    })
}

/// The concurrent-serving differential check: `clients` identical queries
/// race on ONE shared instance per configuration point.
///
/// Lazy deletion makes the index a moving target under concurrency —
/// each racing query plans on either the original index snapshot or the
/// phantom-stripped one (the snapshot swap is atomic and one deletion
/// round reaches the fixed point) — so the serving invariants are:
///
/// 1. **Membership** — every concurrent answer equals either the cold or
///    the warm answer of a same-seed serial twin; nothing in between,
///    nothing else.
/// 2. **Settlement** — after the race, one more serial query on the
///    shared instance returns exactly the warm answer.
/// 3. **Metrics equality** — for clean points (no fault plan, no
///    phantoms, observability on, cache on), a fresh instance serving
///    `clients` concurrent queries produces a metrics snapshot
///    bit-identical to a fresh twin serving the same queries serially:
///    single-flight waiters account as cache hits, exactly one leader
///    per batch group pays the round trip and the miss.
///
/// Transient-fault scenarios are checked like every other: the fault
/// harness's per-identity streak counter is monotone and order-free
/// (read → decide → bump under one lock, never reset), so racing
/// clients split each identity's streak between them — the total
/// injected errors per identity equal the plan's streak regardless of
/// interleaving, and a retry budget that rides the streak out serially
/// also rides it out concurrently. No spurious exhausted-retries
/// answer is possible, which is what un-skipped these plans.
pub fn check_concurrent_scenario(
    scenario: &Scenario,
    clients: usize,
) -> Result<CheckReport, CheckFailure> {
    let fail = |message: String| CheckFailure { seed: scenario.seed, message };
    let database = scenario.query_database();
    let query = scenario.query();
    let mut report =
        CheckReport { configs: 0, augmented: 0, missing: 0, faulted: scenario.fault.is_some() };

    for spec in &scenario.configs {
        let search = |quepa: &Quepa, what: &str| -> Result<AnswerNormalForm, CheckFailure> {
            search_answer(quepa, scenario, &database, &query)
                .map(|a| a.normal_form())
                .map_err(|e| fail(format!("config {}: {what} failed: {e}", describe(spec))))
        };

        // The serial twin fixes the two legitimate index states.
        let twin = build_quepa(scenario, spec);
        let cold = search(&twin, "serial cold run")?;
        let warm = search(&twin, "serial warm run")?;
        if report.configs == 0 {
            report.augmented = cold.augmented.len();
            report.missing = cold.missing.len();
        }

        let shared = build_quepa(scenario, spec);
        let barrier = std::sync::Barrier::new(clients);
        let answers: Vec<Result<AnswerNormalForm, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let shared = &shared;
                    let barrier = &barrier;
                    let database = &database;
                    let query = &query;
                    s.spawn(move || {
                        barrier.wait();
                        search_answer(shared, scenario, database, query)
                            .map(|a| a.normal_form())
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for (i, answer) in answers.iter().enumerate() {
            let nf = answer.as_ref().map_err(|e| {
                fail(format!("config {}: concurrent client {i} failed: {e}", describe(spec)))
            })?;
            if *nf != cold && *nf != warm {
                return Err(fail(format!(
                    "config {}: concurrent client {i} answer is neither the serial cold nor warm answer\n--- got ---\n{nf}--- cold ---\n{cold}--- warm ---\n{warm}",
                    describe(spec)
                )));
            }
        }

        let settled = search(&shared, "post-race settle run")?;
        if settled != warm {
            return Err(fail(format!(
                "config {}: the shared instance did not settle on the warm answer after {clients} racing clients\n--- settled ---\n{settled}--- warm ---\n{warm}",
                describe(spec)
            )));
        }
        report.configs += 1;
    }

    check_concurrent_metrics(scenario, &database, &query, clients, &fail)?;
    check_removal_races(scenario, clients, &fail)?;
    check_exploration_races(scenario, clients)?;
    Ok(report)
}

/// Picks per exploration session of invariant 11.
const EXPLORE_STEPS: usize = 4;

/// The configuration point of the exploration checks, varied by seed so a
/// sweep walks sessions under every augmenter.
fn exploration_spec(scenario: &Scenario) -> &ConfigSpec {
    &scenario.configs[scenario.seed as usize % scenario.configs.len()]
}

/// Invariant 11 on one session: opens an exploration on the scenario's
/// query and follows the pick sequence drawn from the `label` fork of the
/// scenario seed. After every pick the frontier must be the model's
/// augmentation of the picked key — level 0 for the first pick, level 1
/// after — minus the path so far; the model forgets what the step lazily
/// deleted, as the index does. Exploration takes no filter, so the
/// prediction is the unfiltered one.
fn explore_against_model(
    quepa: &Quepa,
    scenario: &Scenario,
    model: &mut ModelIndex,
    label: &str,
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    let mut rng = SplitMix::new(scenario.seed).fork(label);
    let mut session = quepa
        .explore(&scenario.query_database(), &scenario.query())
        .map_err(|e| fail(format!("{label}: EXPLORE failed: {e}")))?;
    let mut path: Vec<GlobalKey> = Vec::new();
    for step in 0..EXPLORE_STEPS {
        let pickable: Vec<GlobalKey> = match step {
            0 => session.results().iter().map(|o| o.key().clone()).collect(),
            _ => session.frontier().iter().map(|a| a.object.key().clone()).collect(),
        };
        if pickable.is_empty() {
            break;
        }
        let i = rng.below(pickable.len());
        let picked = if step == 0 { session.select(i) } else { session.step(i) };
        let frontier =
            picked.map_err(|e| fail(format!("{label}: pick {step} (#{i}) failed: {e}")))?;
        let got = AnswerNormalForm::from_parts(
            frontier.iter().map(|a| (a.object.key().clone(), a.probability, a.distance)),
            Vec::new(),
        );
        path.push(pickable[i].clone());

        let level = usize::from(step > 0);
        let reached = model.augment(std::slice::from_ref(&pickable[i]), level);
        let mut want = classify(scenario, &reached, None);
        for gone in want.missing.iter().filter(|m| m.is_not_found()) {
            model.remove_key(&gone.key);
        }
        want.augmented.retain(|e| !path.iter().any(|seen| seen.to_string() == e.key));
        if got.augmented != want.augmented {
            want.missing.clear();
            return Err(fail(format!(
                "{label}: the frontier after pick {step} ({}) is not the level-{level} \
                 augmentation of the picked key minus the path\n--- real ---\n{got}--- model ---\n{want}",
                pickable[i]
            )));
        }
    }
    if session.path() != path {
        return Err(fail(format!("{label}: the session's path is not its picks: {path:?}")));
    }
    Ok(())
}

/// Concurrent half of invariant 11: every racing client explores its own
/// session on one shared instance, each with its own pick sequence. The
/// phantoms leave the index and the model up front, so no step lazily
/// deletes anything, the index stands still under the race, and every
/// session is held to the model exactly, whatever the others pick.
fn check_exploration_races(scenario: &Scenario, clients: usize) -> Result<(), CheckFailure> {
    // A planted bug legitimately diverges from the model; the serial
    // sweep is its catcher.
    if scenario.mutation.is_some() {
        return Ok(());
    }
    let shared = build_quepa(scenario, exploration_spec(scenario));
    let mut model = scenario.build_model();
    let phantoms: Vec<GlobalKey> = scenario
        .relations
        .iter()
        .flat_map(|r| [r.a, r.b])
        .filter(|&(store, obj)| scenario.is_phantom(store, obj))
        .map(|(store, obj)| scenario.key_of(store, obj))
        .collect();
    // One batch: the phantoms leave in one atomic transition.
    let removals: Vec<IndexOp> =
        phantoms.iter().map(|key| IndexOp::RemoveObject { key: key.clone() }).collect();
    shared.apply_mutations(&removals).map_err(|e| CheckFailure {
        seed: scenario.seed,
        message: format!("removing the phantoms failed: {e}"),
    })?;
    phantoms.iter().for_each(|key| model.remove_key(key));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (shared, mut model) = (&shared, model.clone());
                scope.spawn(move || {
                    let label = format!("explore-client-{client}");
                    let fail = |message| CheckFailure { seed: scenario.seed, message };
                    explore_against_model(shared, scenario, &mut model, &label, &fail)
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("explorer thread"))
    })
}

/// The configuration point of the removal checks: cache-less (so every
/// answer is re-planned from the live index) and varied by seed so the
/// whole smoke range exercises every augmenter against mutations.
fn removal_spec(scenario: &Scenario) -> ConfigSpec {
    let all = AugmenterKind::ALL;
    ConfigSpec {
        augmenter: all[(scenario.seed as usize) % all.len()],
        batch: 2,
        threads: 2,
        cache: 0,
        resilient: false,
        obs: false,
        pushdown: scenario.seed.is_multiple_of(2),
    }
}

/// Serial half of invariant 8: apply the scenario's removals one by one
/// to a live instance and differentially compare the answer against the
/// reference model at every quiesce point. This is what pins the delta
/// overlay: each `remove_object` lands as an overlay entry on exactly one
/// shard, and readers must merge it (dead node, dead incident edges)
/// bit-identically to a model that never had the key.
fn check_removal_quiesce(
    scenario: &Scenario,
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    // Fault plans make the prediction depend on retry interleaving and a
    // planted bug legitimately diverges from the model; both are covered
    // by their own checks.
    if scenario.removals.is_empty() || scenario.fault.is_some() || scenario.mutation.is_some() {
        return Ok(());
    }
    let database = scenario.query_database();
    let query = scenario.query();
    let spec = removal_spec(scenario);
    let quepa = build_quepa(scenario, &spec);

    // The cold run quiesces lazy deletion, so both sides start
    // phantom-free and later divergence is attributable to removals.
    let cold = search_answer(&quepa, scenario, &database, &query)
        .map_err(|e| fail(format!("removal quiesce cold run failed: {e}")))?;
    let original: Vec<GlobalKey> = cold.original.iter().map(|o| o.key().clone()).collect();
    let mut model = scenario.build_model();
    let predicted = predict_normal_form(scenario, &model.augment(&original, scenario.level));
    for m in predicted.missing.iter().filter(|m| m.is_not_found()) {
        model.remove_key(&m.key);
    }

    for (k, &(s, o)) in scenario.removals.iter().enumerate() {
        let key = scenario.key_of(s, o);
        quepa
            .apply_mutations(&[IndexOp::RemoveObject { key: key.clone() }])
            .map_err(|e| fail(format!("removal quiesce point {k}: removing {key} failed: {e}")))?;
        model.remove_key(&key);
        let want = predict_normal_form(scenario, &model.augment(&original, scenario.level));
        let got = search_answer(&quepa, scenario, &database, &query)
            .map_err(|e| fail(format!("removal quiesce point {k} search failed: {e}")))?
            .normal_form();
        if got != want {
            return Err(fail(format!(
                "quiesce point {k}: answer after removing {key} diverges from the model with the same removal prefix\n--- real ---\n{got}--- model ---\n{want}"
            )));
        }
    }
    Ok(())
}

/// Concurrent half of invariant 8: readers race `remove_object` calls on
/// one shared instance. Removals publish atomically (one shard-directory
/// swap each), so every racing answer must equal the model's prediction
/// for *some* prefix of the removal sequence, and the settled instance
/// must serve exactly the fully-removed state.
fn check_removal_races(
    scenario: &Scenario,
    clients: usize,
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    if scenario.removals.is_empty()
        || scenario.fault.is_some()
        || scenario.mutation.is_some()
        || clients < 2
    {
        return Ok(());
    }
    let database = scenario.query_database();
    let query = scenario.query();
    let spec = removal_spec(scenario);
    let shared = build_quepa(scenario, &spec);

    // Quiesce lazy deletion first so racing answers differ only by how
    // many removals their planning view has absorbed.
    let cold = search_answer(&shared, scenario, &database, &query)
        .map_err(|e| fail(format!("removal race cold run failed: {e}")))?;
    let original: Vec<GlobalKey> = cold.original.iter().map(|o| o.key().clone()).collect();
    let mut model = scenario.build_model();
    let predicted = predict_normal_form(scenario, &model.augment(&original, scenario.level));
    for m in predicted.missing.iter().filter(|m| m.is_not_found()) {
        model.remove_key(&m.key);
    }

    // `states[k]` is the expected answer with the first `k` removals in.
    let mut states: Vec<AnswerNormalForm> =
        vec![predict_normal_form(scenario, &model.augment(&original, scenario.level))];
    for &(s, o) in &scenario.removals {
        model.remove_key(&scenario.key_of(s, o));
        states.push(predict_normal_form(scenario, &model.augment(&original, scenario.level)));
    }

    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(clients + 1);
    let answers: Vec<Result<Vec<AnswerNormalForm>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (shared, stop, start) = (&shared, &stop, &start);
                let (database, query) = (&database, &query);
                scope.spawn(move || {
                    start.wait();
                    let mut seen = Vec::new();
                    // At least one search each, then spin until the
                    // writer is done — interleaving with the removals.
                    loop {
                        match search_answer(shared, scenario, database, query) {
                            Ok(a) => seen.push(a.normal_form()),
                            Err(e) => return Err(e.to_string()),
                        }
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            return Ok(seen);
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for &(s, o) in &scenario.removals {
            let key = scenario.key_of(s, o);
            shared
                .apply_mutations(&[IndexOp::RemoveObject { key }])
                .expect("a volatile commit cannot fail");
            std::thread::yield_now();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });

    for (i, res) in answers.iter().enumerate() {
        let forms = res.as_ref().map_err(|e| fail(format!("racing reader {i} failed: {e}")))?;
        for nf in forms {
            if !states.contains(nf) {
                let prefixes = states
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("--- next prefix ---\n");
                return Err(fail(format!(
                    "racing reader {i} observed an answer matching no removal prefix — a torn or stale view\n--- got ---\n{nf}--- legal prefixes ---\n{prefixes}"
                )));
            }
        }
    }

    let settled = search_answer(&shared, scenario, &database, &query)
        .map_err(|e| fail(format!("removal race settle run failed: {e}")))?
        .normal_form();
    let last = states.last().expect("at least the zero-removal state");
    if settled != *last {
        return Err(fail(format!(
            "instance did not settle on the fully-removed state after racing {clients} readers\n--- settled ---\n{settled}--- expected ---\n{last}"
        )));
    }
    Ok(())
}

/// Invariant 3 of [`check_concurrent_scenario`]: concurrent-vs-serial
/// metrics equality on a clean configuration point.
fn check_concurrent_metrics(
    scenario: &Scenario,
    database: &str,
    query: &str,
    clients: usize,
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    // Filtered scenarios skip this invariant by design: single-flight
    // coalescing is disabled under a predicate (waiters cannot adopt a
    // leader's filtered partition) and rejected keys are refetched on
    // every run, so racing clients legitimately pay duplicate round
    // trips a serial twin never would.
    if scenario.fault.is_some() || scenario.filter.is_some() {
        return Ok(());
    }
    let Some(spec) = scenario.configs.iter().find(|c| c.obs && c.cache > 0) else {
        return Ok(());
    };
    // Phantoms mean lazy deletion: racing clients legitimately split
    // between index snapshots and the counters diverge by design.
    let probe = build_quepa(scenario, spec);
    let cold = probe
        .augmented_search(database, query, scenario.level)
        .map_err(|e| fail(format!("metrics probe run failed: {e}")))?;
    if cold.normal_form().missing.iter().any(|m| m.is_not_found()) {
        return Ok(());
    }

    let concurrent = build_quepa(scenario, spec);
    let barrier = std::sync::Barrier::new(clients);
    let errors: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let concurrent = &concurrent;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    concurrent
                        .augmented_search(database, query, scenario.level)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().expect("client thread").err()).collect()
    });
    if let Some(e) = errors.first() {
        return Err(fail(format!("concurrent metrics run failed: {e}")));
    }

    let serial = build_quepa(scenario, spec);
    for _ in 0..clients {
        serial
            .augmented_search(database, query, scenario.level)
            .map_err(|e| fail(format!("serial metrics run failed: {e}")))?;
    }

    let got = concurrent.metrics_snapshot();
    let want = serial.metrics_snapshot();
    if got != want {
        return Err(fail(format!(
            "config {}: metrics of {clients} concurrent clients differ from {clients} serial runs\n--- concurrent ---\n{got:?}\n--- serial ---\n{want:?}",
            describe(spec)
        )));
    }
    Ok(())
}

/// The pushdown-vs-fallback differential: when the scenario carries a
/// filter, the same configuration point runs on fresh twin instances
/// with the planner's pushdown forced on and forced off. Native
/// `fetch_where` and the client-side fallback must agree bit-for-bit:
/// the cold answer, the warm answer after lazy deletion, and the warm
/// cache-hit count (only matched objects are ever cached, on either
/// path). Per-store gates from `scenario.nopush` stay in place on both
/// twins — the toggle under test is the planner's global switch.
fn check_pushdown_modes(
    scenario: &Scenario,
    database: &str,
    query: &str,
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    if scenario.filter.is_none() {
        return Ok(());
    }
    let base = scenario.configs.first().expect("scenarios carry at least one config");
    let mode = |p: bool| if p { "pushdown" } else { "fallback" };
    let run =
        |pushdown: bool| -> Result<(AnswerNormalForm, AnswerNormalForm, usize), CheckFailure> {
            let spec = ConfigSpec { pushdown, ..*base };
            let quepa = build_quepa(scenario, &spec);
            let cold = search_answer(&quepa, scenario, database, query).map_err(|e| {
                fail(format!("pushdown-mode cold run ({}) failed: {e}", mode(pushdown)))
            })?;
            let warm = search_answer(&quepa, scenario, database, query).map_err(|e| {
                fail(format!("pushdown-mode warm run ({}) failed: {e}", mode(pushdown)))
            })?;
            Ok((cold.normal_form(), warm.normal_form(), warm.cache_hits))
        };
    let (on_cold, on_warm, on_hits) = run(true)?;
    let (off_cold, off_warm, off_hits) = run(false)?;
    if on_cold != off_cold {
        return Err(fail(format!(
            "filtered cold answers diverge between pushdown and fallback\n--- pushdown ---\n{on_cold}--- fallback ---\n{off_cold}"
        )));
    }
    if on_warm != off_warm {
        return Err(fail(format!(
            "filtered warm answers diverge between pushdown and fallback\n--- pushdown ---\n{on_warm}--- fallback ---\n{off_warm}"
        )));
    }
    if on_hits != off_hits {
        return Err(fail(format!(
            "warm cache hits diverge between pushdown ({on_hits}) and fallback ({off_hits}) — \
             the two paths cached different object sets"
        )));
    }
    Ok(())
}

/// Invariant 10: a declared store index changes where the engine looks,
/// never what it answers. The local query runs on the indexed polystore
/// and on its scan-path twin, before and after every store mutation of
/// the scenario; objects and order must agree each time, and so must what
/// each mutation reports.
fn check_access_paths(
    scenario: &Scenario,
    database: &str,
    query: &str,
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    let indexed = scenario.build_polystore();
    let scan = scenario.build_unindexed_polystore();
    let compare = |after: &str| {
        let (got, want) = (indexed.execute(database, query), scan.execute(database, query));
        // Debug form, not `==`: it tells -0.0 from 0.0.
        if format!("{got:?}") == format!("{want:?}") {
            return Ok(());
        }
        Err(fail(format!(
            "local query `{query}` {after}: indexed store diverges from its scan twin\n\
             --- indexed ---\n{got:?}\n--- scan ---\n{want:?}"
        )))
    };
    compare("on the fresh stores")?;
    for statement in scenario.store_mutations() {
        let (got, want) = (
            indexed.execute_update(database, &statement),
            scan.execute_update(database, &statement),
        );
        if format!("{got:?}") != format!("{want:?}") {
            return Err(fail(format!(
                "store mutation `{statement}`: indexed store reports {got:?}, its scan twin {want:?}"
            )));
        }
        compare(&format!("after `{statement}`"))?;
    }
    Ok(())
}

/// Runs the scenario's search on one instance: filtered through
/// [`Quepa::augmented_search_filtered`] when the scenario carries a
/// pushdown predicate, the plain path otherwise. Every differential
/// below flows through this, so the filtered and unfiltered regimes
/// exercise the same invariants.
fn search_answer(
    quepa: &Quepa,
    scenario: &Scenario,
    database: &str,
    query: &str,
) -> quepa_core::Result<AugmentedAnswer> {
    match scenario.pushdown_filter() {
        Some(f) => quepa.augmented_search_filtered(database, query, scenario.level, &f),
        None => quepa.augmented_search(database, query, scenario.level),
    }
}

/// Builds a fresh system under test for one config point. The fetch pool
/// is sized through the shared [`pool_width`] clamp — the same one the
/// `quepa-serve` front end uses — so the concurrent harness races clients
/// against the exact pool geometry the server runs with.
fn build_quepa(scenario: &Scenario, spec: &ConfigSpec) -> Quepa {
    let quepa = Quepa::with_config(
        scenario.build_wrapped_polystore(),
        scenario.build_index(),
        scenario.config_of(spec),
    );
    quepa.set_pool_width(pool_width());
    quepa
}

fn describe(spec: &ConfigSpec) -> String {
    format!(
        "{} batch={} threads={} cache={}{}{}{}",
        spec.augmenter.name(),
        spec.batch,
        spec.threads,
        spec.cache,
        if spec.resilient { " resilient" } else { "" },
        if spec.obs { " obs" } else { "" },
        if spec.pushdown { "" } else { " push-off" },
    )
}

/// Classifies the model's reachable set into the expected answer: keys on
/// down stores are `Unreachable` (after every retry), phantoms are
/// `NotFound`, keys failing the scenario's (key-only) filter are silently
/// excluded, and the rest are augmented objects.
///
/// The filter is applied *last*: the engine never pre-filters on key
/// text, so a down store surfaces as `Unreachable` and a phantom as
/// `NotFound` even for keys the predicate would drop — existence and
/// reachability are established before the filter partitions anything.
fn predict_normal_form(scenario: &Scenario, model_out: &[ModelAugmented]) -> AnswerNormalForm {
    classify(scenario, model_out, scenario.pushdown_filter().as_ref())
}

/// [`predict_normal_form`] under an explicit filter (`None`: unfiltered).
fn classify(
    scenario: &Scenario,
    model_out: &[ModelAugmented],
    filter: Option<&Pushdown>,
) -> AnswerNormalForm {
    let down: Vec<usize> = scenario.fault.as_ref().map(|f| f.outages.clone()).unwrap_or_default();
    let mut augmented = Vec::new();
    let mut missing = Vec::new();
    for entry in model_out {
        let (store, obj) = locate(scenario, &entry.key)
            .expect("model keys come from the scenario's relation endpoints");
        if down.contains(&store) {
            missing.push(MissingKey {
                key: entry.key.clone(),
                reason: MissingReason::Unreachable {
                    database: entry.key.database().clone(),
                    attempts: MAX_ATTEMPTS,
                },
            });
        } else if scenario.is_phantom(store, obj) {
            missing.push(MissingKey::not_found(entry.key.clone()));
        } else if filter.is_some_and(|f| !f.matches(entry.key.key().as_str(), &Value::Null)) {
            // Exists but fails the predicate: rejected server- or
            // client-side, and rejected keys appear in neither the
            // augmented set nor `missing`.
        } else {
            augmented.push((entry.key.clone(), entry.probability, entry.distance));
        }
    }
    AnswerNormalForm::from_parts(augmented, missing)
}

/// Maps a generated key back to its `(store, object)` address.
fn locate(scenario: &Scenario, key: &GlobalKey) -> Option<(usize, usize)> {
    let store: usize = key.database().as_str().strip_prefix("db")?.parse().ok()?;
    if store >= scenario.stores.len() {
        return None;
    }
    let local = key.key().as_str();
    let obj: usize = local.get(1..)?.parse().ok()?;
    Some((store, obj))
}

/// Invariant 5: one-pass multi-seed augmentation equals the per-seed
/// construction, and ownership equals the model's rule.
fn check_multi_seed(
    scenario: &Scenario,
    seeds: &[GlobalKey],
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    let index = IndexView::of(&scenario.build_index());
    let single = index.augment(seeds, scenario.level);
    let (multi, owners) = index.augment_multi(seeds, scenario.level);
    if single != multi {
        return Err(fail(format!(
            "augment_multi canonical answer differs from augment: {} vs {} keys",
            multi.len(),
            single.len()
        )));
    }
    let model_owners = scenario.build_model().owners(seeds, scenario.level);
    // Under a planted mutation the real index legitimately differs from
    // the model; the per-config sweep is the catcher there.
    if scenario.mutation.is_none() {
        for (entry, &owner) in multi.iter().zip(&owners) {
            match model_owners.get(&entry.key) {
                Some(&expected) if expected == owner => {}
                other => {
                    return Err(fail(format!(
                        "ownership of {}: real owner seed #{owner}, model says {:?}",
                        entry.key, other
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Invariant 6: metrics snapshots are deterministic — twin instances
/// agree bit-for-bit, and the store/cache sections are invariant under a
/// different thread count (stage span counts legitimately scale with the
/// worker pool, so stages are excluded from the cross-thread half).
fn check_metrics_determinism(
    scenario: &Scenario,
    database: &str,
    query: &str,
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    let Some(spec) = scenario.configs.iter().find(|c| c.obs) else { return Ok(()) };
    let run = |spec: &ConfigSpec| -> Result<quepa_core::MetricsSnapshot, CheckFailure> {
        let quepa = build_quepa(scenario, spec);
        search_answer(&quepa, scenario, database, query)
            .map_err(|e| fail(format!("metrics run failed: {e}")))?;
        Ok(quepa.metrics_snapshot())
    };
    let first = run(spec)?;
    let twin = run(spec)?;
    if first != twin {
        return Err(fail(format!(
            "metrics snapshots of twin instances differ\n--- first ---\n{first:?}\n--- twin ---\n{twin:?}"
        )));
    }
    let other_threads = ConfigSpec { threads: spec.threads % 4 + 1, ..*spec };
    let rethreaded = run(&other_threads)?;
    if first.stores != rethreaded.stores || first.cache != rethreaded.cache {
        return Err(fail(format!(
            "store/cache metrics changed with thread count {} -> {}\n--- base ---\n{:?} {:?}\n--- rethreaded ---\n{:?} {:?}",
            spec.threads, other_threads.threads, first.stores, first.cache, rethreaded.stores, rethreaded.cache
        )));
    }
    Ok(())
}

/// Invariant 7: per-store retry counters equal an independent replay of
/// the fault plan through its public `decide` stream.
fn check_retry_accounting(
    scenario: &Scenario,
    database: &str,
    query: &str,
    model_out: &[ModelAugmented],
    fail: &impl Fn(String) -> CheckFailure,
) -> Result<(), CheckFailure> {
    let Some(plan) = scenario.fault_plan() else { return Ok(()) };
    // A sequential, cache-less run: every augmented key is fetched
    // exactly once through the single-key resilient path, whose call
    // identity is public — the replay below mirrors it. Deliberately
    // unfiltered even when the scenario carries a predicate: the replay
    // assumes one single-key call per augmented key, which only the
    // plain path guarantees (the filtered path shares the same fault
    // identities, and is held to them by the fault-identity unit tests
    // and the filtered scenario sweep).
    let spec = ConfigSpec {
        augmenter: AugmenterKind::Sequential,
        batch: 1,
        threads: 1,
        cache: 0,
        resilient: true,
        obs: false,
        pushdown: true,
    };
    let quepa = build_quepa(scenario, &spec);
    quepa
        .augmented_search(database, query, scenario.level)
        .map_err(|e| fail(format!("retry accounting run failed: {e}")))?;
    let snapshot = quepa.metrics_snapshot();

    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for entry in model_out {
        let (store, _) = locate(scenario, &entry.key).expect("scenario key");
        if store == scenario.query_store {
            continue; // the query target is never fault-wrapped
        }
        let db = Scenario::store_name(store);
        let retries = if plan.is_down(&db) {
            (MAX_ATTEMPTS - 1) as u64
        } else {
            let identity = call_identity(entry.key.collection(), std::iter::once(entry.key.key()));
            let mut streak = 0u64;
            for attempt in 0..MAX_ATTEMPTS {
                match plan.decide(&db, identity, attempt) {
                    FaultDecision::Transient => streak += 1,
                    _ => break,
                }
            }
            streak
        };
        if retries > 0 {
            *expected.entry(db).or_default() += retries;
        }
    }

    for (db, &want) in &expected {
        let got = snapshot.stores.get(db).map(|m| m.retries).unwrap_or(0);
        if got != want {
            return Err(fail(format!(
                "retry counter of {db}: real {got}, fault-plan replay predicts {want}"
            )));
        }
    }
    for (db, metrics) in &snapshot.stores {
        if !expected.contains_key(db) && metrics.retries != 0 {
            return Err(fail(format!(
                "unexpected retries on {db}: {} (replay predicts none)",
                metrics.retries
            )));
        }
        if metrics.timeouts != 0 || metrics.breaker_trips != 0 || metrics.breaker_rejections != 0 {
            return Err(fail(format!(
                "{db}: timeouts={} breaker_trips={} breaker_rejections={} — the harness fault space allows none",
                metrics.timeouts, metrics.breaker_trips, metrics.breaker_rejections
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Mutation;

    /// A spread of seeds passes the full differential check.
    #[test]
    fn clean_scenarios_pass() {
        for seed in 0..12u64 {
            let scenario = Scenario::generate(seed);
            if let Err(e) = check_scenario(&scenario) {
                panic!("seed {seed} failed:\n{e}");
            }
        }
    }

    /// A spread of seeds also passes the concurrent serving check.
    #[test]
    fn clean_scenarios_pass_concurrently() {
        for seed in 0..6u64 {
            let scenario = Scenario::generate(seed);
            if let Err(e) = check_concurrent_scenario(&scenario, 4) {
                panic!("seed {seed} failed concurrently:\n{e}");
            }
        }
    }

    /// Forced removals over real relation endpoints pass both the serial
    /// quiesce-point differential and the racing-readers check — the
    /// delta-overlay acceptance test (generated removals only reference
    /// interned keys by chance; these always hit live index nodes).
    #[test]
    fn forced_removals_quiesce_and_race() {
        let mut checked = 0;
        for seed in 0..20u64 {
            let mut scenario = Scenario::generate(seed);
            if scenario.relations.len() < 2 {
                continue;
            }
            scenario.fault = None;
            scenario.removals = scenario.relations.iter().take(2).map(|r| r.a).collect();
            if let Err(e) = check_scenario(&scenario) {
                panic!("seed {seed} failed the quiesce differential:\n{e}");
            }
            if let Err(e) = check_concurrent_scenario(&scenario, 4) {
                panic!("seed {seed} failed the removal race:\n{e}");
            }
            checked += 1;
            if checked == 5 {
                break;
            }
        }
        assert!(checked >= 3, "not enough removal scenarios exercised: {checked}");
    }

    /// Forcing a predicate onto generated scenarios exercises the
    /// filtered path end to end: pushdown-vs-fallback twins, a gated
    /// store falling back per-planner-decision, mixed on/off configs,
    /// and the concurrent regime must all stay bit-identical.
    #[test]
    fn forced_filters_pass_serial_and_concurrent() {
        use quepa_pdm::{PushOp, Pushdown};
        let mut checked = 0;
        for seed in 100..130u64 {
            let mut scenario = Scenario::generate(seed);
            if scenario.filter.is_some() {
                continue; // this test wants full control of the filter
            }
            // Contains is case-insensitive and digit "1" splits every
            // store's keyspace, so matched and rejected are both
            // populated on each store.
            scenario.filter = Some(Pushdown::key(PushOp::Contains, "1").to_string());
            scenario.nopush = vec![1];
            for (i, c) in scenario.configs.iter_mut().enumerate() {
                c.pushdown = i % 2 == 0;
            }
            if let Err(e) = check_scenario(&scenario) {
                panic!("seed {seed} failed with a forced filter:\n{e}");
            }
            if let Err(e) = check_concurrent_scenario(&scenario, 4) {
                panic!("seed {seed} failed concurrently with a forced filter:\n{e}");
            }
            checked += 1;
            if checked == 4 {
                break;
            }
        }
        assert!(checked >= 3, "not enough forced-filter scenarios exercised: {checked}");
    }

    /// A fault plan plus a filter: faulted pushdown round trips must
    /// fall back to per-key fetches with unchanged fault identities, so
    /// outage keys land `Unreachable` and the filtered answer still
    /// matches the model bit-for-bit.
    #[test]
    fn faulted_filters_fall_back_and_pass() {
        use quepa_pdm::{PushOp, Pushdown};
        let mut checked = 0;
        for seed in 0..60u64 {
            let mut scenario = Scenario::generate(seed);
            if scenario.fault.as_ref().is_none_or(|f| f.outages.is_empty()) {
                continue;
            }
            scenario.filter = Some(Pushdown::key(PushOp::Contains, "1").to_string());
            scenario.nopush = Vec::new();
            for c in &mut scenario.configs {
                c.pushdown = true;
            }
            if let Err(e) = check_scenario(&scenario) {
                panic!("seed {seed} failed the faulted-filter check:\n{e}");
            }
            checked += 1;
            if checked == 3 {
                break;
            }
        }
        assert!(checked >= 2, "not enough faulted-filter scenarios exercised: {checked}");
    }

    /// A planted index mutation is caught by the sweep on at least one of
    /// a handful of seeds — the harness's own acceptance test.
    #[test]
    fn planted_mutation_is_caught() {
        let mut caught = 0;
        for seed in 0..20u64 {
            let mut scenario = Scenario::generate(seed);
            if scenario.relations.is_empty() {
                continue;
            }
            scenario.mutation = Some(Mutation::DropRelation(seed as usize));
            if check_scenario(&scenario).is_err() {
                caught += 1;
            }
        }
        assert!(caught > 0, "no planted mutation was detected across 20 seeds");
    }
}
