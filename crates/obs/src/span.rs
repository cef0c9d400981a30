//! The tracing facade: stages, observation contexts and wall-clock spans.
//!
//! The facade follows the `log`/`tracing` dispatcher pattern, scoped per
//! instance instead of per process: a worker thread *installs* an
//! observation context (a registry handle plus the [`Stage`] it is
//! executing) and the leaf code — connectors, the retry executor, the
//! fault layer — reports events through free functions that read the
//! context from a thread-local. No context installed ⇒ every report is a
//! single thread-local read and a branch, which is what keeps the
//! disabled hot path within noise of the un-instrumented baseline.
//!
//! Two kinds of measurements flow through here, with different
//! determinism guarantees (see `DESIGN.md`, "Observability model"):
//!
//! * **deterministic metrics** — counts and *simulated* durations
//!   (closed-form link costs and backoff pauses). These land in the
//!   [`MetricsRegistry`] and are bit-identical across same-seed runs;
//! * **wall-clock spans** — [`span_on`]/[`SpanGuard`] measure real elapsed
//!   time for humans chasing a slow augmentation. They land in the
//!   registry's bounded trace ring and are *excluded* from snapshots.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::registry::MetricsRegistry;

/// The stages of one augmented search, in execution order.
///
/// `Retry` is not a phase of its own: it is the slice of `Fetch` spent
/// re-attempting round trips (backoff pauses plus retried link costs),
/// split out so a chaos run shows *where* resilience spent its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// A' index traversal: computing the augmentation plan.
    Plan,
    /// LRU cache probes in front of the polystore.
    Cache,
    /// Key-based retrieval round trips against the stores.
    Fetch,
    /// Retried round trips and their backoff pauses.
    Retry,
    /// Shard merge and the final probability sort.
    Merge,
    /// Durable commit of index mutations: WAL append, store flush,
    /// apply, checkpoint-cut maintenance.
    Commit,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 6] =
        [Stage::Plan, Stage::Cache, Stage::Fetch, Stage::Retry, Stage::Merge, Stage::Commit];

    /// Stable position of this stage in [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case name used as the `stage` metric label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::Cache => "cache",
            Stage::Fetch => "fetch",
            Stage::Retry => "retry",
            Stage::Merge => "merge",
            Stage::Commit => "commit",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

struct Context {
    registry: Arc<MetricsRegistry>,
    stage: Stage,
}

thread_local! {
    static CONTEXT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// Installs an observation context on the current thread for the guard's
/// lifetime: leaf reports ([`record_link_event`], [`record_backoff`], …)
/// are attributed to `registry` under `stage`. Returns a no-op guard when
/// the registry is disabled, so callers can install unconditionally.
/// Nested installs save and restore the outer context.
pub fn observe(registry: &Arc<MetricsRegistry>, stage: Stage) -> ContextGuard {
    if !registry.is_enabled() {
        return ContextGuard { installed: false, prev: None };
    }
    let prev = CONTEXT.with(|c| c.replace(Some(Context { registry: Arc::clone(registry), stage })));
    ContextGuard { installed: true, prev }
}

/// Restores the previous observation context on drop.
pub struct ContextGuard {
    installed: bool,
    prev: Option<Context>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.installed {
            CONTEXT.with(|c| *c.borrow_mut() = self.prev.take());
        }
    }
}

/// Switches the installed context's stage for the guard's lifetime (the
/// retry executor flips `Fetch` → `Retry` around re-attempts). A no-op
/// when no context is installed.
pub fn enter_stage(stage: Stage) -> StageGuard {
    let prev = CONTEXT
        .with(|c| c.borrow_mut().as_mut().map(|ctx| std::mem::replace(&mut ctx.stage, stage)));
    StageGuard { prev }
}

/// Restores the previous stage on drop.
pub struct StageGuard {
    prev: Option<Stage>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            CONTEXT.with(|c| {
                if let Some(ctx) = c.borrow_mut().as_mut() {
                    ctx.stage = prev;
                }
            });
        }
    }
}

/// Runs `f` with the installed context, if any. The single branch every
/// unobserved call pays.
fn with_context<R>(f: impl FnOnce(&Context) -> R) -> Option<R> {
    CONTEXT.with(|c| c.borrow().as_ref().map(f))
}

/// Reports one simulated link event — a store round trip (or a faulted
/// call that still burned wire time) of cost `sim_cost` — against
/// `store` and the current stage.
pub fn record_link_event(store: &str, sim_cost: Duration) {
    with_context(|ctx| ctx.registry.record_link_event(store, ctx.stage, sim_cost));
}

/// Reports one deterministic retry backoff pause before re-attempting a
/// round trip against `store`. Always attributed to [`Stage::Retry`].
pub fn record_backoff(store: &str, pause: Duration) {
    with_context(|ctx| ctx.registry.record_backoff(store, pause));
}

/// Reports a call rejected by `store`'s open circuit breaker.
pub fn record_breaker_rejection(store: &str) {
    with_context(|ctx| ctx.registry.record_breaker_rejection(store));
}

/// Reports one injected fault against `store` (chaos accounting).
pub fn record_fault(store: &str) {
    with_context(|ctx| ctx.registry.record_fault(store));
}

/// Reports LRU cache probes, `hits` of them hits and `misses` misses
/// (attributed to [`Stage::Cache`]).
pub fn record_cache_probes(hits: u64, misses: u64) {
    with_context(|ctx| ctx.registry.record_cache_probes(hits, misses));
}

/// Reports that the planner chose the pushdown strategy for one store
/// group against `store`.
pub fn record_pushdown_chosen(store: &str) {
    with_context(|ctx| ctx.registry.record_pushdown_chosen(store));
}

/// Reports that `store`'s connector declined a filter pushdown.
pub fn record_pushdown_declined(store: &str) {
    with_context(|ctx| ctx.registry.record_pushdown_declined(store));
}

/// Reports that a chosen pushdown errored and fell back to fetch-all
/// against `store`.
pub fn record_pushdown_fallback(store: &str) {
    with_context(|ctx| ctx.registry.record_pushdown_fallback(store));
}

/// Reports the simulated cost of one completed pushdown round trip
/// against `store` (in addition to the link event the connector
/// reports).
pub fn record_pushdown_latency(store: &str, sim_cost: Duration) {
    with_context(|ctx| ctx.registry.record_pushdown_latency(store, sim_cost));
}

/// One completed wall-clock span, as kept in the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The stage the span covered.
    pub stage: Stage,
    /// Free-form label (augmenter name, store name, …).
    pub label: String,
    /// Real elapsed wall time. **Not deterministic** — never folded into
    /// metrics snapshots.
    pub wall: Duration,
    /// Work items the span covered (keys planned, objects merged, …).
    pub items: u64,
}

/// Starts a wall-clock span against an explicit registry (used by code
/// that owns the registry, e.g. the augmenter engine). On drop the span
/// records a [`TraceEvent`] into the trace ring and bumps the stage's
/// span/item counters. Inert when the registry is disabled.
pub fn span_on(registry: &Arc<MetricsRegistry>, stage: Stage, label: &str) -> SpanGuard {
    if !registry.is_enabled() {
        return SpanGuard { inner: None };
    }
    SpanGuard {
        inner: Some(SpanInner {
            registry: Arc::clone(registry),
            stage,
            label: label.to_owned(),
            start: Instant::now(),
            items: 0,
        }),
    }
}

struct SpanInner {
    registry: Arc<MetricsRegistry>,
    stage: Stage,
    label: String,
    start: Instant,
    items: u64,
}

/// Live span handle; completes on drop.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Attributes `items` work items to this span (added to the stage's
    /// deterministic item counter when the span completes).
    pub fn add_items(&mut self, items: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.items += items;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let wall = inner.start.elapsed();
            inner.registry.complete_span(TraceEvent {
                stage: inner.stage,
                label: inner.label,
                wall,
                items: inner.items,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_registry() -> Arc<MetricsRegistry> {
        let r = Arc::new(MetricsRegistry::new());
        r.set_enabled(true);
        r
    }

    #[test]
    fn stage_names_and_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::Fetch.to_string(), "fetch");
    }

    #[test]
    fn no_context_means_no_records() {
        record_link_event("x", Duration::from_micros(1));
        record_cache_probes(1, 0);
        // Nothing to assert against — the point is that this never panics
        // and costs one thread-local read.
    }

    #[test]
    fn context_attributes_to_stage() {
        let r = enabled_registry();
        {
            let _g = observe(&r, Stage::Fetch);
            record_link_event("s", Duration::from_micros(3));
            {
                let _retry = enter_stage(Stage::Retry);
                record_link_event("s", Duration::from_micros(5));
            }
            record_link_event("s", Duration::from_micros(3));
        }
        record_link_event("s", Duration::from_micros(100)); // outside: dropped
        let snap = r.snapshot();
        let store = &snap.stores["s"];
        assert_eq!(store.sim_latency.count, 3);
        assert_eq!(snap.stages[Stage::Fetch.index()].sim_latency.count, 2);
        assert_eq!(snap.stages[Stage::Retry.index()].sim_latency.count, 1);
    }

    #[test]
    fn disabled_registry_installs_nothing() {
        let r = Arc::new(MetricsRegistry::new());
        let _g = observe(&r, Stage::Fetch);
        record_link_event("s", Duration::from_micros(3));
        assert!(r.snapshot().stores.is_empty());
    }

    #[test]
    fn nested_contexts_restore() {
        let r1 = enabled_registry();
        let r2 = enabled_registry();
        let _a = observe(&r1, Stage::Fetch);
        {
            let _b = observe(&r2, Stage::Merge);
            record_link_event("s", Duration::from_micros(1));
        }
        record_link_event("s", Duration::from_micros(1));
        assert_eq!(r1.snapshot().stores["s"].sim_latency.count, 1);
        assert_eq!(r2.snapshot().stores["s"].sim_latency.count, 1);
        assert_eq!(r2.snapshot().stages[Stage::Merge.index()].sim_latency.count, 1);
    }

    #[test]
    fn spans_record_trace_and_counters() {
        let r = enabled_registry();
        {
            let mut span = span_on(&r, Stage::Plan, "traversal");
            span.add_items(42);
        }
        let snap = r.snapshot();
        assert_eq!(snap.stages[Stage::Plan.index()].spans, 1);
        assert_eq!(snap.stages[Stage::Plan.index()].items, 42);
        let trace = r.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].stage, Stage::Plan);
        assert_eq!(trace[0].label, "traversal");
        assert_eq!(trace[0].items, 42);
    }
}
