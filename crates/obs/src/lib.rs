//! `quepa-obs`: the QUEPA observability layer.
//!
//! The paper evaluates QUEPA through per-stage timing breakdowns (plan /
//! fetch / merge costs across deployments, Figs. 10–13); this crate makes
//! those breakdowns first-class in the reproduction:
//!
//! * [`span`] — a dependency-free tracing facade. Worker threads install
//!   an observation context ([`observe`]) naming the [`Stage`] they are
//!   in; leaf code (connectors, the retry executor, the fault layer)
//!   reports events through free functions ([`record_link_event`] and
//!   friends) that read the context from a thread-local. Disabled cost is
//!   one thread-local read and a branch.
//! * [`hist`] — deterministic log2 latency histograms with an
//!   associative/commutative merge, fed exclusively from the simulated
//!   network clock so snapshots are bit-identical across same-seed runs.
//! * [`registry`] — the instance-scoped [`MetricsRegistry`] and its `Eq`
//!   [`MetricsSnapshot`], folding the resilience counters (retries /
//!   timeouts / breaker trips) into the same surface.
//! * [`export`] — Prometheus text exposition and JSON renderers, surfaced
//!   by the CLI `--metrics` flag and the `METRICS` command.
//!
//! See `DESIGN.md`, "Observability model", for the determinism contract.

#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod span;

pub use export::{escape_label, json, prometheus_text};
pub use hist::{bucket_index, bucket_upper_bound, HistogramSnapshot, LatencyHistogram};
pub use registry::{
    AdmissionMetrics, CacheMetrics, IndexShardMetrics, MetricsRegistry, MetricsSnapshot,
    StageMetrics, StoreMetrics, TRACE_CAPACITY,
};
pub use span::{
    enter_stage, observe, record_backoff, record_breaker_rejection, record_cache_probes,
    record_fault, record_link_event, record_pushdown_chosen, record_pushdown_declined,
    record_pushdown_fallback, record_pushdown_latency, span_on, ContextGuard, SpanGuard, Stage,
    StageGuard, TraceEvent,
};
