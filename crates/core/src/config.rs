//! Configurations: the augmenter family and its knobs.
//!
//! "A configuration is a combination of the augmenter in use, CACHE_SIZE
//! and, if needed, BATCH_SIZE and THREADS_SIZE" (§V). On top of the
//! paper's knobs, [`QuepaConfig`] carries a [`ResilienceConfig`]: the
//! retry/breaker policy of every key-based round trip and the degradation
//! mode deciding whether an unreachable store fails the whole
//! augmentation or shrinks it to a partial answer.

use std::fmt;

use quepa_polystore::retry::{BreakerConfig, RetryPolicy};

/// The six augmenters of §IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AugmenterKind {
    /// One direct-access query per related object (the baseline of
    /// Fig. 6(a)).
    Sequential,
    /// Groups global keys by target store and fetches each group in one
    /// query of up to `BATCH_SIZE` keys (§IV-A, Fig. 6(b)).
    Batch,
    /// Parallelizes the lookups *within* each result's augmentation
    /// (§IV-B(a), Fig. 6(c)); best for exploration, worst at scale.
    Inner,
    /// One task per result of the original answer, each fetching its
    /// related objects sequentially (§IV-B(b), Fig. 7(a)).
    Outer,
    /// Threads consume key groups while the main process keeps filling
    /// them: batching + multi-threading (§IV-B(c), Fig. 7(b)).
    OuterBatch,
    /// Splits `THREADS_SIZE` between outer and inner parallelism
    /// (§IV-B(d), Fig. 7(c)).
    OuterInner,
}

impl AugmenterKind {
    /// All augmenters, in paper order.
    pub const ALL: [AugmenterKind; 6] = [
        AugmenterKind::Sequential,
        AugmenterKind::Batch,
        AugmenterKind::Inner,
        AugmenterKind::Outer,
        AugmenterKind::OuterBatch,
        AugmenterKind::OuterInner,
    ];

    /// The display name used in experiment output (paper capitalization).
    pub fn name(self) -> &'static str {
        match self {
            AugmenterKind::Sequential => "SEQUENTIAL",
            AugmenterKind::Batch => "BATCH",
            AugmenterKind::Inner => "INNER",
            AugmenterKind::Outer => "OUTER",
            AugmenterKind::OuterBatch => "OUTER-BATCH",
            AugmenterKind::OuterInner => "OUTER-INNER",
        }
    }

    /// Parses a paper-style name (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Whether this augmenter reads `BATCH_SIZE`.
    pub fn uses_batching(self) -> bool {
        matches!(self, AugmenterKind::Batch | AugmenterKind::OuterBatch)
    }

    /// Whether this augmenter reads `THREADS_SIZE`.
    pub fn uses_threads(self) -> bool {
        !matches!(self, AugmenterKind::Sequential | AugmenterKind::Batch)
    }
}

impl fmt::Display for AugmenterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a store stays unreachable after every allowed
/// attempt (or behind an open circuit breaker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Propagate the error: the whole augmentation fails (the paper's
    /// implicit behaviour, and the default).
    #[default]
    FailFast,
    /// Degrade to a partial answer: the affected keys land in the
    /// answer's `missing` list with an
    /// [`Unreachable`](crate::augmenter::MissingReason::Unreachable)
    /// reason and the rest of the augmentation completes.
    Partial,
}

/// The resilience policy of every key-based round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceConfig {
    /// Retry/backoff/deadline policy per round trip.
    pub retry: RetryPolicy,
    /// Per-store circuit-breaker knobs (`trip_after == 0` disables).
    pub breaker: BreakerConfig,
    /// Fail fast or degrade to a partial answer.
    pub degrade: DegradeMode,
}

impl ResilienceConfig {
    /// True when the whole layer is pass-through: one attempt, no
    /// deadline, no breaker, fail-fast — the augmenters then skip the
    /// resilience machinery entirely (the happy path pays ~nothing).
    pub fn is_trivial(&self) -> bool {
        self.retry.is_trivial()
            && self.breaker.is_disabled()
            && self.degrade == DegradeMode::FailFast
    }

    /// A production-shaped policy: standard retries, a breaker tripping
    /// after 5 consecutive failures, partial-answer degradation.
    pub fn resilient() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::standard(),
            breaker: BreakerConfig { trip_after: 5, cooldown_calls: 16 },
            degrade: DegradeMode::Partial,
        }
    }

    /// Clamps the knobs into meaningful ranges.
    #[must_use]
    pub fn sanitized(mut self) -> Self {
        self.retry = self.retry.sanitized();
        self
    }
}

/// A full QUEPA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuepaConfig {
    /// Which augmenter executes the augmentation.
    pub augmenter: AugmenterKind,
    /// Max keys per batched query (BATCH/OUTER-BATCH).
    pub batch_size: usize,
    /// Max simultaneous worker threads (concurrent augmenters).
    pub threads_size: usize,
    /// Max objects in the LRU cache.
    pub cache_size: usize,
    /// Retry, circuit-breaker and degradation policy.
    pub resilience: ResilienceConfig,
    /// Whether filtered augmentations may push the predicate down to
    /// connectors that support it (the planner still decides per store
    /// group; unfiltered queries are unaffected). On by default —
    /// answers are bit-identical either way, pushdown only changes the
    /// wire traffic.
    pub pushdown: bool,
    /// Whether the observability layer records (stage-scoped spans,
    /// per-store/per-stage latency histograms). Off by default, where
    /// it costs one TLS read and a branch per event; what switching it
    /// on costs the cold hot path is held by `bench_gate`'s
    /// `observability-overhead` row (enabled over disabled, paired).
    pub observability: bool,
}

impl Default for QuepaConfig {
    fn default() -> Self {
        QuepaConfig {
            augmenter: AugmenterKind::OuterBatch,
            batch_size: 64,
            threads_size: 4,
            cache_size: 4096,
            resilience: ResilienceConfig::default(),
            pushdown: true,
            observability: false,
        }
    }
}

impl QuepaConfig {
    /// A configuration using the given augmenter and default knobs.
    pub fn with_augmenter(augmenter: AugmenterKind) -> Self {
        QuepaConfig { augmenter, ..Default::default() }
    }

    /// Clamps the knobs into sane ranges (at least 1 each).
    #[must_use]
    pub fn sanitized(mut self) -> Self {
        self.batch_size = self.batch_size.max(1);
        self.threads_size = self.threads_size.max(1);
        // cache_size 0 is legal: it disables caching.
        self.resilience = self.resilience.sanitized();
        self
    }
}

impl fmt::Display for QuepaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.augmenter)?;
        let mut first = true;
        if self.augmenter.uses_batching() {
            write!(f, "batch={}", self.batch_size)?;
            first = false;
        }
        if self.augmenter.uses_threads() {
            write!(f, "{}threads={}", if first { "" } else { ", " }, self.threads_size)?;
            first = false;
        }
        write!(f, "{}cache={}", if first { "" } else { ", " }, self.cache_size)?;
        if !self.resilience.is_trivial() {
            write!(f, ", attempts={}", self.resilience.retry.max_attempts)?;
            if !self.resilience.breaker.is_disabled() {
                write!(f, ", breaker={}", self.resilience.breaker.trip_after)?;
            }
            if self.resilience.degrade == DegradeMode::Partial {
                f.write_str(", partial")?;
            }
        }
        if !self.pushdown {
            f.write_str(", no-pushdown")?;
        }
        if self.observability {
            f.write_str(", obs")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for k in AugmenterKind::ALL {
            assert_eq!(AugmenterKind::parse(k.name()), Some(k));
        }
        assert_eq!(AugmenterKind::parse("outer-batch"), Some(AugmenterKind::OuterBatch));
        assert_eq!(AugmenterKind::parse("nope"), None);
    }

    #[test]
    fn knob_usage() {
        assert!(!AugmenterKind::Sequential.uses_batching());
        assert!(!AugmenterKind::Sequential.uses_threads());
        assert!(AugmenterKind::Batch.uses_batching());
        assert!(!AugmenterKind::Batch.uses_threads());
        assert!(AugmenterKind::OuterBatch.uses_batching());
        assert!(AugmenterKind::OuterBatch.uses_threads());
        assert!(AugmenterKind::Inner.uses_threads());
    }

    #[test]
    fn sanitize_floors_knobs() {
        let c = QuepaConfig {
            augmenter: AugmenterKind::Batch,
            batch_size: 0,
            threads_size: 0,
            cache_size: 0,
            resilience: ResilienceConfig::default(),
            pushdown: true,
            observability: false,
        }
        .sanitized();
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.threads_size, 1);
        assert_eq!(c.cache_size, 0, "cache may be disabled");
    }

    #[test]
    fn display_shows_relevant_knobs() {
        let c = QuepaConfig::with_augmenter(AugmenterKind::Sequential);
        assert_eq!(c.to_string(), "SEQUENTIAL(cache=4096)");
        let c = QuepaConfig::with_augmenter(AugmenterKind::OuterBatch);
        assert!(c.to_string().contains("batch=64"));
        assert!(c.to_string().contains("threads=4"));
    }

    #[test]
    fn default_resilience_is_trivial() {
        let r = ResilienceConfig::default();
        assert!(r.is_trivial(), "the default must keep the happy path free");
        assert!(!ResilienceConfig::resilient().is_trivial());
        let c = QuepaConfig::default();
        assert!(!c.to_string().contains("attempts"), "trivial resilience stays silent: {c}");
    }

    #[test]
    fn display_shows_resilience_when_configured() {
        let c = QuepaConfig {
            resilience: ResilienceConfig::resilient(),
            ..QuepaConfig::with_augmenter(AugmenterKind::Sequential)
        };
        let s = c.to_string();
        assert!(s.contains("attempts=4"), "{s}");
        assert!(s.contains("breaker=5"), "{s}");
        assert!(s.contains("partial"), "{s}");
    }

    #[test]
    fn display_flags_observability() {
        let c = QuepaConfig::default();
        assert!(!c.to_string().contains("obs"), "disabled observability stays silent: {c}");
        let c = QuepaConfig { observability: true, ..QuepaConfig::default() };
        assert!(c.to_string().ends_with(", obs)"), "{c}");
    }

    #[test]
    fn display_flags_disabled_pushdown() {
        let c = QuepaConfig::default();
        assert!(c.pushdown, "pushdown is on by default");
        assert!(!c.to_string().contains("pushdown"), "default pushdown stays silent: {c}");
        let c = QuepaConfig { pushdown: false, observability: true, ..QuepaConfig::default() };
        assert!(c.to_string().ends_with(", no-pushdown, obs)"), "{c}");
    }

    #[test]
    fn sanitize_floors_retry_attempts() {
        let c = QuepaConfig {
            resilience: ResilienceConfig {
                retry: quepa_polystore::RetryPolicy { max_attempts: 0, ..Default::default() },
                ..ResilienceConfig::default()
            },
            ..QuepaConfig::default()
        }
        .sanitized();
        assert_eq!(c.resilience.retry.max_attempts, 1);
    }
}
