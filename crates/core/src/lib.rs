//! # quepa-core — the augmentation operator and the QUEPA system
//!
//! This crate is the paper's primary contribution, assembled:
//!
//! * [`config`] — the augmenter family ([`AugmenterKind`]) and the knob set
//!   (`BATCH_SIZE`, `THREADS_SIZE`, `CACHE_SIZE`) a [`QuepaConfig`] bundles;
//! * [`cache`] — the LRU object cache of §IV-C (the Ehcache role);
//! * [`validator`] — §III-A's Validator: decides whether a native query can
//!   be augmented (aggregates cannot) and rewrites it when the key column
//!   is not in the projection;
//! * [`augmenter`] — the execution engine for the augmentation construct:
//!   SEQUENTIAL plus the network-efficient BATCH (§IV-A), the CPU-efficient
//!   INNER / OUTER / OUTER-BATCH / OUTER-INNER (§IV-B), all with the LRU
//!   cache in front of the polystore and the lazy-deletion signal of
//!   §III-C;
//! * [`search`] / [`explore`] — the two access methods: **augmented
//!   search** (Definition 3) and **augmented exploration** (Definition 4),
//!   the latter feeding the `D_P` path repository for p-relation promotion;
//! * [`logs`] — run logs, the ADAPTIVE optimizer's training set (§V
//!   Phase 1);
//! * [`adaptive`] — the rule-based optimizer: `T1` (C4.5) chooses the
//!   augmenter, `T2`–`T4` (REPTrees) choose the knobs, plus the HUMAN and
//!   RANDOM baselines of §VII-C;
//! * [`system`] — [`Quepa`], the facade wiring polystore + A' index +
//!   augmenters + optimizer together;
//! * [`durability`] — the optional durable mode: write-ahead logging of
//!   index mutations plus incremental checkpoint cuts, with bit-exact
//!   crash recovery (`create_durable` / `recover_durable` /
//!   `apply_mutations` / `checkpoint_durable`).
//!
//! On top of the paper, the crate carries a **resilience model**
//! ([`ResilienceConfig`]): retries with deterministic backoff, per-store
//! circuit breakers, and — under [`DegradeMode::Partial`] — partial-answer
//! degradation, where unreachable stores shrink the augmentation instead
//! of failing it and the affected keys land in
//! [`AugmentedAnswer::missing`] with a structured [`MissingReason`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod augmenter;
pub mod cache;
pub mod config;
pub mod durability;
pub mod error;
pub mod explore;
pub mod flight;
pub mod logs;
pub mod normal;
pub mod pool;
pub mod search;
pub mod snapshot;
pub mod system;
pub mod validator;

pub use adaptive::{
    AdaptiveOptimizer, HumanOptimizer, OnlineOptimizer, Optimizer, RandomOptimizer,
};
pub use augmenter::{
    AugmentationOutcome, AugmentedObject, DecisionReason, GroupDecision, GroupStrategy, MissingKey,
    MissingReason,
};
pub use cache::ObjectCache;
pub use config::{AugmenterKind, DegradeMode, QuepaConfig, ResilienceConfig};
pub use durability::{
    dir_has_state, DurabilityStatus, IndexOp, Lsn, RecoveryOptions, RecoveryReport, SyncPolicy,
};
pub use error::{QuepaError, Result};
pub use explore::ExplorationSession;
pub use flight::{FlightOutcome, FlightTable};
pub use logs::{QueryFeatures, RunLog};
pub use normal::{AnswerNormalForm, NormalEntry};
pub use pool::{pool_width, Latch, WorkerPool};
pub use quepa_obs::{MetricsRegistry, MetricsSnapshot};
pub use search::{AugmentedAnswer, ProbabilityBand};
pub use system::{Quepa, RUN_LOG_RING};
pub use validator::Validator;
