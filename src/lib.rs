//! # QUEPA — augmented access for querying and exploring a polystore
//!
//! Umbrella crate re-exporting the whole workspace. See the README for a
//! tour and `DESIGN.md` for the system inventory. The crates are:
//!
//! * [`pdm`] — the polystore data model (values, global keys, p-relations);
//! * [`relstore`], [`docstore`], [`kvstore`], [`graphstore`] — the four
//!   storage engines of the Polyphony scenario, each with its native query
//!   language;
//! * [`polystore`] — connectors, the store registry and the simulated
//!   deployment (network latency, statistics);
//! * [`aindex`] — the A' index of p-relations;
//! * [`linkage`] — the Collector (record linkage: blocking + matching);
//! * [`ml`] — decision/regression tree learners for the adaptive optimizer;
//! * [`obs`] — the observability layer: stage-scoped spans, deterministic
//!   latency histograms, Prometheus/JSON export;
//! * [`core`] — the augmentation operator, augmented search/exploration,
//!   the augmenter family and the adaptive optimizer;
//! * [`baselines`] — middleware competitor simulators (Metamodel, Talend,
//!   ArangoDB in NAT/AUG variants);
//! * [`workload`] — the Polyphony data generator and experiment configs;
//! * [`serve`] — the serving front end: the one command interpreter
//!   ([`cli`], what the REPL and the wire both speak), length-prefixed
//!   wire protocol, admission control, and the blocking client.

pub use quepa_aindex as aindex;
pub use quepa_baselines as baselines;
pub use quepa_core as core;
pub use quepa_docstore as docstore;
pub use quepa_graphstore as graphstore;
pub use quepa_kvstore as kvstore;
pub use quepa_linkage as linkage;
pub use quepa_ml as ml;
pub use quepa_obs as obs;
pub use quepa_pdm as pdm;
pub use quepa_polystore as polystore;
pub use quepa_relstore as relstore;
pub use quepa_serve as serve;
pub use quepa_serve::cli;
pub use quepa_workload as workload;
