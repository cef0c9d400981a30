//! # quepa-polystore — connectors, registry and the simulated deployment
//!
//! This crate is QUEPA's window onto the polystore (paper §III-A):
//!
//! * the [`Connector`] trait — "each connector is able to communicate with a
//!   specific database system by sending queries in the local language and
//!   returning the result. Data objects are parsed into an internal
//!   representation" (the PDM [`DataObject`](quepa_pdm::DataObject)). The
//!   contract is narrow: a store answers native queries and the one keyed
//!   primitive [`Connector::fetch`] (`get` / `multi_get` / `fetch_where`
//!   are provided shapes of it), and charges every round trip to its
//!   [`Link`];
//! * [`Layer`] and the one generic wrapper [`Layered`] — fault injection
//!   ([`FaultyConnector`]), the pushdown gate ([`PushdownGate`]) and test
//!   doubles state only what they do differently; forwarding is written
//!   once;
//! * concrete connectors for the four engines of the Polyphony scenario
//!   ([`connectors`]);
//! * the [`Polystore`] registry routing by database name, with the one
//!   resilient keyed call [`Polystore::fetch`];
//! * a deterministic **network cost model** ([`net`]) reproducing the
//!   paper's centralized / distributed EC2 deployments at microsecond scale
//!   (1000× shrunk), so batching and parallelism keep their first-order
//!   effects: `cost = roundtrips × RTT + objects × transfer`;
//! * per-connector [`stats`] (queries, round trips, objects moved, and the
//!   resilience counters: retries, timeouts, breaker trips), which the
//!   experiments report;
//! * the resilience layer: a deterministic, seeded [`fault`] plan that
//!   layers over any connector to inject transient errors, latency spikes,
//!   timeouts and whole-store outages from a reproducible schedule, and
//!   the [`retry`] policies (exponential backoff with deterministic
//!   jitter, per-round-trip deadlines, per-store circuit breakers) that
//!   ride them out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connector;
pub mod connectors;
pub mod error;
pub mod fault;
pub mod net;
pub mod polystore;
pub mod retry;
pub mod stats;

pub use connector::{
    Connector, FilteredFetch, Layer, Layered, Link, NoPushdown, PushdownGate, StoreKind,
};
pub use connectors::{DocumentConnector, GraphConnector, KvConnector, RelationalConnector};
pub use error::{PolyError, Result};
pub use fault::{FaultDecision, FaultLayer, FaultPlan, FaultyConnector};
pub use net::{Deployment, LatencyModel};
pub use polystore::Polystore;
pub use retry::{
    BreakerConfig, BreakerSet, BreakerState, CircuitBreaker, RetryPolicy, RoundTripReport,
};
pub use stats::{ConnectorStats, StatsSnapshot};
