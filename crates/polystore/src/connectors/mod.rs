//! Concrete connectors for the four engines of the Polyphony scenario.
//!
//! Every connector owns its engine behind a `parking_lot::RwLock` (reads
//! dominate; the concurrent augmenters issue lookups from many threads)
//! and a [`Link`](crate::connector::Link), which every round trip is
//! charged to: the connectors translate, the link pays and counts.

mod document;
mod graph;
mod kv;
mod relational;

pub use document::DocumentConnector;
pub use graph::GraphConnector;
pub use kv::KvConnector;
pub use relational::RelationalConnector;
