//! # quepa-workload — the Polyphony workload generator
//!
//! Builds the experimental polystore of §VII-A at configurable scale:
//!
//! * [`gen`] — a deterministic music-domain data generator standing in for
//!   the Last.fm/MusicBrainz data (artists, albums, songs + synthetic
//!   customers, sales and discounts, like the paper's synthetic parts);
//! * [`builder`] — assembles the four-store polystore (document
//!   `catalogue`, relational `transactions`, graph `similar`, key-value
//!   `discount`), replicates the non-Redis stores to reach 4/7/10/13
//!   databases (the paper's scaling axis), and wires the A' index with
//!   uniform density so that "queries of the same size return answers with
//!   a comparable number of data objects";
//! * [`queries`] — the §VII-A(b) test bed: per-store native-language
//!   queries with result sizes 100…10 000;
//! * [`experiments`] — the parameter grids of every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod experiments;
pub mod gen;
pub mod hostile;
pub mod queries;

pub use builder::{BuiltPolystore, WorkloadConfig, OBJECTS_PER_ALBUM};
pub use gen::MusicData;
pub use hostile::{HostileRelation, HostileTopology, TopologyFamily};
pub use queries::{
    holdout_query_set, query_for, standard_query_set, zipf_query_stream, zipf_window_query,
    TestQuery, ZipfSampler,
};
