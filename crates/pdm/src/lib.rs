//! # quepa-pdm — the Polystore Data Model (PDM)
//!
//! This crate implements the *general data model for polystores* of
//! Maccioni & Torlone, "Augmented Access for Querying and Exploring a
//! Polystore" (ICDE 2018), Section II-A.
//!
//! In PDM a **polystore** is a set of databases stored in a variety of data
//! management systems. A **database** consists of a set of **data
//! collections**; each collection is a set of **data objects**. An object is
//! a key/value pair `(k, v)` where `k` identifies the object uniquely within
//! its collection. The triple *(database, collection, key)* forms the
//! object's [`GlobalKey`], which identifies it uniquely in the whole
//! polystore.
//!
//! Objects of different databases are correlated by **p-relations**
//! ([`PRelation`]): probabilistic *identity* (`~`, an equivalence relation —
//! the two objects denote the same real-world entity) or *matching* (`≡`, a
//! reflexive symmetric relation — the two objects share some information).
//!
//! The crate also provides [`Value`], a self-contained JSON-like value model
//! (with its own text parser and printer in [`text`]) used as the common
//! in-memory representation into which every store's connector parses its
//! native objects — tuples, documents, kv entries and graph nodes alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod error;
pub mod fields;
pub mod key;
pub mod object;
pub mod ordered;
pub mod prelation;
pub mod prob;
pub mod pushdown;
pub mod text;
pub mod value;

pub use error::{PdmError, Result};
pub use fields::Fields;
pub use key::{CollectionName, DatabaseName, GlobalKey, LocalKey};
pub use object::DataObject;
pub use ordered::OrdValue;
pub use prelation::{PRelation, RelationKind};
pub use prob::Probability;
pub use pushdown::{PushClause, PushField, PushOp, Pushdown};
pub use value::Value;
