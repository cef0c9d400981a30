//! # quepa-aindex — the A' index
//!
//! The A' index (paper §III-B) is "a graph index where each global-key is
//! represented by one node, and there are two types of edges connecting
//! global-keys, representing *identity* and *matching* p-relations", each
//! carrying its probability.
//!
//! This crate implements:
//!
//! * the graph, held once: [`SHARD_COUNT`] hash shards, each a shared
//!   packed base plus a small overlay of recent edits ([`shard`]);
//! * the graph's write side ([`AIndex`], the ledger), which edits those
//!   shard states, with insertion that
//!   **materializes identity transitivity** (Example 7: inserting
//!   `a ~0.8 b` when `b ~0.85 c` exists also materializes `a ~0.68 c`) and
//!   **enforces the Consistency Condition**
//!   (`o₁ ≡ o₂ ∧ o₂ ∼ o₃ ⇒ o₁ ≡ o₃`, §II-B);
//! * the **augmentation primitive**: the level-*n* neighbourhood of
//!   [`Definition 2/3`](crate::shard::IndexView::augment) with
//!   path-product probabilities (best path wins), implemented once, over
//!   the read side ([`IndexView`]): the shard states a [`ShardedIndex`]
//!   publishes per batch under concurrent mutation;
//! * the **logical mutations** ([`IndexOp`]): insertions, lazy deletion,
//!   relation deletion and promotion, each with its `apply` and one-line
//!   text codec. A batch of them ([`ShardedIndex::apply`]) is the only
//!   way to change a live index, and the same ops are the write-ahead
//!   log's records (`quepa-wal`);
//! * **lazy deletion** of vanished objects and deletion of single
//!   p-relations (§III-C(b)); as in the paper, the relations inferred from
//!   a deleted one are kept (there is no lineage);
//! * **promotion of p-relations** (§III-D(a)): the `D_P` repository of
//!   traversed exploration paths and the threshold rule that turns a
//!   frequently walked path into a shortcut matching edge whose probability
//!   is the average along the path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod op;
pub mod promote;
pub mod serial;
pub mod shard;

pub use index::{AIndex, AugmentedKey, EdgeInfo, EdgeOrigin, IndexStats};
pub use op::IndexOp;
pub use promote::{PathRepository, PromotionConfig};
pub use serial::SerialError;
pub use shard::{IndexView, ShardIndexStats, ShardedIndex, UpdateReport, SHARD_COUNT};
