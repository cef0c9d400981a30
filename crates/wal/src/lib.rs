//! # quepa-wal — durability for the A' index
//!
//! Everything upstream of this crate is in-memory: a restart throws away
//! the A' index and forces a full re-run of the linkage pipeline. This
//! crate adds the persistence layer:
//!
//! * a **write-ahead log** ([`Wal`]) of logical index mutations
//!   ([`IndexOp`], defined in `quepa-aindex` and re-exported here: every
//!   change to a live index is one, so the log misses none) with
//!   CRC-framed records and monotonic LSNs — append, fsync (per
//!   [`SyncPolicy`]), then apply;
//! * **checkpoint cuts** ([`checkpoint`]): consistent per-shard
//!   snapshots of the sharded CSR projection, all stamped with one
//!   covered LSN. Cuts are incremental — only shards dirtied since the
//!   previous cut are re-serialized, the rest are carried over — so a
//!   shard compaction, which already rewrites exactly one shard,
//!   checkpoints at that boundary for the cost of that one shard;
//! * **recovery** ([`recover()`]): load the newest committed cut and
//!   replay the WAL tail past its LSN. Because the cut is consistent,
//!   replay sees exactly the state the original execution saw and the
//!   recovered index answers **bit-identically** to a never-crashed
//!   instance. (Staggered per-shard checkpoint LSNs cannot offer that:
//!   logical records span shards, and materialized probability products
//!   compound stored values, so replaying against a mix of older and
//!   newer shard states drifts in the last bits — the recovery property
//!   test demonstrates it.)
//!
//! ## Failure model
//!
//! A torn or bit-flipped **final** record is the expected shape of a
//! crash mid-append and is handled by truncating the tail. A CRC
//! mismatch, duplicate LSN, or non-monotonic LSN **before** the final
//! record means the log itself is damaged — that is a hard
//! [`WalError::Corrupt`] with the byte offset, never silently skipped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc;
pub mod log;
pub mod recover;

pub use checkpoint::{checkpoint_path, latest_cut, load_checkpoint, write_cut, Checkpoint};
pub use log::{Lsn, ScanOutcome, SyncPolicy, TailStatus, Wal, WalError, WalRecord};
pub use quepa_aindex::IndexOp;
pub use recover::{dir_has_state, recover, wal_path, RecoveryOptions, RecoveryReport};
