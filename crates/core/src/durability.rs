//! Durable mode for the [`Quepa`] system: WAL + checkpoint cuts.
//!
//! A volatile instance loses its A' index on restart and must re-run
//! the whole linkage pipeline. A *durable* instance attaches a
//! directory holding a write-ahead log of logical index mutations
//! ([`IndexOp`]) and incremental checkpoint cuts of the sharded
//! index (see `quepa-wal`). The commit path for one mutation
//! batch is:
//!
//! 1. ask every store to flush its own pending writes
//!    ([`Polystore::commit_durable_all`]) — QUEPA's durable state never
//!    runs ahead of the stores it indexes, and a failed flush returns
//!    before anything is logged or applied;
//! 2. append the batch to the WAL (fsync per [`SyncPolicy`]);
//! 3. apply the batch to the sharded index;
//! 4. if the apply compacted a shard, write a checkpoint cut at this
//!    LSN (re-serializing only dirty shards) and truncate the WAL.
//!
//! The whole sequence holds the durability lock, so WAL order is apply
//! order. Recovery ([`Quepa::recover_durable`]) loads the newest cut,
//! replays the WAL tail, and answers **bit-identically** to the
//! never-crashed instance — the crash-point differential harness in
//! `quepa-check` pins that end to end.
//!
//! [`Quepa::apply_mutations`] is the only way to change a live index,
//! so the log misses no mutation. The one wholesale write,
//! [`Quepa::replace_index`] (`LOAD`), commits a full cut of the new
//! index under the same lock before publishing it, so a loaded index is
//! durable when the call answers and a failed load changes nothing.

use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use quepa_aindex::{AIndex, ShardedIndex, SHARD_COUNT};
use quepa_polystore::Polystore;
pub use quepa_wal::{dir_has_state, IndexOp, Lsn, RecoveryOptions, RecoveryReport, SyncPolicy};
use quepa_wal::{Wal, WalError};

use crate::config::QuepaConfig;
use crate::error::{QuepaError, Result};
use crate::system::Quepa;

/// The durability attachment of a [`Quepa`] instance.
pub struct Durability {
    dir: PathBuf,
    sync: SyncPolicy,
    state: Mutex<DurableState>,
}

struct DurableState {
    wal: Wal,
    /// Shards whose serialized form may differ from the last cut; all
    /// of them at create and after recovery.
    dirty: [bool; SHARD_COUNT],
    cuts_written: u64,
    records_appended: u64,
}

/// A point-in-time description of an instance's durability attachment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// The durable directory.
    pub dir: PathBuf,
    /// Last LSN in the log.
    pub last_lsn: Lsn,
    /// Checkpoint cuts written since attach.
    pub cuts_written: u64,
    /// WAL records appended since attach.
    pub records_appended: u64,
}

impl Durability {
    fn write_cut_locked(
        &self,
        index: &ShardedIndex,
        st: &mut DurableState,
        lsn: Lsn,
    ) -> Result<()> {
        quepa_wal::write_cut(&self.dir, lsn, |shard| {
            st.dirty[shard].then(|| index.serialize_shard(shard))
        })?;
        st.cut_committed(lsn)
    }
}

impl DurableState {
    /// Bookkeeping after a cut at `lsn` committed: truncate the WAL
    /// behind it and mark every shard clean.
    fn cut_committed(&mut self, lsn: Lsn) -> Result<()> {
        self.wal.truncate_upto(lsn).map_err(wal_err)?;
        self.dirty = [false; SHARD_COUNT];
        self.cuts_written += 1;
        Ok(())
    }
}

fn wal_err(e: WalError) -> QuepaError {
    QuepaError::Durability(e.to_string())
}

impl Quepa {
    /// Assembles a **durable** system over a fresh directory: the
    /// initial index is checkpointed at LSN 0 and every subsequent
    /// [`apply_mutations`](Quepa::apply_mutations) batch is
    /// write-ahead-logged. Fails if `dir` already holds durable state —
    /// use [`recover_durable`](Quepa::recover_durable) for that.
    pub fn create_durable(
        polystore: Polystore,
        index: AIndex,
        config: QuepaConfig,
        dir: &Path,
        sync: SyncPolicy,
    ) -> Result<Quepa> {
        if quepa_wal::dir_has_state(dir) {
            return Err(QuepaError::Durability(format!(
                "{} already holds durable state; recover instead of creating",
                dir.display()
            )));
        }
        let mut quepa = Quepa::with_config(polystore, index, config);
        std::fs::create_dir_all(dir)
            .map_err(|e| QuepaError::Durability(format!("creating {}: {e}", dir.display())))?;
        let (wal, _) = Wal::open(&quepa_wal::wal_path(dir), sync).map_err(wal_err)?;
        let durability = Durability {
            dir: dir.to_path_buf(),
            sync,
            state: Mutex::new(DurableState {
                wal,
                dirty: [true; SHARD_COUNT],
                cuts_written: 0,
                records_appended: 0,
            }),
        };
        {
            let mut st = durability.state.lock();
            durability.write_cut_locked(&quepa.index, &mut st, 0)?;
            // The initial cut is bookkeeping, not mutation traffic.
            st.cuts_written = 0;
        }
        quepa.durability = Some(durability);
        Ok(quepa)
    }

    /// Recovers a durable system from `dir`: loads the newest checkpoint
    /// cut, replays the WAL tail (truncating a torn final record), and
    /// returns the instance together with a [`RecoveryReport`]. The
    /// recovered instance answers bit-identically to one that never
    /// crashed. `options` is the fault-injection surface of the
    /// simulation harness; production recovery passes the default.
    pub fn recover_durable(
        polystore: Polystore,
        config: QuepaConfig,
        dir: &Path,
        sync: SyncPolicy,
        options: &RecoveryOptions,
    ) -> Result<(Quepa, RecoveryReport)> {
        let (index, wal, report) = quepa_wal::recover(dir, sync, options).map_err(wal_err)?;
        let mut quepa = Quepa::with_config(polystore, index, config);
        quepa.durability = Some(Durability {
            dir: dir.to_path_buf(),
            sync,
            state: Mutex::new(DurableState {
                wal,
                // The replayed tail dirtied unknown shards; the first
                // cut after recovery serializes everything fresh.
                dirty: [true; SHARD_COUNT],
                cuts_written: 0,
                records_appended: 0,
            }),
        });
        Ok((quepa, report))
    }

    /// Whether this instance has a durable directory attached.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durability attachment's current status, if any.
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        self.durability.as_ref().map(|d| {
            let st = d.state.lock();
            DurabilityStatus {
                dir: d.dir.clone(),
                last_lsn: st.wal.last_lsn(),
                cuts_written: st.cuts_written,
                records_appended: st.records_appended,
            }
        })
    }

    /// Applies a batch of logical index mutations through the commit
    /// path: store flush → WAL append → apply → checkpoint cut if the
    /// apply compacted a shard. This is the only way to change a live
    /// index (lazy deletion, promotion and scripted removals all commit
    /// [`IndexOp`]s). On a volatile instance the same code
    /// applies the batch directly (one atomic update) and returns LSN 0,
    /// so durable and volatile mutation share one code path — which is
    /// what makes the WAL-off/WAL-on benchmark comparison fair.
    pub fn apply_mutations(&self, ops: &[IndexOp]) -> Result<Lsn> {
        let mut span = quepa_obs::span_on(&self.obs, quepa_obs::Stage::Commit, "apply");
        span.add_items(ops.len() as u64);
        let Some(dur) = &self.durability else {
            self.index.apply(ops);
            return Ok(0);
        };
        let mut st = dur.state.lock();
        self.polystore.commit_durable_all()?;
        let lsn = st.wal.append(ops).map_err(wal_err)?;
        st.records_appended += ops.len() as u64;
        let report = self.index.apply(ops);
        for shard in report.dirty {
            st.dirty[shard] = true;
        }
        if !report.compacted.is_empty() {
            dur.write_cut_locked(&self.index, &mut st, lsn)?;
        }
        Ok(lsn)
    }

    /// Forces a checkpoint cut at the current LSN and truncates the WAL
    /// behind it. Returns the covered LSN, or `None` on a volatile
    /// instance.
    pub fn checkpoint_durable(&self) -> Result<Option<Lsn>> {
        let Some(dur) = &self.durability else { return Ok(None) };
        let mut st = dur.state.lock();
        let lsn = st.wal.last_lsn();
        dur.write_cut_locked(&self.index, &mut st, lsn)?;
        Ok(Some(lsn))
    }

    /// Replaces the A' index wholesale (`LOAD`). On a durable instance a
    /// full checkpoint cut of the new index at the current LSN commits
    /// under the durability lock *before* the index is published, so it
    /// is durable when the call returns; if the cut fails, the error is
    /// returned and the old index stays in place.
    pub fn replace_index(&self, index: AIndex) -> Result<()> {
        let staged = ShardedIndex::new(index);
        let Some(dur) = &self.durability else {
            self.index.replace(staged);
            return Ok(());
        };
        let mut st = dur.state.lock();
        let lsn = st.wal.last_lsn();
        quepa_wal::write_cut(&dur.dir, lsn, |shard| Some(staged.serialize_shard(shard)))?;
        // The committed cut holds the new index: publish it whatever the
        // truncation below does.
        self.index.replace(staged);
        st.cut_committed(lsn)
    }

    /// The WAL sync policy of the durable attachment, if any.
    pub fn durable_sync(&self) -> Option<SyncPolicy> {
        self.durability.as_ref().map(|d| d.sync)
    }
}
