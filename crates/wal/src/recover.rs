//! Recovery: newest consistent cut + WAL tail → a live index.
//!
//! The durable directory holds one WAL (`quepa.wal`) and checkpoint
//! cuts (`ckpt-<lsn>/`, see [`crate::checkpoint`]). Recovery:
//!
//! 1. find the newest committed cut (none → start from the empty
//!    index at LSN 0);
//! 2. load all of its shard files into one index with raw, bit-exact
//!    insertion (each cross-shard edge re-applies idempotently);
//! 3. open the WAL (truncating a torn tail) and replay every record
//!    with `lsn > cut lsn` through the full logical-op semantics, in
//!    LSN order.
//!
//! Because the cut is a consistent snapshot at exactly its LSN, the
//! replayed records see the same state the original execution saw, so
//! the recovered index answers bit-identically to a never-crashed
//! instance — pinned by this crate's recovery property test.

use std::path::{Path, PathBuf};

use quepa_aindex::{AIndex, SHARD_COUNT};

use crate::checkpoint::{apply_body, checkpoint_path, latest_cut, load_checkpoint};
use crate::log::{Lsn, SyncPolicy, TailStatus, Wal, WalError};

/// The WAL file inside a durable directory.
pub const WAL_FILE: &str = "quepa.wal";

/// The WAL path inside `dir`.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Whether `dir` already holds durable state (a WAL or any cut).
pub fn dir_has_state(dir: &Path) -> bool {
    wal_path(dir).exists() || matches!(latest_cut(dir), Ok(Some(_)))
}

/// Knobs for [`recover`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Fault-injection hook: silently drop this many records from the
    /// end of the replayable WAL tail. `0` (the default) is correct
    /// recovery; anything else exists so the simulation harness can
    /// prove it would catch a recovery bug of exactly this shape.
    pub skip_wal_tail: usize,
}

/// What recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shard files loaded from the cut (0 or [`SHARD_COUNT`]).
    pub checkpoints_loaded: usize,
    /// The cut's LSN (0 if there was no cut) — replay starts after it.
    pub checkpoint_lsn: Lsn,
    /// WAL records replayed.
    pub replayed: usize,
    /// Whether a torn final record was truncated off the WAL.
    pub torn_tail: bool,
    /// The last LSN in the log after recovery.
    pub last_lsn: Lsn,
}

/// Recovers the index from a durable directory and returns it together
/// with the reopened WAL (positioned for appending) and a report.
pub fn recover(
    dir: &Path,
    sync: SyncPolicy,
    options: &RecoveryOptions,
) -> Result<(AIndex, Wal, RecoveryReport), WalError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| WalError::Io { path: dir.to_path_buf(), source: e })?;
    let mut index = AIndex::new();
    let mut loaded = 0;
    let cut_lsn = match latest_cut(dir)? {
        Some((lsn, cut_dir)) => {
            for shard in 0..SHARD_COUNT {
                let ckpt = load_checkpoint(&cut_dir, shard)?;
                apply_body(&ckpt.body, &mut index).map_err(|message| WalError::Corrupt {
                    path: checkpoint_path(&cut_dir, shard),
                    offset: 0,
                    message,
                })?;
                loaded += 1;
            }
            lsn
        }
        None => 0,
    };
    let (mut wal, scan) = Wal::open(&wal_path(dir), sync)?;
    // A committed cut empties the log, so it may hold nothing past the
    // cut; never re-issue LSNs the cut covers.
    wal.advance_past(cut_lsn);
    let torn = matches!(scan.tail, TailStatus::TornTruncated { .. });
    let mut tail: Vec<_> = scan.records.into_iter().filter(|r| r.lsn > cut_lsn).collect();
    // Fault-injection hook (see RecoveryOptions::skip_wal_tail).
    tail.truncate(tail.len().saturating_sub(options.skip_wal_tail));
    for record in &tail {
        record.op.apply(&mut index);
    }
    let report = RecoveryReport {
        checkpoints_loaded: loaded,
        checkpoint_lsn: cut_lsn,
        replayed: tail.len(),
        torn_tail: torn,
        last_lsn: wal.last_lsn(),
    };
    Ok((index, wal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_cut;
    use quepa_aindex::{IndexOp, ShardedIndex};
    use quepa_pdm::{GlobalKey, Probability};

    fn k(s: &str) -> GlobalKey {
        s.parse().unwrap()
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("quepa-recover-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn ops() -> Vec<IndexOp> {
        vec![
            IndexOp::InsertIdentity { a: k("db0.c.a"), b: k("db1.c.b"), p: Probability::of(0.9) },
            IndexOp::InsertMatching { a: k("db0.c.a"), b: k("db2.c.m"), p: Probability::of(0.7) },
            IndexOp::InsertIdentity { a: k("db1.c.b"), b: k("db3.c.c"), p: Probability::of(0.8) },
            IndexOp::RemoveObject { key: k("db2.c.m") },
        ]
    }

    #[test]
    fn empty_dir_recovers_empty() {
        let tmp = TempDir::new("empty");
        let (index, wal, report) =
            recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions::default()).unwrap();
        assert_eq!(index.node_count(), 0);
        assert_eq!(wal.last_lsn(), 0);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.checkpoints_loaded, 0);
    }

    #[test]
    fn wal_only_recovery_matches_replay() {
        let tmp = TempDir::new("wal-only");
        let all = ops();
        let (mut wal, _) = Wal::open(&wal_path(&tmp.0), SyncPolicy::Buffered).unwrap();
        wal.append(&all).unwrap();
        drop(wal);
        let (index, _, report) =
            recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions::default()).unwrap();
        let mut want = AIndex::new();
        for op in &all {
            op.apply(&mut want);
        }
        assert_eq!(report.replayed, all.len());
        assert_eq!(index.stats(), want.stats());
        assert!(!index.contains(&k("db2.c.m")));
    }

    #[test]
    fn skip_wal_tail_drops_records() {
        let tmp = TempDir::new("skip-tail");
        let all = ops();
        let (mut wal, _) = Wal::open(&wal_path(&tmp.0), SyncPolicy::Buffered).unwrap();
        wal.append(&all).unwrap();
        drop(wal);
        let (index, _, report) =
            recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions { skip_wal_tail: 1 }).unwrap();
        assert_eq!(report.replayed, all.len() - 1);
        // The skipped record was the removal: the object wrongly survives.
        assert!(index.contains(&k("db2.c.m")));
    }

    #[test]
    fn cut_plus_tail() {
        let tmp = TempDir::new("cut-tail");
        let all = ops();
        let (mut wal, _) = Wal::open(&wal_path(&tmp.0), SyncPolicy::Buffered).unwrap();
        wal.append(&all[..2]).unwrap();
        // A consistent cut of the state after two ops, serialized the
        // way a durable instance would serialize it.
        let sharded = ShardedIndex::new(AIndex::new());
        for op in &all[..2] {
            sharded.apply(std::slice::from_ref(op));
        }
        write_cut(&tmp.0, 2, |shard| Some(sharded.serialize_shard(shard))).unwrap();
        wal.append(&all[2..]).unwrap();
        drop(wal);
        let (index, _, report) =
            recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.checkpoint_lsn, 2);
        assert_eq!(report.checkpoints_loaded, SHARD_COUNT);
        assert_eq!(report.replayed, 2);
        let mut want = AIndex::new();
        for op in &all {
            op.apply(&mut want);
        }
        assert_eq!(index.node_count(), want.node_count());
        assert_eq!(index.edge_count(), want.edge_count());
    }

    /// Regression: keys that end in Unicode whitespace (written
    /// unescaped, last on their line) lost it when a cut was loaded.
    #[test]
    fn keys_ending_in_unicode_whitespace_survive_a_cut() {
        let tmp = TempDir::new("unicode-ws");
        let sharded = ShardedIndex::new(AIndex::new());
        for (i, c) in
            ['\u{0b}', '\u{0c}', '\u{85}', '\u{a0}', '\u{2028}', '\u{3000}'].iter().enumerate()
        {
            sharded.apply(&[IndexOp::InsertMatching {
                a: k(&format!("db0.c.a{i}")),
                b: k(&format!("db1.c.b{c}")),
                p: Probability::of(0.6),
            }]);
        }
        write_cut(&tmp.0, 0, |shard| Some(sharded.serialize_shard(shard))).unwrap();
        let (index, _, _) =
            recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions::default()).unwrap();
        let keys = |ix: &AIndex| {
            let mut keys: Vec<GlobalKey> = ix.keys().cloned().collect();
            keys.sort();
            keys
        };
        assert_eq!(keys(&index), keys(&sharded.snapshot()));
    }

    /// Regression: a cut that emptied the WAL must not make
    /// the reopened log re-issue covered LSNs — records appended after
    /// such a restart must survive the *next* recovery.
    #[test]
    fn appends_after_a_covered_restart_survive_the_next_recovery() {
        let tmp = TempDir::new("covered-restart");
        let all = ops();
        let (mut wal, _) = Wal::open(&wal_path(&tmp.0), SyncPolicy::Buffered).unwrap();
        wal.append(&all[..2]).unwrap();
        let sharded = ShardedIndex::new(AIndex::new());
        for op in &all[..2] {
            sharded.apply(std::slice::from_ref(op));
        }
        write_cut(&tmp.0, 2, |shard| Some(sharded.serialize_shard(shard))).unwrap();
        wal.clear().unwrap();
        drop(wal);

        // Restart: the log is empty, the cut covers LSNs 1..=2.
        let (_, mut wal, report) =
            recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(wal.last_lsn(), 2, "the LSN clock continues past the cut");
        let lsn = wal.append(&all[2..]).unwrap();
        assert!(lsn > 2, "fresh records get LSNs beyond the cut, got {lsn}");
        drop(wal);

        let (index, _, report) =
            recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.replayed, 2, "post-restart records must replay");
        let mut want = AIndex::new();
        for op in &all {
            op.apply(&mut want);
        }
        assert_eq!(index.node_count(), want.node_count());
        assert!(!index.contains(&k("db2.c.m")));
    }

    #[test]
    fn dir_has_state_sees_wal_and_cuts() {
        let tmp = TempDir::new("has-state");
        assert!(!dir_has_state(&tmp.0));
        write_cut(&tmp.0, 0, |_| Some(String::new())).unwrap();
        assert!(dir_has_state(&tmp.0));
    }
}
