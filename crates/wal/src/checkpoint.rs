//! Consistent-cut checkpoints of the sharded A' index.
//!
//! A checkpoint is a **cut**: a directory `ckpt-<lsn>` holding one file
//! per shard, all describing the index state at the *same* LSN. Cuts
//! must be consistent because logical WAL records are not confined to
//! one shard — an insert materializes inferred edges across shards, and
//! its probability products compound stored values, so replaying a
//! record against a mix of shard states from different LSNs produces
//! answers that differ from the never-crashed execution in the last
//! bits of derived probabilities (this crate's recovery property test
//! fails visibly if you try). Recovery therefore loads exactly one cut
//! and replays strictly past its LSN.
//!
//! Cuts are still **incremental**: a new cut re-serializes only the
//! shards dirtied since the previous cut and copies the untouched
//! shards' files from it — a compaction-triggered cut rewrites exactly
//! the compacted shard. The cut is assembled in a `.tmp` directory and
//! committed with an atomic rename; older cuts are removed only after
//! the commit, so a crash mid-checkpoint always leaves a complete
//! previous cut behind. A cut rewritten at its own LSN (a `LOAD` with
//! no record since the last cut) is first moved aside to `ckpt-<lsn>.old`,
//! which recovery still loads until the new one is in place.
//!
//! Each shard file:
//!
//! ```text
//! quepa-ckpt v1
//! shard <i>
//! lsn <serialized-at>
//! crc <crc32 of the body, hex>
//! node <key>
//! edge <kind> <origin> <p> <a> <b>
//! ```
//!
//! A copied file keeps its original `lsn` stamp (when the shard content
//! was last serialized); the cut's own LSN lives in the directory name
//! and is what recovery replays from. The body is the `node`/`edge`
//! line format of `quepa_aindex::serial` (an inferred edge is written,
//! and reloads, as `direct`: the index keeps no lineage).
//!
//! A fresh shard file costs its bytes: the body is serialized once, its
//! CRC taken once, and the header and then the body are written straight
//! from their buffers — the body is never copied into a second one — and
//! the file gets one `sync_data`. The cut is written serially; measured
//! on 2 vCPUs, fanning the shards out over threads did not shorten it and
//! slowed the readers that ran beside it.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use quepa_aindex::serial::apply_lines;
use quepa_aindex::{AIndex, SHARD_COUNT};

use crate::crc::crc32;
use crate::log::{Lsn, WalError};

const HEADER: &str = "quepa-ckpt v1";
const CUT_PREFIX: &str = "ckpt-";
const ASIDE: &str = ".old";

/// A loaded shard checkpoint file.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Which shard this covers.
    pub shard: usize,
    /// The LSN at which this shard's content was serialized (≤ the
    /// owning cut's LSN; the shard had no changes in between).
    pub lsn: Lsn,
    /// `node`/`edge` lines (the shard's serialized live state).
    pub body: String,
}

/// The shard file inside a cut directory.
pub fn checkpoint_path(cut_dir: &Path, shard: usize) -> PathBuf {
    cut_dir.join(format!("shard-{shard:02}.ckpt"))
}

fn cut_dir_name(lsn: Lsn) -> String {
    format!("{CUT_PREFIX}{lsn:020}")
}

fn io_err(path: &Path, source: std::io::Error) -> WalError {
    WalError::Io { path: path.to_path_buf(), source }
}

/// The newest committed cut in `dir`, as `(cut lsn, cut directory)`.
pub fn latest_cut(dir: &Path) -> Result<Option<(Lsn, PathBuf)>, WalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir, e)),
    };
    // Ranked by (lsn, not aside): a committed cut moved aside by a
    // same-LSN rewrite still counts until its replacement is in place.
    let mut best: Option<((Lsn, bool), PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(raw) = name.strip_prefix(CUT_PREFIX) else { continue };
        if raw.ends_with(".tmp") {
            continue; // an uncommitted cut a crash left behind
        }
        let (raw, aside) = raw.strip_suffix(ASIDE).map_or((raw, false), |r| (r, true));
        let Ok(lsn) = raw.parse::<Lsn>() else { continue };
        let rank = (lsn, !aside);
        if best.as_ref().map(|(b, _)| rank > *b).unwrap_or(true) {
            best = Some((rank, entry.path()));
        }
    }
    Ok(best.map(|((lsn, _), path)| (lsn, path)))
}

/// Writes one shard file into a cut directory under assembly.
pub fn write_shard_file(
    cut_dir: &Path,
    shard: usize,
    lsn: Lsn,
    body: &str,
) -> Result<(), WalError> {
    let path = checkpoint_path(cut_dir, shard);
    let header =
        format!("{HEADER}\nshard {shard}\nlsn {lsn}\ncrc {:08x}\n", crc32(body.as_bytes()));
    let mut file = std::fs::File::create(&path).map_err(|e| io_err(&path, e))?;
    // The body goes to the file from the caller's buffer, never copied.
    file.write_all(header.as_bytes()).map_err(|e| io_err(&path, e))?;
    file.write_all(body.as_bytes()).map_err(|e| io_err(&path, e))?;
    file.sync_data().map_err(|e| io_err(&path, e))?;
    Ok(())
}

/// Writes a consistent cut at `lsn`. For each shard, `shard_body`
/// returns `Some(body)` to serialize fresh content or `None` to reuse
/// the shard's file from the previous cut (sound only when the shard
/// had no changes since — the caller tracks dirtiness). Commits by
/// renaming the assembly directory into place, then garbage-collects
/// older cuts. Returns the committed cut directory.
pub fn write_cut<F>(dir: &Path, lsn: Lsn, mut shard_body: F) -> Result<PathBuf, WalError>
where
    F: FnMut(usize) -> Option<String>,
{
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let previous = latest_cut(dir)?;
    let tmp = dir.join(format!("{}.tmp", cut_dir_name(lsn)));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| io_err(&tmp, e))?;
    for shard in 0..SHARD_COUNT {
        match shard_body(shard) {
            Some(body) => write_shard_file(&tmp, shard, lsn, &body)?,
            None => {
                let (_, prev_dir) = previous.as_ref().ok_or_else(|| WalError::Corrupt {
                    path: tmp.clone(),
                    offset: 0,
                    message: format!(
                        "cut at lsn {lsn} reuses shard {shard} but there is no previous cut"
                    ),
                })?;
                let from = checkpoint_path(prev_dir, shard);
                let to = checkpoint_path(&tmp, shard);
                std::fs::copy(&from, &to).map_err(|e| io_err(&from, e))?;
            }
        }
    }
    let committed = dir.join(cut_dir_name(lsn));
    if committed.exists() {
        // A cut at the same LSN (a rewrite with no record in between):
        // move it aside rather than delete it, so a crash before the
        // rename below still finds it.
        let aside = dir.join(format!("{}{ASIDE}", cut_dir_name(lsn)));
        let _ = std::fs::remove_dir_all(&aside);
        std::fs::rename(&committed, &aside).map_err(|e| io_err(&aside, e))?;
    }
    std::fs::rename(&tmp, &committed).map_err(|e| io_err(&committed, e))?;
    // GC: older cuts and stale assemblies are now superseded.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(CUT_PREFIX) && name != cut_dir_name(lsn) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    Ok(committed)
}

/// Loads one shard file from a cut directory. A missing or damaged
/// file in a committed cut is a hard error — recovering without it
/// would resurrect deleted objects.
pub fn load_checkpoint(cut_dir: &Path, shard: usize) -> Result<Checkpoint, WalError> {
    let path = checkpoint_path(cut_dir, shard);
    let corrupt = |message: String| WalError::Corrupt { path: path.clone(), offset: 0, message };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(corrupt(format!("committed cut is missing shard {shard}")));
        }
        Err(e) => return Err(io_err(&path, e)),
    };
    let mut lines = text.splitn(5, '\n');
    match lines.next() {
        Some(h) if h == HEADER => {}
        other => return Err(corrupt(format!("bad checkpoint header {other:?}"))),
    }
    let field = |lines: &mut std::str::SplitN<'_, char>, tag: &str| -> Result<String, WalError> {
        let line = lines.next().ok_or_else(|| corrupt(format!("missing {tag} line")))?;
        line.strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_owned)
            .ok_or_else(|| corrupt(format!("expected `{tag} …`, got {line:?}")))
    };
    let found_shard: usize =
        field(&mut lines, "shard")?.parse().map_err(|_| corrupt("bad shard number".into()))?;
    if found_shard != shard {
        return Err(corrupt(format!("file names shard {found_shard}, expected {shard}")));
    }
    let lsn: Lsn = field(&mut lines, "lsn")?.parse().map_err(|_| corrupt("bad lsn".into()))?;
    let crc = u32::from_str_radix(&field(&mut lines, "crc")?, 16)
        .map_err(|_| corrupt("bad crc field".into()))?;
    let body = lines.next().unwrap_or("").to_owned();
    if crc32(body.as_bytes()) != crc {
        return Err(corrupt(format!("checkpoint body CRC mismatch (shard {shard}, lsn {lsn})")));
    }
    Ok(Checkpoint { shard, lsn, body })
}

/// Applies a checkpoint body to an index under construction, returning
/// how many lines were applied. Raw insertion keeps probabilities
/// bit-exact; each cross-shard edge appears in both endpoints' files
/// and re-applies idempotently.
pub fn apply_body(body: &str, index: &mut AIndex) -> Result<usize, String> {
    apply_lines(body, 1, index).map_err(|e| format!("checkpoint body: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("quepa-ckpt-test-{}-{tag}", std::process::id()));
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

    fn trivial_cut(dir: &Path, lsn: Lsn, marker: &str) -> PathBuf {
        write_cut(dir, lsn, |shard| {
            Some(if shard == 0 { format!("node {marker}.c.1\n") } else { String::new() })
        })
        .unwrap()
    }

    #[test]
    fn cut_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let cut = trivial_cut(&tmp.0, 17, "a");
        let (lsn, dir) = latest_cut(&tmp.0).unwrap().unwrap();
        assert_eq!(lsn, 17);
        assert_eq!(dir, cut);
        let ckpt = load_checkpoint(&cut, 0).unwrap();
        assert_eq!((ckpt.shard, ckpt.lsn), (0, 17));
        let mut ix = AIndex::new();
        assert_eq!(apply_body(&ckpt.body, &mut ix).unwrap(), 1);
        assert!(ix.contains(&"a.c.1".parse().unwrap()));
    }

    #[test]
    fn newer_cut_supersedes_and_gc_runs() {
        let tmp = TempDir::new("supersede");
        let old = trivial_cut(&tmp.0, 5, "a");
        let _new = trivial_cut(&tmp.0, 9, "b");
        let (lsn, dir) = latest_cut(&tmp.0).unwrap().unwrap();
        assert_eq!(lsn, 9);
        assert!(!old.exists(), "older cut must be garbage-collected");
        let ckpt = load_checkpoint(&dir, 0).unwrap();
        assert!(ckpt.body.contains("b.c.1"));
    }

    #[test]
    fn reused_shard_is_copied_from_previous_cut() {
        let tmp = TempDir::new("reuse");
        trivial_cut(&tmp.0, 3, "a");
        let cut = write_cut(&tmp.0, 8, |shard| (shard != 0).then(String::new)).unwrap();
        let ckpt = load_checkpoint(&cut, 0).unwrap();
        // The copied file keeps its original serialization stamp.
        assert_eq!(ckpt.lsn, 3);
        assert!(ckpt.body.contains("a.c.1"));
        assert_eq!(load_checkpoint(&cut, 1).unwrap().lsn, 8);
    }

    #[test]
    fn reuse_without_previous_cut_is_an_error() {
        let tmp = TempDir::new("no-previous");
        assert!(matches!(write_cut(&tmp.0, 1, |_| None), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn uncommitted_tmp_cut_is_ignored() {
        let tmp = TempDir::new("tmp-ignored");
        trivial_cut(&tmp.0, 4, "a");
        // Simulate a crash mid-assembly of a newer cut.
        std::fs::create_dir_all(tmp.0.join("ckpt-00000000000000000099.tmp")).unwrap();
        let (lsn, _) = latest_cut(&tmp.0).unwrap().unwrap();
        assert_eq!(lsn, 4);
    }

    #[test]
    fn same_lsn_rewrite_replaces_the_cut() {
        let tmp = TempDir::new("same-lsn");
        trivial_cut(&tmp.0, 4, "a");
        let cut = trivial_cut(&tmp.0, 4, "b");
        assert!(load_checkpoint(&cut, 0).unwrap().body.contains("b.c.1"));
        let names: Vec<_> = std::fs::read_dir(&tmp.0).unwrap().flatten().collect();
        assert_eq!(names.len(), 1, "the moved-aside cut must be collected");
    }

    #[test]
    fn cut_moved_aside_still_loads_until_replaced() {
        let tmp = TempDir::new("aside");
        let cut = trivial_cut(&tmp.0, 4, "a");
        // Simulate a crash between moving the cut aside and committing
        // its same-LSN replacement.
        let aside = tmp.0.join("ckpt-00000000000000000004.old");
        std::fs::rename(&cut, &aside).unwrap();
        std::fs::create_dir_all(tmp.0.join("ckpt-00000000000000000004.tmp")).unwrap();
        assert_eq!(latest_cut(&tmp.0).unwrap(), Some((4, aside.clone())));
        // The next rewrite commits over it and collects it.
        let cut = trivial_cut(&tmp.0, 4, "b");
        assert_eq!(latest_cut(&tmp.0).unwrap(), Some((4, cut)));
        assert!(!aside.exists());
    }

    #[test]
    fn missing_shard_in_cut_is_hard_error() {
        let tmp = TempDir::new("missing-shard");
        let cut = trivial_cut(&tmp.0, 4, "a");
        std::fs::remove_file(checkpoint_path(&cut, 7)).unwrap();
        assert!(matches!(load_checkpoint(&cut, 7), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn damaged_body_is_hard_error() {
        let tmp = TempDir::new("damaged");
        let cut = trivial_cut(&tmp.0, 5, "a");
        let path = checkpoint_path(&cut, 0);
        let text = std::fs::read_to_string(&path).unwrap().replace("a.c.1", "a.c.2");
        std::fs::write(&path, text).unwrap();
        match load_checkpoint(&cut, 0) {
            Err(WalError::Corrupt { message, .. }) => {
                assert!(message.contains("CRC mismatch"), "message: {message}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn wrong_shard_number_is_hard_error() {
        let tmp = TempDir::new("wrong-shard");
        let cut = trivial_cut(&tmp.0, 5, "a");
        std::fs::rename(checkpoint_path(&cut, 1), checkpoint_path(&cut, 2)).unwrap();
        assert!(matches!(load_checkpoint(&cut, 2), Err(WalError::Corrupt { .. })));
    }
}
