//! The write-ahead log proper: CRC-framed records with monotonic LSNs.
//!
//! On-disk layout is a sequence of frames:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [lsn: u64 LE] [payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 over the LSN bytes followed by the payload, so a
//! frame whose length field was torn off cannot masquerade as valid.
//! LSNs are assigned contiguously starting at 1; the scanner requires
//! them strictly increasing and treats a duplicate or decreasing LSN as
//! hard corruption (a replayed or spliced log), never as recoverable.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use quepa_aindex::IndexOp;

use crate::crc::crc32_concat;

/// Log sequence number. `0` means "nothing logged yet"; real records
/// start at 1.
pub type Lsn = u64;

/// Frame header size: `len` + `crc` + `lsn`.
const FRAME_HEADER: usize = 4 + 4 + 8;

/// Guard against absurd length fields in damaged logs: no logical op
/// encodes anywhere near this size.
const MAX_PAYLOAD: u32 = 1 << 24;

/// When the log flushes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append — survives power loss.
    Always,
    /// Write without fsync — survives process crash (the OS holds the
    /// pages), not power loss. The simulation harness uses this: its
    /// crashes are modeled as file truncation, so fsync latency would
    /// only slow the suite down.
    Buffered,
}

/// Errors from the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error, with the path it happened on.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The log (or a checkpoint) is damaged in a way recovery must not
    /// paper over.
    Corrupt {
        /// The file that is damaged.
        path: PathBuf,
        /// Byte offset of the damaged frame (0 for whole-file damage).
        offset: u64,
        /// What is wrong.
        message: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal i/o error on {}: {source}", path.display())
            }
            WalError::Corrupt { path, offset, message } => write!(
                f,
                "wal corruption in {} at byte {offset}: {message} \
                 (mid-log damage is not recoverable; restore from checkpoints or a replica)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Corrupt { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> WalError {
    WalError::Io { path: path.to_path_buf(), source }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The logical operation it carries.
    pub op: IndexOp,
}

/// What the scanner found at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly at a frame boundary.
    Clean,
    /// The final frame was torn (short, or its CRC fails) — the normal
    /// signature of a crash mid-append. Recovery truncates it.
    TornTruncated {
        /// Bytes dropped from the tail.
        dropped_bytes: u64,
    },
}

/// The result of scanning a log file.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Every valid record, in LSN order.
    pub records: Vec<WalRecord>,
    /// Whether the tail was clean or torn.
    pub tail: TailStatus,
    /// Length of the valid prefix in bytes (the truncation point).
    pub valid_len: u64,
}

/// Scans raw log bytes. Tail damage (a final frame that is short or
/// fails its CRC) is reported as [`TailStatus::TornTruncated`]; damage
/// anywhere before the final frame is a hard [`WalError::Corrupt`].
pub fn scan_bytes(bytes: &[u8], path: &Path) -> Result<ScanOutcome, WalError> {
    let total = bytes.len() as u64;
    let mut records = Vec::new();
    let mut offset = 0u64;
    let mut last_lsn: Lsn = 0;
    loop {
        let rest = &bytes[offset as usize..];
        if rest.is_empty() {
            return Ok(ScanOutcome { records, tail: TailStatus::Clean, valid_len: offset });
        }
        let torn = |records: Vec<WalRecord>| {
            Ok(ScanOutcome {
                records,
                tail: TailStatus::TornTruncated { dropped_bytes: total - offset },
                valid_len: offset,
            })
        };
        if rest.len() < FRAME_HEADER {
            return torn(records);
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let lsn_bytes: [u8; 8] = rest[8..16].try_into().expect("8 bytes");
        let lsn = u64::from_le_bytes(lsn_bytes);
        if len > MAX_PAYLOAD || (rest.len() - FRAME_HEADER) < len as usize {
            // The length field runs past EOF (or is garbage): only
            // acceptable as a torn final frame.
            return torn(records);
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len as usize];
        let frame_end = offset + (FRAME_HEADER + len as usize) as u64;
        if crc32_concat(&[&lsn_bytes, payload]) != crc {
            if frame_end == total {
                // Bit-flip or short write in the final frame: torn tail.
                return torn(records);
            }
            return Err(WalError::Corrupt {
                path: path.to_path_buf(),
                offset,
                message: format!("CRC mismatch in record lsn={lsn} before the log tail"),
            });
        }
        // Past the CRC the frame is authentic, so structural problems
        // are writer bugs or splices — hard errors even at the tail.
        if lsn <= last_lsn {
            return Err(WalError::Corrupt {
                path: path.to_path_buf(),
                offset,
                message: format!(
                    "non-monotonic LSN: record lsn={lsn} after lsn={last_lsn} \
                     (duplicate or out-of-order replay)"
                ),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|_| WalError::Corrupt {
            path: path.to_path_buf(),
            offset,
            message: format!("record lsn={lsn} payload is not UTF-8"),
        })?;
        let op = IndexOp::decode(text).map_err(|m| WalError::Corrupt {
            path: path.to_path_buf(),
            offset,
            message: format!("record lsn={lsn} payload does not decode: {m}"),
        })?;
        last_lsn = lsn;
        records.push(WalRecord { lsn, op });
        offset = frame_end;
    }
}

fn encode_frame(lsn: Lsn, op: &IndexOp, out: &mut Vec<u8>) {
    let payload = op.encode();
    let payload = payload.as_bytes();
    let lsn_bytes = lsn.to_le_bytes();
    let crc = crc32_concat(&[&lsn_bytes, payload]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&lsn_bytes);
    out.extend_from_slice(payload);
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: SyncPolicy,
    next_lsn: Lsn,
}

impl Wal {
    /// Opens (or creates) the log at `path`, scanning whatever is
    /// already there. A torn tail is truncated off the file before the
    /// log is positioned for appending; mid-log corruption aborts the
    /// open. Returns the scan so callers can replay.
    pub fn open(path: &Path, sync: SyncPolicy) -> Result<(Wal, ScanOutcome), WalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(path, e)),
        };
        let outcome = scan_bytes(&bytes, path)?;
        // Write-only: the read above is the one read of the log.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        if matches!(outcome.tail, TailStatus::TornTruncated { .. }) {
            file.set_len(outcome.valid_len).map_err(|e| io_err(path, e))?;
            file.sync_data().map_err(|e| io_err(path, e))?;
        }
        file.seek(SeekFrom::Start(outcome.valid_len)).map_err(|e| io_err(path, e))?;
        let next_lsn = outcome.records.last().map(|r| r.lsn + 1).unwrap_or(1);
        Ok((Wal { file, path: path.to_path_buf(), sync, next_lsn }, outcome))
    }

    /// The LSN of the last appended record (`0` if none yet).
    pub fn last_lsn(&self) -> Lsn {
        self.next_lsn - 1
    }

    /// Appends `ops` as consecutive records in one write (one fsync
    /// under [`SyncPolicy::Always`]) and returns the last assigned LSN.
    /// The caller applies the ops to the in-memory index only after
    /// this returns — write-ahead, then apply.
    pub fn append(&mut self, ops: &[IndexOp]) -> Result<Lsn, WalError> {
        if ops.is_empty() {
            return Ok(self.last_lsn());
        }
        let mut buf = Vec::with_capacity(ops.len() * 64);
        for op in ops {
            encode_frame(self.next_lsn, op, &mut buf);
            self.next_lsn += 1;
        }
        self.file.write_all(&buf).map_err(|e| io_err(&self.path, e))?;
        if self.sync == SyncPolicy::Always {
            self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        }
        Ok(self.last_lsn())
    }

    /// Ensures the next assigned LSN is strictly greater than `lsn`.
    /// Recovery calls this with the checkpoint cut's LSN: a truncated
    /// (possibly empty) log reopened after a restart must never
    /// re-issue LSNs a cut already covers — such records would be
    /// filtered out as "already checkpointed" by the next recovery and
    /// silently lost.
    pub fn advance_past(&mut self, lsn: Lsn) {
        self.next_lsn = self.next_lsn.max(lsn + 1);
    }

    /// Empties the log in place: the file is cut to zero bytes, synced
    /// once, and the cursor goes back to its start. The LSN clock is
    /// untouched, so the next append continues the sequence.
    ///
    /// Precondition: the caller has just committed a checkpoint cut at
    /// [`last_lsn`](Wal::last_lsn), so every record in the log is
    /// covered and nothing in it is read again — a damaged frame the
    /// cut covers goes with the rest. A crash before this call leaves
    /// covered records behind, which recovery filters by the cut's LSN.
    pub fn clear(&mut self) -> Result<(), WalError> {
        self.file.set_len(0).map_err(|e| io_err(&self.path, e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        // Without the seek the next frame would land at the old cursor,
        // behind a zero-filled hole.
        self.file.seek(SeekFrom::Start(0)).map_err(|e| io_err(&self.path, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_pdm::Probability;

    fn k(s: &str) -> quepa_pdm::GlobalKey {
        s.parse().unwrap()
    }

    fn sample_ops(n: usize) -> Vec<IndexOp> {
        (0..n)
            .map(|i| IndexOp::InsertIdentity {
                a: k(&format!("db0.c.a{i}")),
                b: k(&format!("db1.c.b{i}")),
                p: Probability::of(0.5 + 0.001 * (i % 100) as f64),
            })
            .collect()
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("quepa-wal-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Byte offsets where each frame starts (trusting the len fields).
    fn frame_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut offset = 0;
        while offset + FRAME_HEADER <= bytes.len() {
            starts.push(offset);
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
            offset += FRAME_HEADER + len as usize;
        }
        starts
    }

    fn write_log(path: &Path, ops: &[IndexOp]) {
        let (mut wal, _) = Wal::open(path, SyncPolicy::Buffered).unwrap();
        for op in ops {
            wal.append(std::slice::from_ref(op)).unwrap();
        }
    }

    #[test]
    fn roundtrip_and_reopen_append() {
        let tmp = TempDir::new("roundtrip");
        let path = tmp.path("quepa.wal");
        let ops = sample_ops(5);
        let (mut wal, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(wal.append(&ops[..3]).unwrap(), 3);
        drop(wal);
        let (mut wal, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(wal.last_lsn(), 3);
        assert_eq!(wal.append(&ops[3..]).unwrap(), 5);
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        let got: Vec<_> = scan.records.iter().map(|r| r.op.clone()).collect();
        assert_eq!(got, ops);
        assert_eq!(scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn truncated_final_record_is_recovered() {
        let tmp = TempDir::new("torn");
        let path = tmp.path("quepa.wal");
        write_log(&path, &sample_ops(3));
        let full = std::fs::read(&path).unwrap();
        // Tear the final record: keep its header plus half the payload.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (wal, scan) = Wal::open(&path, SyncPolicy::Buffered).unwrap();
        assert!(
            matches!(scan.tail, TailStatus::TornTruncated { dropped_bytes } if dropped_bytes > 0)
        );
        assert_eq!(scan.records.len(), 2);
        assert_eq!(wal.last_lsn(), 2);
        // The torn bytes are physically gone after open.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), scan.valid_len);
    }

    #[test]
    fn bit_flip_in_final_record_is_torn_tail() {
        let tmp = TempDir::new("flip-tail");
        let path = tmp.path("quepa.wal");
        write_log(&path, &sample_ops(3));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = Wal::open(&path, SyncPolicy::Buffered).unwrap();
        assert!(matches!(scan.tail, TailStatus::TornTruncated { .. }));
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn bit_flip_mid_log_is_hard_corruption() {
        let tmp = TempDir::new("flip-mid");
        let path = tmp.path("quepa.wal");
        write_log(&path, &sample_ops(3));
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let frame = frame_starts(&bytes)[1];
        bytes[frame + FRAME_HEADER + 4] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path, SyncPolicy::Buffered).unwrap_err();
        match err {
            WalError::Corrupt { offset, ref message, .. } => {
                assert_eq!(offset, frame as u64);
                assert!(message.contains("CRC mismatch"), "message: {message}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_lsn_is_hard_corruption() {
        let tmp = TempDir::new("dup-lsn");
        let path = tmp.path("quepa.wal");
        let ops = sample_ops(2);
        let mut bytes = Vec::new();
        encode_frame(1, &ops[0], &mut bytes);
        encode_frame(1, &ops[1], &mut bytes); // duplicate LSN
        encode_frame(2, &ops[1], &mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path, SyncPolicy::Buffered).unwrap_err();
        match err {
            WalError::Corrupt { ref message, .. } => {
                assert!(message.contains("non-monotonic LSN"), "message: {message}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn decreasing_lsn_is_hard_corruption() {
        let tmp = TempDir::new("dec-lsn");
        let path = tmp.path("quepa.wal");
        let ops = sample_ops(2);
        let mut bytes = Vec::new();
        encode_frame(5, &ops[0], &mut bytes);
        encode_frame(3, &ops[1], &mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path, SyncPolicy::Buffered), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn clear_empties_the_log_and_keeps_the_lsn_sequence() {
        let tmp = TempDir::new("clear");
        let path = tmp.path("quepa.wal");
        let (mut wal, _) = Wal::open(&path, SyncPolicy::Buffered).unwrap();
        wal.append(&sample_ops(6)).unwrap();
        wal.clear().unwrap();
        assert_eq!(wal.last_lsn(), 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(wal.append(&sample_ops(2)).unwrap(), 8);
        drop(wal);
        let (_, scan) = Wal::open(&path, SyncPolicy::Buffered).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![7, 8]);
        let names: Vec<_> =
            std::fs::read_dir(&tmp.0).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["quepa.wal"], "no other file appears beside the log");
    }

    #[test]
    fn torn_header_shorter_than_frame_is_recovered() {
        let tmp = TempDir::new("short-header");
        let path = tmp.path("quepa.wal");
        write_log(&path, &sample_ops(2));
        let full = std::fs::read(&path).unwrap();
        // Cut inside record 2's header.
        let cut = frame_starts(&full)[1] + 7;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (_, scan) = Wal::open(&path, SyncPolicy::Buffered).unwrap();
        assert!(matches!(scan.tail, TailStatus::TornTruncated { dropped_bytes: 7 }));
        assert_eq!(scan.records.len(), 1);
    }
}
