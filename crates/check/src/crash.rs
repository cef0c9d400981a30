//! The crash-point differential: kill a durable instance at a seeded
//! point, recover, and hold the recovered system to **bit-for-bit**
//! agreement with a never-crashed twin.
//!
//! One [`check_crash_scenario`] run turns the scenario's relation and
//! removal streams into a sequence of logical [`IndexOp`] mutations and
//! drives them through a durable [`Quepa`] (WAL + checkpoint cuts in a
//! scratch directory), honouring the checkpoint schedule of its
//! [`CrashSpec`](crate::scenario::CrashSpec). At the crash point the
//! instance is dropped and the directory is optionally damaged the way
//! real crashes damage it:
//!
//! * `partial` — the next record is appended to the WAL but never
//!   applied or acknowledged (the crash struck between write-ahead and
//!   apply). Recovery must replay it, so the recovered state runs one
//!   op *ahead* of anything the crashed instance served.
//! * `torn_tail` — an incomplete frame is appended (an in-flight write
//!   cut off mid-record). Recovery must truncate it and report it.
//!
//! The recovered instance is then compared against a volatile twin
//! that applied exactly the durable op prefix: raw index surface
//! (membership, neighbours, augmentation closures at every level),
//! the full augmented search answer (normal form, `missing` included),
//! and the deterministic store/cache metric sections. Both sides then
//! apply the remaining ops and a *second-generation* recovery repeats
//! the comparison — recovery must compose.
//!
//! The planted [`Mutation::SkipWalTail`] bug feeds the recovery's
//! fault-injection hook and must surface here as a differential
//! failure; `--inject-bug skip-wal-tail` in the binary proves the
//! harness catches, shrinks and replays it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use quepa_aindex::AIndex;
use quepa_core::{AugmenterKind, IndexOp, Quepa, RecoveryOptions, SyncPolicy};
use quepa_pdm::{GlobalKey, Probability};

use crate::driver::{CheckFailure, CheckReport};
use crate::scenario::{ConfigSpec, Mutation, Scenario};

/// A scratch durable directory, removed on drop.
struct CrashDir(PathBuf);

impl CrashDir {
    fn new(seed: u64) -> CrashDir {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("quepa-crash-{}-{seed}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CrashDir(dir)
    }
}

impl Drop for CrashDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The scenario's mutation stream as logical ops: every relation as an
/// insert (in order), then every removal.
pub fn crash_ops(scenario: &Scenario) -> Vec<IndexOp> {
    let mut ops = Vec::with_capacity(scenario.relations.len() + scenario.removals.len());
    for rel in &scenario.relations {
        let a = scenario.key_of(rel.a.0, rel.a.1);
        let b = scenario.key_of(rel.b.0, rel.b.1);
        let p = Probability::of(rel.prob_millis as f64 / 1000.0);
        ops.push(if rel.identity {
            IndexOp::InsertIdentity { a, b, p }
        } else {
            IndexOp::InsertMatching { a, b, p }
        });
    }
    for &(s, o) in &scenario.removals {
        ops.push(IndexOp::RemoveObject { key: scenario.key_of(s, o) });
    }
    ops
}

/// The fixed configuration of the crash differential: cache-less so
/// every answer is planned from the live index, observability on so the
/// deterministic metric sections can be compared, augmenter varied by
/// seed so the smoke range exercises all of them against recovery.
fn crash_spec_config(scenario: &Scenario) -> ConfigSpec {
    let all = AugmenterKind::ALL;
    ConfigSpec {
        augmenter: all[(scenario.seed as usize) % all.len()],
        batch: 2,
        threads: 2,
        cache: 0,
        resilient: false,
        obs: true,
        pushdown: true,
    }
}

/// Every key the mutation stream mentions — the differential probe set.
fn probe_keys(ops: &[IndexOp]) -> Vec<GlobalKey> {
    let mut keys: Vec<GlobalKey> = Vec::new();
    let mut push = |k: &GlobalKey| {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    };
    for op in ops {
        match op {
            IndexOp::InsertIdentity { a, b, .. }
            | IndexOp::InsertMatching { a, b, .. }
            | IndexOp::InsertPromoted { a, b, .. }
            | IndexOp::DeleteRelation { a, b, .. } => {
                push(a);
                push(b);
            }
            IndexOp::RemoveObject { key } => push(key),
        }
    }
    keys
}

/// Holds two instances' indexes to bit-identical answers over the probe
/// surface, read the way queries read them.
fn diff_index(got: &Quepa, want: &Quepa, keys: &[GlobalKey], what: &str) -> Result<(), String> {
    let (got, want) = (got.index(), want.index());
    // Node counts only: recovery flattens lineage, so the inferred-edge
    // statistic legitimately differs from the never-crashed twin's.
    let (got_nodes, want_nodes) = (got.stats().nodes, want.stats().nodes);
    if got_nodes != want_nodes {
        return Err(format!("{what}: node_count {got_nodes} vs twin {want_nodes}"));
    }
    for key in keys {
        if got.contains(key) != want.contains(key) {
            return Err(format!(
                "{what}: contains({key}) {} vs twin {}",
                got.contains(key),
                want.contains(key)
            ));
        }
        let (g, w) = (got.neighbors(key), want.neighbors(key));
        if g != w {
            return Err(format!("{what}: neighbors({key}) diverge\n  real: {g:?}\n  twin: {w:?}"));
        }
    }
    for level in 0..4 {
        for chunk in keys.chunks(5) {
            let (g, w) = (got.augment(chunk, level), want.augment(chunk, level));
            if g != w {
                return Err(format!(
                    "{what}: augment level {level} of {chunk:?} diverges\n  real: {g:?}\n  twin: {w:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Runs the full crash-point differential for the scenario's crash
/// plan. Scenarios without one pass trivially (the caller gates on
/// `scenario.crash`).
pub fn check_crash_scenario(scenario: &Scenario) -> Result<CheckReport, CheckFailure> {
    let fail = |message: String| CheckFailure { seed: scenario.seed, message };
    let Some(crash) = scenario.crash else {
        return Ok(CheckReport::default());
    };
    let ops = crash_ops(scenario);
    let keys = probe_keys(&ops);
    let kill = crash.after_ops.min(ops.len());
    let spec = crash_spec_config(scenario);
    let config = scenario.config_of(&spec);
    let skip_tail = match scenario.mutation {
        Some(Mutation::SkipWalTail(n)) => n,
        _ => 0,
    };

    // Fault wrapping is deliberately absent here: the crash check pins
    // the durability layer, and the pristine polystore keeps both
    // sides' fetches identical by construction.
    let dir = CrashDir::new(scenario.seed);
    let durable = Quepa::create_durable(
        scenario.build_polystore(),
        AIndex::new(),
        config,
        &dir.0,
        SyncPolicy::Buffered,
    )
    .map_err(|e| fail(format!("create_durable failed: {e}")))?;
    let twin = Quepa::with_config(scenario.build_polystore(), AIndex::new(), config);

    for (i, op) in ops.iter().take(kill).enumerate() {
        durable
            .apply_mutations(std::slice::from_ref(op))
            .map_err(|e| fail(format!("durable apply of op {i} failed: {e}")))?;
        twin.apply_mutations(std::slice::from_ref(op)).expect("volatile apply cannot fail");
        if crash.checkpoint_every > 0 && (i + 1) % crash.checkpoint_every == 0 {
            durable
                .checkpoint_durable()
                .map_err(|e| fail(format!("scheduled checkpoint after op {i} failed: {e}")))?;
        }
    }

    // -- the crash -------------------------------------------------------
    drop(durable);
    let mut expected = kill;
    if crash.partial && kill < ops.len() {
        // The in-flight op made it into the WAL but was never applied
        // or acknowledged; recovery must replay it, so the twin runs
        // one op ahead of anything the crashed instance served.
        let (mut wal, _) = quepa_wal::Wal::open(&quepa_wal::wal_path(&dir.0), SyncPolicy::Buffered)
            .map_err(|e| fail(format!("reopening the WAL to plant the partial record: {e}")))?;
        // The crashed process's live WAL had its LSN clock past any cut
        // that truncated the log; the planted record must continue it.
        if let Ok(Some((cut_lsn, _))) = quepa_wal::latest_cut(&dir.0) {
            wal.advance_past(cut_lsn);
        }
        wal.append(std::slice::from_ref(&ops[kill]))
            .map_err(|e| fail(format!("planting the partial record: {e}")))?;
        twin.apply_mutations(std::slice::from_ref(&ops[kill])).expect("volatile apply cannot fail");
        expected += 1;
    }
    if crash.torn_tail {
        // An in-flight frame cut off mid-record: a length header that
        // promises more bytes than follow. Recovery must truncate it.
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(quepa_wal::wal_path(&dir.0))
            .map_err(|e| fail(format!("opening the WAL to tear it: {e}")))?;
        file.write_all(&[64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 7, 7])
            .map_err(|e| fail(format!("tearing the WAL: {e}")))?;
    }

    // -- recovery --------------------------------------------------------
    let options = RecoveryOptions { skip_wal_tail: skip_tail };
    let (recovered, report) = Quepa::recover_durable(
        scenario.build_polystore(),
        config,
        &dir.0,
        SyncPolicy::Buffered,
        &options,
    )
    .map_err(|e| fail(format!("recovery failed: {e}")))?;
    if crash.torn_tail && !report.torn_tail {
        return Err(fail("the torn final record went unnoticed by recovery".into()));
    }
    diff_index(
        &recovered,
        &twin,
        &keys,
        &format!("after recovery at op {expected}/{} ({report:?})", ops.len()),
    )
    .map_err(fail)?;

    // -- the served answer, missing set and deterministic metrics --------
    let database = scenario.query_database();
    let query = scenario.query();
    let got = recovered
        .augmented_search(&database, &query, scenario.level)
        .map_err(|e| fail(format!("recovered search failed: {e}")))?
        .normal_form();
    let want = twin
        .augmented_search(&database, &query, scenario.level)
        .map_err(|e| fail(format!("twin search failed: {e}")))?
        .normal_form();
    if got != want {
        return Err(fail(format!(
            "recovered answer diverges from the never-crashed twin\n--- recovered ---\n{got}--- twin ---\n{want}"
        )));
    }
    // The search triggered identical lazy deletions on both sides; the
    // store/cache metric sections are deterministic per search (stage
    // spans are not comparable — the twin recorded Commit spans for ops
    // the recovered instance replayed without instrumentation).
    let (gm, wm) = (recovered.metrics_snapshot(), twin.metrics_snapshot());
    if gm.stores != wm.stores || gm.cache != wm.cache {
        return Err(fail(format!(
            "deterministic metric sections diverge after recovery\n--- recovered ---\n{:?} {:?}\n--- twin ---\n{:?} {:?}",
            gm.stores, gm.cache, wm.stores, wm.cache
        )));
    }

    // -- life after recovery: the remaining ops, then a second crash ----
    for (i, op) in ops.iter().enumerate().skip(expected) {
        recovered
            .apply_mutations(std::slice::from_ref(op))
            .map_err(|e| fail(format!("post-recovery apply of op {i} failed: {e}")))?;
        twin.apply_mutations(std::slice::from_ref(op)).expect("volatile apply cannot fail");
    }
    diff_index(&recovered, &twin, &keys, "after applying the remaining ops post-recovery")
        .map_err(fail)?;

    drop(recovered);
    let (second, _) = Quepa::recover_durable(
        scenario.build_polystore(),
        config,
        &dir.0,
        SyncPolicy::Buffered,
        &RecoveryOptions::default(),
    )
    .map_err(|e| fail(format!("second-generation recovery failed: {e}")))?;
    diff_index(&second, &twin, &keys, "second-generation recovery").map_err(fail)?;

    Ok(CheckReport {
        configs: 1,
        augmented: want.augmented.len(),
        missing: want.missing.len(),
        faulted: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CrashSpec;

    /// Every crash shape over a spread of seeds recovers bit-exactly.
    #[test]
    fn generated_crash_plans_recover_bit_exactly() {
        let mut checked = 0;
        for seed in 0..40u64 {
            let scenario = Scenario::generate(seed);
            if scenario.crash.is_none() {
                continue;
            }
            if let Err(e) = check_crash_scenario(&scenario) {
                panic!("seed {seed} failed the crash differential:\n{e}");
            }
            checked += 1;
            if checked == 8 {
                break;
            }
        }
        assert!(checked >= 5, "not enough crash scenarios exercised: {checked}");
    }

    /// Forced extreme crash points: before any op, after every op, torn
    /// and partial together, with and without a checkpoint schedule.
    #[test]
    fn forced_crash_shapes_recover_bit_exactly() {
        let mut scenario = Scenario::generate(3);
        while scenario.relations.len() < 4 {
            scenario = Scenario::generate(scenario.seed + 1);
        }
        let total = scenario.relations.len() + scenario.removals.len();
        for (after_ops, torn_tail, checkpoint_every, partial) in [
            (0, false, 0, false),
            (0, true, 0, true),
            (total, false, 0, false),
            (total, true, 1, false),
            (total / 2, true, 2, true),
            (total / 2, false, 3, true),
        ] {
            scenario.crash = Some(CrashSpec { after_ops, torn_tail, checkpoint_every, partial });
            if let Err(e) = check_crash_scenario(&scenario) {
                panic!("crash shape {:?} failed:\n{e}", scenario.crash);
            }
        }
    }

    /// The planted skip-wal-tail bug surfaces as a differential failure
    /// on some seed — the harness's own acceptance test.
    #[test]
    fn planted_skip_wal_tail_is_caught() {
        let mut caught = 0;
        for seed in 0..60u64 {
            let mut scenario = Scenario::generate(seed);
            if scenario.relations.is_empty() {
                continue;
            }
            let total = scenario.relations.len() + scenario.removals.len();
            scenario.crash = Some(CrashSpec {
                after_ops: total,
                torn_tail: false,
                checkpoint_every: 0,
                partial: false,
            });
            scenario.mutation = Some(Mutation::SkipWalTail(1));
            if check_crash_scenario(&scenario).is_err() {
                caught += 1;
                break;
            }
        }
        assert!(caught > 0, "skip-wal-tail was never detected across 60 seeds");
    }

    /// A crash plan over an empty mutation stream still round-trips
    /// (recovery of a freshly created directory).
    #[test]
    fn empty_stream_crash_is_sound() {
        let mut scenario = Scenario::generate(0);
        scenario.relations.clear();
        scenario.removals.clear();
        scenario.crash =
            Some(CrashSpec { after_ops: 5, torn_tail: true, checkpoint_every: 0, partial: true });
        check_crash_scenario(&scenario).expect("empty-stream crash recovers");
    }
}
