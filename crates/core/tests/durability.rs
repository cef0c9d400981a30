//! Durable-mode integration tests: the create → mutate → crash →
//! recover loop at the `Quepa` level, differentially compared against a
//! volatile twin that never crashed. The crate-level recovery property
//! test (`quepa-wal`) pins the index math; these tests pin the *system*
//! wiring — config plumbing, store flush ordering, forced and
//! load-time cuts, status accounting.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use quepa_aindex::{serial, AIndex, IndexView, PathRepository, PromotionConfig};
use quepa_core::{IndexOp, Quepa, QuepaConfig, RecoveryOptions, SyncPolicy};
use quepa_kvstore::KvStore;
use quepa_pdm::{CollectionName, DataObject, GlobalKey, LocalKey, Probability, Pushdown};
use quepa_polystore::{
    Connector, FilteredFetch, KvConnector, LatencyModel, Link, PolyError, Polystore, StoreKind,
};

fn k(s: &str) -> GlobalKey {
    s.parse().unwrap()
}

/// A per-test scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("quepa-core-durability-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn kv_store(name: &str) -> KvConnector {
    let mut kv = KvStore::new(name);
    for j in 0..6 {
        kv.set(format!("k{j}"), format!("{name}-value-{j}"));
    }
    KvConnector::new(kv, "c", LatencyModel::FREE)
}

/// Two stores of a handful of objects each — enough for cross-store
/// p-relations without the weight of the full workload builder.
fn small_polystore() -> Polystore {
    let mut p = Polystore::new();
    for name in ["left", "right"] {
        p.register(Arc::new(kv_store(name)));
    }
    p
}

/// A store whose first flush fails; every other call is the wrapped
/// store's.
struct FailsFirstFlush {
    inner: KvConnector,
    failed: AtomicBool,
}

impl Connector for FailsFirstFlush {
    fn link(&self) -> &Link {
        self.inner.link()
    }
    fn kind(&self) -> StoreKind {
        self.inner.kind()
    }
    fn collections(&self) -> Vec<CollectionName> {
        self.inner.collections()
    }
    fn object_count(&self) -> usize {
        self.inner.object_count()
    }
    fn execute(&self, query: &str) -> quepa_polystore::Result<Vec<DataObject>> {
        self.inner.execute(query)
    }
    fn execute_update(&self, statement: &str) -> quepa_polystore::Result<usize> {
        self.inner.execute_update(statement)
    }
    fn scan_collection(
        &self,
        collection: &CollectionName,
    ) -> quepa_polystore::Result<Vec<DataObject>> {
        self.inner.scan_collection(collection)
    }
    fn fetch(
        &self,
        collection: &CollectionName,
        keys: &[LocalKey],
        filter: Option<&Pushdown>,
    ) -> quepa_polystore::Result<FilteredFetch> {
        self.inner.fetch(collection, keys, filter)
    }
    fn commit_durable(&self) -> quepa_polystore::Result<bool> {
        if self.failed.swap(true, Ordering::Relaxed) {
            self.inner.commit_durable()
        } else {
            Err(PolyError::Unavailable { database: self.database().to_string() })
        }
    }
}

/// A seeded batch of logical mutations spanning both stores, including
/// a removal so compaction and neighbour-dirtying both fire.
fn mutation_script() -> Vec<Vec<IndexOp>> {
    let key = |store: &str, j: usize| k(&format!("{store}.c.k{j}"));
    vec![
        vec![
            IndexOp::InsertIdentity {
                a: key("left", 0),
                b: key("right", 0),
                p: Probability::of(0.9),
            },
            IndexOp::InsertIdentity {
                a: key("right", 0),
                b: key("left", 1),
                p: Probability::of(0.8),
            },
        ],
        vec![
            IndexOp::InsertMatching {
                a: key("left", 1),
                b: key("right", 2),
                p: Probability::of(0.7),
            },
            IndexOp::InsertMatching {
                a: key("left", 0),
                b: key("right", 3),
                p: Probability::of(0.6),
            },
        ],
        vec![IndexOp::RemoveObject { key: key("right", 0) }],
        vec![
            IndexOp::InsertPromoted {
                a: key("left", 2),
                b: key("right", 4),
                p: Probability::of(0.55),
            },
            IndexOp::InsertIdentity {
                a: key("left", 2),
                b: key("left", 3),
                p: Probability::of(0.95),
            },
        ],
    ]
}

/// All keys the script mentions — the probe set for differentials.
fn probe_keys() -> Vec<GlobalKey> {
    let mut keys = Vec::new();
    for store in ["left", "right"] {
        for j in 0..6 {
            keys.push(k(&format!("{store}.c.k{j}")));
        }
    }
    keys
}

/// Asserts two index views answer bit-identically over the probe surface.
fn assert_index_equal(got: &IndexView, want: &IndexView, what: &str) {
    assert_eq!(got.stats().nodes, want.stats().nodes, "{what}: node_count");
    let keys = probe_keys();
    for key in &keys {
        assert_eq!(got.contains(key), want.contains(key), "{what}: contains {key}");
        assert_eq!(got.neighbors(key), want.neighbors(key), "{what}: neighbors of {key}");
    }
    for level in 0..4 {
        assert_eq!(
            got.augment(&keys, level),
            want.augment(&keys, level),
            "{what}: augment level {level}"
        );
    }
}

#[test]
fn recovery_is_bit_identical_to_a_never_crashed_twin() {
    let tmp = TempDir::new("roundtrip");
    let config = QuepaConfig::default();

    let durable =
        Quepa::create_durable(small_polystore(), AIndex::new(), config, &tmp.0, SyncPolicy::Always)
            .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), config);
    for batch in mutation_script() {
        durable.apply_mutations(&batch).unwrap();
        twin.apply_mutations(&batch).unwrap();
    }
    let status = durable.durability_status().unwrap();
    assert_eq!(status.records_appended, 7);
    assert!(status.last_lsn >= 1);
    drop(durable);

    let (recovered, report) = Quepa::recover_durable(
        small_polystore(),
        config,
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert!(!report.torn_tail);
    assert_index_equal(&recovered.index(), &twin.index(), "first recovery");

    // A second generation of recovery (no writes in between) is stable.
    drop(recovered);
    let (again, _) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert_index_equal(&again.index(), &twin.index(), "second recovery");
}

#[test]
fn recovery_continues_accepting_mutations() {
    let tmp = TempDir::new("continue");
    let script = mutation_script();
    let (head, tail) = script.split_at(2);

    let durable = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Buffered,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    for batch in head {
        durable.apply_mutations(batch).unwrap();
        twin.apply_mutations(batch).unwrap();
    }
    drop(durable);

    let (recovered, _) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Buffered,
        &RecoveryOptions::default(),
    )
    .unwrap();
    for batch in tail {
        recovered.apply_mutations(batch).unwrap();
        twin.apply_mutations(batch).unwrap();
    }
    assert_index_equal(&recovered.index(), &twin.index(), "post-recovery writes");

    drop(recovered);
    let (second, _) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Buffered,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert_index_equal(&second.index(), &twin.index(), "second-generation recovery");
}

#[test]
fn records_after_a_forced_cut_replay_on_top_of_it() {
    let tmp = TempDir::new("forced-cut");
    let durable = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    let script = mutation_script();
    let promote =
        [IndexOp::InsertPromoted { a: k("left.c.5"), b: k("right.c.5"), p: Probability::of(0.5) }];
    for quepa in [&durable, &twin] {
        quepa.apply_mutations(&script[0]).unwrap();
        quepa.apply_mutations(&promote).unwrap();
    }
    // The explicit checkpoint captures both commits in a cut ...
    let covered = durable.checkpoint_durable().unwrap();
    assert!(covered.is_some());

    // ... and records computed on top of it land in the WAL as usual.
    durable.apply_mutations(&script[1]).unwrap();
    twin.apply_mutations(&script[1]).unwrap();
    drop(durable);

    let (recovered, report) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert!(report.checkpoints_loaded > 0, "the forced cut must be loaded");
    assert!(report.replayed > 0, "the records after the cut must replay");
    assert_index_equal(&recovered.index(), &twin.index(), "forced cut then tail");
}

/// Regression: a cut used to re-read the log it covered, so one damaged
/// frame behind a committed cut failed every later checkpoint and made
/// recovery refuse the directory.
#[test]
fn a_cut_drops_a_damaged_covered_log() {
    use std::io::{Read, Seek, SeekFrom, Write};

    let tmp = TempDir::new("damaged-covered");
    let durable = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    let script = mutation_script();
    for batch in &script[..3] {
        durable.apply_mutations(batch).unwrap();
        twin.apply_mutations(batch).unwrap();
    }
    // Flip a payload byte of the first record behind the instance's back.
    let mut log =
        std::fs::OpenOptions::new().read(true).write(true).open(tmp.0.join("quepa.wal")).unwrap();
    let mut byte = [0u8];
    log.seek(SeekFrom::Start(20)).unwrap();
    log.read_exact(&mut byte).unwrap();
    log.seek(SeekFrom::Start(20)).unwrap();
    log.write_all(&[byte[0] ^ 0x01]).unwrap();
    drop(log);

    // The cut covers every damaged record, so it commits and drops them.
    durable.checkpoint_durable().expect("a cut over a damaged log it covers");
    durable.apply_mutations(&script[3]).unwrap();
    twin.apply_mutations(&script[3]).unwrap();
    drop(durable);

    let (recovered, report) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert_eq!(report.replayed, script[3].len(), "only the commit after the cut replays");
    assert_index_equal(&recovered.index(), &twin.index(), "cut over a damaged log");
}

#[test]
fn replace_index_is_durable_when_it_returns() {
    let tmp = TempDir::new("load");
    let durable = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    let script = mutation_script();
    durable.apply_mutations(&script[0]).unwrap();
    twin.apply_mutations(&script[0]).unwrap();

    // The index a `LOAD` reads: built elsewhere, saved, parsed back.
    let mut ix = AIndex::new();
    for op in script[1].iter().chain(&script[3]) {
        op.apply(&mut ix);
    }
    let saved = serial::to_string(&ix);
    for quepa in [&durable, &twin] {
        quepa.replace_index(serial::from_str(&saved).unwrap()).unwrap();
    }
    drop(durable); // no checkpoint: the load itself must have cut

    let (recovered, _) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert_index_equal(&recovered.index(), &twin.index(), "load then crash");
}

#[test]
fn a_failed_load_leaves_the_old_index_in_place() {
    let tmp = TempDir::new("failed-load");
    let durable = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    let script = mutation_script();
    durable.apply_mutations(&script[0]).unwrap();
    twin.apply_mutations(&script[0]).unwrap();

    // A regular file where the load's cut would be assembled makes the
    // cut fail.
    let lsn = durable.durability_status().unwrap().last_lsn;
    std::fs::write(tmp.0.join(format!("ckpt-{lsn:020}.tmp")), "").unwrap();
    let mut ix = AIndex::new();
    for op in &script[3] {
        op.apply(&mut ix);
    }
    assert!(durable.replace_index(ix).is_err(), "the load's cut must fail");
    assert_index_equal(&durable.index(), &twin.index(), "after a failed load");

    // Commits after the failed load build on the old index, as recovery
    // will: the live and the recovered index agree.
    durable.apply_mutations(&script[1]).unwrap();
    twin.apply_mutations(&script[1]).unwrap();
    assert_index_equal(&durable.index(), &twin.index(), "commit after a failed load");
    drop(durable);
    let (recovered, _) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert_index_equal(&recovered.index(), &twin.index(), "failed load, commit, crash");
}

#[test]
fn create_refuses_a_dir_with_existing_state() {
    let tmp = TempDir::new("refuse");
    let first = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    drop(first);
    let err = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .expect_err("second create must refuse");
    assert!(err.to_string().contains("already holds durable state"), "got: {err}");
}

#[test]
fn volatile_instances_share_the_mutation_path() {
    let quepa = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    assert!(!quepa.is_durable());
    assert!(quepa.durability_status().is_none());
    assert_eq!(quepa.checkpoint_durable().unwrap(), None);
    for batch in mutation_script() {
        assert_eq!(quepa.apply_mutations(&batch).unwrap(), 0);
    }
    let direct = {
        let mut ix = AIndex::new();
        for batch in mutation_script() {
            for op in &batch {
                op.apply(&mut ix);
            }
        }
        ix
    };
    assert_index_equal(&quepa.index(), &IndexView::of(&direct), "volatile apply");
}

#[test]
fn skip_wal_tail_injection_visibly_diverges() {
    let tmp = TempDir::new("inject");
    let durable = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    for batch in mutation_script() {
        durable.apply_mutations(&batch).unwrap();
        twin.apply_mutations(&batch).unwrap();
    }
    let tail_len = durable.durability_status().unwrap().records_appended as usize;
    drop(durable);

    // Dropping the whole replayable tail must lose state: the recovered
    // node set shrinks versus the twin (the fault-injection hook works,
    // which is what the crash harness's self-test relies on).
    let (lossy, report) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions { skip_wal_tail: tail_len },
    )
    .unwrap();
    assert_eq!(report.replayed, 0, "everything after the initial cut was skipped");
    assert!(
        lossy.index().stats().nodes < twin.index().stats().nodes,
        "skipping the WAL tail must visibly lose state"
    );
}

/// A durable instance and its volatile twin over the chain
/// `left.k0 ≡ right.k1 ≡ left.k2`, with promotion thresholds low enough
/// that the second walk of the chain fires.
fn promotable_twins(tmp: &TempDir) -> (Quepa, Quepa) {
    let durable = Quepa::create_durable(
        small_polystore(),
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    let chain = [
        IndexOp::InsertMatching { a: k("left.c.k0"), b: k("right.c.k1"), p: Probability::of(0.9) },
        IndexOp::InsertMatching { a: k("right.c.k1"), b: k("left.c.k2"), p: Probability::of(0.7) },
    ];
    for quepa in [&durable, &twin] {
        quepa.apply_mutations(&chain).unwrap();
        *quepa.paths() =
            PathRepository::with_config(PromotionConfig { base_threshold: 2, min_threshold: 1 });
    }
    (durable, twin)
}

/// Walks `left.k0 → right.k1 → left.k2` in one exploration session and
/// closes it; returns whether the walk promoted a shortcut.
fn walk_the_chain(quepa: &Quepa) -> bool {
    let mut session = quepa.explore("left", "GET k0").unwrap();
    for next in ["right.c.k1", "left.c.k2"] {
        let frontier =
            if session.steps() == 0 { session.select(0).unwrap() } else { session.frontier() };
        let i = frontier.iter().position(|a| a.object.key() == &k(next)).unwrap();
        session.step(i).unwrap();
    }
    session.finish().unwrap()
}

#[test]
fn a_promotion_survives_a_crash_without_a_checkpoint() {
    let tmp = TempDir::new("promotion-crash");
    let (durable, twin) = promotable_twins(&tmp);
    for quepa in [&durable, &twin] {
        assert!(!walk_the_chain(quepa), "the first walk is below the threshold");
        assert!(walk_the_chain(quepa), "the second walk promotes");
    }
    let shortcut = |quepa: &Quepa| {
        quepa.index().edge(&k("left.c.k0"), &k("left.c.k2"), quepa_pdm::RelationKind::Matching)
    };
    assert!(shortcut(&durable).is_some());
    drop(durable); // no checkpoint: only the log can carry the promotion

    let (recovered, _) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert!(shortcut(&recovered).is_some(), "the promoted shortcut was lost in the crash");
    assert_index_equal(&recovered.index(), &twin.index(), "promotion then crash");
}

#[test]
fn the_commit_after_a_promotion_writes_no_cut() {
    let tmp = TempDir::new("promotion-commit");
    let (durable, _twin) = promotable_twins(&tmp);
    walk_the_chain(&durable);
    assert!(walk_the_chain(&durable), "the second walk promotes");
    let before = durable.durability_status().unwrap();
    durable.apply_mutations(&mutation_script()[0]).unwrap();
    let after = durable.durability_status().unwrap();
    assert_eq!(after.records_appended, before.records_appended + 2);
    // Nothing this small compacts a shard, so a cut here could only be
    // the full cut a stale (un-logged) state forces in front of a commit.
    assert_eq!(after.cuts_written, before.cuts_written, "the commit started with a checkpoint cut");
}

/// A batch whose store flush fails is neither applied nor logged, so
/// recovery does not replay what the live instance never answered.
#[test]
fn a_failed_store_flush_logs_nothing() {
    let tmp = TempDir::new("failed-flush");
    let mut flaky = Polystore::new();
    flaky.register(Arc::new(FailsFirstFlush { inner: kv_store("left"), failed: false.into() }));
    flaky.register(Arc::new(kv_store("right")));
    let durable = Quepa::create_durable(
        flaky,
        AIndex::new(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
    )
    .unwrap();
    let twin = Quepa::with_config(small_polystore(), AIndex::new(), QuepaConfig::default());
    let script = mutation_script();
    assert!(durable.apply_mutations(&script[0]).is_err(), "the first flush fails");
    assert_index_equal(&durable.index(), &twin.index(), "after a failed flush");
    durable.apply_mutations(&script[1]).unwrap();
    twin.apply_mutations(&script[1]).unwrap();
    drop(durable);
    let (recovered, _) = Quepa::recover_durable(
        small_polystore(),
        QuepaConfig::default(),
        &tmp.0,
        SyncPolicy::Always,
        &RecoveryOptions::default(),
    )
    .unwrap();
    assert_index_equal(&recovered.index(), &twin.index(), "recovered after a failed flush");
}
