//! Recovery property test: for any seeded mutation sequence and any
//! checkpoint-cut schedule, `load(newest cut) + replay(wal tail)` must
//! equal replaying the full log from empty — and equal the live,
//! never-restarted instance.
//!
//! Cuts are taken at random points and re-serialize only the shards
//! dirtied since the previous cut, carrying the rest over — the same
//! incremental discipline the durable system uses, including the
//! remove-object neighbour-shard caveat (see
//! `quepa_aindex::shard::UpdateReport`). Equality is judged on the
//! answer surface with exact probability bits: membership, neighbors,
//! and multi-level augmentation.

use std::path::PathBuf;

use quepa_aindex::{AIndex, IndexView, ShardedIndex, SHARD_COUNT};
use quepa_pdm::{GlobalKey, Probability, RelationKind};
use quepa_wal::{recover, wal_path, write_cut, IndexOp, RecoveryOptions, SyncPolicy, Wal};

/// SplitMix64 — the same generator family the simulation harness uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: u64) -> Self {
        let dir =
            std::env::temp_dir().join(format!("quepa-prop-recovery-{}-{tag}", std::process::id()));
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

fn universe() -> Vec<GlobalKey> {
    let mut keys = Vec::new();
    for store in 0..4 {
        for obj in 0..7 {
            keys.push(format!("db{store}.objects.k{obj}").parse().unwrap());
        }
    }
    keys
}

fn random_op(rng: &mut Rng, keys: &[GlobalKey]) -> IndexOp {
    let a = keys[rng.below(keys.len() as u64) as usize].clone();
    let b = keys[rng.below(keys.len() as u64) as usize].clone();
    let p = Probability::of(0.05 + 0.009 * rng.below(100) as f64);
    match rng.below(100) {
        0..=34 => IndexOp::InsertIdentity { a, b, p },
        35..=59 => IndexOp::InsertMatching { a, b, p },
        60..=69 => IndexOp::InsertPromoted { a, b, p },
        70..=89 => IndexOp::RemoveObject { key: a },
        _ => IndexOp::DeleteRelation {
            a,
            b,
            kind: if rng.chance(50) { RelationKind::Identity } else { RelationKind::Matching },
        },
    }
}

fn assert_answers_equal(got: &AIndex, want: &AIndex, keys: &[GlobalKey], seed: u64) {
    assert_eq!(got.node_count(), want.node_count(), "seed {seed}: node counts diverge");
    let (got, want) = (IndexView::of(got), IndexView::of(want));
    for key in keys {
        assert_eq!(
            got.contains(key),
            want.contains(key),
            "seed {seed}: membership diverges for {key}"
        );
        assert_eq!(
            got.neighbors(key),
            want.neighbors(key),
            "seed {seed}: neighbors diverge for {key}"
        );
    }
    for level in 0..3 {
        for chunk in keys.chunks(5) {
            assert_eq!(
                got.augment(chunk, level),
                want.augment(chunk, level),
                "seed {seed}: augmentation diverges (level {level}, seeds {chunk:?})"
            );
        }
    }
}

/// One seeded run: random ops, random incremental-cut schedule,
/// recover, compare against full replay from empty and the live index.
fn run_seed(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9) + 1);
    let keys = universe();
    let total_ops = 20 + rng.below(60) as usize;
    let tmp = TempDir::new(seed);

    let (mut wal, _) = Wal::open(&wal_path(&tmp.0), SyncPolicy::Buffered).unwrap();
    // The live system the WAL shadows: a sharded index so cuts
    // serialize exactly what a durable instance would serialize.
    let sharded = ShardedIndex::new(AIndex::new());
    let mut ops: Vec<IndexOp> = Vec::new();
    // Shards dirty since the last cut; before any cut exists every
    // shard must be serialized fresh.
    let mut dirty = [true; SHARD_COUNT];

    for _ in 0..total_ops {
        let op = random_op(&mut rng, &keys);
        let lsn = wal.append(std::slice::from_ref(&op)).unwrap();
        let report = sharded.apply(std::slice::from_ref(&op));
        for shard in report.dirty {
            dirty[shard] = true;
        }
        ops.push(op);

        // Random cut schedule: serialize dirty shards, carry the rest
        // over from the previous cut, occasionally compact the WAL.
        if rng.chance(18) {
            write_cut(&tmp.0, lsn, |shard| dirty[shard].then(|| sharded.serialize_shard(shard)))
                .unwrap();
            dirty = [false; SHARD_COUNT];
            if rng.chance(50) {
                wal.clear().unwrap();
            }
        }
    }
    drop(wal);

    let (recovered, _, report) =
        recover(&tmp.0, SyncPolicy::Buffered, &RecoveryOptions::default()).unwrap();

    let mut full_replay = AIndex::new();
    for op in &ops {
        op.apply(&mut full_replay);
    }
    assert_answers_equal(&recovered, &full_replay, &keys, seed);

    // The live instance must agree too (recovery reproduces the state
    // the never-crashed system holds).
    let live = sharded.snapshot();
    assert_answers_equal(&recovered, &live, &keys, seed);

    assert!(report.last_lsn as usize <= total_ops);
}

#[test]
fn recovery_equals_full_replay_across_seeds_and_schedules() {
    for seed in 0..60 {
        run_seed(seed);
    }
}
