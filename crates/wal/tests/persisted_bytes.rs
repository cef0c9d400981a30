//! The persisted formats, byte for byte: the A' index's serial text, one
//! WAL frame and the shard files of one checkpoint cut, for a fixed index
//! whose keys need escaping. The golden files under `tests/golden/` were
//! written by the release before `GlobalKey` became a one-pointer handle;
//! a change to how keys are held in memory must not move one byte on
//! disk, so old logs and cuts keep loading.

use std::path::PathBuf;

use quepa_aindex::{serial, AIndex, ShardedIndex, SHARD_COUNT};
use quepa_pdm::{GlobalKey, Probability};
use quepa_wal::{checkpoint_path, write_cut, IndexOp, SyncPolicy, Wal};

fn k(s: &str) -> GlobalKey {
    s.parse().unwrap()
}

/// Identity, matching and promoted relations, an isolated node, and local
/// keys with a space, a `%`, a tab and a newline.
fn fixed_index() -> AIndex {
    let mut index = AIndex::new();
    index.insert_identity(
        &k("transactions.sales.s 8"),
        &k("catalogue.albums.d1"),
        Probability::of(0.9),
    );
    index.insert_identity(&k("catalogue.albums.d1"), &k("similar.album.a%1"), Probability::of(0.8));
    index.insert_matching(
        &k("transactions.sales.s 8"),
        &k("discount.drop.k1:cure\twish"),
        Probability::of(0.731),
    );
    index.insert_promoted(
        &k("similar.album.a%1"),
        &k("discount.drop.k2\nfaith"),
        Probability::of(0.5),
    );
    index.ensure_node(&k("catalogue.albums.lonely one"));
    index
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("quepa-persisted-bytes-{}-{tag}", std::process::id()));
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

fn hex(bytes: &[u8]) -> String {
    let mut out: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    out.push('\n');
    out
}

#[test]
fn serial_text_is_unchanged() {
    assert_eq!(serial::to_string(&fixed_index()), include_str!("golden/index.txt"));
}

#[test]
fn wal_frame_is_unchanged() {
    let tmp = TempDir::new("wal");
    let path = tmp.0.join("wal.log");
    let (mut wal, _) = Wal::open(&path, SyncPolicy::Buffered).unwrap();
    let op = IndexOp::InsertMatching {
        a: k("transactions.sales.s 8"),
        b: k("discount.drop.k1:cure\twish"),
        p: Probability::of(0.731),
    };
    wal.append(&[op]).unwrap();
    drop(wal);
    assert_eq!(hex(&std::fs::read(&path).unwrap()), include_str!("golden/wal_frame.hex"));
}

#[test]
fn checkpoint_shard_files_are_unchanged() {
    let tmp = TempDir::new("cut");
    let sharded = ShardedIndex::new(fixed_index());
    let cut = write_cut(&tmp.0, 7, |shard| Some(sharded.serialize_shard(shard))).unwrap();
    let files: String = (0..SHARD_COUNT)
        .map(|shard| std::fs::read_to_string(checkpoint_path(&cut, shard)).unwrap())
        .collect();
    assert_eq!(files, include_str!("golden/checkpoint.txt"));
}
