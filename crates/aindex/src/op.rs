//! Logical index mutations — the one way to change a published index.
//!
//! Every change to a live [`ShardedIndex`](crate::ShardedIndex) is a
//! batch of [`IndexOp`]s (see [`ShardedIndex::apply`](crate::ShardedIndex::apply)),
//! and the same ops are the write-ahead log's record payload
//! (`quepa-wal`). An op is *logical*: it names the operation
//! (`insert-identity`, `remove`, …), not the edges it ends up touching,
//! so replay re-runs transitivity materialization and the Consistency
//! Condition exactly as the original execution did. The text form is
//! one line: keys are percent-escaped (the escaping of [`crate::serial`])
//! and probabilities use Rust's shortest round-trip `f64` display, which
//! reproduces the exact bits.

use quepa_pdm::{GlobalKey, Probability, RelationKind};

use crate::index::AIndex;
use crate::serial::{escape, unescape};

/// One logical mutation of the A' index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexOp {
    /// Insert an identity p-relation (materializes transitivity).
    InsertIdentity {
        /// First endpoint.
        a: GlobalKey,
        /// Second endpoint.
        b: GlobalKey,
        /// Relation probability.
        p: Probability,
    },
    /// Insert a matching p-relation (enforces the Consistency Condition).
    InsertMatching {
        /// First endpoint.
        a: GlobalKey,
        /// Second endpoint.
        b: GlobalKey,
        /// Relation probability.
        p: Probability,
    },
    /// Promote a traversed exploration path into a shortcut matching.
    InsertPromoted {
        /// First endpoint.
        a: GlobalKey,
        /// Second endpoint.
        b: GlobalKey,
        /// Averaged path probability.
        p: Probability,
    },
    /// Lazy deletion of a vanished object and its incident edges.
    RemoveObject {
        /// The vanished object's global key.
        key: GlobalKey,
    },
    /// Delete one p-relation; the relations inferred from it stay.
    DeleteRelation {
        /// First endpoint.
        a: GlobalKey,
        /// Second endpoint.
        b: GlobalKey,
        /// Which edge kind to delete.
        kind: RelationKind,
    },
}

fn kind_tag(kind: RelationKind) -> &'static str {
    match kind {
        RelationKind::Identity => "id",
        RelationKind::Matching => "match",
    }
}

impl IndexOp {
    /// Applies the operation to an index, running the full insertion /
    /// deletion semantics (materialization, consistency).
    pub fn apply(&self, index: &mut AIndex) {
        match self {
            IndexOp::InsertIdentity { a, b, p } => index.insert_identity(a, b, *p),
            IndexOp::InsertMatching { a, b, p } => index.insert_matching(a, b, *p),
            IndexOp::InsertPromoted { a, b, p } => {
                index.insert_promoted(a, b, *p);
            }
            IndexOp::RemoveObject { key } => index.remove_object(key),
            IndexOp::DeleteRelation { a, b, kind } => {
                index.delete_prelation(a, b, *kind);
            }
        }
    }

    /// Encodes the operation as a single line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            IndexOp::InsertIdentity { a, b, p } => {
                format!("insert-identity {} {} {}", p.get(), key_token(a), key_token(b))
            }
            IndexOp::InsertMatching { a, b, p } => {
                format!("insert-matching {} {} {}", p.get(), key_token(a), key_token(b))
            }
            IndexOp::InsertPromoted { a, b, p } => {
                format!("insert-promoted {} {} {}", p.get(), key_token(a), key_token(b))
            }
            IndexOp::RemoveObject { key } => format!("remove {}", key_token(key)),
            IndexOp::DeleteRelation { a, b, kind } => {
                format!("delete-relation {} {} {}", kind_tag(*kind), key_token(a), key_token(b))
            }
        }
    }

    /// Decodes a line produced by [`encode`](IndexOp::encode).
    pub fn decode(line: &str) -> Result<IndexOp, String> {
        let mut parts = line.split(' ');
        let verb = parts.next().ok_or("empty op")?;
        let prob = |parts: &mut std::str::Split<'_, char>| -> Result<Probability, String> {
            let raw = parts.next().ok_or("op needs a probability")?;
            let p: f64 = raw.parse().map_err(|_| format!("bad probability {raw:?}"))?;
            Probability::new(p).map_err(|e| e.to_string())
        };
        match verb {
            "insert-identity" => {
                let p = prob(&mut parts)?;
                let (a, b) = two_keys(&mut parts)?;
                Ok(IndexOp::InsertIdentity { a, b, p })
            }
            "insert-matching" => {
                let p = prob(&mut parts)?;
                let (a, b) = two_keys(&mut parts)?;
                Ok(IndexOp::InsertMatching { a, b, p })
            }
            "insert-promoted" => {
                let p = prob(&mut parts)?;
                let (a, b) = two_keys(&mut parts)?;
                Ok(IndexOp::InsertPromoted { a, b, p })
            }
            "remove" => {
                let key = one_key(&mut parts)?;
                Ok(IndexOp::RemoveObject { key })
            }
            "delete-relation" => {
                let kind = match parts.next() {
                    Some("id") => RelationKind::Identity,
                    Some("match") => RelationKind::Matching,
                    other => return Err(format!("bad relation kind {other:?}")),
                };
                let (a, b) = two_keys(&mut parts)?;
                Ok(IndexOp::DeleteRelation { a, b, kind })
            }
            other => Err(format!("unknown op verb {other:?}")),
        }
    }
}

fn key_token(key: &GlobalKey) -> String {
    escape(&key.to_string())
}

fn one_key(parts: &mut std::str::Split<'_, char>) -> Result<GlobalKey, String> {
    let raw = parts.next().ok_or("op needs a key")?;
    unescape(raw)?.parse().map_err(|e: quepa_pdm::PdmError| e.to_string())
}

fn two_keys(parts: &mut std::str::Split<'_, char>) -> Result<(GlobalKey, GlobalKey), String> {
    Ok((one_key(parts)?, one_key(parts)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexView;

    fn k(s: &str) -> GlobalKey {
        s.parse().unwrap()
    }

    fn all_ops() -> Vec<IndexOp> {
        vec![
            IndexOp::InsertIdentity { a: k("db0.c.a"), b: k("db1.c.b"), p: Probability::of(0.9) },
            IndexOp::InsertMatching {
                a: k("db0.c.a"),
                b: k("db2.c.x y"),
                p: Probability::of(0.731),
            },
            IndexOp::InsertPromoted { a: k("db0.c.a"), b: k("db3.c.z"), p: Probability::of(0.5) },
            IndexOp::RemoveObject { key: k("db2.c.x y") },
            IndexOp::DeleteRelation {
                a: k("db0.c.a"),
                b: k("db1.c.b"),
                kind: RelationKind::Identity,
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for op in all_ops() {
            let line = op.encode();
            assert_eq!(IndexOp::decode(&line).unwrap(), op, "line {line:?}");
        }
    }

    #[test]
    fn probability_bits_survive() {
        // 0.1 + 0.2 is the classic non-representable sum; the shortest
        // round-trip display must reproduce the exact bits.
        let p = Probability::new(0.1f64 + 0.2f64).unwrap();
        let op = IndexOp::InsertIdentity { a: k("a.c.1"), b: k("b.c.1"), p };
        match IndexOp::decode(&op.encode()).unwrap() {
            IndexOp::InsertIdentity { p: back, .. } => {
                assert_eq!(back.get().to_bits(), p.get().to_bits());
            }
            other => panic!("wrong op {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "",
            "frobnicate a.c.1",
            "insert-identity notanumber a.c.1 b.c.1",
            "insert-identity 1.5 a.c.1 b.c.1",
            "insert-identity 0.5 a.c.1",
            "remove",
            "remove notakey",
            "delete-relation sideways a.c.1 b.c.1",
        ] {
            assert!(IndexOp::decode(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn apply_matches_direct_mutation() {
        let mut direct = AIndex::new();
        direct.insert_identity(&k("a.c.1"), &k("b.c.1"), Probability::of(0.9));
        direct.insert_matching(&k("a.c.1"), &k("m.c.1"), Probability::of(0.7));
        direct.remove_object(&k("b.c.1"));

        let mut replayed = AIndex::new();
        for op in [
            IndexOp::InsertIdentity { a: k("a.c.1"), b: k("b.c.1"), p: Probability::of(0.9) },
            IndexOp::InsertMatching { a: k("a.c.1"), b: k("m.c.1"), p: Probability::of(0.7) },
            IndexOp::RemoveObject { key: k("b.c.1") },
        ] {
            op.apply(&mut replayed);
        }
        assert_eq!(direct.stats(), replayed.stats());
        assert_eq!(
            IndexView::of(&direct).augment(&[k("a.c.1")], 2),
            IndexView::of(&replayed).augment(&[k("a.c.1")], 2)
        );
    }
}
