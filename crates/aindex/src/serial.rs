//! Persistence for the A' index: a line-based text format.
//!
//! QUEPA deployments replicate the A' index per instance (§III-A); this
//! module gives the index a durable interchange form:
//!
//! ```text
//! quepa-aindex v1
//! node <key>                         # isolated nodes only
//! edge <kind> <origin> <p> <a> <b>   # kind: id|match, origin: direct|promoted
//! ```
//!
//! Keys are percent-escaped (`%`, whitespace, newline) so arbitrary local
//! keys survive. Inferred edges are written `direct`: the index keeps no
//! lineage, so an edge's origin only feeds [`IndexStats`](crate::IndexStats)
//! and a reloaded index counts inferred edges as direct. The origin
//! `inferred` that earlier versions wrote still loads, as `direct`. The
//! graph itself round-trips exactly (same nodes, edges, kinds,
//! probabilities), which is what augmentation semantics depend on.
//!
//! The `node`/`edge` lines are also the body of a checkpoint shard file
//! (`quepa-wal`): [`write_node`], [`write_edge`] and [`apply_lines`] are
//! the one writer and the one parser of that line format.

use std::fmt::Write as _;

use quepa_pdm::{GlobalKey, PdmError, Probability, RelationKind};

use crate::index::{AIndex, EdgeOrigin};

/// Errors raised while loading a serialized index.
#[derive(Debug, Clone, PartialEq)]
pub enum SerialError {
    /// Missing or wrong header line.
    BadHeader(String),
    /// A malformed line, with its 1-based number.
    BadLine {
        /// Line number.
        line: usize,
        /// What is wrong.
        message: String,
    },
    /// A key failed to parse.
    Pdm(PdmError),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::BadHeader(h) => write!(f, "bad header: {h:?}"),
            SerialError::BadLine { line, message } => {
                write!(f, "bad line {line}: {message}")
            }
            SerialError::Pdm(e) => write!(f, "key error: {e}"),
        }
    }
}

impl std::error::Error for SerialError {}

impl From<PdmError> for SerialError {
    fn from(e: PdmError) -> Self {
        SerialError::Pdm(e)
    }
}

const HEADER: &str = "quepa-aindex v1";

/// Percent-escapes `%` and whitespace so an arbitrary key fits in one
/// space-separated token. Shared with the [`IndexOp`](crate::IndexOp)
/// text form (the WAL's record payload).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
pub(crate) fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < s.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3).ok_or("truncated escape")?;
            let v = u8::from_str_radix(hex, 16).map_err(|_| "bad escape digits")?;
            out.push(v as char);
            i += 3;
        } else {
            let c = s[i..].chars().next().expect("in bounds");
            out.push(c);
            i += c.len_utf8();
        }
    }
    Ok(out)
}

/// Appends one `node <key>` line.
pub fn write_node(out: &mut String, key: &GlobalKey) {
    let _ = writeln!(out, "node {}", escape(&key.to_string()));
}

/// Appends one `edge <kind> <origin> <p> <a> <b>` line; an inferred edge
/// is written as `direct`.
pub fn write_edge(
    out: &mut String,
    kind: RelationKind,
    origin: EdgeOrigin,
    prob: Probability,
    a: &GlobalKey,
    b: &GlobalKey,
) {
    let kind = match kind {
        RelationKind::Identity => "id",
        RelationKind::Matching => "match",
    };
    let origin = match origin {
        EdgeOrigin::Direct | EdgeOrigin::Inferred => "direct",
        EdgeOrigin::Promoted => "promoted",
    };
    let _ = writeln!(
        out,
        "edge {kind} {origin} {} {} {}",
        prob.get(),
        escape(&a.to_string()),
        escape(&b.to_string()),
    );
}

/// Serializes the live part of an index.
pub fn to_string(index: &AIndex) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    // Isolated nodes first (nodes with edges are implied by their edges).
    let mut connected: std::collections::HashSet<&GlobalKey> = Default::default();
    let edges = index.live_edges();
    for (a, b, ..) in &edges {
        connected.insert(a);
        connected.insert(b);
    }
    for key in index.keys() {
        if !connected.contains(key) {
            write_node(&mut out, key);
        }
    }
    for (a, b, kind, prob, origin) in edges {
        write_edge(&mut out, kind, origin, prob, a, b);
    }
    out
}

/// Applies `node`/`edge` lines to an index under construction, returning
/// how many were applied; `first_line` numbers the first line of `body`
/// for error reports. Blank lines and `#` comments are skipped. The
/// serialized graph is already closed under the Consistency Condition,
/// so raw insertion suffices (and keeps probabilities bit-exact); an
/// edge listed twice re-applies idempotently.
pub fn apply_lines(
    body: &str,
    first_line: usize,
    index: &mut AIndex,
) -> Result<usize, SerialError> {
    let mut applied = 0;
    for (i, line) in body.lines().enumerate() {
        let bad = |message: &str| SerialError::BadLine {
            line: first_line + i,
            message: message.to_owned(),
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(' ');
        match parts.next() {
            Some("node") => index.ensure_node(&parse_key(parts.next(), "node needs a key", &bad)?),
            Some("edge") => {
                let kind = match parts.next() {
                    Some("id") => RelationKind::Identity,
                    Some("match") => RelationKind::Matching,
                    _ => return Err(bad("edge kind must be id|match")),
                };
                let origin = match parts.next() {
                    Some("direct" | "inferred") => EdgeOrigin::Direct,
                    Some("promoted") => EdgeOrigin::Promoted,
                    _ => return Err(bad("edge origin must be direct|inferred|promoted")),
                };
                let p: f64 = parts
                    .next()
                    .ok_or_else(|| bad("edge needs a probability"))?
                    .parse()
                    .map_err(|_| bad("bad probability"))?;
                let p = Probability::new(p)?;
                let a = parse_key(parts.next(), "edge needs keys", &bad)?;
                let b = parse_key(parts.next(), "edge needs 2 keys", &bad)?;
                index.insert_raw(&a, &b, kind, p, origin);
            }
            _ => return Err(bad("expected node|edge")),
        }
        applied += 1;
    }
    Ok(applied)
}

fn parse_key(
    raw: Option<&str>,
    missing: &str,
    bad: &impl Fn(&str) -> SerialError,
) -> Result<GlobalKey, SerialError> {
    Ok(unescape(raw.ok_or_else(|| bad(missing))?).map_err(|m| bad(&m))?.parse()?)
}

/// Loads an index serialized by [`to_string`].
pub fn from_str(input: &str) -> Result<AIndex, SerialError> {
    let (header, body) = input.split_once('\n').unwrap_or((input, ""));
    if header.trim() != HEADER {
        return Err(SerialError::BadHeader(header.to_owned()));
    }
    let mut index = AIndex::new();
    apply_lines(body, 2, &mut index)?;
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::IndexView;

    fn k(s: &str) -> GlobalKey {
        s.parse().unwrap()
    }

    fn sample() -> AIndex {
        let mut ix = AIndex::new();
        ix.insert_identity(&k("a.c.1"), &k("b.c.1"), Probability::of(0.9));
        ix.insert_identity(&k("b.c.1"), &k("c.c.1"), Probability::of(0.8));
        ix.insert_matching(&k("a.c.1"), &k("d.c.x y"), Probability::of(0.7));
        ix.insert_promoted(&k("a.c.1"), &k("d.c.z"), Probability::of(0.65));
        ix
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let ix = sample();
        let text = to_string(&ix);
        let back = from_str(&text).unwrap();
        assert_eq!(back.node_count(), ix.node_count());
        assert_eq!(back.edge_count(), ix.edge_count());
        let s1 = ix.stats();
        let s2 = back.stats();
        assert_eq!(s1.identity_edges, s2.identity_edges);
        assert_eq!(s1.matching_edges, s2.matching_edges);
        assert_eq!(s1.promoted_edges, s2.promoted_edges);
        // Augmentation answers are identical.
        let a1 = IndexView::of(&ix).augment(&[k("a.c.1")], 2);
        let a2 = IndexView::of(&back).augment(&[k("a.c.1")], 2);
        assert_eq!(a1, a2);
        assert!(back.check_consistency().is_none());
    }

    #[test]
    fn keys_with_spaces_survive() {
        let ix = sample();
        let back = from_str(&to_string(&ix)).unwrap();
        assert!(back.contains(&k("d.c.x y")));
    }

    #[test]
    fn isolated_nodes_survive() {
        let mut ix = sample();
        ix.ensure_node(&k("lonely.c.1"));
        let back = from_str(&to_string(&ix)).unwrap();
        assert!(back.contains(&k("lonely.c.1")));
    }

    #[test]
    fn comments_and_blank_lines_tolerated() {
        let text = format!("{HEADER}\n\n# a comment\nnode a.c.1\n");
        let ix = from_str(&text).unwrap();
        assert!(ix.contains(&k("a.c.1")));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(from_str(""), Err(SerialError::BadHeader(_))));
        assert!(matches!(from_str("wrong header"), Err(SerialError::BadHeader(_))));
        for bad in [
            "garbage line",
            "edge id direct notanumber a.c.1 b.c.1",
            "edge id direct 1.5 a.c.1 b.c.1", // probability out of range
            "edge weird direct 0.5 a.c.1 b.c.1",
            "edge id nowhere 0.5 a.c.1 b.c.1",
            "edge id direct 0.5 a.c.1",
            "node notakey",
        ] {
            let text = format!("{HEADER}\n{bad}\n");
            assert!(from_str(&text).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn escape_roundtrip() {
        for s in ["plain", "with space", "pct%sign", "tab\there", "multi\nline", "ключ"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
        assert!(unescape("%2").is_err());
        assert!(unescape("%zz").is_err());
    }
}
