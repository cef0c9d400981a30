//! A Cypher-flavoured pattern language: parser and executor.
//!
//! Supported shape (one or two node patterns, at most one relationship):
//!
//! ```text
//! MATCH (a:Label {k: lit, …}) [-[:TYPE[*min..max]]->|-(…)-] [(b …)]
//!   [WHERE var.prop op lit [AND …]]
//! RETURN var [LIMIT n]
//! ```
//!
//! `op` is one of `= <> < <= > >= CONTAINS STARTS WITH`.

use std::cmp::Ordering;

use quepa_pdm::compare::{range_match, value_eq};
use quepa_pdm::ordered::{Cmp, Sarg};
use quepa_pdm::Value;

use crate::graph::{GraphDb, GraphError, Node, Result};

/// A property/inline-filter comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `CONTAINS` (case-insensitive substring)
    Contains,
    /// `STARTS WITH`
    StartsWith,
}

/// One `var.prop op literal` predicate from the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The pattern variable the predicate constrains.
    pub var: String,
    /// The property name (`id` refers to the node id).
    pub prop: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal operand.
    pub value: Value,
}

/// A node pattern `(var:Label {prop: lit})`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePattern {
    /// The variable name (may be empty for anonymous nodes).
    pub var: String,
    /// Optional label constraint.
    pub label: Option<String>,
    /// Inline equality constraints.
    pub props: Vec<(String, Value)>,
}

/// A relationship pattern between the two node patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct RelPattern {
    /// Optional edge-type constraint.
    pub edge_type: Option<String>,
    /// Hop range (1..=1 for a plain edge).
    pub min_hops: usize,
    /// Maximum hops.
    pub max_hops: usize,
    /// True when written `-[…]-` (either direction).
    pub undirected: bool,
}

/// A parsed `MATCH … RETURN …` query.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchQuery {
    /// The first (anchor) node pattern.
    pub anchor: NodePattern,
    /// The optional relationship and second pattern.
    pub hop: Option<(RelPattern, NodePattern)>,
    /// WHERE predicates (conjunctive).
    pub predicates: Vec<Predicate>,
    /// Which variable is returned.
    pub return_var: String,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

/// Parses a query.
pub fn parse_query(text: &str) -> Result<MatchQuery> {
    Parser::new(text).parse()
}

/// The anchor nodes a query has to visit, in the scan's order: by inline
/// id if present; else the label's nodes, narrowed through a declared
/// property index when an inline property or a `WHERE` predicate on the
/// anchor variable bounds one (see [`GraphDb::label_candidates`]); else
/// all nodes. A superset of the anchors that match — [`execute`] checks
/// the whole pattern and every predicate on each.
pub fn anchor_candidates<'g>(g: &'g GraphDb, q: &MatchQuery) -> Vec<&'g Node> {
    let id_constraint =
        q.anchor.props.iter().find(|(k, _)| k == "id").and_then(|(_, v)| v.as_str());
    if let Some(id) = id_constraint {
        return g.get(id).into_iter().collect();
    }
    let Some(label) = &q.anchor.label else { return g.all_nodes().collect() };
    let mut sargs: Vec<Sarg<'_>> = Vec::new();
    for (prop, v) in &q.anchor.props {
        sargs.push(Sarg { field: prop, op: Cmp::Eq, literal: v.clone() });
    }
    for p in q.predicates.iter().filter(|p| p.var == q.anchor.var) {
        let op = match p.op {
            CmpOp::Eq => Cmp::Eq,
            CmpOp::Lt => Cmp::Lt,
            CmpOp::Le => Cmp::Le,
            CmpOp::Gt => Cmp::Gt,
            CmpOp::Ge => Cmp::Ge,
            CmpOp::Ne | CmpOp::Contains | CmpOp::StartsWith => continue,
        };
        sargs.push(Sarg { field: &p.prop, op, literal: p.value.clone() });
    }
    // `id` addresses the node id, not a property.
    sargs.retain(|s| s.field != "id");
    g.label_candidates(label, &sargs)
}

/// Executes a parsed query against a graph.
pub fn execute<'g>(g: &'g GraphDb, q: &MatchQuery) -> Result<Vec<&'g Node>> {
    let anchors = anchor_candidates(g, q);

    let mut out: Vec<&Node> = Vec::new();
    let mut seen: std::collections::HashSet<*const Node> = std::collections::HashSet::new();
    for anchor in anchors {
        if !node_matches(anchor, &q.anchor) {
            continue;
        }
        if !predicates_hold(&q.predicates, &q.anchor.var, anchor) {
            continue;
        }
        match &q.hop {
            None => {
                if q.return_var == q.anchor.var && seen.insert(anchor as *const Node) {
                    out.push(anchor);
                }
            }
            Some((rel, target_pat)) => {
                let reached = g.reachable(
                    &anchor.id,
                    rel.edge_type.as_deref(),
                    rel.min_hops,
                    rel.max_hops,
                    rel.undirected,
                )?;
                for node in reached {
                    if !node_matches(node, target_pat) {
                        continue;
                    }
                    if !predicates_hold(&q.predicates, &target_pat.var, node) {
                        continue;
                    }
                    let returned: &Node =
                        if q.return_var == target_pat.var { node } else { anchor };
                    if seen.insert(returned as *const Node) {
                        out.push(returned);
                    }
                }
            }
        }
        if let Some(limit) = q.limit {
            if out.len() >= limit {
                out.truncate(limit);
                return Ok(out);
            }
        }
    }
    if let Some(limit) = q.limit {
        out.truncate(limit);
    }
    Ok(out)
}

fn node_matches(node: &Node, pat: &NodePattern) -> bool {
    if let Some(label) = &pat.label {
        if &node.label != label {
            return false;
        }
    }
    pat.props.iter().all(|(k, want)| {
        if k == "id" {
            want.as_str() == Some(node.id.as_str())
        } else {
            node.properties.get(k).is_some_and(|have| value_eq(have, want))
        }
    })
}

fn predicates_hold(preds: &[Predicate], var: &str, node: &Node) -> bool {
    preds.iter().filter(|p| p.var == var).all(|p| {
        let id_value;
        let have = if p.prop == "id" {
            id_value = Value::str(node.id.clone());
            Some(&id_value)
        } else {
            node.properties.get(&p.prop)
        };
        let Some(have) = have else { return false };
        match p.op {
            CmpOp::Eq => value_eq(have, &p.value),
            CmpOp::Ne => !value_eq(have, &p.value),
            CmpOp::Lt => range_match(Some(have), &p.value, Ordering::is_lt),
            CmpOp::Le => range_match(Some(have), &p.value, Ordering::is_le),
            CmpOp::Gt => range_match(Some(have), &p.value, Ordering::is_gt),
            CmpOp::Ge => range_match(Some(have), &p.value, Ordering::is_ge),
            CmpOp::Contains => match (have.as_str(), p.value.as_str()) {
                (Some(h), Some(n)) => h.to_lowercase().contains(&n.to_lowercase()),
                _ => false,
            },
            CmpOp::StartsWith => match (have.as_str(), p.value.as_str()) {
                (Some(h), Some(n)) => h.starts_with(n),
                _ => false,
            },
        }
    })
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { s, pos: 0 }
    }

    fn err(&self, m: impl Into<String>) -> GraphError {
        GraphError::Syntax(format!("{} (at byte {})", m.into(), self.pos))
    }

    fn skip_ws(&mut self) {
        while self.s[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.s[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.s[self.pos..];
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            // Must not be a prefix of a longer identifier.
            let after = rest[kw.len()..].chars().next();
            if after.is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect(&mut self, tok: &str) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{tok}`")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.s[self.pos..]
            .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected identifier"))
        } else {
            Ok(self.s[start..self.pos].to_owned())
        }
    }

    fn integer(&mut self) -> Result<usize> {
        self.skip_ws();
        let start = self.pos;
        while self.s[self.pos..].starts_with(|c: char| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.s[start..self.pos].parse().map_err(|_| self.err("expected integer"))
    }

    fn literal(&mut self) -> Result<Value> {
        self.skip_ws();
        if self.eat("'") {
            let start = self.pos;
            while self.pos < self.s.len() && !self.s[self.pos..].starts_with('\'') {
                self.pos += self.s[self.pos..].chars().next().expect("in bounds").len_utf8();
            }
            if self.pos >= self.s.len() {
                return Err(self.err("unterminated string literal"));
            }
            let text = self.s[start..self.pos].to_owned();
            self.pos += 1;
            return Ok(Value::Str(text));
        }
        if self.eat_keyword("true") {
            return Ok(Value::Bool(true));
        }
        if self.eat_keyword("false") {
            return Ok(Value::Bool(false));
        }
        if self.eat_keyword("null") {
            return Ok(Value::Null);
        }
        // Number.
        let start = self.pos;
        let _ = self.eat("-");
        while self.s[self.pos..].starts_with(|c: char| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.s[self.pos..].starts_with('.')
            && self.s[self.pos + 1..].starts_with(|c: char| c.is_ascii_digit())
        {
            is_float = true;
            self.pos += 1;
            while self.s[self.pos..].starts_with(|c: char| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.s[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.err("expected literal"));
        }
        if is_float {
            Ok(Value::Float(text.parse().map_err(|_| self.err("bad float"))?))
        } else {
            Ok(Value::Int(text.parse().map_err(|_| self.err("bad int"))?))
        }
    }

    fn parse(mut self) -> Result<MatchQuery> {
        if !self.eat_keyword("MATCH") {
            return Err(self.err("expected MATCH"));
        }
        let anchor = self.node_pattern()?;
        let hop = if self.eat("<-") {
            // Reversed edge: normalise by swapping endpoints later; keep it
            // simple by rejecting for now — the workload uses -> and -.
            return Err(self.err("left-pointing relationships are not supported"));
        } else if self.eat("-") {
            let rel = self.rel_pattern()?;
            let directed = self.eat("->");
            if !directed {
                self.expect("-")?;
            }
            let target = self.node_pattern()?;
            Some((
                RelPattern {
                    edge_type: rel.0,
                    min_hops: rel.1,
                    max_hops: rel.2,
                    undirected: !directed,
                },
                target,
            ))
        } else {
            None
        };

        let mut predicates = Vec::new();
        if self.eat_keyword("WHERE") {
            loop {
                predicates.push(self.predicate()?);
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }

        if !self.eat_keyword("RETURN") {
            return Err(self.err("expected RETURN"));
        }
        let return_var = self.ident()?;
        let limit = if self.eat_keyword("LIMIT") { Some(self.integer()?) } else { None };
        self.skip_ws();
        if self.pos != self.s.len() {
            return Err(self.err("trailing characters"));
        }

        // Semantic check: the returned variable must be bound.
        let bound_anchor = &anchor.var;
        let bound_target = hop.as_ref().map(|(_, t)| t.var.as_str());
        if return_var != *bound_anchor && Some(return_var.as_str()) != bound_target {
            return Err(GraphError::Syntax(format!("unbound RETURN variable `{return_var}`")));
        }
        Ok(MatchQuery { anchor, hop, predicates, return_var, limit })
    }

    /// `(var[:Label][{k: lit, …}])`
    fn node_pattern(&mut self) -> Result<NodePattern> {
        self.expect("(")?;
        let mut pat = NodePattern::default();
        self.skip_ws();
        if !self.s[self.pos..].starts_with([':', '{', ')']) {
            pat.var = self.ident()?;
        }
        if self.eat(":") {
            pat.label = Some(self.ident()?);
        }
        self.skip_ws();
        if self.eat("{") {
            loop {
                let key = self.ident()?;
                self.expect(":")?;
                let value = self.literal()?;
                pat.props.push((key, value));
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}")?;
        }
        self.expect(")")?;
        Ok(pat)
    }

    /// `[:TYPE[*min..max]]` — returns (type, min, max).
    fn rel_pattern(&mut self) -> Result<(Option<String>, usize, usize)> {
        if !self.eat("[") {
            // Bare `-` or `--`: any type, one hop.
            return Ok((None, 1, 1));
        }
        let edge_type = if self.eat(":") { Some(self.ident()?) } else { None };
        let (min, max) = if self.eat("*") {
            self.skip_ws();
            if self.s[self.pos..].starts_with(|c: char| c.is_ascii_digit()) {
                let min = self.integer()?;
                if self.eat("..") {
                    let max = self.integer()?;
                    (min, max)
                } else {
                    (min, min)
                }
            } else {
                // Bare `*`: the engine caps unbounded traversals at 8 hops,
                // plenty for the workloads and safe on cyclic graphs.
                (1, 8)
            }
        } else {
            (1, 1)
        };
        if min == 0 || max < min {
            return Err(self.err("invalid hop range"));
        }
        self.expect("]")?;
        Ok((edge_type, min, max))
    }

    /// `var.prop op literal`
    fn predicate(&mut self) -> Result<Predicate> {
        let var = self.ident()?;
        self.expect(".")?;
        let prop = self.ident()?;
        self.skip_ws();
        let op = if self.eat("<=") {
            CmpOp::Le
        } else if self.eat(">=") {
            CmpOp::Ge
        } else if self.eat("<>") {
            CmpOp::Ne
        } else if self.eat("<") {
            CmpOp::Lt
        } else if self.eat(">") {
            CmpOp::Gt
        } else if self.eat("=") {
            CmpOp::Eq
        } else if self.eat_keyword("CONTAINS") {
            CmpOp::Contains
        } else if self.eat_keyword("STARTS") {
            if !self.eat_keyword("WITH") {
                return Err(self.err("expected WITH after STARTS"));
            }
            CmpOp::StartsWith
        } else {
            return Err(self.err("expected comparison operator"));
        };
        let value = self.literal()?;
        Ok(Predicate { var, prop, op, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphDb {
        let mut g = GraphDb::new("similar-items");
        for (id, title, plays) in
            [("s1", "Apart", 100), ("s2", "Elise", 250), ("s3", "Cut", 50), ("s4", "Open", 10)]
        {
            g.add_node(id, "Song", [("title", Value::str(title)), ("plays", Value::Int(plays))])
                .unwrap();
        }
        g.add_node("a1", "Album", [("title", Value::str("Wish"))]).unwrap();
        g.add_edge("s1", "s2", "SIMILAR").unwrap();
        g.add_edge("s2", "s3", "SIMILAR").unwrap();
        g.add_edge("s3", "s4", "SIMILAR").unwrap();
        g.add_edge("a1", "s1", "HAS_TRACK").unwrap();
        g
    }

    fn ids(nodes: Vec<&Node>) -> Vec<String> {
        nodes.into_iter().map(|n| n.id.clone()).collect()
    }

    #[test]
    fn match_by_label() {
        let g = sample();
        assert_eq!(g.query("MATCH (n:Song) RETURN n").unwrap().len(), 4);
        assert_eq!(g.query("MATCH (n:Album) RETURN n").unwrap().len(), 1);
        assert_eq!(g.query("MATCH (n) RETURN n").unwrap().len(), 5);
    }

    #[test]
    fn match_inline_props() {
        let g = sample();
        let r = g.query("MATCH (n:Song {title: 'Apart'}) RETURN n").unwrap();
        assert_eq!(ids(r), vec!["s1"]);
        let r = g.query("MATCH (n {id: 's3'}) RETURN n").unwrap();
        assert_eq!(ids(r), vec!["s3"]);
    }

    #[test]
    fn where_clause() {
        let g = sample();
        let r = g.query("MATCH (n:Song) WHERE n.plays >= 100 RETURN n").unwrap();
        assert_eq!(r.len(), 2);
        let r = g
            .query("MATCH (n:Song) WHERE n.plays > 40 AND n.title CONTAINS 'cu' RETURN n")
            .unwrap();
        assert_eq!(ids(r), vec!["s3"]);
        let r = g.query("MATCH (n:Song) WHERE n.title STARTS WITH 'A' RETURN n").unwrap();
        assert_eq!(ids(r), vec!["s1"]);
    }

    #[test]
    fn single_hop() {
        let g = sample();
        let r = g.query("MATCH (n {id: 's1'})-[:SIMILAR]->(m) RETURN m").unwrap();
        assert_eq!(ids(r), vec!["s2"]);
        // Any edge type.
        let r = g.query("MATCH (n {id: 'a1'})-->(m) RETURN m").unwrap();
        assert_eq!(ids(r), vec!["s1"]);
    }

    #[test]
    fn variable_length() {
        let g = sample();
        let r = g.query("MATCH (n {id: 's1'})-[:SIMILAR*1..2]->(m) RETURN m").unwrap();
        assert_eq!(ids(r), vec!["s2", "s3"]);
        let r = g.query("MATCH (n {id: 's1'})-[:SIMILAR*2..3]->(m) RETURN m").unwrap();
        assert_eq!(ids(r), vec!["s3", "s4"]);
        let r = g.query("MATCH (n {id: 's1'})-[:SIMILAR*]->(m) RETURN m").unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn undirected_hop() {
        let g = sample();
        let mut r = ids(g.query("MATCH (n {id: 's2'})-[:SIMILAR]-(m) RETURN m").unwrap());
        r.sort();
        assert_eq!(r, vec!["s1", "s3"]);
    }

    #[test]
    fn where_on_target_var() {
        let g = sample();
        let r = g.query("MATCH (n:Album)-[:HAS_TRACK]->(m) WHERE m.plays >= 100 RETURN m").unwrap();
        assert_eq!(ids(r), vec!["s1"]);
    }

    #[test]
    fn return_anchor_of_hop() {
        let g = sample();
        // Which albums have a track? Return the album.
        let r = g.query("MATCH (n:Album)-[:HAS_TRACK]->(m) RETURN n").unwrap();
        assert_eq!(ids(r), vec!["a1"]);
    }

    #[test]
    fn limit() {
        let g = sample();
        assert_eq!(g.query("MATCH (n:Song) RETURN n LIMIT 2").unwrap().len(), 2);
        assert_eq!(g.query("MATCH (n:Song) RETURN n LIMIT 0").unwrap().len(), 0);
    }

    #[test]
    fn dedup_across_anchors() {
        let g = sample();
        // Both s1 and s2 reach s3 within 2 hops; s3 must appear once.
        let r = g.query("MATCH (n:Song)-[:SIMILAR*1..2]->(m {id: 's3'}) RETURN m").unwrap();
        assert_eq!(ids(r), vec!["s3"]);
    }

    #[test]
    fn syntax_errors() {
        let g = sample();
        for q in [
            "FETCH (n) RETURN n",
            "MATCH n RETURN n",
            "MATCH (n RETURN n",
            "MATCH (n) RETURN",
            "MATCH (n) RETURN m",
            "MATCH (n)-[:X*0..2]->(m) RETURN m",
            "MATCH (n)-[:X*3..2]->(m) RETURN m",
            "MATCH (n) WHERE n.plays ~ 3 RETURN n",
            "MATCH (n) RETURN n LIMIT x",
            "MATCH (n) RETURN n extra",
            "MATCH (n {title: 'unterminated}) RETURN n",
            "MATCH (a)<-[:X]-(b) RETURN a",
        ] {
            assert!(g.query(q).is_err(), "should fail: {q}");
        }
    }

    #[test]
    fn keyword_case_insensitive() {
        let g = sample();
        let r = g.query("match (n:Song) where n.plays > 200 return n limit 5").unwrap();
        assert_eq!(ids(r), vec!["s2"]);
    }

    #[test]
    fn indexed_bounds_keep_the_scan_semantics() {
        let mut scan = GraphDb::new("g");
        for (id, x) in [
            ("a", Value::Null),
            ("b", Value::Int(5)),
            ("c", Value::Float(5.0)),
            ("d", Value::Float(5.5)),
            ("e", Value::Int(7)),
            ("f", Value::str("6")),
            ("g", Value::Float(-0.0)),
            ("h", Value::Int(0)),
        ] {
            scan.add_node(id, "N", [("x", x)]).unwrap();
        }
        scan.add_node("j", "N", std::iter::empty::<(String, Value)>()).unwrap();
        let mut indexed = scan.clone();
        indexed.create_index("N", "x");
        for (pattern, expect) in [
            // Int and Float meet: a Float bound selects Int nodes and back.
            ("(n:N) WHERE n.x >= 5.0", vec!["b", "c", "d", "e"]),
            ("(n:N {x: 5})", vec!["b", "c"]),
            ("(n:N) WHERE n.x >= 5 AND n.x <= 5.5", vec!["b", "c", "d"]),
            // Both zeros equal 0, but only the negative one is below it.
            ("(n:N) WHERE n.x = 0", vec!["g", "h"]),
            ("(n:N) WHERE n.x < 0", vec!["g"]),
            // Type bracketing: a string bound never admits a number, nor
            // a number bound a string.
            ("(n:N) WHERE n.x < '7'", vec!["f"]),
            ("(n:N) WHERE n.x > 6", vec!["e"]),
            // null equals null and orders with nothing.
            ("(n:N) WHERE n.x = null", vec!["a"]),
            ("(n:N) WHERE n.x >= null", vec![]),
        ] {
            let q = format!("MATCH {pattern} RETURN n");
            let nodes = indexed.query(&q).unwrap();
            assert_eq!(ids(nodes.clone()), expect, "{pattern}");
            assert_eq!(nodes, scan.query(&q).unwrap(), "{pattern}");
        }
    }

    #[test]
    fn anchor_candidates_track_result_size_not_graph_size() {
        for n in [1_000, 10_000] {
            let mut g = GraphDb::populate_seeded("g", 7, n);
            g.create_index("Album", "seq");
            let candidates = |q: &str| anchor_candidates(&g, &parse_query(q).unwrap()).len();
            assert_eq!(
                candidates("MATCH (n:Album) WHERE n.seq >= 500 AND n.seq < 540 RETURN n"),
                40
            );
            assert_eq!(
                candidates(
                    "MATCH (n:Album)-[:SIMILAR]->(m) WHERE n.seq >= 500 AND n.seq < 540 \
                     AND n.title STARTS WITH 'album' AND m.seq < 3 RETURN m"
                ),
                40
            );
            assert_eq!(candidates("MATCH (n:Album {seq: 500}) RETURN n"), 1);
            assert_eq!(
                candidates("MATCH (n:Album {seq: 7}) WHERE n.seq < 40 RETURN n"),
                1,
                "equality before range"
            );
            assert_eq!(candidates("MATCH (n:Album) WHERE n.seq > 5 AND n.seq < 3 RETURN n"), 0);
            assert_eq!(candidates("MATCH (n {id: 'g7'}) RETURN n"), 1);
            // No usable conjunct: every node of the label (or the graph).
            for fallback in [
                "MATCH (n:Album) WHERE n.seq <> 3 RETURN n",
                "MATCH (n:Album) WHERE n.title STARTS WITH 'album' RETURN n",
                "MATCH (n:Album {title: 'x'}) RETURN n",
                "MATCH (n:Album)-[:SIMILAR]->(m) WHERE m.seq < 3 RETURN n",
                "MATCH (n:Album) WHERE n.id >= 'g5' RETURN n",
                "MATCH (n) WHERE n.seq < 3 RETURN n",
                "MATCH (n:Album) RETURN n",
            ] {
                assert_eq!(candidates(fallback), n, "{fallback}");
            }
            let nodes = g.query("MATCH (n:Album) WHERE n.seq >= 500 AND n.seq < 540 RETURN n");
            assert_eq!(nodes.unwrap().len(), 40);
        }
    }
}
