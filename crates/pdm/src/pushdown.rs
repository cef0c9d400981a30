//! Cross-store pushdown predicates.
//!
//! A [`Pushdown`] is a conjunction of simple field conditions that the
//! augmenter can hand to a connector together with a key set: "fetch these
//! keys, but only return the ones whose value satisfies the predicate".
//! Each native store evaluates it with its own machinery (SQL `WHERE`,
//! document filter, secondary index, traversal filter), but the *meaning*
//! is fixed here, by [`Pushdown::matches`] — the single evaluator the
//! client-side fallback uses and the store-side implementations must agree
//! with. The comparisons are the [`compare`](crate::compare) kernel the
//! store engines' own evaluators call too:
//!
//! * equality is numeric across `Int`/`Float`, structural otherwise;
//! * `ne` requires the field to be *present* (missing fields match nothing);
//! * ordered comparisons are type-bracketed (numeric↔numeric or
//!   string↔string, via `total_cmp`) and never match across types;
//! * `contains` is a case-insensitive substring test on strings;
//! * `prefix` is a case-sensitive prefix test on strings.
//!
//! Predicates have a canonical text form (`<field> <op> <literal>` clauses
//! joined by `" AND "`) used by scenario files and the CLI; `parse` and
//! `Display` round-trip.

use std::cmp::Ordering;
use std::fmt;

use crate::compare::{range_match, value_eq};
use crate::error::PdmError;
use crate::value::Value;

/// The field a clause constrains.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PushField {
    /// The object's local key (as a string).
    Key,
    /// The object's root value (meaningful for scalar-valued stores such
    /// as the key-value engine; for document-shaped objects prefer a path).
    Value,
    /// A dotted path into the object's value.
    Path(String),
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PushOp {
    /// Equal (numeric across int/float).
    Eq,
    /// Not equal; the field must be present.
    Ne,
    /// Greater than (type-bracketed).
    Gt,
    /// Greater or equal (type-bracketed).
    Gte,
    /// Less than (type-bracketed).
    Lt,
    /// Less or equal (type-bracketed).
    Lte,
    /// Case-insensitive substring (strings only).
    Contains,
    /// Case-sensitive prefix (strings only).
    Prefix,
}

impl PushOp {
    fn token(self) -> &'static str {
        match self {
            PushOp::Eq => "eq",
            PushOp::Ne => "ne",
            PushOp::Gt => "gt",
            PushOp::Gte => "gte",
            PushOp::Lt => "lt",
            PushOp::Lte => "lte",
            PushOp::Contains => "contains",
            PushOp::Prefix => "prefix",
        }
    }

    fn from_token(tok: &str) -> Option<PushOp> {
        Some(match tok {
            "eq" => PushOp::Eq,
            "ne" => PushOp::Ne,
            "gt" => PushOp::Gt,
            "gte" => PushOp::Gte,
            "lt" => PushOp::Lt,
            "lte" => PushOp::Lte,
            "contains" => PushOp::Contains,
            "prefix" => PushOp::Prefix,
            _ => return None,
        })
    }
}

/// One field condition.
#[derive(Debug, Clone, PartialEq)]
pub struct PushClause {
    /// The constrained field.
    pub field: PushField,
    /// The comparison.
    pub op: PushOp,
    /// The literal operand.
    pub literal: Value,
}

impl PushClause {
    fn eval(&self, key: &str, value: &Value) -> bool {
        let key_value;
        let field = match &self.field {
            PushField::Key => {
                key_value = Value::str(key);
                Some(&key_value)
            }
            PushField::Value => Some(value),
            PushField::Path(path) => value.get_path(path),
        };
        match self.op {
            PushOp::Eq => field.is_some_and(|f| value_eq(f, &self.literal)),
            PushOp::Ne => field.is_some_and(|f| !value_eq(f, &self.literal)),
            PushOp::Gt => range_match(field, &self.literal, Ordering::is_gt),
            PushOp::Gte => range_match(field, &self.literal, Ordering::is_ge),
            PushOp::Lt => range_match(field, &self.literal, Ordering::is_lt),
            PushOp::Lte => range_match(field, &self.literal, Ordering::is_le),
            PushOp::Contains => {
                let needle = self.literal.as_str().map(str::to_lowercase);
                field
                    .and_then(Value::as_str)
                    .zip(needle)
                    .is_some_and(|(s, n)| s.to_lowercase().contains(&n))
            }
            PushOp::Prefix => field
                .and_then(Value::as_str)
                .zip(self.literal.as_str())
                .is_some_and(|(s, p)| s.starts_with(p)),
        }
    }
}

/// A conjunction of [`PushClause`]s; the unit the planner pushes into a
/// store. An empty conjunction matches everything.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pushdown {
    /// The clauses, all of which must hold.
    pub clauses: Vec<PushClause>,
}

impl Pushdown {
    /// A predicate with a single clause.
    pub fn clause(field: PushField, op: PushOp, literal: Value) -> Self {
        Pushdown { clauses: vec![PushClause { field, op, literal }] }
    }

    /// Convenience: a single clause over the local key.
    pub fn key(op: PushOp, literal: impl Into<Value>) -> Self {
        Self::clause(PushField::Key, op, literal.into())
    }

    /// Convenience: a single clause over a value path.
    pub fn path(path: impl Into<String>, op: PushOp, literal: impl Into<Value>) -> Self {
        Self::clause(PushField::Path(path.into()), op, literal.into())
    }

    /// Convenience: a single clause over the root value.
    pub fn value(op: PushOp, literal: impl Into<Value>) -> Self {
        Self::clause(PushField::Value, op, literal.into())
    }

    /// True when the predicate has no clauses (matches everything).
    pub fn is_trivial(&self) -> bool {
        self.clauses.is_empty()
    }

    /// True when every clause constrains only the local key — such a
    /// predicate is decidable without fetching the object's value.
    pub fn key_only(&self) -> bool {
        self.clauses.iter().all(|c| c.field == PushField::Key)
    }

    /// The canonical evaluator: does the object `(key, value)` satisfy the
    /// conjunction? This is the meaning every store-side implementation
    /// must reproduce.
    pub fn matches(&self, key: &str, value: &Value) -> bool {
        self.clauses.iter().all(|c| c.eval(key, value))
    }

    /// Parses the text form: clauses `<field> <op> <literal>` joined by
    /// `" AND "`, where `<field>` is the word `key` or a dotted path with
    /// a leading dot (`.seq`, `.meta.artist`) and `<literal>` is a PDM
    /// text value (`20`, `"item"`). The empty string is the trivial
    /// predicate.
    pub fn parse(input: &str) -> Result<Pushdown, PdmError> {
        let input = input.trim();
        if input.is_empty() {
            return Ok(Pushdown::default());
        }
        let bad = |msg: String| PdmError::Parse { offset: 0, message: msg };
        let mut clauses = Vec::new();
        for part in input.split(" AND ") {
            let part = part.trim();
            let (field_tok, rest) = part
                .split_once(char::is_whitespace)
                .ok_or_else(|| bad(format!("pushdown clause `{part}` lacks an operator")))?;
            let (op_tok, lit) = rest
                .trim()
                .split_once(char::is_whitespace)
                .ok_or_else(|| bad(format!("pushdown clause `{part}` lacks a literal")))?;
            let field = if field_tok == "key" {
                PushField::Key
            } else if field_tok == "value" {
                PushField::Value
            } else if let Some(path) = field_tok.strip_prefix('.') {
                if path.is_empty() {
                    return Err(bad(format!("empty path in pushdown clause `{part}`")));
                }
                PushField::Path(path.to_owned())
            } else {
                return Err(bad(format!(
                    "pushdown field must be `key` or `.path`, got `{field_tok}`"
                )));
            };
            let op = PushOp::from_token(op_tok)
                .ok_or_else(|| bad(format!("unknown pushdown operator `{op_tok}`")))?;
            let literal = crate::text::parse(lit.trim())
                .map_err(|e| bad(format!("bad pushdown literal `{lit}`: {e}")))?;
            clauses.push(PushClause { field, op, literal });
        }
        Ok(Pushdown { clauses })
    }
}

impl fmt::Display for Pushdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.clauses {
            if !first {
                f.write_str(" AND ")?;
            }
            first = false;
            match &c.field {
                PushField::Key => f.write_str("key")?,
                PushField::Value => f.write_str("value")?,
                PushField::Path(p) => write!(f, ".{p}")?,
            }
            write!(f, " {} {}", c.op.token(), c.literal)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn album() -> Value {
        Value::object([
            ("title", Value::str("Wish")),
            ("seq", Value::Int(7)),
            ("meta", Value::object([("artist", Value::str("The Cure"))])),
        ])
    }

    #[test]
    fn trivial_matches_everything() {
        let p = Pushdown::default();
        assert!(p.is_trivial());
        assert!(p.matches("k1", &album()));
        assert!(p.matches("", &Value::Null));
    }

    #[test]
    fn key_clauses() {
        assert!(Pushdown::key(PushOp::Prefix, "a3").matches("a32", &Value::Null));
        assert!(!Pushdown::key(PushOp::Prefix, "A3").matches("a32", &Value::Null));
        assert!(Pushdown::key(PushOp::Contains, "A3").matches("xa32", &Value::Null));
        assert!(Pushdown::key(PushOp::Lt, "a40").matches("a32", &Value::Null));
        assert!(Pushdown::key(PushOp::Eq, "a32").matches("a32", &Value::Null));
        assert!(Pushdown::key(PushOp::Ne, "a32").matches("a33", &Value::Null));
    }

    #[test]
    fn path_clauses_follow_doc_semantics() {
        let a = album();
        assert!(Pushdown::path("seq", PushOp::Lt, 10).matches("k", &a));
        assert!(!Pushdown::path("seq", PushOp::Gt, 10).matches("k", &a));
        // Numeric cross-type equality.
        assert!(Pushdown::path("seq", PushOp::Eq, Value::Float(7.0)).matches("k", &a));
        // Type bracketing: number vs string never matches.
        assert!(!Pushdown::path("seq", PushOp::Lt, "10").matches("k", &a));
        // Missing fields match nothing, even for ne.
        assert!(!Pushdown::path("year", PushOp::Ne, 3).matches("k", &a));
        // Dotted paths and string ops.
        assert!(Pushdown::path("meta.artist", PushOp::Contains, "cure").matches("k", &a));
        assert!(Pushdown::path("meta.artist", PushOp::Prefix, "The").matches("k", &a));
        assert!(!Pushdown::path("meta.artist", PushOp::Prefix, "the").matches("k", &a));
    }

    #[test]
    fn conjunction_requires_all() {
        let mut p = Pushdown::key(PushOp::Prefix, "a");
        p.clauses.extend(Pushdown::path("seq", PushOp::Lt, 10).clauses);
        assert!(p.matches("a1", &album()));
        assert!(!p.matches("b1", &album()));
        assert!(!p.key_only());
        assert!(Pushdown::key(PushOp::Eq, "a").key_only());
    }

    #[test]
    fn root_value_clauses() {
        let v = Value::str("v00ff");
        assert!(Pushdown::value(PushOp::Eq, "v00ff").matches("k1", &v));
        assert!(Pushdown::value(PushOp::Contains, "00FF").matches("k1", &v));
        assert!(!Pushdown::value(PushOp::Eq, "other").matches("k1", &v));
        // Path clauses never match a scalar root.
        assert!(!Pushdown::path("x", PushOp::Eq, "v00ff").matches("k1", &v));
    }

    #[test]
    fn text_round_trip() {
        for p in [
            Pushdown::default(),
            Pushdown::key(PushOp::Prefix, "a3"),
            Pushdown::value(PushOp::Contains, "00"),
            Pushdown::path("seq", PushOp::Lt, 20),
            Pushdown::path("meta.artist", PushOp::Contains, "cure"),
            {
                let mut p = Pushdown::key(PushOp::Gte, "a10");
                p.clauses.extend(Pushdown::path("seq", PushOp::Ne, Value::Float(1.5)).clauses);
                p
            },
        ] {
            let text = p.to_string();
            let back = Pushdown::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, p, "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Pushdown::parse("key").is_err());
        assert!(Pushdown::parse("key lt").is_err());
        assert!(Pushdown::parse("seq lt 20").is_err(), "paths need a leading dot");
        assert!(Pushdown::parse(". lt 20").is_err());
        assert!(Pushdown::parse("key frobs 20").is_err());
        assert!(Pushdown::parse("key lt }{").is_err());
    }
}
