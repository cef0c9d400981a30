//! Filter documents: a compiled form of Mongo-style query filters and the
//! matcher that evaluates them against documents.

use std::cmp::Ordering;

use quepa_pdm::compare::{like_match, range_match, value_eq};
use quepa_pdm::ordered::{Cmp, Sarg};
use quepa_pdm::Value;

use crate::error::{DocError, Result};

/// A single field condition.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldOp {
    /// `$eq` (also the implicit form `{"f": v}`).
    Eq(Value),
    /// `$ne`
    Ne(Value),
    /// `$gt`
    Gt(Value),
    /// `$gte`
    Gte(Value),
    /// `$lt`
    Lt(Value),
    /// `$lte`
    Lte(Value),
    /// `$in`: the field value is one of the listed values.
    In(Vec<Value>),
    /// `$exists`: the field is present (true) / absent (false).
    Exists(bool),
    /// `$like`: SQL-style pattern with `%`/`_`, case-insensitive.
    Like(String),
    /// `$contains`: case-insensitive substring.
    Contains(String),
    /// `$prefix`: case-sensitive prefix.
    Prefix(String),
}

/// A compiled filter.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    All,
    /// A condition on one (dotted) field path.
    Field {
        /// Dotted field path.
        path: String,
        /// The condition.
        op: FieldOp,
    },
    /// Conjunction.
    And(Vec<Filter>),
    /// Disjunction.
    Or(Vec<Filter>),
    /// Negation.
    Not(Box<Filter>),
}

impl Filter {
    /// Compiles a filter from its value form (the parsed JSON the query
    /// language carries).
    ///
    /// `{}` compiles to [`Filter::All`]; `{"a": 1, "b": {"$gt": 2}}` to a
    /// conjunction of field conditions; `{"$or": [f1, f2]}` and friends to
    /// boolean combinators.
    pub fn compile(spec: &Value) -> Result<Filter> {
        let obj = spec
            .as_object()
            .ok_or_else(|| DocError::BadFilter(format!("filter must be an object, got {spec}")))?;
        let mut clauses = Vec::with_capacity(obj.len());
        for (key, val) in obj {
            if let Some(op) = key.strip_prefix('$') {
                clauses.push(Self::compile_logical(op, val)?);
            } else {
                clauses.push(Self::compile_field(key, val)?);
            }
        }
        Ok(match clauses.len() {
            0 => Filter::All,
            1 => clauses.pop().expect("one clause"),
            _ => Filter::And(clauses),
        })
    }

    fn compile_logical(op: &str, val: &Value) -> Result<Filter> {
        match op {
            "and" | "or" => {
                let items = val.as_array().ok_or_else(|| {
                    DocError::BadFilter(format!("${op} requires an array of filters"))
                })?;
                let parts: Result<Vec<Filter>> = items.iter().map(Self::compile).collect();
                let parts = parts?;
                if parts.is_empty() {
                    return Err(DocError::BadFilter(format!("${op} requires at least one filter")));
                }
                Ok(if op == "and" { Filter::And(parts) } else { Filter::Or(parts) })
            }
            "not" => Ok(Filter::Not(Box::new(Self::compile(val)?))),
            other => Err(DocError::BadFilter(format!("unknown logical operator ${other}"))),
        }
    }

    fn compile_field(path: &str, val: &Value) -> Result<Filter> {
        // An object whose every key starts with `$` is an operator document;
        // any other value is an implicit equality.
        let ops = match val.as_object() {
            Some(m) if !m.is_empty() && m.keys().all(|k| k.starts_with('$')) => m,
            _ => return Ok(Filter::Field { path: path.to_owned(), op: FieldOp::Eq(val.clone()) }),
        };
        let mut clauses = Vec::with_capacity(ops.len());
        for (opname, operand) in ops {
            let op = match opname {
                "$eq" => FieldOp::Eq(operand.clone()),
                "$ne" => FieldOp::Ne(operand.clone()),
                "$gt" => FieldOp::Gt(operand.clone()),
                "$gte" => FieldOp::Gte(operand.clone()),
                "$lt" => FieldOp::Lt(operand.clone()),
                "$lte" => FieldOp::Lte(operand.clone()),
                "$in" => FieldOp::In(
                    operand
                        .as_array()
                        .ok_or_else(|| DocError::BadFilter("$in requires an array".into()))?
                        .to_vec(),
                ),
                "$exists" => FieldOp::Exists(
                    operand
                        .as_bool()
                        .ok_or_else(|| DocError::BadFilter("$exists requires a bool".into()))?,
                ),
                "$like" => FieldOp::Like(str_operand(opname, operand)?),
                "$contains" => FieldOp::Contains(str_operand(opname, operand)?),
                "$prefix" => FieldOp::Prefix(str_operand(opname, operand)?),
                other => return Err(DocError::BadFilter(format!("unknown operator {other}"))),
            };
            clauses.push(Filter::Field { path: path.to_owned(), op });
        }
        Ok(if clauses.len() == 1 {
            clauses.pop().expect("one clause")
        } else {
            Filter::And(clauses)
        })
    }

    /// The canonical value form of the filter: `compile(&f.to_spec())`
    /// reconstructs a structurally equal filter — the round-trip property
    /// the fuzz suite checks.
    ///
    /// The form is fully explicit (always `{"path": {"$op": v}}`, never
    /// the implicit-equality shorthand), so it is unambiguous even when
    /// an equality operand is itself an all-`$`-keys object. The contract
    /// covers every filter `compile` can produce; hand-built filters with
    /// a `$`-prefixed field path or an empty `And`/`Or` have no spec form
    /// (neither does `compile` ever produce them).
    pub fn to_spec(&self) -> Value {
        match self {
            Filter::All => Value::Object(Default::default()),
            Filter::Field { path, op } => Value::object([(path.clone(), op.to_spec())]),
            Filter::And(fs) => {
                Value::object([("$and", Value::array(fs.iter().map(Filter::to_spec)))])
            }
            Filter::Or(fs) => {
                Value::object([("$or", Value::array(fs.iter().map(Filter::to_spec)))])
            }
            Filter::Not(f) => Value::object([("$not", f.to_spec())]),
        }
    }

    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Value) -> bool {
        match self {
            Filter::All => true,
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
            Filter::Field { path, op } => {
                let field = doc.get_path(path);
                match op {
                    FieldOp::Exists(want) => field.is_some() == *want,
                    FieldOp::Eq(v) => field.is_some_and(|f| value_eq(f, v)),
                    FieldOp::Ne(v) => field.is_some_and(|f| !value_eq(f, v)),
                    FieldOp::Gt(v) => range_match(field, v, Ordering::is_gt),
                    FieldOp::Gte(v) => range_match(field, v, Ordering::is_ge),
                    FieldOp::Lt(v) => range_match(field, v, Ordering::is_lt),
                    FieldOp::Lte(v) => range_match(field, v, Ordering::is_le),
                    FieldOp::In(vs) => field.is_some_and(|f| vs.iter().any(|v| value_eq(f, v))),
                    FieldOp::Like(p) => {
                        field.and_then(Value::as_str).is_some_and(|s| like_match(p, s))
                    }
                    FieldOp::Contains(needle) => field
                        .and_then(Value::as_str)
                        .is_some_and(|s| s.to_lowercase().contains(&needle.to_lowercase())),
                    FieldOp::Prefix(p) => {
                        field.and_then(Value::as_str).is_some_and(|s| s.starts_with(p))
                    }
                }
            }
        }
    }

    /// Collects, from the top-level conjunction, every condition an
    /// ordered index can answer: `$eq`, `$gt`, `$gte`, `$lt`, `$lte` on a
    /// field path. `$or`, `$not`, `$ne`, `$in`, `$exists` and the string
    /// operators are skipped: they stay in the filter, they just offer no
    /// bound.
    pub fn conjunct_bounds<'a>(&'a self, out: &mut Vec<Sarg<'a>>) {
        match self {
            Filter::And(fs) => fs.iter().for_each(|f| f.conjunct_bounds(out)),
            Filter::Field { path, op } => {
                let (cmp, literal) = match op {
                    FieldOp::Eq(v) => (Cmp::Eq, v),
                    FieldOp::Gt(v) => (Cmp::Gt, v),
                    FieldOp::Gte(v) => (Cmp::Ge, v),
                    FieldOp::Lt(v) => (Cmp::Lt, v),
                    FieldOp::Lte(v) => (Cmp::Le, v),
                    _ => return,
                };
                out.push(Sarg { field: path, op: cmp, literal: literal.clone() });
            }
            _ => {}
        }
    }

    /// If this filter is exactly `_id = <string>` (possibly the only clause),
    /// returns the id — the store uses it for a point lookup.
    pub fn as_id_lookup(&self) -> Option<&str> {
        match self {
            Filter::Field { path, op: FieldOp::Eq(Value::Str(s)) } if path == "_id" => Some(s),
            _ => None,
        }
    }
}

impl FieldOp {
    /// The operator document for this condition, e.g. `{"$gt": 3}`.
    fn to_spec(&self) -> Value {
        let (name, operand) = match self {
            FieldOp::Eq(v) => ("$eq", v.clone()),
            FieldOp::Ne(v) => ("$ne", v.clone()),
            FieldOp::Gt(v) => ("$gt", v.clone()),
            FieldOp::Gte(v) => ("$gte", v.clone()),
            FieldOp::Lt(v) => ("$lt", v.clone()),
            FieldOp::Lte(v) => ("$lte", v.clone()),
            FieldOp::In(vs) => ("$in", Value::Array(vs.clone())),
            FieldOp::Exists(b) => ("$exists", Value::Bool(*b)),
            FieldOp::Like(s) => ("$like", Value::str(s.clone())),
            FieldOp::Contains(s) => ("$contains", Value::str(s.clone())),
            FieldOp::Prefix(s) => ("$prefix", Value::str(s.clone())),
        };
        Value::object([(name, operand)])
    }
}

fn str_operand(op: &str, operand: &Value) -> Result<String> {
    operand
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| DocError::BadFilter(format!("{op} requires a string")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_pdm::text;

    fn filter(s: &str) -> Filter {
        Filter::compile(&text::parse(s).unwrap()).unwrap()
    }

    fn doc(s: &str) -> Value {
        text::parse(s).unwrap()
    }

    #[test]
    fn empty_filter_matches_all() {
        assert_eq!(filter("{}"), Filter::All);
        assert!(filter("{}").matches(&doc(r#"{"a":1}"#)));
    }

    #[test]
    fn implicit_equality() {
        let f = filter(r#"{"title":"Wish"}"#);
        assert!(f.matches(&doc(r#"{"title":"Wish","year":1992}"#)));
        assert!(!f.matches(&doc(r#"{"title":"Faith"}"#)));
        assert!(!f.matches(&doc(r#"{"year":1992}"#)));
    }

    #[test]
    fn comparison_operators() {
        let f = filter(r#"{"year":{"$gte":1990,"$lt":1995}}"#);
        assert!(f.matches(&doc(r#"{"year":1992}"#)));
        assert!(!f.matches(&doc(r#"{"year":1989}"#)));
        assert!(!f.matches(&doc(r#"{"year":1995}"#)));
        assert!(!f.matches(&doc(r#"{"year":"1992"}"#)), "type bracketing");
        assert!(!f.matches(&doc(r#"{}"#)));
    }

    #[test]
    fn string_operators() {
        assert!(filter(r#"{"t":{"$like":"%wish%"}}"#).matches(&doc(r#"{"t":"Wish"}"#)));
        assert!(filter(r#"{"t":{"$contains":"CURE"}}"#).matches(&doc(r#"{"t":"The Cure"}"#)));
        assert!(filter(r#"{"t":{"$prefix":"The"}}"#).matches(&doc(r#"{"t":"The Cure"}"#)));
        assert!(!filter(r#"{"t":{"$prefix":"the"}}"#).matches(&doc(r#"{"t":"The Cure"}"#)));
    }

    #[test]
    fn in_and_exists() {
        let f = filter(r#"{"g":{"$in":["rock","pop"]}}"#);
        assert!(f.matches(&doc(r#"{"g":"rock"}"#)));
        assert!(!f.matches(&doc(r#"{"g":"jazz"}"#)));
        assert!(filter(r#"{"g":{"$exists":true}}"#).matches(&doc(r#"{"g":null}"#)));
        assert!(filter(r#"{"g":{"$exists":false}}"#).matches(&doc(r#"{"x":1}"#)));
    }

    #[test]
    fn logical_combinators() {
        let f = filter(r#"{"$or":[{"a":1},{"b":2}]}"#);
        assert!(f.matches(&doc(r#"{"a":1}"#)));
        assert!(f.matches(&doc(r#"{"b":2}"#)));
        assert!(!f.matches(&doc(r#"{"a":2,"b":1}"#)));
        let f = filter(r#"{"$not":{"a":1}}"#);
        assert!(!f.matches(&doc(r#"{"a":1}"#)));
        assert!(f.matches(&doc(r#"{"a":2}"#)));
        // Top-level multi-field object is an implicit AND.
        let f = filter(r#"{"a":1,"b":2}"#);
        assert!(f.matches(&doc(r#"{"a":1,"b":2}"#)));
        assert!(!f.matches(&doc(r#"{"a":1,"b":3}"#)));
    }

    #[test]
    fn dotted_paths() {
        let f = filter(r#"{"meta.artist":"The Cure"}"#);
        assert!(f.matches(&doc(r#"{"meta":{"artist":"The Cure"}}"#)));
        assert!(!f.matches(&doc(r#"{"meta":{}}"#)));
    }

    #[test]
    fn ne_requires_presence() {
        // Mongo semantics differ here ($ne matches missing); we use the
        // stricter interpretation: missing fields match nothing.
        let f = filter(r#"{"a":{"$ne":1}}"#);
        assert!(f.matches(&doc(r#"{"a":2}"#)));
        assert!(!f.matches(&doc(r#"{}"#)));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(filter(r#"{"n":3}"#).matches(&doc(r#"{"n":3.0}"#)));
    }

    #[test]
    fn id_lookup_detection() {
        assert_eq!(filter(r#"{"_id":"d1"}"#).as_id_lookup(), Some("d1"));
        assert_eq!(filter(r#"{"_id":{"$ne":"d1"}}"#).as_id_lookup(), None);
        assert_eq!(filter(r#"{"x":"d1"}"#).as_id_lookup(), None);
    }

    #[test]
    fn bad_filters_rejected() {
        assert!(Filter::compile(&doc(r#"{"a":{"$bogus":1}}"#)).is_err());
        assert!(Filter::compile(&doc(r#"{"$or":{}}"#)).is_err());
        assert!(Filter::compile(&doc(r#"{"$or":[]}"#)).is_err());
        assert!(Filter::compile(&doc(r#"{"a":{"$in":3}}"#)).is_err());
        assert!(Filter::compile(&doc(r#"{"a":{"$exists":"yes"}}"#)).is_err());
        assert!(Filter::compile(&doc("[1]")).is_err());
        assert!(Filter::compile(&doc(r#"{"$xyz":[]}"#)).is_err());
    }

    #[test]
    fn operator_mixed_with_plain_field_is_equality_on_object() {
        // {"a": {"$gt": 1, "plain": 2}} — not all keys are operators, so the
        // whole object is an equality operand.
        let f = filter(r#"{"a":{"$gt":1,"plain":2}}"#);
        assert!(f.matches(&doc(r#"{"a":{"$gt":1,"plain":2}}"#)));
    }
}
