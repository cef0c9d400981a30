//! A self-contained JSON-like value model.
//!
//! Every connector parses the native objects of its store (tuples, JSON
//! documents, key/value entries, graph nodes) into a [`Value`]; the
//! augmentation machinery then works on a single in-memory representation
//! without imposing a shared *storage* model on the polystore (the stores
//! keep their own formats, per the paper's design goal (ii) in §I).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::PdmError;
use crate::fields::Fields;

/// A dynamically-typed value: the common in-memory currency of the polystore.
///
/// Object fields are kept sorted by name ([`Fields`]) so that field order —
/// and therefore the text rendering, hashing and equality — is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The null value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float. `NaN` is not constructible through the public API.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// An ordered sequence of values.
    Array(Vec<Value>),
    /// A field-name → value mapping with deterministic (sorted) field order.
    Object(Fields),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Creates an object value from an iterator of `(field, value)` pairs.
    pub fn object<I, K>(fields: I) -> Self
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<Arc<str>>,
    {
        Value::Object(fields.into_iter().collect())
    }

    /// Creates an array value.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Array(items.into_iter().collect())
    }

    /// Creates a float value, rejecting NaN (which would break `Eq`/ordering).
    pub fn float(f: f64) -> Result<Self, PdmError> {
        if f.is_nan() {
            Err(PdmError::InvalidProbability("NaN is not a valid Value::Float".into()))
        } else {
            Ok(Value::Float(f))
        }
    }

    /// The name of this value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Returns `true` for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrows the string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content, if this is an int.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the numeric content as `f64` for ints and floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the boolean content, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrows the fields, if this is an object.
    pub fn as_object(&self) -> Option<&Fields> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up a field of an object value; `None` for non-objects or
    /// missing fields.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(field))
    }

    /// Looks up a dotted path (`"a.b.c"`) through nested objects.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// Inserts a field, turning `self` into an object if it was null.
    ///
    /// Returns the previous value of the field, if any.
    pub fn insert(&mut self, field: impl Into<Arc<str>>, value: Value) -> Option<Value> {
        if self.is_null() {
            *self = Value::Object(Fields::new());
        }
        match self {
            Value::Object(m) => m.insert(field, value),
            _ => None,
        }
    }

    /// An estimate of the in-memory footprint of the value, in bytes.
    ///
    /// Used by the simulated-memory accounting of the middleware baselines
    /// and by the cost model of the network simulation.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 8,
            Value::Bool(_) => 8,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 24 + s.len(),
            Value::Array(items) => 24 + items.iter().map(Value::approx_size).sum::<usize>(),
            Value::Object(fields) => {
                24 + fields.iter().map(|(k, v)| 24 + k.len() + v.approx_size()).sum::<usize>()
            }
        }
    }

    /// A total order over values, used for deterministic sorting of query
    /// results. Orders first by type rank, then by content; floats compare
    /// with `total_cmp`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Str(_) => 4,
                Value::Array(_) => 5,
                Value::Object(_) => 6,
            }
        }
        // Numeric values compare across Int/Float so that sorting mixed
        // columns behaves like SQL ordering.
        if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) {
            return a.total_cmp(&b);
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.total_cmp(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Object(a), Value::Object(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let ord = ka.cmp(kb).then_with(|| va.total_cmp(vb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::text::to_string(self))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v = Value::object([
            ("name", Value::str("Wish")),
            ("year", Value::Int(1992)),
            ("meta", Value::object([("artist", Value::str("The Cure"))])),
        ]);
        assert_eq!(v.get("name").and_then(Value::as_str), Some("Wish"));
        assert_eq!(v.get("year").and_then(Value::as_int), Some(1992));
        assert_eq!(v.get_path("meta.artist").and_then(Value::as_str), Some("The Cure"));
        assert_eq!(v.get_path("meta.missing"), None);
        assert_eq!(v.type_name(), "object");
    }

    #[test]
    fn insert_promotes_null_to_object() {
        let mut v = Value::Null;
        assert!(v.insert("a", Value::Int(1)).is_none());
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        let old = v.insert("a", Value::Int(2));
        assert_eq!(old, Some(Value::Int(1)));
    }

    #[test]
    fn float_rejects_nan() {
        assert!(Value::float(f64::NAN).is_err());
        assert!(Value::float(1.5).is_ok());
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Value::str("a");
        let big = Value::str("a".repeat(100));
        assert!(big.approx_size() > small.approx_size());
        let arr = Value::array([Value::Int(1), Value::Int(2)]);
        assert!(arr.approx_size() > Value::Int(1).approx_size());
    }

    #[test]
    fn total_cmp_numeric_cross_type() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn total_cmp_orders_types_and_content() {
        let mut vs = vec![
            Value::str("b"),
            Value::Null,
            Value::Int(5),
            Value::str("a"),
            Value::Bool(true),
            Value::Bool(false),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::Int(5),
                Value::str("a"),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn total_cmp_arrays_lexicographic() {
        let a = Value::array([Value::Int(1), Value::Int(2)]);
        let b = Value::array([Value::Int(1), Value::Int(3)]);
        let c = Value::array([Value::Int(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
        assert_eq!(a.total_cmp(&a.clone()), Ordering::Equal);
    }
}
