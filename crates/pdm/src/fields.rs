//! The fields of an object value: `(name, value)` pairs in one sorted
//! slice, with names a store can share across all of its objects.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// The fields of a [`Value::Object`]: `(name, value)` pairs sorted by name,
/// each name at most once.
///
/// Names are `Arc<str>`, so a store can give every object of a collection
/// the same name allocations ([`Fields::share_names`], [`intern`]): a
/// fetched object then costs one allocation for its pairs plus its string
/// values. Equality, order, rendering and size estimates read the name
/// text only, never which allocation holds it.
#[derive(Clone, PartialEq, Default)]
pub struct Fields(Vec<(Arc<str>, Value)>);

/// Iterator over `(name, value)` pairs in name order.
pub type Iter<'a> =
    std::iter::Map<std::slice::Iter<'a, (Arc<str>, Value)>, fn(&'a (Arc<str>, Value)) -> Pair<'a>>;

/// A borrowed field.
pub type Pair<'a> = (&'a str, &'a Value);

fn borrow_pair((name, value): &(Arc<str>, Value)) -> Pair<'_> {
    (name, value)
}

impl Fields {
    /// No fields.
    pub fn new() -> Self {
        Fields(Vec::new())
    }

    /// Wraps pairs the caller already holds sorted by name, without
    /// duplicates (checked in debug builds).
    pub fn from_sorted(pairs: Vec<(Arc<str>, Value)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "fields sorted and unique");
        Fields(pairs)
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(name))
    }

    /// The value of the named field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|i| &self.0[i].1)
    }

    /// Sets a field, returning its previous value.
    pub fn insert(&mut self, name: impl Into<Arc<str>>, value: Value) -> Option<Value> {
        let name = name.into();
        match self.position(&name) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (name, value));
                None
            }
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `(name, value)` pairs, in name order.
    pub fn iter(&self) -> Iter<'_> {
        self.0.iter().map(borrow_pair as fn(&(Arc<str>, Value)) -> Pair<'_>)
    }

    /// The field names, in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| &**k)
    }

    /// The field values, in name order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    /// The pairs with their shared names.
    pub fn pairs(&self) -> &[(Arc<str>, Value)] {
        &self.0
    }

    /// Replaces every name with the equal one in `names`, adding the names
    /// `names` lacks, so that all fields passed through one set hold one
    /// allocation per distinct name. Looks names up by `&str`: nothing is
    /// allocated but the set's own growth.
    pub fn share_names(&mut self, names: &mut HashSet<Arc<str>>) {
        for (name, _) in &mut self.0 {
            match names.get(&**name) {
                Some(shared) => *name = Arc::clone(shared),
                None => {
                    names.insert(Arc::clone(name));
                }
            }
        }
    }
}

/// The shared allocation of `name` in `names`, made on first use.
pub fn intern(names: &mut HashSet<Arc<str>>, name: &str) -> Arc<str> {
    if let Some(shared) = names.get(name) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(name);
    names.insert(Arc::clone(&shared));
    shared
}

/// Sorts by name; of duplicate names the last one wins, as when collecting
/// into a `BTreeMap`.
impl<K: Into<Arc<str>>> FromIterator<(K, Value)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut pairs: Vec<(Arc<str>, Value)> =
            iter.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Stable, so duplicates stay in input order; each later duplicate
        // hands its value to the kept first one and is dropped.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        Fields(pairs)
    }
}

impl From<BTreeMap<String, Value>> for Fields {
    fn from(map: BTreeMap<String, Value>) -> Self {
        Fields(map.into_iter().map(|(k, v)| (Arc::from(k), v)).collect())
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = Pair<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Panics if the field is absent, like indexing a map.
impl Index<&str> for Fields {
    type Output = Value;

    fn index(&self, name: &str) -> &Value {
        self.get(name).unwrap_or_else(|| panic!("no field `{name}`"))
    }
}

/// Prints as a map, `{"name": value, …}`.
impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sorts_and_keeps_the_last_duplicate() {
        let fields: Fields = [
            ("b", Value::Int(1)),
            ("a", Value::Int(2)),
            ("b", Value::Int(3)),
            ("c", Value::Int(4)),
            ("b", Value::Int(5)),
        ]
        .into_iter()
        .collect();
        let map: BTreeMap<&str, Value> = [
            ("b", Value::Int(1)),
            ("a", Value::Int(2)),
            ("b", Value::Int(3)),
            ("c", Value::Int(4)),
            ("b", Value::Int(5)),
        ]
        .into_iter()
        .collect();
        assert!(fields.iter().eq(map.iter().map(|(k, v)| (*k, v))));
        assert_eq!(fields.get("b"), Some(&Value::Int(5)));
        assert_eq!(format!("{fields:?}"), format!("{map:?}"));
    }

    #[test]
    fn insert_keeps_order() {
        let mut fields = Fields::new();
        assert_eq!(fields.insert("m", Value::Int(1)), None);
        assert_eq!(fields.insert("a", Value::Int(2)), None);
        assert_eq!(fields.insert("z", Value::Int(3)), None);
        assert_eq!(fields.insert("m", Value::Int(4)), Some(Value::Int(1)));
        assert_eq!(fields.keys().collect::<Vec<_>>(), ["a", "m", "z"]);
        assert_eq!(fields["m"], Value::Int(4));
        assert_eq!(fields.get("q"), None);
    }

    #[test]
    fn shared_names_are_one_allocation() {
        let mut names = HashSet::new();
        let mut a = Fields::from_iter([("x", Value::Int(1)), ("y", Value::Int(2))]);
        let mut b = Fields::from_iter([("y", Value::Int(3)), ("x", Value::Int(4))]);
        a.share_names(&mut names);
        b.share_names(&mut names);
        for (l, r) in a.pairs().iter().zip(b.pairs()) {
            assert!(Arc::ptr_eq(&l.0, &r.0));
        }
        assert!(Arc::ptr_eq(&intern(&mut names, "x"), &a.pairs()[0].0));
        assert_eq!(names.len(), 2);
    }
}
