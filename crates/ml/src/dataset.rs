//! Feature/label representation shared by the learners.

use std::collections::HashMap;
use std::fmt;

/// The kind of an attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrKind {
    /// Real-valued.
    Numeric,
    /// Finite vocabulary; values are interned to dense ids.
    Categorical,
}

/// The schema of a dataset: attribute names, kinds and — for categorical
/// attributes — the interned vocabulary.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    names: Vec<String>,
    kinds: Vec<AttrKind>,
    vocabs: Vec<Vec<String>>,
    vocab_ids: Vec<HashMap<String, u32>>,
}

impl Schema {
    /// Creates a schema from `(name, kind)` pairs.
    pub fn new(attrs: &[(&str, AttrKind)]) -> Self {
        let mut s = Schema::default();
        for (name, kind) in attrs {
            s.names.push((*name).to_owned());
            s.kinds.push(kind.clone());
            s.vocabs.push(Vec::new());
            s.vocab_ids.push(HashMap::new());
        }
        s
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The attribute names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The kind of attribute `i`.
    pub fn kind(&self, i: usize) -> &AttrKind {
        &self.kinds[i]
    }

    /// Interns a categorical value of attribute `attr`, growing the
    /// vocabulary on first sight.
    pub fn intern(&mut self, attr: usize, value: &str) -> u32 {
        if let Some(&id) = self.vocab_ids[attr].get(value) {
            return id;
        }
        let id = self.vocabs[attr].len() as u32;
        self.vocabs[attr].push(value.to_owned());
        self.vocab_ids[attr].insert(value.to_owned(), id);
        id
    }

    /// Looks up an already-interned categorical value.
    pub fn category_id(&self, attr: usize, value: &str) -> Option<u32> {
        self.vocab_ids[attr].get(value).copied()
    }

    /// The printable name of category `id` of attribute `attr`.
    pub fn category_name(&self, attr: usize, id: u32) -> &str {
        &self.vocabs[attr][id as usize]
    }

    /// Vocabulary size of attribute `attr`.
    pub fn vocab_size(&self, attr: usize) -> usize {
        self.vocabs[attr].len()
    }
}

/// One feature value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureValue {
    /// A numeric value.
    Num(f64),
    /// An interned categorical id.
    Cat(u32),
}

impl FeatureValue {
    /// The numeric content; panics on categorical (caller consults the
    /// schema first).
    pub fn num(self) -> f64 {
        match self {
            FeatureValue::Num(x) => x,
            FeatureValue::Cat(_) => panic!("categorical feature used as numeric"),
        }
    }

    /// The categorical content; panics on numeric.
    pub fn cat(self) -> u32 {
        match self {
            FeatureValue::Cat(c) => c,
            FeatureValue::Num(_) => panic!("numeric feature used as categorical"),
        }
    }
}

/// A labelled dataset. The label is a `f64` for regression or an interned
/// class id (stored in the same field) for classification — the class
/// vocabulary lives in `classes`.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The feature schema.
    pub schema: Schema,
    /// Feature rows.
    pub rows: Vec<Vec<FeatureValue>>,
    /// Labels: class ids (as f64) or regression targets.
    pub labels: Vec<f64>,
    /// Class vocabulary; empty for regression datasets.
    pub classes: Vec<String>,
}

impl Dataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The class id of a label (classification datasets only).
    pub fn class_of(&self, row: usize) -> usize {
        self.labels[row] as usize
    }

    /// The printable class name of an id.
    pub fn class_name(&self, id: usize) -> &str {
        &self.classes[id]
    }

    /// Splits rows into two datasets: indices where `pick` is true and the
    /// rest. Schema and class vocabulary are shared (cloned).
    pub fn partition(&self, pick: impl Fn(usize) -> bool) -> (Dataset, Dataset) {
        let mut a = Dataset {
            schema: self.schema.clone(),
            classes: self.classes.clone(),
            ..Default::default()
        };
        let mut b = Dataset {
            schema: self.schema.clone(),
            classes: self.classes.clone(),
            ..Default::default()
        };
        for i in 0..self.len() {
            let dst = if pick(i) { &mut a } else { &mut b };
            dst.rows.push(self.rows[i].clone());
            dst.labels.push(self.labels[i]);
        }
        (a, b)
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({} rows × {} attrs{})",
            self.len(),
            self.schema.len(),
            if self.classes.is_empty() {
                ", regression".to_owned()
            } else {
                format!(", {} classes", self.classes.len())
            }
        )
    }
}

/// Incremental builder interning categorical features and class labels.
#[derive(Debug, Clone, Default)]
pub struct DatasetBuilder {
    dataset: Dataset,
    class_ids: HashMap<String, usize>,
}

impl DatasetBuilder {
    /// Starts a builder over a schema.
    pub fn new(schema: Schema) -> Self {
        DatasetBuilder {
            dataset: Dataset { schema, ..Default::default() },
            class_ids: HashMap::new(),
        }
    }

    /// Adds a row with a class label (classification).
    pub fn push_classified(&mut self, row: Vec<FeatureValue>, class: &str) {
        assert_eq!(row.len(), self.dataset.schema.len(), "row arity mismatch");
        let id = match self.class_ids.get(class) {
            Some(&id) => id,
            None => {
                let id = self.dataset.classes.len();
                self.dataset.classes.push(class.to_owned());
                self.class_ids.insert(class.to_owned(), id);
                id
            }
        };
        self.dataset.rows.push(row);
        self.dataset.labels.push(id as f64);
    }

    /// Adds a row with a numeric target (regression).
    pub fn push_regression(&mut self, row: Vec<FeatureValue>, target: f64) {
        assert_eq!(row.len(), self.dataset.schema.len(), "row arity mismatch");
        self.dataset.rows.push(row);
        self.dataset.labels.push(target);
    }

    /// Finishes the build.
    pub fn build(self) -> Dataset {
        self.dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_interning() {
        let mut s = Schema::new(&[("color", AttrKind::Categorical), ("size", AttrKind::Numeric)]);
        assert_eq!(s.intern(0, "red"), 0);
        assert_eq!(s.intern(0, "blue"), 1);
        assert_eq!(s.intern(0, "red"), 0);
        assert_eq!(s.vocab_size(0), 2);
        assert_eq!(s.category_name(0, 1), "blue");
        assert_eq!(s.category_id(0, "green"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn builder_classification() {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        b.push_classified(vec![FeatureValue::Num(1.0)], "yes");
        b.push_classified(vec![FeatureValue::Num(2.0)], "no");
        b.push_classified(vec![FeatureValue::Num(3.0)], "yes");
        let d = b.build();
        assert_eq!(d.len(), 3);
        assert_eq!(d.classes, vec!["yes", "no"]);
        assert_eq!(d.class_of(0), 0);
        assert_eq!(d.class_of(1), 1);
        assert_eq!(d.class_of(2), 0);
        assert_eq!(d.class_name(1), "no");
    }

    #[test]
    fn partition_splits_rows() {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..10 {
            b.push_regression(vec![FeatureValue::Num(i as f64)], i as f64 * 2.0);
        }
        let d = b.build();
        let (even, odd) = d.partition(|i| i % 2 == 0);
        assert_eq!(even.len(), 5);
        assert_eq!(odd.len(), 5);
        assert_eq!(even.labels[1], 4.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        b.push_regression(vec![], 0.0);
    }

    #[test]
    fn display() {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let d = DatasetBuilder::new(schema).build();
        assert!(d.to_string().contains("regression"));
    }
}
