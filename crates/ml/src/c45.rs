//! A C4.5-style decision-tree classifier: gain-ratio splits, multiway
//! splits on categorical attributes, binary threshold splits on numeric
//! attributes.

use crate::dataset::{AttrKind, Dataset, FeatureValue};

/// Hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct C45Params {
    /// Do not split nodes with fewer rows than this.
    pub min_leaf: usize,
    /// Ignore splits whose information gain is below this floor.
    pub min_gain: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for C45Params {
    fn default() -> Self {
        C45Params { min_leaf: 4, min_gain: 1e-6, max_depth: 24 }
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        class: usize,
    },
    NumericSplit {
        attr: usize,
        threshold: f64,
        /// `<= threshold` child, `> threshold` child.
        children: [usize; 2],
    },
    CategoricalSplit {
        attr: usize,
        /// Child per category id; categories unseen in this branch fall
        /// back to the majority class stored alongside.
        children: Vec<Option<usize>>,
        fallback_class: usize,
    },
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    classes: Vec<String>,
}

impl DecisionTree {
    /// Trains a tree on a classification dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or has no class vocabulary.
    pub fn fit(data: &Dataset, params: C45Params) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(!data.classes.is_empty(), "classification dataset required");
        let mut tree = DecisionTree { nodes: Vec::new(), classes: data.classes.clone() };
        let all: Vec<usize> = (0..data.len()).collect();
        tree.grow(data, &all, params, 0);
        tree
    }

    /// Trains with default parameters.
    pub fn fit_default(data: &Dataset) -> Self {
        Self::fit(data, C45Params::default())
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (1 = a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], at: usize) -> usize {
            match &nodes[at].kind {
                NodeKind::Leaf { .. } => 1,
                NodeKind::NumericSplit { children, .. } => {
                    1 + children.iter().map(|&c| depth_of(nodes, c)).max().unwrap_or(0)
                }
                NodeKind::CategoricalSplit { children, .. } => {
                    1 + children.iter().flatten().map(|&c| depth_of(nodes, c)).max().unwrap_or(0)
                }
            }
        }
        depth_of(&self.nodes, 0)
    }

    /// Predicts the class id of a feature row.
    pub fn predict(&self, row: &[FeatureValue]) -> usize {
        let mut at = 0usize;
        loop {
            match &self.nodes[at].kind {
                NodeKind::Leaf { class } => return *class,
                NodeKind::NumericSplit { attr, threshold, children } => {
                    at = if row[*attr].num() <= *threshold { children[0] } else { children[1] };
                }
                NodeKind::CategoricalSplit { attr, children, fallback_class } => {
                    let cat = row[*attr].cat() as usize;
                    match children.get(cat).copied().flatten() {
                        Some(child) => at = child,
                        None => return *fallback_class,
                    }
                }
            }
        }
    }

    /// Predicts the class *name*.
    pub fn predict_name(&self, row: &[FeatureValue]) -> &str {
        &self.classes[self.predict(row)]
    }

    /// Renders the tree as indented text, like the paper's Fig. 8 — one
    /// line per branch, leaves showing the decided class.
    ///
    /// `attr_names` labels the attributes; `category_name` resolves the
    /// category ids of categorical splits.
    pub fn render(
        &self,
        attr_names: &[String],
        category_name: impl Fn(usize, u32) -> String,
    ) -> String {
        fn rec(
            tree: &DecisionTree,
            at: usize,
            depth: usize,
            attr_names: &[String],
            category_name: &impl Fn(usize, u32) -> String,
            out: &mut String,
        ) {
            use std::fmt::Write;
            let pad = "  ".repeat(depth);
            match &tree.nodes[at].kind {
                NodeKind::Leaf { class } => {
                    let _ = writeln!(out, "{pad}→ {}", tree.classes[*class]);
                }
                NodeKind::NumericSplit { attr, threshold, children } => {
                    let name = &attr_names[*attr];
                    let _ = writeln!(out, "{pad}{name} <= {threshold:.2}?");
                    rec(tree, children[0], depth + 1, attr_names, category_name, out);
                    let _ = writeln!(out, "{pad}{name} > {threshold:.2}?");
                    rec(tree, children[1], depth + 1, attr_names, category_name, out);
                }
                NodeKind::CategoricalSplit { attr, children, .. } => {
                    let name = &attr_names[*attr];
                    for (cat, child) in children.iter().enumerate() {
                        if let Some(child) = child {
                            let label = category_name(*attr, cat as u32);
                            let _ = writeln!(out, "{pad}{name} = {label}?");
                            rec(tree, *child, depth + 1, attr_names, category_name, out);
                        }
                    }
                }
            }
        }
        let mut out = String::new();
        rec(self, 0, 0, attr_names, &category_name, &mut out);
        out
    }

    fn grow(&mut self, data: &Dataset, rows: &[usize], params: C45Params, depth: usize) -> usize {
        let majority = majority_class(data, rows);
        let id = self.nodes.len();
        self.nodes.push(Node { kind: NodeKind::Leaf { class: majority } });

        if rows.len() < params.min_leaf.max(2) || depth >= params.max_depth || is_pure(data, rows) {
            return id;
        }
        let Some(split) = best_split(data, rows, params.min_gain) else { return id };

        match split {
            Split::Numeric { attr, threshold, .. } => {
                let (le, gt): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| data.rows[r][attr].num() <= threshold);
                if le.is_empty() || gt.is_empty() {
                    return id;
                }
                let l = self.grow(data, &le, params, depth + 1);
                let r = self.grow(data, &gt, params, depth + 1);
                self.nodes[id].kind = NodeKind::NumericSplit { attr, threshold, children: [l, r] };
            }
            Split::Categorical { attr, .. } => {
                let vocab = data.schema.vocab_size(attr);
                let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); vocab];
                for &r in rows {
                    buckets[data.rows[r][attr].cat() as usize].push(r);
                }
                let mut children: Vec<Option<usize>> = vec![None; vocab];
                let mut non_empty = 0;
                for (cat, bucket) in buckets.iter().enumerate() {
                    if !bucket.is_empty() {
                        non_empty += 1;
                        children[cat] = Some(self.grow(data, bucket, params, depth + 1));
                    }
                }
                if non_empty < 2 {
                    // Degenerate: every row has the same category. Trim the
                    // children we just grew back off and stay a leaf.
                    self.nodes.truncate(id + 1);
                    self.nodes[id].kind = NodeKind::Leaf { class: majority };
                    return id;
                }
                self.nodes[id].kind =
                    NodeKind::CategoricalSplit { attr, children, fallback_class: majority };
            }
        }
        id
    }
}

enum Split {
    Numeric { attr: usize, threshold: f64, gain_ratio: f64 },
    Categorical { attr: usize, gain_ratio: f64 },
}

impl Split {
    fn gain_ratio(&self) -> f64 {
        match self {
            Split::Numeric { gain_ratio, .. } | Split::Categorical { gain_ratio, .. } => {
                *gain_ratio
            }
        }
    }
}

fn majority_class(data: &Dataset, rows: &[usize]) -> usize {
    let mut counts = vec![0usize; data.classes.len()];
    for &r in rows {
        counts[data.class_of(r)] += 1;
    }
    counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(i, _)| i).unwrap_or(0)
}

fn is_pure(data: &Dataset, rows: &[usize]) -> bool {
    let first = data.class_of(rows[0]);
    rows.iter().all(|&r| data.class_of(r) == first)
}

fn entropy_of_counts(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

fn entropy(data: &Dataset, rows: &[usize]) -> f64 {
    let mut counts = vec![0usize; data.classes.len()];
    for &r in rows {
        counts[data.class_of(r)] += 1;
    }
    entropy_of_counts(&counts, rows.len())
}

/// Finds the split with the best gain ratio across all attributes, C4.5's
/// splitting rule: `gain / split_info`, considering only splits whose raw gain
/// clears `min_gain`.
fn best_split(data: &Dataset, rows: &[usize], min_gain: f64) -> Option<Split> {
    let base_entropy = entropy(data, rows);
    let n = rows.len() as f64;
    let mut best: Option<Split> = None;

    for attr in 0..data.schema.len() {
        let candidate = match data.schema.kind(attr) {
            AttrKind::Numeric => best_numeric_split(data, rows, attr, base_entropy, n, min_gain),
            AttrKind::Categorical => {
                best_categorical_split(data, rows, attr, base_entropy, n, min_gain)
            }
        };
        if let Some(c) = candidate {
            if best.as_ref().is_none_or(|b| c.gain_ratio() > b.gain_ratio()) {
                best = Some(c);
            }
        }
    }
    best
}

fn best_numeric_split(
    data: &Dataset,
    rows: &[usize],
    attr: usize,
    base_entropy: f64,
    n: f64,
    min_gain: f64,
) -> Option<Split> {
    // Sort rows by the attribute, consider midpoints between class changes.
    let mut sorted: Vec<(f64, usize)> =
        rows.iter().map(|&r| (data.rows[r][attr].num(), data.class_of(r))).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

    let k = data.classes.len();
    let mut left = vec![0usize; k];
    let mut right = vec![0usize; k];
    for &(_, c) in &sorted {
        right[c] += 1;
    }

    let mut best: Option<(f64, f64)> = None; // (gain_ratio, threshold)
    for i in 0..sorted.len().saturating_sub(1) {
        let (v, c) = sorted[i];
        left[c] += 1;
        right[c] -= 1;
        let next_v = sorted[i + 1].0;
        if v == next_v {
            continue; // can't split between equal values
        }
        let nl = (i + 1) as f64;
        let nr = n - nl;
        let cond = (nl / n) * entropy_of_counts(&left, i + 1)
            + (nr / n) * entropy_of_counts(&right, sorted.len() - i - 1);
        let gain = base_entropy - cond;
        if gain < min_gain {
            continue;
        }
        let split_info = {
            let pl = nl / n;
            let pr = nr / n;
            -(pl * pl.log2() + pr * pr.log2())
        };
        if split_info <= 0.0 {
            continue;
        }
        let ratio = gain / split_info;
        let threshold = (v + next_v) / 2.0;
        if best.is_none_or(|(b, _)| ratio > b) {
            best = Some((ratio, threshold));
        }
    }
    best.map(|(gain_ratio, threshold)| Split::Numeric { attr, threshold, gain_ratio })
}

fn best_categorical_split(
    data: &Dataset,
    rows: &[usize],
    attr: usize,
    base_entropy: f64,
    n: f64,
    min_gain: f64,
) -> Option<Split> {
    let vocab = data.schema.vocab_size(attr);
    if vocab < 2 {
        return None;
    }
    let k = data.classes.len();
    let mut counts = vec![vec![0usize; k]; vocab];
    let mut totals = vec![0usize; vocab];
    for &r in rows {
        let cat = data.rows[r][attr].cat() as usize;
        counts[cat][data.class_of(r)] += 1;
        totals[cat] += 1;
    }
    let mut cond = 0.0;
    let mut split_info = 0.0;
    let mut non_empty = 0;
    for cat in 0..vocab {
        if totals[cat] == 0 {
            continue;
        }
        non_empty += 1;
        let frac = totals[cat] as f64 / n;
        cond += frac * entropy_of_counts(&counts[cat], totals[cat]);
        split_info -= frac * frac.log2();
    }
    if non_empty < 2 || split_info <= 0.0 {
        return None;
    }
    let gain = base_entropy - cond;
    if gain < min_gain {
        return None;
    }
    Some(Split::Categorical { attr, gain_ratio: gain / split_info })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, Schema};

    fn num(x: f64) -> FeatureValue {
        FeatureValue::Num(x)
    }

    /// y = x > 5, learnable with one threshold split.
    fn threshold_data() -> Dataset {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..40 {
            let x = i as f64 / 4.0;
            b.push_classified(vec![num(x)], if x > 5.0 { "hi" } else { "lo" });
        }
        b.build()
    }

    #[test]
    fn learns_threshold() {
        let d = threshold_data();
        let t = DecisionTree::fit_default(&d);
        assert_eq!(t.predict_name(&[num(1.0)]), "lo");
        assert_eq!(t.predict_name(&[num(9.0)]), "hi");
        assert_eq!(t.predict_name(&[num(5.3)]), "hi");
        assert!(t.depth() >= 2);
    }

    #[test]
    fn learns_categorical() {
        let mut schema = Schema::new(&[("weather", AttrKind::Categorical)]);
        let sun = schema.intern(0, "sunny");
        let rain = schema.intern(0, "rainy");
        let snow = schema.intern(0, "snowy");
        let mut b = DatasetBuilder::new(schema);
        for _ in 0..5 {
            b.push_classified(vec![FeatureValue::Cat(sun)], "beach");
            b.push_classified(vec![FeatureValue::Cat(rain)], "museum");
            b.push_classified(vec![FeatureValue::Cat(snow)], "ski");
        }
        let d = b.build();
        let t = DecisionTree::fit(&d, C45Params { min_leaf: 2, ..Default::default() });
        assert_eq!(t.predict_name(&[FeatureValue::Cat(sun)]), "beach");
        assert_eq!(t.predict_name(&[FeatureValue::Cat(rain)]), "museum");
        assert_eq!(t.predict_name(&[FeatureValue::Cat(snow)]), "ski");
    }

    #[test]
    fn learns_xor_with_two_attrs() {
        let schema = Schema::new(&[("a", AttrKind::Numeric), ("b", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..8 {
            for j in 0..8 {
                let (x, y) = (i as f64, j as f64);
                let label = if (x > 3.5) ^ (y > 2.5) { "odd" } else { "even" };
                b.push_classified(vec![num(x), num(y)], label);
            }
        }
        let d = b.build();
        let t = DecisionTree::fit(&d, C45Params { min_leaf: 2, ..Default::default() });
        // XOR needs depth ≥ 3 (root + one level per attribute).
        assert!(t.depth() >= 3);
        assert_eq!(t.predict_name(&[num(1.0), num(1.0)]), "even");
        assert_eq!(t.predict_name(&[num(6.0), num(1.0)]), "odd");
        assert_eq!(t.predict_name(&[num(1.0), num(6.0)]), "odd");
        assert_eq!(t.predict_name(&[num(1.0), num(1.0)]), "even");
        assert_eq!(t.predict_name(&[num(6.0), num(6.0)]), "even");
    }

    #[test]
    fn mixed_attributes() {
        let mut schema =
            Schema::new(&[("kind", AttrKind::Categorical), ("size", AttrKind::Numeric)]);
        let a = schema.intern(0, "a");
        let z = schema.intern(0, "z");
        let mut b = DatasetBuilder::new(schema);
        for i in 0..10 {
            // Class depends on kind only when size <= 5, else always "big".
            let size = i as f64;
            for (cat, lbl) in [(a, "small-a"), (z, "small-z")] {
                let label = if size > 5.0 { "big" } else { lbl };
                b.push_classified(vec![FeatureValue::Cat(cat), num(size)], label);
            }
        }
        let d = b.build();
        let t = DecisionTree::fit(&d, C45Params { min_leaf: 2, ..Default::default() });
        assert_eq!(t.predict_name(&[FeatureValue::Cat(a), num(2.0)]), "small-a");
        assert_eq!(t.predict_name(&[FeatureValue::Cat(z), num(2.0)]), "small-z");
        assert_eq!(t.predict_name(&[FeatureValue::Cat(a), num(9.0)]), "big");
    }

    #[test]
    fn pure_dataset_is_single_leaf() {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..10 {
            b.push_classified(vec![num(i as f64)], "only");
        }
        let t = DecisionTree::fit_default(&b.build());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.predict_name(&[num(42.0)]), "only");
    }

    #[test]
    fn min_leaf_prevents_overfitting_split() {
        let d = threshold_data();
        let t = DecisionTree::fit(&d, C45Params { min_leaf: 1000, ..Default::default() });
        assert_eq!(t.node_count(), 1, "node smaller than min_leaf stays a leaf");
    }

    #[test]
    fn unseen_category_falls_back_to_majority() {
        let mut schema = Schema::new(&[("c", AttrKind::Categorical)]);
        let a = schema.intern(0, "a");
        let bb = schema.intern(0, "b");
        let unseen = schema.intern(0, "unseen");
        let mut b = DatasetBuilder::new(schema);
        for _ in 0..6 {
            b.push_classified(vec![FeatureValue::Cat(a)], "A");
        }
        for _ in 0..4 {
            b.push_classified(vec![FeatureValue::Cat(bb)], "B");
        }
        let d = b.build();
        let t = DecisionTree::fit(&d, C45Params { min_leaf: 2, ..Default::default() });
        assert_eq!(t.predict_name(&[FeatureValue::Cat(unseen)]), "A", "majority fallback");
    }

    #[test]
    fn render_shows_splits_and_leaves() {
        let d = threshold_data();
        let t = DecisionTree::fit_default(&d);
        let text = t.render(&["x".to_string()], |_, _| unreachable!("no categorical attrs"));
        assert!(text.contains("x <= "), "{text}");
        assert!(text.contains("→ hi"), "{text}");
        assert!(text.contains("→ lo"), "{text}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        DecisionTree::fit_default(&DatasetBuilder::new(schema).build());
    }
}
