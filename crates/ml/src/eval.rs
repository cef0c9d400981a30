//! Train/test utilities: splits, accuracy, error metrics.

use crate::c45::DecisionTree;
use crate::dataset::Dataset;
use crate::reptree::RegressionTree;

/// Deterministic train/test split: every `k`-th row goes to the test set,
/// where `k = round(1 / test_fraction)`.
pub fn train_test_split(data: &Dataset, test_fraction: f64) -> (Dataset, Dataset) {
    assert!((0.0..1.0).contains(&test_fraction), "fraction must be in [0, 1)");
    if test_fraction == 0.0 {
        return data.partition(|_| true);
    }
    let every = (1.0 / test_fraction).round().max(2.0) as usize;
    let (test, train) = data.partition(|i| i % every == every - 1);
    (train, test)
}

/// Classification accuracy of a tree on a dataset.
pub fn accuracy(tree: &DecisionTree, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let correct =
        (0..data.len()).filter(|&i| tree.predict(&data.rows[i]) == data.class_of(i)).count();
    correct as f64 / data.len() as f64
}

/// Mean absolute error of a regression tree on a dataset.
pub fn mae(tree: &RegressionTree, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let total: f64 =
        (0..data.len()).map(|i| (tree.predict(&data.rows[i]) - data.labels[i]).abs()).sum();
    total / data.len() as f64
}

/// Root mean squared error of a regression tree on a dataset.
pub fn rmse(tree: &RegressionTree, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let total: f64 =
        (0..data.len()).map(|i| (tree.predict(&data.rows[i]) - data.labels[i]).powi(2)).sum();
    (total / data.len() as f64).sqrt()
}

/// Confusion matrix `[actual][predicted]` of a classifier.
pub fn confusion_matrix(tree: &DecisionTree, data: &Dataset) -> Vec<Vec<usize>> {
    let k = data.classes.len();
    let mut m = vec![vec![0usize; k]; k];
    for i in 0..data.len() {
        m[data.class_of(i)][tree.predict(&data.rows[i])] += 1;
    }
    m
}

/// The majority-class baseline accuracy — any useful classifier must beat
/// this.
pub fn majority_baseline(data: &Dataset) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let mut counts = vec![0usize; data.classes.len()];
    for i in 0..data.len() {
        counts[data.class_of(i)] += 1;
    }
    *counts.iter().max().unwrap_or(&0) as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{AttrKind, DatasetBuilder, FeatureValue, Schema};

    fn num(x: f64) -> FeatureValue {
        FeatureValue::Num(x)
    }

    fn labelled() -> Dataset {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..100 {
            let x = i as f64;
            b.push_classified(vec![num(x)], if x >= 50.0 { "hi" } else { "lo" });
        }
        b.build()
    }

    #[test]
    fn split_sizes() {
        let d = labelled();
        let (train, test) = train_test_split(&d, 0.25);
        assert_eq!(test.len(), 25);
        assert_eq!(train.len(), 75);
        let (train, test) = train_test_split(&d, 0.1);
        assert_eq!(test.len(), 10);
        assert_eq!(train.len(), 90);
    }

    #[test]
    fn classifier_generalizes() {
        let d = labelled();
        let (train, test) = train_test_split(&d, 0.2);
        let tree = DecisionTree::fit_default(&train);
        let acc = accuracy(&tree, &test);
        assert!(acc >= 0.95, "accuracy {acc}");
        assert!(acc > majority_baseline(&test));
    }

    #[test]
    fn confusion_matrix_sums_to_len() {
        let d = labelled();
        let tree = DecisionTree::fit_default(&d);
        let m = confusion_matrix(&tree, &d);
        let total: usize = m.iter().flatten().sum();
        assert_eq!(total, d.len());
        // Diagonal dominates for a good classifier.
        let diag: usize = (0..m.len()).map(|i| m[i][i]).sum();
        assert!(diag as f64 / total as f64 > 0.95);
    }

    #[test]
    fn regression_metrics() {
        let schema = Schema::new(&[("x", AttrKind::Numeric)]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..100 {
            let x = i as f64;
            b.push_regression(vec![num(x)], if x >= 50.0 { 100.0 } else { 0.0 });
        }
        let d = b.build();
        let (train, test) = train_test_split(&d, 0.2);
        let tree = RegressionTree::fit_default(&train);
        // One test point sits exactly on the learnt boundary (the midpoint
        // moved by the held-out rows), so allow a single 100-unit miss.
        assert!(mae(&tree, &test) <= 6.0);
        assert!(rmse(&tree, &test) <= 25.0);
        assert!(rmse(&tree, &test) >= mae(&tree, &test) - 1e-9, "RMSE ≥ MAE always");
    }

    #[test]
    fn empty_edge_cases() {
        let d = labelled();
        let tree = DecisionTree::fit_default(&d);
        let (empty, _) = d.partition(|_| false);
        assert_eq!(accuracy(&tree, &empty), 1.0);
        assert_eq!(majority_baseline(&empty), 1.0);
    }
}
