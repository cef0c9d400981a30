//! Promotion of p-relations (paper §III-D(a)).
//!
//! QUEPA keeps in a repository `D_P` "the full paths of the A' index that
//! are traversed by users during augmented exploration" together with their
//! visit counts. When a path of length ≥ 2 has been traversed `τ(len)`
//! times — a threshold that *decreases* with the path length, since long
//! paths are rarer — a shortcut matching p-relation is added between the
//! path's endpoints, with probability equal to the *average* of the edge
//! probabilities along the path (Example 8).

use std::collections::HashMap;

use quepa_pdm::{GlobalKey, Probability};

use crate::index::AIndex;

/// Promotion thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionConfig {
    /// Visits required for the shortest promotable path (2 edges).
    pub base_threshold: usize,
    /// Lower bound for the threshold regardless of path length.
    pub min_threshold: usize,
}

impl Default for PromotionConfig {
    fn default() -> Self {
        PromotionConfig { base_threshold: 16, min_threshold: 2 }
    }
}

impl PromotionConfig {
    /// The visit threshold `τ` for a path of `edges` edges: halves with
    /// every extra edge beyond two, floored at `min_threshold`.
    pub fn threshold(&self, edges: usize) -> usize {
        debug_assert!(edges >= 2);
        let shift = (edges - 2).min(usize::BITS as usize - 1);
        (self.base_threshold >> shift).max(self.min_threshold)
    }
}

/// A promotion that fired: the endpoints to connect and the probability of
/// the new matching edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Promotion {
    /// One endpoint of the traversed path.
    pub from: GlobalKey,
    /// The other endpoint.
    pub to: GlobalKey,
    /// The average probability along the path.
    pub probability: Probability,
}

/// The `D_P` repository: visit counts per full exploration path.
#[derive(Debug, Clone, Default)]
pub struct PathRepository {
    config: PromotionConfig,
    visits: HashMap<Vec<GlobalKey>, usize>,
    promotions_fired: usize,
}

impl PathRepository {
    /// Creates an empty repository with the default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty repository with explicit thresholds.
    pub fn with_config(config: PromotionConfig) -> Self {
        PathRepository { config, ..Self::default() }
    }

    /// The configured thresholds.
    pub fn config(&self) -> PromotionConfig {
        self.config
    }

    /// Number of distinct paths tracked.
    pub fn tracked_paths(&self) -> usize {
        self.visits.len()
    }

    /// Number of promotions that have fired.
    pub fn promotions_fired(&self) -> usize {
        self.promotions_fired
    }

    /// Visit count of a specific path.
    pub fn visits(&self, path: &[GlobalKey]) -> usize {
        self.visits.get(path).copied().unwrap_or(0)
    }

    /// Records one full exploration path `v₀ … v_k` and, if its visit count
    /// reaches the threshold for its length, returns the promotion to apply
    /// (adding the edge is the caller's job, via
    /// [`AIndex::insert_promoted`]). Paths with fewer than two edges are
    /// ignored (`k > 1` in the paper).
    ///
    /// `index` supplies the edge probabilities along the path: hops that no
    /// longer exist in the index contribute nothing; if *no* hop resolves,
    /// the promotion is skipped.
    pub fn record(&mut self, path: &[GlobalKey], index: &AIndex) -> Option<Promotion> {
        if path.len() < 3 {
            return None;
        }
        let count = self.visits.entry(path.to_vec()).or_insert(0);
        *count += 1;
        let edges = path.len() - 1;
        if *count != self.config.threshold(edges) {
            return None;
        }
        // Average of edge probabilities along the path. neighbors() gives
        // the live relations of each hop; take the best edge between the
        // consecutive pair regardless of kind.
        let mut probs = Vec::with_capacity(edges);
        for pair in path.windows(2) {
            let best = index
                .neighbors(&pair[0])
                .into_iter()
                .filter(|(k, _, _)| k == &pair[1])
                .map(|(_, _, p)| p)
                .max();
            if let Some(p) = best {
                probs.push(p);
            }
        }
        let probability = Probability::average_of(probs)?;
        self.promotions_fired += 1;
        Some(Promotion { from: path[0].clone(), to: path[path.len() - 1].clone(), probability })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_pdm::RelationKind;

    fn k(s: &str) -> GlobalKey {
        s.parse().unwrap()
    }

    fn p(f: f64) -> Probability {
        Probability::of(f)
    }

    /// A chain a ≡ b ≡ c ≡ d to explore along.
    fn chain() -> AIndex {
        let mut ix = AIndex::new();
        ix.insert_matching(&k("d.c.a"), &k("d.c.b"), p(0.9));
        ix.insert_matching(&k("d.c.b"), &k("d.c.c"), p(0.7));
        ix.insert_matching(&k("d.c.c"), &k("d.c.d"), p(0.8));
        ix
    }

    #[test]
    fn threshold_decreases_with_length() {
        let c = PromotionConfig { base_threshold: 16, min_threshold: 2 };
        assert_eq!(c.threshold(2), 16);
        assert_eq!(c.threshold(3), 8);
        assert_eq!(c.threshold(4), 4);
        assert_eq!(c.threshold(5), 2);
        assert_eq!(c.threshold(6), 2, "floored at min");
        assert_eq!(c.threshold(100), 2, "no shift overflow");
    }

    #[test]
    fn promotion_fires_at_threshold_with_average_probability() {
        let mut ix = chain();
        let mut dp =
            PathRepository::with_config(PromotionConfig { base_threshold: 3, min_threshold: 1 });
        let path = [k("d.c.a"), k("d.c.b"), k("d.c.c")];
        assert!(dp.record(&path, &ix).is_none());
        assert!(dp.record(&path, &ix).is_none());
        let promo = dp.record(&path, &ix).expect("third visit fires");
        assert_eq!(promo.from, k("d.c.a"));
        assert_eq!(promo.to, k("d.c.c"));
        // Average of 0.9 and 0.7.
        assert!((promo.probability.get() - 0.8).abs() < 1e-12);
        assert!(ix.insert_promoted(&promo.from, &promo.to, promo.probability));
        let e = ix.edge(&k("d.c.a"), &k("d.c.c"), RelationKind::Matching).unwrap();
        assert_eq!(e.probability, p(0.8));
        // Fires exactly once.
        assert!(dp.record(&path, &ix).is_none());
        assert_eq!(dp.promotions_fired(), 1);
        assert_eq!(dp.visits(&path), 4);
    }

    #[test]
    fn short_paths_never_promote() {
        let ix = chain();
        let mut dp =
            PathRepository::with_config(PromotionConfig { base_threshold: 1, min_threshold: 1 });
        for _ in 0..10 {
            assert!(dp.record(&[k("d.c.a"), k("d.c.b")], &ix).is_none());
        }
        assert_eq!(dp.tracked_paths(), 0);
    }

    #[test]
    fn longer_paths_promote_sooner() {
        let mut ix = chain();
        let mut dp =
            PathRepository::with_config(PromotionConfig { base_threshold: 4, min_threshold: 1 });
        let long = [k("d.c.a"), k("d.c.b"), k("d.c.c"), k("d.c.d")];
        // threshold(3 edges) = 2.
        assert!(dp.record(&long, &ix).is_none());
        let promo = dp.record(&long, &ix).expect("second visit fires");
        // Average of 0.9, 0.7, 0.8.
        assert!((promo.probability.get() - 0.8).abs() < 1e-12);
        assert!(ix.insert_promoted(&promo.from, &promo.to, promo.probability));
    }

    #[test]
    fn existing_edge_blocks_promotion_application() {
        let mut ix = chain();
        // a ≡ c already exists.
        ix.insert_matching(&k("d.c.a"), &k("d.c.c"), p(0.5));
        let mut dp =
            PathRepository::with_config(PromotionConfig { base_threshold: 1, min_threshold: 1 });
        let path = [k("d.c.a"), k("d.c.b"), k("d.c.c")];
        // The promotion computes but adds nothing ("if not yet present").
        let promo = dp.record(&path, &ix).expect("the promotion fires");
        assert!(!ix.insert_promoted(&promo.from, &promo.to, promo.probability));
        let e = ix.edge(&k("d.c.a"), &k("d.c.c"), RelationKind::Matching).unwrap();
        assert_eq!(e.probability, p(0.5), "existing edge untouched");
    }

    #[test]
    fn vanished_hops_are_tolerated() {
        let mut ix = chain();
        ix.remove_object(&k("d.c.b"));
        let mut dp =
            PathRepository::with_config(PromotionConfig { base_threshold: 1, min_threshold: 1 });
        let path = [k("d.c.a"), k("d.c.b"), k("d.c.c")];
        // The a—b hop is gone; the average is over the surviving hops only
        // (b—c also involves the dead node, so nothing survives → skip).
        assert!(dp.record(&path, &ix).is_none());
        assert_eq!(dp.promotions_fired(), 0);
    }

    #[test]
    fn distinct_paths_count_separately() {
        let mut ix = chain();
        let mut dp =
            PathRepository::with_config(PromotionConfig { base_threshold: 2, min_threshold: 2 });
        let p1 = [k("d.c.a"), k("d.c.b"), k("d.c.c")];
        let p2 = [k("d.c.b"), k("d.c.c"), k("d.c.d")];
        assert!(dp.record(&p1, &ix).is_none());
        assert!(dp.record(&p2, &ix).is_none());
        assert_eq!(dp.tracked_paths(), 2);
        assert_eq!(dp.visits(&p1), 1);
        for path in [&p1, &p2] {
            let promo = dp.record(path, &ix).expect("second visit fires");
            assert!(ix.insert_promoted(&promo.from, &promo.to, promo.probability));
        }
    }
}
