//! Cross-store filter pushdown vs client-side fetch-all.
//!
//! One filtered augmented search (`key contains "9"`) over the
//! distributed 10-store lab, measured with the planner's pushdown forced
//! on and forced off. The answers are bit-identical (the differential
//! harness proves it exhaustively); what changes is the wire: pushdown
//! executes each (database, collection) group as ONE `fetch_where`
//! round trip carrying the predicate, and only matching objects travel
//! back — fetch-all pays the full batched fan-out and filters
//! client-side. Under the distributed deployment's per-round-trip and
//! per-byte costs the pushdown side must hold a ≥2× speedup (the
//! `pushdown-speedup` claim, checked by `bench_gate` and by the bench).
//!
//! The configuration pins `threads_size = 1` (round trips stack
//! serially, so the wire saving is exactly what's measured) and
//! `cache_size = 0` (every measured query pays its wire costs).

use quepa_core::{AugmentedAnswer, AugmenterKind, QuepaConfig};
use quepa_pdm::Pushdown;
use quepa_polystore::Deployment;

use crate::{sample, Lab};

/// The workload query: 50 original objects ⇒ 50 augmentation seeds.
pub const QUERY: &str = "SELECT * FROM inventory WHERE seq < 50";

/// The query's target database.
pub const DATABASE: &str = "transactions";

/// Augmentation level (level 1 exercises the full fetch fan-out).
pub const LEVEL: usize = 1;

/// The canonical benchmark predicate: key-only, supported natively by
/// all four store kinds, selective enough that most objects stay home.
pub const FILTER: &str = "key contains \"9\"";

/// The parsed benchmark predicate.
pub fn filter() -> Pushdown {
    Pushdown::parse(FILTER).expect("benchmark filter is valid")
}

/// The bench polystore: 10 stores, distributed deployment (~400 µs per
/// round trip) — the deployment where wire savings pay.
pub fn lab() -> Lab {
    Lab::new(200, 2, Deployment::Distributed)
}

/// The measured configuration: batched fan-out, inline fetch units, no
/// cache, planner pushdown toggled per mode.
pub fn config(pushdown: bool) -> QuepaConfig {
    QuepaConfig {
        augmenter: AugmenterKind::OuterBatch,
        batch_size: 8,
        threads_size: 1,
        cache_size: 0,
        pushdown,
        ..QuepaConfig::default()
    }
}

/// One cold filtered search with the planner's pushdown forced on or
/// off.
pub fn search(lab: &Lab, pushdown: bool) -> AugmentedAnswer {
    lab.quepa.set_optimizer(None);
    lab.quepa.set_config(config(pushdown));
    lab.quepa.drop_caches();
    lab.quepa
        .augmented_search_filtered(DATABASE, QUERY, LEVEL, &filter())
        .expect("benchmark query must be valid")
}

/// The `pushdown-speedup` reading and its detail: the median over
/// `pairs` alternating pairs of fetch-all seconds over pushdown seconds
/// (each the answer's own `duration`, after three throwaway pairs) — NaN
/// when the two modes do not answer bit-identically, which no speedup
/// excuses.
pub fn speedup(lab: &Lab, pairs: usize) -> (f64, String) {
    if search(lab, true).normal_form() != search(lab, false).normal_form() {
        return (f64::NAN, "pushdown and fetch-all answers differ — run quepa-check".into());
    }
    let seconds = |pushdown: bool| search(lab, pushdown).duration.as_secs_f64();
    sample::paired(|| seconds(true), || seconds(false), 3);
    let read = sample::paired(|| seconds(true), || seconds(false), pairs);
    let detail = format!(
        "fetch-all {:.2} ms / pushdown {:.2} ms, answers agree; IQR {:.2} over {pairs} pairs",
        read.b.median * 1e3,
        read.a.median * 1e3,
        read.ratio.iqr,
    );
    (read.ratio.median, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_and_pushdown_is_not_slower() {
        let lab = lab();
        let (on, off) = (search(&lab, true), search(&lab, false));
        assert!(!on.augmented.is_empty(), "the filter must keep some objects");
        assert_eq!(on.normal_form(), off.normal_form());
        assert_eq!(on.missing.len(), off.missing.len());
        // The full ≥2× claim is the bench gate's job; here pushdown must
        // simply not lose to the fan-out it replaces.
        let (ratio, detail) = speedup(&lab, 5);
        assert!(ratio > 1.0, "pushdown should beat fetch-all: {ratio:.2}x ({detail})");
    }
}
