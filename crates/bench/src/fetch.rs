//! What the cold fetch's own bookkeeping costs: the cache probe, flight
//! join, insert and eviction that sit in front of every key, against the
//! round trips they sit in front of.
//!
//! A stream of level-1 plans over 40-row windows of the inventory table
//! (the `cold-fanout` shape) is executed through
//! [`augmenter::run_planned_with`] twice per pair: once with no cache —
//! every key a round trip and nothing else — and once with the default
//! 4096-object cache and a flight table attached. The stream's working
//! set is the whole 10-store lab, ~10× the cache, so nearly every key
//! still misses and the second side pays the same round trips plus the
//! bookkeeping. Stores are in-process: no simulated sleep hides the CPU.
//! Both sides answer the same plan in each pair, and the reading is NaN
//! when they disagree.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use quepa_core::augmenter::{self, AugmentPlan, FetchRuntime};
use quepa_core::{FlightTable, ObjectCache, QuepaConfig, WorkerPool};
use quepa_polystore::{BreakerSet, Deployment};

use crate::{sample, Lab};

/// Albums of the lab: ~38k objects over 10 stores.
pub const ALBUMS: usize = 2000;

/// Rows per window query (as `cold-fanout`).
pub const WINDOW: usize = 40;

/// Plans in the stream; each side walks it in the same order.
pub const PLANS: usize = 64;

/// The cached side's capacity (as `cold-fanout`).
pub const CACHE: usize = 4096;

/// The in-process 10-store lab.
pub fn lab() -> Lab {
    Lab::new(ALBUMS, 2, Deployment::InProcess)
}

/// The plan stream: windows spread over the whole inventory table, so
/// consecutive plans share few objects.
pub fn plans(lab: &Lab) -> Vec<AugmentPlan> {
    (0..PLANS)
        .map(|i| {
            let lo = i * 997 % (ALBUMS - WINDOW);
            let query =
                format!("SELECT * FROM inventory WHERE seq >= {lo} AND seq < {}", lo + WINDOW);
            let original = lab
                .polystore
                .connector_by_name("transactions")
                .and_then(|c| c.execute(&query))
                .expect("window query runs");
            let keys: Vec<_> = original.iter().map(|o| o.key().clone()).collect();
            augmenter::plan(&lab.index, &keys, 1)
        })
        .collect()
}

/// The `cold-fetch-bookkeeping` reading and its detail: the median over
/// `pairs` alternating pairs of the cached-and-coalescing fetch's
/// seconds over the uncached fetch's, one plan each, after a lap of the
/// stream that fills the cache.
pub fn bookkeeping_ratio(lab: &Lab, plans: &[AugmentPlan], pairs: usize) -> (f64, String) {
    let base = QuepaConfig::default();
    let breakers = Arc::new(BreakerSet::new(base.resilience.breaker));
    let pool = WorkerPool::new(WorkerPool::default_width());
    let flight = Arc::new(FlightTable::new());
    let runtime = FetchRuntime { breakers: &breakers, obs: None, pool: Some(&pool), flight: None };
    let coalescing = FetchRuntime { flight: Some(&flight), ..runtime };
    let sides = [
        (Arc::new(ObjectCache::new(0)), QuepaConfig { cache_size: 0, ..base }, &runtime),
        (Arc::new(ObjectCache::new(CACHE)), QuepaConfig { cache_size: CACHE, ..base }, &coalescing),
    ];
    let answers = [Cell::new(0usize), Cell::new(0usize)];
    let next = [Cell::new(0usize), Cell::new(0usize)];
    let seconds = |side: usize| {
        let (cache, config, runtime) = &sides[side];
        let plan = &plans[next[side].replace(next[side].get() + 1) % plans.len()];
        let start = Instant::now();
        let outcome = augmenter::run_planned_with(&lab.polystore, cache, plan, config, runtime)
            .expect("in-process fetch");
        let elapsed = start.elapsed().as_secs_f64();
        answers[side].set(answers[side].get() + outcome.objects.len() + outcome.missing.len());
        elapsed
    };
    sample::paired(|| seconds(0), || seconds(1), plans.len());
    let read = sample::paired(|| seconds(0), || seconds(1), pairs);
    if answers[0] != answers[1] {
        return (f64::NAN, "cached and uncached fetches answered differently".into());
    }
    let (hits, misses) = sides[1].0.stats();
    let detail = format!(
        "cache+flight {:.3} ms / no cache {:.3} ms, hit ratio {:.2}; IQR {:.3} over {pairs} pairs",
        read.b.median * 1e3,
        read.a.median * 1e3,
        hits as f64 / (hits + misses).max(1) as f64,
        read.ratio.iqr,
    );
    (read.ratio.median, detail)
}
