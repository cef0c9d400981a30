//! Cross-store filter pushdown vs client-side fetch-all: the same
//! filtered augmented search over the distributed 10-store lab with the
//! planner's pushdown forced on and forced off (see
//! [`quepa_bench::pushdown`] for the configuration and why
//! `threads_size = 1` / `cache_size = 0`).
//!
//! The long form of `bench_gate`'s `pushdown-speedup` row: more pairs,
//! same reading (median per-pair fetch-all over pushdown seconds, NaN
//! unless the two modes answer bit-identically), same bound, same exit
//! code.

use quepa_bench::claims::Report;
use quepa_bench::pushdown;

const PAIRS: usize = 41;

fn main() {
    let (reading, detail) = pushdown::speedup(&pushdown::lab(), PAIRS);
    let mut report = Report::default();
    report.check("pushdown-speedup", reading, &detail);
    report.finish("pushdown");
}
