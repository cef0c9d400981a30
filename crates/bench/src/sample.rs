//! The one sampler: every number this crate prints or checks is a
//! median with its interquartile range, taken here.
//!
//! The run distributions are a sleep-dominated floor plus rare scheduler
//! spikes, so a mean over a handful of runs drifts 20 %+ on a loaded box
//! while the median holds; and an overhead pin — two configurations of
//! one lab — is only resolvable as the median of *per-pair* ratios taken
//! in alternating order ([`paired`]), never as the ratio of two
//! separately taken means. There is no retry anywhere: a reading is
//! taken once and judged against a bound that its printed spread
//! supports.

/// Median and interquartile range of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (nearest rank).
    pub median: f64,
    /// Third quartile minus first quartile (nearest rank).
    pub iqr: f64,
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Sorts `readings` in place and summarizes them.
pub fn summarize(readings: &mut [f64]) -> Summary {
    readings.sort_by(f64::total_cmp);
    Summary {
        median: percentile(readings, 0.5),
        iqr: percentile(readings, 0.75) - percentile(readings, 0.25),
    }
}

/// `warmups` throwaway calls of `f`, then `runs` measured ones. `f`
/// returns its own reading — the answer's `duration`, a wall clock
/// around a burst — so the sampler owns no clock.
pub fn measure(warmups: usize, runs: usize, mut f: impl FnMut() -> f64) -> Summary {
    for _ in 0..warmups {
        f();
    }
    let mut readings: Vec<f64> = (0..runs).map(|_| f()).collect();
    summarize(&mut readings)
}

/// What [`paired`] read: each side on its own, and the per-pair ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// The readings of side `a`.
    pub a: Summary,
    /// The readings of side `b`.
    pub b: Summary,
    /// The per-pair ratios `b / a` — the number an overhead claim is
    /// about; the ratio of the two sides' medians is a different one.
    pub ratio: Summary,
}

/// `pairs` paired readings of `a` and `b`, alternating which side runs
/// first (A/B, B/A, A/B, …) so drift and whatever the first of a pair
/// pays — a cold allocator, a descheduled core — land on both sides
/// equally.
pub fn paired(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64, pairs: usize) -> Paired {
    let (mut xs, mut ys) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..pairs {
        if i % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    let mut ratios: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| y / x).collect();
    Paired { a: summarize(&mut xs), b: summarize(&mut ys), ratio: summarize(&mut ratios) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.50), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.999), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        // An even count takes the upper middle, like `sorted[n / 2]`.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
    }

    #[test]
    fn measure_discards_warmups_and_summarizes_the_rest() {
        let mut script = [9.0, 9.0, 5.0, 1.0, 3.0, 2.0, 4.0].into_iter();
        let s = measure(2, 5, || script.next().unwrap());
        assert_eq!(s, Summary { median: 3.0, iqr: 2.0 });
    }

    #[test]
    fn paired_alternates_order_and_summarizes_per_pair_ratios() {
        // A scripted clock: each side logs its call and reads the next
        // value of its own script.
        let order = RefCell::new(String::new());
        let mut a_script = [2.0, 4.0, 1.0, 5.0, 10.0].into_iter();
        let mut b_script = [4.0, 4.0, 3.0, 10.0, 5.0].into_iter();
        let s = paired(
            || {
                order.borrow_mut().push('a');
                a_script.next().unwrap()
            },
            || {
                order.borrow_mut().push('b');
                b_script.next().unwrap()
            },
            5,
        );
        assert_eq!(*order.borrow(), "abbaabbaab");
        // Per-pair b/a: 2, 1, 3, 2, 0.5 → sorted 0.5 1 2 2 3. The ratio
        // of the two medians (4 / 4 = 1) is a different number.
        assert_eq!(s.ratio, Summary { median: 2.0, iqr: 1.0 });
        assert_eq!((s.a.median, s.b.median), (4.0, 4.0));
    }
}
