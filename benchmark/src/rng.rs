//! The benchmark's own random source. Every request stream, arrival
//! schedule and mutation stream is drawn from here, so the inputs depend
//! on `--seed` and on nothing the program under test can change.

/// SplitMix64: tiny, seedable, and good enough to pick requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label; different labels give
    /// unrelated streams from one `--seed`.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in label.as_bytes() {
            state = mix(state ^ u64::from(b));
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival gap with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// The SplitMix64 finalizer; also used to fingerprint answers.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(s) over `0..ranks` by inverse CDF; rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(ranks: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(ranks);
        let mut total = 0.0;
        for r in 0..ranks {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A Poisson arrival schedule: offsets in nanoseconds from the start, at
/// `rate` per second, covering `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exponential(1.0 / rate);
    while t < seconds {
        out.push((t * 1e9) as u64);
        t += rng.exponential(1.0 / rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, label: &str) -> Vec<u64> {
        let mut rng = Rng::new(seed, label);
        (0..8).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_labels_differ() {
        assert_eq!(draw(7, "x"), draw(7, "x"));
        assert_ne!(draw(7, "x"), draw(7, "y"));
        assert_ne!(draw(7, "x"), draw(8, "x"));
    }

    #[test]
    fn poisson_schedule_is_deterministic_sorted_and_at_rate() {
        let a = poisson_schedule(&mut Rng::new(3, "arrivals"), 250.0, 20.0);
        let b = poisson_schedule(&mut Rng::new(3, "arrivals"), 250.0, 20.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 20_000_000_000);
        // 5000 expected, standard deviation ≈ 71.
        assert!((4600..5400).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn zipf_is_skewed_towards_rank_zero() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Rng::new(1, "zipf");
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[90]);
    }
}
