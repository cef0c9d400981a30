//! The simulated network: a deterministic latency model per store.
//!
//! The paper deploys the polystore on EC2 twice: *centralized* (everything
//! on one m4.4xlarge) and *distributed* (t2.medium machines in different
//! regions, "network latency reaches, in some cases, few hundred
//! milliseconds"). Here every connector call pays
//!
//! ```text
//! cost(round trip moving n objects of s bytes) = RTT + n·per_object + s·per_byte
//! ```
//!
//! as real (sleeping) wall time, with the paper's millisecond figures
//! shrunk 1000× to microseconds so experiment sweeps finish fast. All comparative
//! findings (batching beats sequential, the gap widens when RTT grows,
//! caching only pays when RTT is large) depend on the *ratios*, which the
//! scaling preserves.

use std::time::Duration;

/// The latency parameters of one store's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed cost per round trip (request + response).
    pub round_trip: Duration,
    /// Marginal cost per object transferred.
    pub per_object: Duration,
    /// Marginal cost per kibibyte of payload.
    pub per_kib: Duration,
}

impl LatencyModel {
    /// A zero-cost link, for unit tests that should not spend wall time.
    pub const FREE: LatencyModel = LatencyModel {
        round_trip: Duration::ZERO,
        per_object: Duration::ZERO,
        per_kib: Duration::ZERO,
    };

    /// Total cost of a round trip moving `objects` objects of `bytes` total.
    pub fn cost(&self, objects: usize, bytes: usize) -> Duration {
        self.round_trip
            + self.per_object * objects as u32
            + self.per_kib * bytes.div_ceil(1024) as u32
    }

    /// Pays the cost as wall time by *sleeping*, not spinning: a network
    /// round trip leaves the CPU idle, so concurrent round trips must
    /// overlap even when the host has fewer cores than worker threads —
    /// that overlap is exactly what the concurrent augmenters exploit.
    /// (Linux hrtimer sleeps have ~50 µs granularity, the same order as
    /// the centralized RTT; the distortion is a constant factor across all
    /// strategies, so relative comparisons survive.) Returns the cost paid.
    pub fn pay(&self, objects: usize, bytes: usize) -> Duration {
        let cost = self.cost(objects, bytes);
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
        cost
    }
}

/// Deployment presets (paper §VII-A): where the stores run relative to
/// QUEPA decides the link costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Deployment {
    /// Everything co-located on one machine (paper: one m4.4xlarge).
    /// Loopback-ish costs.
    #[default]
    Centralized,
    /// Each store in a different region (paper: t2.medium machines placed
    /// in different regions; RTT up to hundreds of ms → hundreds of µs
    /// here).
    Distributed,
    /// No latency at all — for functional tests.
    InProcess,
}

impl Deployment {
    /// The latency model this deployment imposes on every store link.
    pub fn latency(self) -> LatencyModel {
        match self {
            // 1000× scaled from ~50 ms / ~0.2 ms / ~1 ms-per-MiB EC2 figures.
            Deployment::Centralized => LatencyModel {
                round_trip: Duration::from_micros(50),
                per_object: Duration::from_nanos(200),
                per_kib: Duration::from_nanos(100),
            },
            Deployment::Distributed => LatencyModel {
                round_trip: Duration::from_micros(400),
                per_object: Duration::from_nanos(400),
                per_kib: Duration::from_nanos(400),
            },
            Deployment::InProcess => LatencyModel::FREE,
        }
    }

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Deployment::Centralized => "centralized",
            Deployment::Distributed => "distributed",
            Deployment::InProcess => "in-process",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cost_is_linear_in_objects_and_bytes() {
        let m = LatencyModel {
            round_trip: Duration::from_micros(100),
            per_object: Duration::from_micros(1),
            per_kib: Duration::from_micros(2),
        };
        assert_eq!(m.cost(0, 0), Duration::from_micros(100));
        assert_eq!(m.cost(10, 0), Duration::from_micros(110));
        assert_eq!(m.cost(10, 2048), Duration::from_micros(114));
        // Partial KiB rounds up.
        assert_eq!(m.cost(0, 1), Duration::from_micros(102));
    }

    #[test]
    fn free_model_pays_nothing() {
        let t0 = Instant::now();
        LatencyModel::FREE.pay(1_000_000, 1 << 30);
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn pay_sleeps_at_least_the_cost() {
        let m = LatencyModel {
            round_trip: Duration::from_micros(200),
            per_object: Duration::ZERO,
            per_kib: Duration::ZERO,
        };
        let t0 = Instant::now();
        m.pay(0, 0);
        assert!(t0.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn distributed_is_slower_than_centralized() {
        let c = Deployment::Centralized.latency();
        let d = Deployment::Distributed.latency();
        assert!(d.round_trip > c.round_trip);
        assert!(d.cost(100, 10_000) > c.cost(100, 10_000));
        assert_eq!(Deployment::InProcess.latency(), LatencyModel::FREE);
    }

    #[test]
    fn batching_wins_under_the_model() {
        // The first-order claim of Fig. 9/10: k lookups in one round trip
        // cost less than k round trips, and the gap grows with RTT.
        for dep in [Deployment::Centralized, Deployment::Distributed] {
            let m = dep.latency();
            let sequential = m.cost(1, 100) * 100;
            let batched = m.cost(100, 100 * 100);
            assert!(batched < sequential, "{dep:?}");
        }
        let gap_c = Deployment::Centralized.latency().cost(1, 100).as_nanos() * 100;
        let gap_d = Deployment::Distributed.latency().cost(1, 100).as_nanos() * 100;
        assert!(gap_d > gap_c);
    }
}
