//! Property test: the admission ledger under flash-crowd arrivals.
//!
//! Random burst schedules — volleys of concurrent clients separated by
//! random pauses, the shape of a flash crowd hitting a tight gate —
//! against a live server with a narrow admission ladder, half of them
//! sending `AUGMENT` frames and half the same search as a `COMMAND`
//! line. Properties:
//!
//! 1. **Two-sided accounting**: the server's admission ledger counts
//!    every request exactly once (`offered == served + shed`), and the
//!    client-observed response statuses reconcile with it exactly —
//!    `served` is the OK + DEGRADED count, `shed` is the OVERLOAD count,
//!    no request goes missing or double-counts regardless of how the
//!    volleys interleave inside the gate.
//! 2. **Structured shed responses**: every OVERLOAD payload carries a
//!    machine-readable depth and wait estimate
//!    (`overload: depth=N est_wait_us=M`) that evidences a legitimate
//!    trip — either the depth is above the hard threshold or the wait
//!    estimate is at/over the deadline (the two arms of the shed rule).
//!
//! Case count is low (each case boots a real TCP server), but every
//! case drives a different random burst schedule.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use quepa_polystore::Deployment;
use quepa_serve::{AdmissionConfig, Client, Server, Status};
use quepa_workload::{BuiltPolystore, WorkloadConfig};

const DATABASE: &str = "transactions";
const QUERY: &str = "SELECT * FROM inventory WHERE seq < 10";

/// The narrow gate: two executors, degrade past depth 2, shed past
/// depth 4, and a deadline small enough that queue estimates trip it.
fn tight_gate() -> AdmissionConfig {
    AdmissionConfig { width: 2, soft_depth: 2, hard_depth: 4, deadline: Duration::from_millis(5) }
}

fn quepa() -> Arc<quepa_core::Quepa> {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 30,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 77,
    });
    Arc::new(built.into_quepa())
}

/// `overload: depth=N est_wait_us=M` → `(N, M)`.
fn parse_overload(payload: &str) -> Option<(u64, u64)> {
    let rest = payload.strip_prefix("overload: depth=")?;
    let (depth, wait) = rest.split_once(" est_wait_us=")?;
    Some((depth.parse().ok()?, wait.parse().ok()?))
}

/// A flash-crowd schedule: volleys of simultaneous clients with pauses
/// between them.
fn arb_bursts() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((1usize..12, 0u64..15), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ledger_balances_under_random_bursts(bursts in arb_bursts()) {
        let quepa = quepa();
        let config = tight_gate();
        let server =
            Server::start(Arc::clone(&quepa), "127.0.0.1:0", config).expect("start server");
        let addr = server.local_addr();

        let mut offered = 0u64;
        let (mut ok, mut degraded, mut overload) = (0u64, 0u64, 0u64);
        for &(burst, pause_ms) in &bursts {
            let responses: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..burst)
                    .map(|i| {
                        scope.spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            // Every other client asks in text: a COMMAND
                            // line passes the same gate and ledger.
                            if i % 2 == 0 {
                                client.augment(DATABASE, 1, QUERY).expect("response")
                            } else {
                                let line = format!("SEARCH {DATABASE} 1 {QUERY}");
                                client.command(&line).expect("response")
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).collect()
            });
            offered += burst as u64;
            for response in responses {
                match response.status {
                    Status::Ok => ok += 1,
                    Status::Degraded => degraded += 1,
                    Status::Overload => {
                        overload += 1;
                        let (depth, est_wait_us) = parse_overload(&response.payload)
                            .unwrap_or_else(|| {
                                panic!("unparseable overload payload: {:?}", response.payload)
                            });
                        // Shed rule: depth > hard ∨ est_wait > deadline.
                        // The payload truncates the wait to whole micros,
                        // so the deadline arm accepts equality.
                        prop_assert!(
                            depth > config.hard_depth as u64
                                || est_wait_us >= config.deadline.as_micros() as u64,
                            "shed without cause: depth {depth} <= hard_depth {} and \
                             est_wait {est_wait_us}us < deadline {}us",
                            config.hard_depth,
                            config.deadline.as_micros()
                        );
                    }
                    Status::Error => prop_assert!(false, "unexpected ERROR response"),
                }
            }
            std::thread::sleep(Duration::from_millis(pause_ms));
        }

        let ledger = quepa.metrics_snapshot().admission;
        prop_assert_eq!(ledger.offered, offered, "every request reaches the ledger once");
        prop_assert_eq!(ledger.offered, ledger.served + ledger.shed, "ledger balances");
        prop_assert_eq!(ledger.served, ok + degraded, "served reconciles with client statuses");
        prop_assert_eq!(ledger.shed, overload, "shed reconciles with OVERLOAD responses");
        prop_assert_eq!(ledger.degraded, degraded, "degraded subset reconciles");
    }
}
