//! §III-A: "Since QUEPA does not store any data, it is easy to deploy
//! multiple instances of the system that can answer independent queries in
//! parallel. In this case, each instance has its own A' index replica and
//! its own augmenter." — exercised here with real threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};

use quepa::core::{AnswerNormalForm, AugmenterKind, Quepa, QuepaConfig};
use quepa::pdm::{CollectionName, LocalKey};
use quepa::polystore::{
    Connector, Deployment, Layer, Layered, Polystore, Result as PolyResult, StoreKind,
};
use quepa::workload::{query_for, BuiltPolystore, WorkloadConfig};

#[test]
fn multiple_instances_answer_in_parallel() {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 120,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 31,
    });
    // Two instances share the store registry; each has its own A' index
    // replica, cache and configuration.
    let polystore = built.polystore.clone();
    let index = built.index.clone();
    let instances: Vec<Arc<Quepa>> = (0..2)
        .map(|i| {
            let q = Quepa::with_config(
                polystore.clone(),
                index.clone(),
                QuepaConfig {
                    augmenter: if i == 0 {
                        AugmenterKind::OuterBatch
                    } else {
                        AugmenterKind::Sequential
                    },
                    ..QuepaConfig::default()
                },
            );
            Arc::new(q)
        })
        .collect();

    let mut handles = Vec::new();
    for (i, instance) in instances.iter().enumerate() {
        for t in 0..3 {
            let quepa = Arc::clone(instance);
            handles.push(std::thread::spawn(move || {
                let size = 5 + (i * 3 + t) * 7;
                let answer = quepa
                    .augmented_search("transactions", &query_for(StoreKind::Relational, size), 1)
                    .unwrap();
                (size, answer.original.len(), answer.augmented.len())
            }));
        }
    }
    for h in handles {
        let (size, orig, aug) = h.join().unwrap();
        assert_eq!(orig, size);
        assert!(aug > 0);
    }
}

#[test]
fn one_instance_serves_concurrent_queries() {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 150,
        replica_sets: 1,
        deployment: Deployment::InProcess,
        seed: 32,
    });
    let quepa = Arc::new(built.into_quepa());
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let quepa = Arc::clone(&quepa);
            std::thread::spawn(move || {
                let dbs = ["transactions", "catalogue", "similar"];
                let kinds = [StoreKind::Relational, StoreKind::Document, StoreKind::Graph];
                let answer = quepa
                    .augmented_search(dbs[t % 3], &query_for(kinds[t % 3], 10 + t), 0)
                    .unwrap();
                answer.augmented.len()
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap() > 0);
    }
    // Logs from every thread accumulated.
    assert_eq!(quepa.take_logs().len(), 6);
}

#[test]
fn lazy_deletion_is_thread_safe() {
    let built = BuiltPolystore::build(WorkloadConfig {
        albums: 60,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 33,
    });
    let quepa = Arc::new(built.into_quepa());
    // Delete half the discounts behind QUEPA's back.
    for seq in (0..60).step_by(4) {
        let _ = quepa
            .polystore()
            .execute_update("discount", &format!("DEL {}", discount_key_of(&quepa, seq)));
    }
    // Hammer the system from several threads; every run must stay coherent.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let quepa = Arc::clone(&quepa);
            std::thread::spawn(move || {
                for i in 0..10 {
                    let q = format!("SELECT * FROM inventory WHERE seq = {}", (t * 10 + i) % 60);
                    let answer = quepa.augmented_search("transactions", &q, 0).unwrap();
                    assert_eq!(answer.original.len(), 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// 64 concurrent clients over one shared instance must produce answers —
/// and an end-of-run metrics snapshot — identical to the same 64 queries
/// served back to back by a same-seed serial twin. This pins the
/// coalescing accounting: waiters count as cache hits, exactly one leader
/// per batch group tallies the miss and the round trip.
#[test]
fn sixty_four_concurrent_clients_match_serial() {
    const CLIENTS: usize = 64;
    let config = QuepaConfig {
        augmenter: AugmenterKind::OuterBatch,
        batch_size: 8,
        threads_size: 4,
        cache_size: 4096,
        observability: true,
        ..QuepaConfig::default()
    };
    let build = || {
        BuiltPolystore::build(WorkloadConfig {
            albums: 100,
            replica_sets: 1,
            deployment: Deployment::InProcess,
            seed: 34,
        })
    };
    let query = query_for(StoreKind::Relational, 12);

    // Serial twin: a fresh instance answering the query 64 times in a row.
    let built = build();
    let serial = Quepa::with_config(built.polystore, built.index, config);
    let serial_nfs: Vec<AnswerNormalForm> = (0..CLIENTS)
        .map(|_| serial.augmented_search("transactions", &query, 1).unwrap().normal_form())
        .collect();
    assert!(serial_nfs.windows(2).all(|w| w[0] == w[1]), "serial runs must agree");

    // Shared instance: 64 clients released together through a barrier.
    let built = build();
    let shared = Arc::new(Quepa::with_config(built.polystore, built.index, config));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let barrier = Arc::clone(&barrier);
            let query = query.clone();
            std::thread::spawn(move || {
                barrier.wait();
                shared.augmented_search("transactions", &query, 1).unwrap().normal_form()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), serial_nfs[0], "concurrent answer diverged from serial");
    }
    assert_eq!(shared.take_logs().len(), CLIENTS);
    assert_eq!(
        shared.metrics_snapshot(),
        serial.metrics_snapshot(),
        "metrics under 64-way concurrency must equal the serial twin's"
    );
}

/// A gate the test holds closed while concurrent queries pile up on the
/// flight table, so the leader's round trip is provably in flight when
/// the waiters join.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    released: Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.released.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.released.notify_all();
    }
}

/// A layer that counts keyed fetches — the round trips the single-flight
/// layer is supposed to coalesce — and parks them on a [`Gate`] until the
/// test releases it.
struct GateLayer {
    round_trips: Arc<AtomicUsize>,
    gate: Arc<Gate>,
}

impl Layer for GateLayer {
    fn before_fetch(
        &self,
        _inner: &dyn Connector,
        _collection: &CollectionName,
        _keys: &[LocalKey],
    ) -> PolyResult<()> {
        self.gate.hold();
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn gated(polystore: &Polystore, round_trips: &Arc<AtomicUsize>, gate: &Arc<Gate>) -> Polystore {
    polystore.wrap_connectors(|inner| {
        let layer = GateLayer { round_trips: Arc::clone(round_trips), gate: Arc::clone(gate) };
        Arc::new(Layered::wrap(inner, layer))
    })
}

/// Cross-query single-flight: while the leader's round trip is parked on
/// the gate, seven more clients ask for the same keys. Once released, the
/// eight queries together must have cost exactly the round trips of ONE
/// cold serial run — the other seven rode the shared flights (or the
/// cache the leader filled).
#[test]
fn identical_concurrent_queries_share_one_round_trip() {
    const CLIENTS: usize = 8;
    let config = QuepaConfig {
        augmenter: AugmenterKind::OuterBatch,
        batch_size: 8,
        threads_size: 1, // tickets collapse to the caller: the gate parks client threads only
        cache_size: 4096,
        ..QuepaConfig::default()
    };
    let build = || {
        BuiltPolystore::build(WorkloadConfig {
            albums: 80,
            replica_sets: 0,
            deployment: Deployment::InProcess,
            seed: 35,
        })
    };
    let query = query_for(StoreKind::Document, 9);

    // Reference: round trips of one cold serial run (gate already open).
    let built = build();
    let serial_trips = Arc::new(AtomicUsize::new(0));
    let open_gate = Arc::new(Gate::default());
    open_gate.release();
    let serial =
        Quepa::with_config(gated(&built.polystore, &serial_trips, &open_gate), built.index, config);
    let serial_nf = serial.augmented_search("catalogue", &query, 1).unwrap().normal_form();
    let serial_trips = serial_trips.load(Ordering::Relaxed);
    assert!(serial_trips > 0, "the query must fetch something");

    // Shared instance, gate closed: the leader parks inside its round
    // trip while the other clients join the same flights.
    let built = build();
    let trips = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Gate::default());
    let shared =
        Arc::new(Quepa::with_config(gated(&built.polystore, &trips, &gate), built.index, config));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let query = query.clone();
            std::thread::spawn(move || {
                shared.augmented_search("catalogue", &query, 1).unwrap().normal_form()
            })
        })
        .collect();
    // Let every client reach the flight table: the leader is parked on
    // the gate, the rest are parked on the flights it registered.
    std::thread::sleep(std::time::Duration::from_millis(150));
    gate.release();
    for h in handles {
        assert_eq!(h.join().unwrap(), serial_nf, "coalesced answer diverged");
    }
    assert_eq!(
        trips.load(Ordering::Relaxed),
        serial_trips,
        "eight identical concurrent queries must cost one run's round trips"
    );
}

fn discount_key_of(quepa: &Quepa, seq: usize) -> String {
    // Find the discount key for album `seq` via a prefix scan.
    let objs = quepa.polystore().execute("discount", &format!("SCAN k{seq}:")).unwrap();
    objs.first().map(|o| o.key().key().as_str().to_owned()).unwrap_or_else(|| "none".into())
}
