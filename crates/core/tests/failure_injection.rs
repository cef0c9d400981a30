//! Failure injection: a connector that fails on demand, driven through
//! every augmenter — errors must surface cleanly (no deadlocks, no
//! partial-answer lies), and per-object failures must not poison the
//! others.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use quepa_aindex::AIndex;
use quepa_core::{AugmenterKind, DegradeMode, Quepa, QuepaConfig, QuepaError, ResilienceConfig};
use quepa_kvstore::KvStore;
use quepa_pdm::{CollectionName, GlobalKey, LocalKey, Probability};
use quepa_polystore::{Connector, KvConnector, LatencyModel, Layer, Layered, PolyError, Polystore};

/// Every `fail_every`-th key-based lookup errors.
struct Flaky {
    calls: AtomicUsize,
    fail_every: usize,
}

impl Layer for Flaky {
    fn before_fetch(
        &self,
        inner: &dyn Connector,
        _collection: &CollectionName,
        _keys: &[LocalKey],
    ) -> Result<(), PolyError> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if self.fail_every > 0 && n.is_multiple_of(self.fail_every) {
            Err(PolyError::Store {
                database: inner.database().to_string(),
                message: "injected fault".into(),
            })
        } else {
            Ok(())
        }
    }
}

/// Any lookup touching `poisoned` fails — a whole batch errors when the
/// poisoned key is *anywhere* in it, modelling one corrupt object sinking
/// a batched round trip.
struct PoisonedBatch {
    poisoned: String,
}

impl Layer for PoisonedBatch {
    fn before_fetch(
        &self,
        inner: &dyn Connector,
        _collection: &CollectionName,
        keys: &[LocalKey],
    ) -> Result<(), PolyError> {
        if keys.iter().any(|k| k.as_str() == self.poisoned) {
            return Err(PolyError::store(inner.database().as_str(), "poisoned object"));
        }
        Ok(())
    }
}

/// Two stores: db0 (healthy, the query target) and db1 (behind `layer`,
/// holds the related objects).
fn build_behind(layer: impl Layer + 'static) -> Quepa {
    let mut kv0 = KvStore::new("db0");
    let mut kv1 = KvStore::new("db1");
    for k in 0..20 {
        kv0.set(format!("k{k}"), "v");
        kv1.set(format!("k{k}"), "w");
    }
    let mut polystore = Polystore::new();
    polystore.register(Arc::new(KvConnector::new(kv0, "c", LatencyModel::FREE)));
    let db1 = Arc::new(KvConnector::new(kv1, "c", LatencyModel::FREE));
    polystore.register(Arc::new(Layered::wrap(db1, layer)));
    let mut index = AIndex::new();
    let key = |db: usize, k: usize| -> GlobalKey { format!("db{db}.c.k{k}").parse().unwrap() };
    for k in 0..20 {
        index.insert_matching(&key(0, k), &key(1, k), Probability::of(0.8));
    }
    Quepa::new(polystore, index)
}

/// db1 fails every `fail_every`-th lookup (never, when 0).
fn build(fail_every: usize) -> Quepa {
    build_behind(Flaky { calls: AtomicUsize::new(0), fail_every })
}

#[test]
fn healthy_run_is_complete() {
    let quepa = build(0);
    let answer = quepa.augmented_search("db0", "SCAN k COUNT 20", 0).unwrap();
    assert_eq!(answer.augmented.len(), 20);
}

#[test]
fn every_augmenter_surfaces_injected_faults() {
    for aug in AugmenterKind::ALL {
        let quepa = build(5);
        quepa.set_config(QuepaConfig {
            augmenter: aug,
            batch_size: 3,
            threads_size: 4,
            cache_size: 0,
            ..QuepaConfig::default()
        });
        let result = quepa.augmented_search("db0", "SCAN k COUNT 20", 0);
        // 20 lookups with every 5th failing: the run must error, not hang
        // and not silently drop objects.
        match result {
            Err(QuepaError::Polystore(PolyError::Store { message, .. })) => {
                assert!(message.contains("injected fault"), "{aug}: {message}");
            }
            other => panic!("{aug}: expected injected fault, got {other:?}"),
        }
    }
}

#[test]
fn rare_faults_fail_runs_independently() {
    let quepa = build(1000); // effectively never during this test
    for _ in 0..3 {
        let answer = quepa.augmented_search("db0", "SCAN k COUNT 10", 0).unwrap();
        assert_eq!(answer.augmented.len(), 10);
    }
}

#[test]
fn faults_do_not_corrupt_later_runs() {
    let quepa = build(7);
    quepa.set_config(QuepaConfig {
        augmenter: AugmenterKind::Outer,
        threads_size: 4,
        cache_size: 0,
        ..QuepaConfig::default()
    });
    let mut saw_error = false;
    let mut saw_success = false;
    for _ in 0..12 {
        match quepa.augmented_search("db0", "SCAN k COUNT 3", 0) {
            Ok(answer) => {
                saw_success = true;
                assert_eq!(answer.augmented.len(), 3, "successful runs stay complete");
            }
            Err(QuepaError::Polystore(_)) => saw_error = true,
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }
    assert!(saw_error, "every 7th lookup fails, some run must hit it");
    assert!(saw_success, "runs between faults recover fully");
}

/// Like [`build`], but db1 carries one poisoned key instead of periodic
/// faults.
fn build_poisoned(poisoned: &str) -> Quepa {
    build_behind(PoisonedBatch { poisoned: poisoned.to_owned() })
}

/// Satellite pin: a single poisoned object must not poison the rest of
/// its `multi_get` batch. Under partial degradation the batched
/// augmenters fall back to per-key round trips, so exactly the poisoned
/// key degrades to `Unreachable` and its 19 batch-mates all arrive.
#[test]
fn poisoned_object_does_not_poison_its_batch() {
    for aug in AugmenterKind::ALL {
        let quepa = build_poisoned("k7");
        quepa.set_config(QuepaConfig {
            augmenter: aug,
            batch_size: 6, // k7 rides in a batch with healthy neighbours
            threads_size: 4,
            cache_size: 0,
            resilience: ResilienceConfig {
                degrade: DegradeMode::Partial,
                ..ResilienceConfig::default()
            },
            observability: false,
            pushdown: true,
        });
        let answer = quepa.augmented_search("db0", "SCAN k COUNT 20", 0).unwrap();
        assert_eq!(answer.augmented.len(), 19, "{aug}: every healthy batch-mate must arrive");
        assert!(
            answer.augmented.iter().all(|a| a.object.key().key().as_str() != "k7"),
            "{aug}: the poisoned key cannot appear in the answer"
        );
        assert_eq!(answer.missing.len(), 1, "{aug}: {:?}", answer.missing);
        let miss = &answer.missing[0];
        assert_eq!(miss.key.to_string(), "db1.c.k7", "{aug}");
        assert!(!miss.is_not_found(), "{aug}: a failed fetch is Unreachable, not NotFound");
        // An unreachable object is not a deleted one: the index keeps it.
        assert_eq!(answer.lazily_deleted, 0, "{aug}");
        assert!(quepa.index().contains(&"db1.c.k7".parse().unwrap()), "{aug}");
    }
}

/// Under fail-fast (the default), the poisoned batch still sinks the run
/// — partial answers are strictly opt-in.
#[test]
fn poisoned_batch_fails_fast_by_default() {
    for aug in AugmenterKind::ALL {
        let quepa = build_poisoned("k7");
        quepa.set_config(QuepaConfig {
            augmenter: aug,
            batch_size: 6,
            threads_size: 4,
            cache_size: 0,
            ..QuepaConfig::default()
        });
        let result = quepa.augmented_search("db0", "SCAN k COUNT 20", 0);
        assert!(
            matches!(result, Err(QuepaError::Polystore(_))),
            "{aug}: fail-fast must propagate the poisoned batch, got {result:?}"
        );
    }
}

#[test]
fn faults_never_trigger_lazy_deletion() {
    // An errored lookup is not a missing object: the index must keep it.
    let quepa = build(2);
    let _ = quepa.augmented_search("db0", "SCAN k COUNT 20", 0);
    for k in 0..20 {
        let key: GlobalKey = format!("db1.c.k{k}").parse().unwrap();
        assert!(quepa.index().contains(&key), "k{k} evicted by a transient fault");
    }
}
