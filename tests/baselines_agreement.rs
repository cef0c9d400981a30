//! Cross-crate integration: the middleware baselines against QUEPA — same
//! answers on the stores every tool supports, plus the failure modes the
//! paper reports (out-of-memory, unsupported stores).

use quepa::aindex::IndexView;
use std::collections::BTreeSet;

use quepa::baselines::{ArangoAug, MetaAug, Middleware, MiddlewareError, Talend};
use quepa::core::QuepaConfig;
use quepa::polystore::{Deployment, StoreKind};
use quepa::workload::{query_for, BuiltPolystore, WorkloadConfig};

fn build() -> BuiltPolystore {
    BuiltPolystore::build(WorkloadConfig {
        albums: 80,
        replica_sets: 0,
        deployment: Deployment::InProcess,
        seed: 17,
    })
}

fn key_set(objs: &[quepa::pdm::DataObject]) -> BTreeSet<String> {
    objs.iter().map(|o| o.key().to_string()).collect()
}

#[test]
fn meta_aug_equals_quepa_minus_redis() {
    let built = build();
    let index = IndexView::of(&built.index);
    let polystore = built.polystore.clone();
    let quepa = built.into_quepa();
    quepa.set_config(QuepaConfig { cache_size: 0, ..QuepaConfig::default() });

    let q = query_for(StoreKind::Relational, 12);
    let ours = quepa.augmented_search("transactions", &q, 1).unwrap();
    let quepa_keys: BTreeSet<String> = ours
        .augmented
        .iter()
        .map(|a| a.object.key().to_string())
        .filter(|k| !k.starts_with("discount"))
        .collect();

    let meta = MetaAug::new(polystore, index);
    let theirs = meta.augmented_query("transactions", &q, 1).unwrap();
    assert_eq!(key_set(&theirs.augmented), quepa_keys);
}

#[test]
fn talend_equals_meta_aug() {
    let built = build();
    let index = IndexView::of(&built.index);
    let meta = MetaAug::new(built.polystore.clone(), index.clone());
    let talend = Talend::new(built.polystore.clone(), index);
    let q = query_for(StoreKind::Document, 9);
    let a = meta.augmented_query("catalogue", &q, 0).unwrap();
    let b = talend.augmented_query("catalogue", &q, 0).unwrap();
    assert_eq!(key_set(&a.augmented), key_set(&b.augmented));
    assert_eq!(a.original.len(), b.original.len());
}

#[test]
fn arango_covers_non_relational_subset_of_quepa() {
    let built = build();
    let index = IndexView::of(&built.index);
    let polystore = built.polystore.clone();
    let quepa = built.into_quepa();
    let q = query_for(StoreKind::Document, 10);
    let ours = quepa.augmented_search("catalogue", &q, 0).unwrap();
    let quepa_nonrel: BTreeSet<String> = ours
        .augmented
        .iter()
        .map(|a| a.object.key().to_string())
        .filter(|k| !k.starts_with("transactions"))
        .collect();

    let arango = ArangoAug::new(polystore, index, usize::MAX);
    arango.warm_up().unwrap();
    let theirs = arango.augmented_query("catalogue", &q, 0).unwrap();
    assert_eq!(key_set(&theirs.augmented), quepa_nonrel);
}

#[test]
fn every_middleware_reports_unsupported_stores_cleanly() {
    let built = build();
    let index = IndexView::of(&built.index);
    let middlewares: Vec<(Box<dyn Middleware>, &str)> = vec![
        (
            Box::new(MetaAug::new(built.polystore.clone(), index.clone())),
            "discount", // Metamodel: no Redis
        ),
        (Box::new(Talend::new(built.polystore.clone(), index.clone())), "discount"),
        (
            Box::new(ArangoAug::new(built.polystore.clone(), index, usize::MAX)),
            "transactions", // Arango: no SQL import
        ),
    ];
    for (m, bad_target) in middlewares {
        let err = m.augmented_query(bad_target, "whatever", 0).unwrap_err();
        assert!(
            matches!(err, MiddlewareError::Unsupported(_)),
            "{} on {bad_target}: {err:?}",
            m.name()
        );
    }
}
