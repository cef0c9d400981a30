//! Apache-Metamodel-style baselines: a loosely-coupled common interface
//! over the stores, without Redis support.
//!
//! * [`MetaNat`] materializes every collection the augmentation touches
//!   into middleware memory and joins there — the "native operators based
//!   on joins" variant, which "goes often out-of-memory".
//! * [`MetaAug`] "simulates the augmentation algorithm of QUEPA" over
//!   Metamodel's per-object API: direct key access, no batching, and a
//!   per-object conversion overhead.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use quepa_aindex::IndexView;
use quepa_pdm::{CollectionName, DataObject, DatabaseName, GlobalKey};
use quepa_polystore::Polystore;

use crate::memory::MemoryBudget;
use crate::middleware::{Middleware, MiddlewareAnswer, MiddlewareError};

/// Busy-waits for `d` — the middleware's own CPU overhead, charged as wall
/// time just like the network model.
pub(crate) fn burn(d: Duration) {
    if d.is_zero() {
        return;
    }
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Stores Metamodel cannot connect to.
pub(crate) fn meta_supports(db: &DatabaseName) -> bool {
    // "Redis is not supported".
    !db.as_str().starts_with("discount")
}

pub(crate) fn local_answer(
    polystore: &Polystore,
    database: &str,
    query: &str,
) -> Result<Vec<DataObject>, MiddlewareError> {
    Ok(polystore.execute(database, query)?)
}

/// The (database, collection) pairs and target keys the augmentation of
/// `seeds` at `level` touches, per the A' index.
pub(crate) fn augmentation_targets(
    index: &IndexView,
    seeds: &[DataObject],
    level: usize,
) -> (Vec<GlobalKey>, BTreeSet<(DatabaseName, CollectionName)>) {
    let seed_keys: Vec<GlobalKey> = seeds.iter().map(|o| o.key().clone()).collect();
    let targets: Vec<GlobalKey> =
        index.augment(&seed_keys, level).into_iter().map(|a| a.key).collect();
    let collections =
        targets.iter().map(|k| (k.database().clone(), k.collection().clone())).collect();
    (targets, collections)
}

/// META-NAT: global-view joins with full materialization.
pub struct MetaNat {
    polystore: Polystore,
    index: IndexView,
    budget: MemoryBudget,
    /// CPU cost per materialized object (row conversion into the unified
    /// model).
    convert_cost: Duration,
}

impl MetaNat {
    /// Creates the baseline with the given heap budget.
    pub fn new(polystore: Polystore, index: IndexView, budget_bytes: usize) -> Self {
        MetaNat {
            polystore,
            index,
            budget: MemoryBudget::new(budget_bytes),
            convert_cost: Duration::from_nanos(150),
        }
    }

    /// The memory accounting (inspectable by experiments).
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }
}

impl Middleware for MetaNat {
    fn name(&self) -> &'static str {
        "META-NAT"
    }

    fn reset(&self) {
        self.budget.reset();
    }

    fn augmented_query(
        &self,
        database: &str,
        query: &str,
        level: usize,
    ) -> Result<MiddlewareAnswer, MiddlewareError> {
        let start = Instant::now();
        let db_name =
            DatabaseName::new(database).map_err(|e| MiddlewareError::Unsupported(e.to_string()))?;
        if !meta_supports(&db_name) {
            return Err(MiddlewareError::Unsupported(
                "Apache Metamodel has no Redis connector".into(),
            ));
        }
        self.budget.reset();
        let original = local_answer(&self.polystore, database, query)?;
        // Charge the local answer: it sits in the global view too.
        for o in &original {
            self.charge(o)?;
        }

        let (targets, collections) = augmentation_targets(&self.index, &original, level);

        // Materialize every touched (and supported) collection fully —
        // the join has no index on the remote side.
        let mut view: HashMap<GlobalKey, DataObject> = HashMap::new();
        for (db, coll) in &collections {
            if !meta_supports(db) {
                continue; // silently absent from the global view
            }
            let connector = self.polystore.connector(db)?;
            for object in connector.scan_collection(coll)? {
                self.charge(&object)?;
                burn(self.convert_cost);
                view.insert(object.key().clone(), object);
            }
        }

        // Hash join: target keys against the view. The join materializes
        // its intermediate rows in the unified model (one row per matched
        // target per join stage) — that heap spike is what makes the native
        // variant "go often out-of-memory" as queries grow.
        let augmented: Vec<DataObject> =
            targets.iter().filter_map(|k| view.get(k).cloned()).collect();
        let intermediate: usize = augmented.iter().map(|o| o.approx_size() * 8).sum();
        self.budget.alloc(intermediate).map_err(|()| MiddlewareError::OutOfMemory {
            budget: self.budget.limit(),
            in_use: self.budget.used(),
        })?;
        self.budget.free(intermediate);
        Ok(MiddlewareAnswer { original, augmented, duration: start.elapsed() })
    }
}

impl MetaNat {
    fn charge(&self, object: &DataObject) -> Result<(), MiddlewareError> {
        self.budget.alloc(object.approx_size()).map_err(|()| MiddlewareError::OutOfMemory {
            budget: self.budget.limit(),
            in_use: self.budget.used(),
        })
    }
}

/// META-AUG: QUEPA's algorithm over Metamodel's per-object interface.
pub struct MetaAug {
    polystore: Polystore,
    index: IndexView,
    /// Per-object interface overhead (conversion through the unified data
    /// model; Metamodel has no batched key access).
    per_object_cost: Duration,
}

impl MetaAug {
    /// Creates the baseline.
    pub fn new(polystore: Polystore, index: IndexView) -> Self {
        MetaAug { polystore, index, per_object_cost: Duration::from_micros(2) }
    }
}

impl Middleware for MetaAug {
    fn name(&self) -> &'static str {
        "META-AUG"
    }

    fn augmented_query(
        &self,
        database: &str,
        query: &str,
        level: usize,
    ) -> Result<MiddlewareAnswer, MiddlewareError> {
        let start = Instant::now();
        let db_name =
            DatabaseName::new(database).map_err(|e| MiddlewareError::Unsupported(e.to_string()))?;
        if !meta_supports(&db_name) {
            return Err(MiddlewareError::Unsupported(
                "Apache Metamodel has no Redis connector".into(),
            ));
        }
        let original = local_answer(&self.polystore, database, query)?;
        let (targets, _) = augmentation_targets(&self.index, &original, level);
        let mut augmented = Vec::with_capacity(targets.len());
        for key in &targets {
            if !meta_supports(key.database()) {
                continue;
            }
            // One round trip per object: Metamodel's API is record-at-a-
            // time; plus the unified-model conversion cost.
            let connector = self.polystore.connector(key.database())?;
            if let Some(object) = connector.get(key.collection(), key.key())? {
                burn(self.per_object_cost);
                augmented.push(object);
            }
        }
        Ok(MiddlewareAnswer { original, augmented, duration: start.elapsed() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_polystore::Deployment;
    use quepa_workload::{BuiltPolystore, WorkloadConfig};

    fn built() -> BuiltPolystore {
        BuiltPolystore::build(WorkloadConfig {
            albums: 60,
            replica_sets: 0,
            deployment: Deployment::InProcess,
            seed: 5,
        })
    }

    #[test]
    fn meta_nat_answers_without_redis() {
        let b = built();
        let nat = MetaNat::new(b.polystore.clone(), IndexView::of(&b.index), usize::MAX);
        let a = nat
            .augmented_query("transactions", "SELECT * FROM inventory WHERE seq < 5", 0)
            .unwrap();
        assert_eq!(a.original.len(), 5);
        assert!(!a.augmented.is_empty());
        // Redis objects never appear.
        assert!(a.augmented.iter().all(|o| o.key().database().as_str() != "discount"));
        assert!(nat.budget().high_water() > 0);
    }

    #[test]
    fn meta_nat_ooms_on_small_budget() {
        let b = built();
        let nat = MetaNat::new(b.polystore.clone(), IndexView::of(&b.index), 4_096);
        let err = nat
            .augmented_query("transactions", "SELECT * FROM inventory WHERE seq < 30", 0)
            .unwrap_err();
        assert!(matches!(err, MiddlewareError::OutOfMemory { .. }), "{err:?}");
    }

    #[test]
    fn meta_rejects_redis_targets() {
        let b = built();
        let nat = MetaNat::new(b.polystore.clone(), IndexView::of(&b.index), usize::MAX);
        assert!(matches!(
            nat.augmented_query("discount", "GET k0:x:y", 0),
            Err(MiddlewareError::Unsupported(_))
        ));
        let aug = MetaAug::new(b.polystore.clone(), IndexView::of(&b.index));
        assert!(matches!(
            aug.augmented_query("discount", "GET k0:x:y", 0),
            Err(MiddlewareError::Unsupported(_))
        ));
    }

    #[test]
    fn meta_aug_matches_nat_on_supported_stores() {
        let b = built();
        let index = IndexView::of(&b.index);
        let nat = MetaNat::new(b.polystore.clone(), index.clone(), usize::MAX);
        let aug = MetaAug::new(b.polystore.clone(), index);
        let q = "SELECT * FROM inventory WHERE seq < 8";
        let a1 = nat.augmented_query("transactions", q, 1).unwrap();
        let a2 = aug.augmented_query("transactions", q, 1).unwrap();
        let keys = |a: &MiddlewareAnswer| {
            let mut v: Vec<String> = a.augmented.iter().map(|o| o.key().to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(keys(&a1), keys(&a2));
    }
}
