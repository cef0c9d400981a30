//! ArangoDB-style baselines: one in-memory multi-model store holding the
//! imported polystore plus the A' index.
//!
//! "ArangoDB is an in-memory database management system that represents
//! multi-model architectures. It allowed us to import our key-value, graph
//! and document databases (that is, relational databases are not
//! supported). We stored the A' index and the polystore in ArangoDB."
//!
//! Consequences modelled here:
//!
//! * a **warm-up import** of every supported store and of the index edges,
//!   paid once (wall time) and charged permanently against the memory
//!   budget — "they need to warm up at start-up" and "its performance
//!   decrease significantly when we add databases … it falls often into
//!   out-of-memory situations";
//! * after warm-up, object access is in-memory (no network), so *warm*
//!   runs are competitive until memory pressure kills them;
//! * **ARANGO-NAT** answers with one native AQL-style traversal whose
//!   intermediate result set is also charged against the budget;
//! * **ARANGO-AUG** runs QUEPA's algorithm against the imported maps
//!   (small transient intermediates — "performing slightly better").

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use quepa_aindex::IndexView;
use quepa_pdm::{DataObject, GlobalKey};
use quepa_polystore::Polystore;

use crate::memory::MemoryBudget;
use crate::metamodel::{augmentation_targets, burn, local_answer};
use crate::middleware::{Middleware, MiddlewareAnswer, MiddlewareError};

/// The shared in-memory multi-model store both variants run on.
struct ArangoCore {
    polystore: Polystore,
    index: IndexView,
    budget: MemoryBudget,
    imported: Mutex<Option<HashMap<GlobalKey, DataObject>>>,
    /// Per-object import cost (parse + index maintenance).
    import_cost: Duration,
    /// Per-object access cost once in memory.
    access_cost: Duration,
}

impl ArangoCore {
    fn new(polystore: Polystore, index: IndexView, budget_bytes: usize) -> Self {
        ArangoCore {
            polystore,
            index,
            budget: MemoryBudget::new(budget_bytes),
            imported: Mutex::new(None),
            import_cost: Duration::from_nanos(400),
            access_cost: Duration::from_nanos(120),
        }
    }

    fn oom(&self) -> MiddlewareError {
        MiddlewareError::OutOfMemory { budget: self.budget.limit(), in_use: self.budget.used() }
    }

    fn supports(db: &str) -> bool {
        // "relational databases are not supported".
        !db.starts_with("transactions")
    }

    /// Imports every supported store and the index once.
    fn ensure_imported(&self) -> Result<(), MiddlewareError> {
        let mut guard = self.imported.lock();
        if guard.is_some() {
            return Ok(());
        }
        let mut map = HashMap::new();
        for db in self.polystore.database_names() {
            if !Self::supports(db.as_str()) {
                continue;
            }
            let connector = self.polystore.connector(db)?;
            for coll in connector.collections() {
                for object in connector.scan_collection(&coll)? {
                    self.budget.alloc(object.approx_size()).map_err(|()| self.oom())?;
                    burn(self.import_cost);
                    map.insert(object.key().clone(), object);
                }
            }
        }
        // The A' index lives in ArangoDB too: charge its edges.
        let stats = self.index.stats();
        let edge_bytes = 96 * (stats.identity_edges + stats.matching_edges);
        self.budget.alloc(edge_bytes).map_err(|()| self.oom())?;
        *guard = Some(map);
        Ok(())
    }

    fn reset(&self) {
        *self.imported.lock() = None;
        self.budget.reset();
    }

    fn run(
        &self,
        database: &str,
        query: &str,
        level: usize,
        native: bool,
    ) -> Result<MiddlewareAnswer, MiddlewareError> {
        let start = Instant::now();
        if !Self::supports(database) {
            return Err(MiddlewareError::Unsupported(
                "ArangoDB cannot import relational databases".into(),
            ));
        }
        self.ensure_imported()?;
        // The local query still runs in the local language against the
        // imported data; we reuse the original store's engine for the
        // filter semantics but charge in-memory access costs instead of
        // re-paying the network (everything is local to ArangoDB now).
        let original = local_answer(&self.polystore, database, query)?;
        let (targets, _) = augmentation_targets(&self.index, &original, level);

        let guard = self.imported.lock();
        let map = guard.as_ref().expect("imported above");
        let mut augmented = Vec::with_capacity(targets.len());
        if native {
            // One AQL traversal: the engine materializes the whole
            // intermediate frontier (originals × neighbourhoods) before
            // projecting, and that intermediate is heap-resident.
            let mut intermediate_bytes = 0usize;
            for key in &targets {
                burn(self.access_cost);
                if let Some(object) = map.get(key) {
                    intermediate_bytes += object.approx_size() * 3; // AQL row + copies
                    augmented.push(object.clone());
                }
            }
            self.budget.alloc(intermediate_bytes).map_err(|()| self.oom())?;
            self.budget.free(intermediate_bytes);
        } else {
            // QUEPA-style: object-at-a-time against the in-memory maps.
            for key in &targets {
                burn(self.access_cost);
                if let Some(object) = map.get(key) {
                    augmented.push(object.clone());
                }
            }
        }
        Ok(MiddlewareAnswer { original, augmented, duration: start.elapsed() })
    }
}

/// ARANGO-NAT: one native query over the imported multi-model store.
pub struct ArangoNat {
    core: ArangoCore,
}

impl ArangoNat {
    /// Creates the baseline with the given heap budget.
    pub fn new(polystore: Polystore, index: IndexView, budget_bytes: usize) -> Self {
        ArangoNat { core: ArangoCore::new(polystore, index, budget_bytes) }
    }

    /// The memory accounting.
    pub fn budget(&self) -> &MemoryBudget {
        &self.core.budget
    }
}

impl Middleware for ArangoNat {
    fn name(&self) -> &'static str {
        "ARANGO-NAT"
    }

    fn warm_up(&self) -> Result<(), MiddlewareError> {
        self.core.ensure_imported()
    }

    fn reset(&self) {
        self.core.reset();
    }

    fn augmented_query(
        &self,
        database: &str,
        query: &str,
        level: usize,
    ) -> Result<MiddlewareAnswer, MiddlewareError> {
        self.core.run(database, query, level, true)
    }
}

/// ARANGO-AUG: QUEPA's algorithm over the imported store.
pub struct ArangoAug {
    core: ArangoCore,
}

impl ArangoAug {
    /// Creates the baseline with the given heap budget.
    pub fn new(polystore: Polystore, index: IndexView, budget_bytes: usize) -> Self {
        ArangoAug { core: ArangoCore::new(polystore, index, budget_bytes) }
    }

    /// The memory accounting.
    pub fn budget(&self) -> &MemoryBudget {
        &self.core.budget
    }
}

impl Middleware for ArangoAug {
    fn name(&self) -> &'static str {
        "ARANGO-AUG"
    }

    fn warm_up(&self) -> Result<(), MiddlewareError> {
        self.core.ensure_imported()
    }

    fn reset(&self) {
        self.core.reset();
    }

    fn augmented_query(
        &self,
        database: &str,
        query: &str,
        level: usize,
    ) -> Result<MiddlewareAnswer, MiddlewareError> {
        self.core.run(database, query, level, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_polystore::Deployment;
    use quepa_workload::{BuiltPolystore, WorkloadConfig};

    fn built(albums: usize, replica_sets: usize) -> BuiltPolystore {
        BuiltPolystore::build(WorkloadConfig {
            albums,
            replica_sets,
            deployment: Deployment::InProcess,
            seed: 5,
        })
    }

    #[test]
    fn arango_answers_document_queries() {
        let b = built(50, 0);
        let nat = ArangoNat::new(b.polystore.clone(), IndexView::of(&b.index), usize::MAX);
        let a =
            nat.augmented_query("catalogue", r#"db.albums.find({"seq":{"$lt":5}})"#, 0).unwrap();
        assert_eq!(a.original.len(), 5);
        // Related objects from supported stores only (no transactions).
        assert!(!a.augmented.is_empty());
        assert!(a.augmented.iter().all(|o| !o
            .key()
            .database()
            .as_str()
            .starts_with("transactions")));
        // Discount objects ARE importable (kv is supported).
        assert!(a.augmented.iter().any(|o| o.key().database().as_str() == "discount"));
    }

    #[test]
    fn arango_rejects_relational_targets() {
        let b = built(10, 0);
        let nat = ArangoNat::new(b.polystore.clone(), IndexView::of(&b.index), usize::MAX);
        assert!(matches!(
            nat.augmented_query("transactions", "SELECT * FROM inventory", 0),
            Err(MiddlewareError::Unsupported(_))
        ));
    }

    #[test]
    fn import_charges_memory_and_ooms_as_stores_grow() {
        let budget = 256 << 10; // 256 KiB
        let small = built(50, 0);
        let nat = ArangoNat::new(small.polystore.clone(), IndexView::of(&small.index), budget);
        assert!(nat.warm_up().is_ok(), "small polystore fits");
        let used_small = nat.budget().used();
        assert!(used_small > 0);

        let big = built(50, 3); // 13 stores: 4× the import
        let nat13 = ArangoNat::new(big.polystore.clone(), IndexView::of(&big.index), budget);
        assert!(
            matches!(nat13.warm_up(), Err(MiddlewareError::OutOfMemory { .. })),
            "13-store polystore must blow the same budget (small used {used_small})"
        );
    }

    #[test]
    fn warm_up_is_idempotent_and_reset_clears() {
        let b = built(30, 0);
        let aug = ArangoAug::new(b.polystore.clone(), IndexView::of(&b.index), usize::MAX);
        aug.warm_up().unwrap();
        let used = aug.budget().used();
        aug.warm_up().unwrap();
        assert_eq!(aug.budget().used(), used, "second warm-up is free");
        aug.reset();
        assert_eq!(aug.budget().used(), 0);
    }

    #[test]
    fn nat_charges_intermediates_aug_does_not() {
        let b = built(60, 0);
        let index = IndexView::of(&b.index);
        let nat = ArangoNat::new(b.polystore.clone(), index.clone(), usize::MAX);
        let aug = ArangoAug::new(b.polystore.clone(), index, usize::MAX);
        nat.warm_up().unwrap();
        aug.warm_up().unwrap();
        let import_high = aug.budget().high_water();
        let q = r#"db.albums.find({"seq":{"$lt":40}})"#;
        nat.augmented_query("catalogue", q, 1).unwrap();
        aug.augmented_query("catalogue", q, 1).unwrap();
        assert!(
            nat.budget().high_water() > import_high,
            "NAT's intermediates exceed the import footprint"
        );
        assert_eq!(aug.budget().high_water(), import_high, "AUG stays at the import footprint");
    }

    #[test]
    fn nat_and_aug_agree_on_answers() {
        let b = built(40, 0);
        let index = IndexView::of(&b.index);
        let nat = ArangoNat::new(b.polystore.clone(), index.clone(), usize::MAX);
        let aug = ArangoAug::new(b.polystore.clone(), index, usize::MAX);
        let q = r#"db.albums.find({"seq":{"$lt":10}})"#;
        let a1 = nat.augmented_query("catalogue", q, 1).unwrap();
        let a2 = aug.augmented_query("catalogue", q, 1).unwrap();
        let keys = |a: &MiddlewareAnswer| {
            let mut v: Vec<String> = a.augmented.iter().map(|o| o.key().to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(keys(&a1), keys(&a2));
    }
}
