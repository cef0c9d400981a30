//! Talend-style baseline: a compiled extract-transform-join workflow.
//!
//! The Talend workflow of §VII-A(c) extracts the referenced collections to
//! a staging area, then joins them with the query result. Staging streams
//! to disk, so Talend never runs out of memory — but it pays extraction
//! and serialization for *every* object of every touched collection on
//! *every* run, which is why the paper observes "the steepest slope".

use std::collections::HashMap;
use std::time::{Duration, Instant};

use quepa_aindex::IndexView;
use quepa_pdm::{DataObject, GlobalKey};
use quepa_polystore::Polystore;

use crate::metamodel::{augmentation_targets, burn, local_answer, meta_supports};
use crate::middleware::{Middleware, MiddlewareAnswer, MiddlewareError};

/// The Talend workflow baseline.
pub struct Talend {
    polystore: Polystore,
    index: IndexView,
    /// Per-object serialization cost into the staging area (write + later
    /// read back), paid on top of the network transfer.
    staging_cost: Duration,
    /// Per-comparison cost of the sort-merge join over staged rows.
    join_cost: Duration,
}

impl Talend {
    /// Creates the baseline.
    pub fn new(polystore: Polystore, index: IndexView) -> Self {
        Talend {
            polystore,
            index,
            staging_cost: Duration::from_nanos(800),
            join_cost: Duration::from_nanos(120),
        }
    }
}

impl Middleware for Talend {
    fn name(&self) -> &'static str {
        "TALEND"
    }

    fn augmented_query(
        &self,
        database: &str,
        query: &str,
        level: usize,
    ) -> Result<MiddlewareAnswer, MiddlewareError> {
        let start = Instant::now();
        if database.starts_with("discount") {
            return Err(MiddlewareError::Unsupported(
                "the Talend workflow has no Redis component".into(),
            ));
        }
        let original = local_answer(&self.polystore, database, query)?;
        let (targets, collections) = augmentation_targets(&self.index, &original, level);

        // Extract phase: stage every touched, supported collection.
        let mut staged: HashMap<GlobalKey, DataObject> = HashMap::new();
        let mut staged_rows = 0usize;
        for (db, coll) in &collections {
            if !meta_supports(db) {
                continue;
            }
            let connector = self.polystore.connector(db)?;
            for object in connector.scan_collection(coll)? {
                burn(self.staging_cost);
                staged_rows += 1;
                staged.insert(object.key().clone(), object);
            }
        }

        // Join phase: sort-merge over the staged rows (n log n comparisons,
        // paid as CPU time) followed by the probe of the target keys.
        let comparisons = staged_rows as f64 * (staged_rows.max(2) as f64).log2();
        burn(Duration::from_nanos((comparisons * self.join_cost.as_nanos() as f64) as u64));
        let augmented: Vec<DataObject> =
            targets.iter().filter_map(|k| staged.get(k).cloned()).collect();
        Ok(MiddlewareAnswer { original, augmented, duration: start.elapsed() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_polystore::Deployment;
    use quepa_workload::{BuiltPolystore, WorkloadConfig};

    #[test]
    fn talend_computes_the_answer_slowly_but_surely() {
        let b = BuiltPolystore::build(WorkloadConfig {
            albums: 50,
            replica_sets: 0,
            deployment: Deployment::InProcess,
            seed: 5,
        });
        let t = Talend::new(b.polystore.clone(), IndexView::of(&b.index));
        let a =
            t.augmented_query("transactions", "SELECT * FROM inventory WHERE seq < 5", 0).unwrap();
        assert_eq!(a.original.len(), 5);
        assert!(!a.augmented.is_empty());
        assert!(a.augmented.iter().all(|o| o.key().database().as_str() != "discount"));
        // No OOM mechanism: big queries still succeed.
        let big = t.augmented_query("transactions", "SELECT * FROM inventory", 1).unwrap();
        assert!(big.augmented.len() >= a.augmented.len());
    }

    #[test]
    fn talend_rejects_redis() {
        let b = BuiltPolystore::build(WorkloadConfig {
            albums: 10,
            replica_sets: 0,
            deployment: Deployment::InProcess,
            seed: 5,
        });
        let t = Talend::new(b.polystore.clone(), IndexView::of(&b.index));
        assert!(matches!(
            t.augmented_query("discount", "GET x", 0),
            Err(MiddlewareError::Unsupported(_))
        ));
    }
}
