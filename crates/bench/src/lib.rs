//! # quepa-bench — the experiment harness
//!
//! Shared plumbing for the `figures` binary that regenerates every figure
//! of §VII, the sweeps under `benches/` and `bench_gate`. One [`Lab`] is
//! one experimental polystore (a scale + replica count + deployment) with
//! its QUEPA instance and, on demand, the middleware baselines.
//!
//! Nothing here records an absolute time for a later run to be compared
//! with — that is `BENCHMARK.json` and `benchmark/`. What this crate
//! holds are the ratios and equalities of [`claims`], re-derived by
//! every run through the one sampler, [`sample`]; a bench run leaves the
//! working tree as it found it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod fetch;
pub mod pushdown;
pub mod recovery;
pub mod sample;
pub mod scale;
pub mod serving;
pub mod throughput;
pub mod traffic;

use std::time::Duration;

use quepa_aindex::IndexView;
use quepa_baselines::{ArangoAug, ArangoNat, MetaAug, MetaNat, Middleware, Talend};
use quepa_core::{Quepa, QuepaConfig};
use quepa_polystore::{Deployment, Polystore};
use quepa_workload::{BuiltPolystore, WorkloadConfig};

/// One experimental polystore with its QUEPA instance.
pub struct Lab {
    /// The workload parameters that built this lab.
    pub config: WorkloadConfig,
    /// The QUEPA system under test.
    pub quepa: Quepa,
    /// A handle to the same store registry (baselines share it).
    pub polystore: Polystore,
    /// The A' index as built, for the baselines (a frozen view: the
    /// lazy deletions `quepa` performs later do not show in it).
    pub index: IndexView,
}

impl Lab {
    /// Builds a lab.
    pub fn new(albums: usize, replica_sets: usize, deployment: Deployment) -> Self {
        let config = WorkloadConfig { albums, replica_sets, deployment, seed: 42 };
        let built = BuiltPolystore::build(config);
        let polystore = built.polystore.clone();
        let quepa = built.into_quepa();
        let index = quepa.index();
        Lab { config, quepa, polystore, index }
    }

    /// Runs one augmented search under `config`, cold or warm, returning
    /// `(end-to-end time, #original, #augmented)`.
    pub fn run(
        &self,
        database: &str,
        query: &str,
        level: usize,
        config: QuepaConfig,
        cold: bool,
    ) -> (Duration, usize, usize) {
        self.quepa.set_optimizer(None);
        self.quepa.set_config(config);
        if cold {
            self.quepa.drop_caches();
        } else {
            // Warm-cache runs measure "a subsequent execution of the
            // corresponding cold-cache run" (§VII-A): prime then measure.
            self.quepa.drop_caches();
            let _ = self.quepa.augmented_search(database, query, level);
        }
        let answer = self
            .quepa
            .augmented_search(database, query, level)
            .expect("experiment query must be valid");
        (answer.duration, answer.original.len(), answer.augmented.len())
    }

    /// The five middleware baselines over this lab's polystore, with the
    /// given heap budget for the memory-bound ones.
    pub fn middlewares(&self, budget_bytes: usize) -> Vec<Box<dyn Middleware>> {
        vec![
            Box::new(MetaNat::new(self.polystore.clone(), self.index.clone(), budget_bytes)),
            Box::new(MetaAug::new(self.polystore.clone(), self.index.clone())),
            Box::new(Talend::new(self.polystore.clone(), self.index.clone())),
            Box::new(ArangoNat::new(self.polystore.clone(), self.index.clone(), budget_bytes)),
            Box::new(ArangoAug::new(self.polystore.clone(), self.index.clone(), budget_bytes)),
        ]
    }

    /// Approximate byte size of all objects in the polystore — the
    /// reference for middleware budget scaling.
    pub fn polystore_bytes(&self) -> usize {
        // Objects average ~190 bytes in the generated workload.
        self.polystore.total_objects() * 190
    }
}

/// Output plumbing for the experiment binaries: [`say!`] prints a line
/// to stdout and, once [`output::tee_to`] has installed a sink file,
/// appends the same line there. The figures run used to be captured by
/// shell redirection and checked in; now the binary owns its artifact
/// (an ignored `figures/` directory) and the terminal stays live.
pub mod output {
    use std::fs::File;
    use std::io::Write as _;
    use std::path::Path;
    use std::sync::{Mutex, OnceLock};

    static SINK: OnceLock<Mutex<File>> = OnceLock::new();

    /// Installs `path` as the tee sink (parent directories are created).
    /// Only the first installation in a process takes effect.
    pub fn tee_to(path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::create(path)?;
        let _ = SINK.set(Mutex::new(file));
        Ok(())
    }

    /// Prints one line to stdout and to the sink, if installed.
    pub fn emit(line: std::fmt::Arguments<'_>) {
        println!("{line}");
        if let Some(sink) = SINK.get() {
            let _ = writeln!(sink.lock().expect("tee sink"), "{line}");
        }
    }
}

/// `println!` that also lands in the tee sink (see [`output`]).
#[macro_export]
macro_rules! say {
    () => { $crate::output::emit(format_args!("")) };
    ($($t:tt)*) => { $crate::output::emit(format_args!($($t)*)) };
}

/// Renders a duration in the unit the paper's axes use (seconds with
/// millisecond precision).
pub fn fmt_duration(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Prints one aligned table row.
pub fn row(cells: &[String]) -> String {
    cells.iter().map(|c| format!("{c:>12}")).collect::<Vec<_>>().join(" ")
}

/// Prints a table header followed by its underline.
pub fn header(title: &str, cells: &[&str]) {
    say!("\n## {title}");
    let line = row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    say!("{line}");
    say!("{}", "-".repeat(line.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use quepa_core::AugmenterKind;

    #[test]
    fn lab_runs_cold_and_warm() {
        let lab = Lab::new(100, 0, Deployment::InProcess);
        let cfg = QuepaConfig::default();
        let (d_cold, orig, aug) =
            lab.run("transactions", "SELECT * FROM inventory WHERE seq < 20", 0, cfg, true);
        assert_eq!(orig, 20);
        assert!(aug > 0);
        assert!(d_cold > Duration::ZERO);
        let (_, _, aug_warm) =
            lab.run("transactions", "SELECT * FROM inventory WHERE seq < 20", 0, cfg, false);
        assert_eq!(aug, aug_warm, "warm answers the same objects");
    }

    #[test]
    fn middlewares_enumerate() {
        let lab = Lab::new(30, 0, Deployment::InProcess);
        let ms = lab.middlewares(usize::MAX);
        let names: Vec<&str> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["META-NAT", "META-AUG", "TALEND", "ARANGO-NAT", "ARANGO-AUG"]);
        assert!(lab.polystore_bytes() > 0);
    }

    #[test]
    fn augmenters_complete_on_lab() {
        let lab = Lab::new(60, 1, Deployment::InProcess);
        for kind in AugmenterKind::ALL {
            let cfg = QuepaConfig { augmenter: kind, ..QuepaConfig::default() };
            let (_, orig, aug) =
                lab.run("catalogue", r#"db.albums.find({"seq":{"$lt":10}})"#, 1, cfg, true);
            assert_eq!(orig, 10);
            assert!(aug > 0, "{kind}");
        }
    }
}
