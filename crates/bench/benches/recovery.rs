//! The durability sweep: WAL overhead on the mutation path and cold
//! recovery latency (see [`quepa_bench::recovery`]).
//!
//! Prints the four mutation paths and the two recovery points, then
//! checks its two claims:
//!
//! * `wal-off-overhead` — volatile `apply_mutations` seconds per op over
//!   the raw sharded-update baseline, in alternating pairs (≤1.10×:
//!   durability must be free when unused);
//! * `recover-growth-10x` — cold recovery seconds at 10⁵ ops over 10⁴
//!   ops (≤25×: recovery stays roughly linear in the log).

use quepa_bench::claims::Report;
use quepa_bench::{recovery, sample};
use quepa_core::SyncPolicy;

const RUNS: usize = 5;

fn mutation_path(label: &str, f: impl FnMut() -> f64) {
    let per_op = sample::measure(0, RUNS, f);
    println!(
        "  {label:<14} {:.9}s/op  ({:.0} ops/s, IQR {:.9}s)",
        per_op.median,
        1.0 / per_op.median,
        per_op.iqr
    );
}

fn recover_point(ops: usize) -> sample::Summary {
    let stream = recovery::ops(ops);
    let dir = recovery::BenchDir::new(&format!("recover-{ops}"));
    recovery::build_durable_dir(&dir.0, &stream);
    let wall = sample::measure(0, RUNS, || {
        let (wall, report) = recovery::recover_cold(&dir.0);
        assert_eq!(report.replayed, ops - ops / 2, "recovery must replay the tail");
        wall
    });
    println!(
        "  recover/{:<7} {:.6}s  (IQR {:.6}s, {} records replayed)",
        quepa_bench::scale::scale_label(ops),
        wall.median,
        wall.iqr,
        ops - ops / 2
    );
    wall
}

fn main() {
    println!("== mutation paths ({} ops, batch {})", recovery::MUTATION_OPS, recovery::BATCH);
    let stream = recovery::ops(recovery::MUTATION_OPS);
    mutation_path("baseline", || recovery::mutation_baseline(&stream));
    mutation_path("wal-off", || recovery::mutation_wal_off(&stream));
    mutation_path("wal-buffered", || {
        recovery::mutation_durable(&stream, SyncPolicy::Buffered, "buffered")
    });
    mutation_path("wal-fsync", || recovery::mutation_durable(&stream, SyncPolicy::Always, "fsync"));

    println!("== cold recovery (checkpoint cut at midpoint + WAL tail)");
    let [small, large] = [10_000usize, 100_000].map(recover_point);

    println!();
    let mut report = Report::default();
    let (overhead, detail) = recovery::wal_off_overhead();
    report.check("wal-off-overhead", overhead, &detail);
    report.check(
        "recover-growth-10x",
        large.median / small.median,
        &format!("{:.4} s at 1e5 ops / {:.4} s at 1e4 ops", large.median, small.median),
    );
    report.finish("recovery");
}
