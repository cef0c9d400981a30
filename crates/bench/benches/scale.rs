//! The scale sweep: build time, resident index bytes, cold/warm
//! per-level augmentation latency and mutation-under-readers throughput
//! at 10⁴ / 10⁵ / 10⁶ objects (10⁷ with `QUEPA_SCALE_XL=1` — the nightly
//! sweep), through the sharded A' index (see [`quepa_bench::scale`]).
//!
//! After the uniform sweep the run builds the adversarial topology
//! families ([`quepa_workload::TopologyFamily`]) at
//! [`scale::HOSTILE_SCALE`] objects and probes each, including the
//! supernode hub with ~1e5 p-relations. Three claims are checked:
//!
//! * `cold-growth-1e4-1e6` — the worst per-level cold-latency growth
//!   from 10⁴ to 10⁶ objects (≤2× while objects grow 100×);
//! * `sharded-vs-swap-1e6` — whole-index-swap seconds per removal over
//!   sharded seconds per removal at 10⁶ objects (≥5×);
//! * `supernode-cold-s` — the supernode cold probe, in seconds (≤0.5:
//!   the table's one absolute bound, a ceiling with ~10× headroom over
//!   the ~40 ms it takes here, not a band around a recording).

use quepa_bench::claims::Report;
use quepa_bench::scale;
use quepa_workload::TopologyFamily;

/// Cold/warm pairs per latency reading: at 9 the 10⁶-object level-2
/// cold median (43 µs) carried an IQR of 31 µs.
const LATENCY_RUNS: usize = 101;

struct Point {
    cold: [f64; scale::LEVELS.len()],
    sharded: scale::MutationPoint,
    swap: scale::MutationPoint,
}

fn sweep(objects: usize) -> Point {
    let lab = scale::build(objects);
    println!(
        "\n== {} objects: {} entries, {:.1} MiB resident, built in {:.2}s",
        scale::scale_label(objects),
        lab.entries,
        lab.resident_bytes as f64 / (1024.0 * 1024.0),
        lab.build_s
    );
    let cold = scale::LEVELS.map(|level| {
        let (c, w) = scale::augment_latency(&lab, level, LATENCY_RUNS);
        println!(
            "  level {level}: cold {:.6}s (IQR {:.6}s)  warm {:.6}s (IQR {:.6}s)",
            c.median, c.iqr, w.median, w.iqr
        );
        c.median
    });
    let sharded = scale::mutation_throughput_sharded(&lab);
    let swap = scale::mutation_throughput_swap(&lab);
    println!(
        "  mutations x{} under {} readers: sharded {:.1}/s ({} reads), swap {:.1}/s ({} reads)",
        sharded.mutations,
        scale::READERS,
        sharded.qps,
        sharded.reads,
        swap.qps,
        swap.reads
    );
    Point { cold, sharded, swap }
}

fn main() {
    let small = sweep(10_000);
    sweep(100_000);
    let large = sweep(1_000_000);
    if std::env::var("QUEPA_SCALE_XL").is_ok_and(|v| v == "1") {
        sweep(10_000_000);
    }

    let mut supernode_cold = f64::NAN;
    for family in TopologyFamily::ALL {
        let lab = scale::build_hostile(family, scale::HOSTILE_SCALE);
        let level = scale::hostile_level(family);
        let (cold, warm) = scale::augment_latency_on(&lab.sharded, &lab.seeds, level, LATENCY_RUNS);
        println!(
            "\n== hostile {}: {} objects / {} relations -> {} entries, built in {:.2}s\n  \
             level {level}: cold {:.6}s (IQR {:.6}s)  warm {:.6}s (IQR {:.6}s)",
            family.name(),
            lab.objects,
            lab.relations,
            lab.entries,
            lab.build_s,
            cold.median,
            cold.iqr,
            warm.median,
            warm.iqr
        );
        if family == TopologyFamily::Supernode {
            supernode_cold = cold.median;
        }
    }

    println!();
    let mut report = Report::default();
    let growth: Vec<f64> = large.cold.iter().zip(small.cold).map(|(l, s)| l / s).collect();
    report.check(
        "cold-growth-1e4-1e6",
        growth.iter().copied().fold(0.0, f64::max),
        &format!("worst of levels {:?}: {growth:.2?}", scale::LEVELS),
    );
    report.check(
        "sharded-vs-swap-1e6",
        large.swap.mean_s / large.sharded.mean_s,
        &format!(
            "swap {:.1} ms / sharded {:.4} ms per removal under {} readers",
            large.swap.mean_s * 1e3,
            large.sharded.mean_s * 1e3,
            scale::READERS
        ),
    );
    report.check(
        "supernode-cold-s",
        supernode_cold,
        &format!("level-1 probe of a ~1e5-relation hub, median of {LATENCY_RUNS}"),
    );
    report.finish("scale");
}
