//! Regenerates every figure of §VII as printed series.
//!
//! ```text
//! figures [--fig 9|10ab|10cd|11ab|11cf|12|13ab|13cd|cache|all] [--albums N]
//! ```
//!
//! Each experiment prints the series the corresponding paper figure plots
//! (times in seconds). Scale substitutions relative to the paper are
//! printed inline, never applied silently.

use std::collections::HashMap;
use std::time::Duration;

use quepa_bench::{fmt_duration, header, row, say, Lab};
use quepa_core::{
    AdaptiveOptimizer, AugmenterKind, HumanOptimizer, Optimizer, QuepaConfig, RandomOptimizer,
};
use quepa_polystore::{Deployment, StoreKind};
use quepa_workload::experiments::{BATCH_SIZES, QUERY_SIZES, REPLICA_SETS, THREAD_COUNTS};
use quepa_workload::queries::{holdout_query_set, query_for, standard_query_set};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig = "all".to_owned();
    let mut albums = 10_000usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                fig = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--albums" => {
                albums = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--albums requires a number");
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    // Every say! line below is tee'd into the (git-ignored) figures
    // directory, so a full run leaves its artifact without shell
    // redirection and partial runs never clobber a checked-in file.
    let out = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join("figures/figures_output.txt");
    if let Err(e) = quepa_bench::output::tee_to(&out) {
        eprintln!("cannot open {}: {e}", out.display());
        std::process::exit(2);
    }
    eprintln!("(output tee'd to {})", out.display());
    say!("# QUEPA experiment harness — scale: {albums} album entities");
    say!("# (the paper's polystore is ~1000x larger; latencies are scaled 1000x down,");
    say!("#  so relative comparisons — who wins, crossovers — are the meaningful output)");

    let run_all = fig == "all";
    if run_all || fig == "9" {
        fig9_batching(albums, Deployment::Centralized, "Fig. 9");
    }
    if run_all || fig == "10ab" {
        fig9_batching(albums.min(4_000), Deployment::Distributed, "Fig. 10(a,b)");
    }
    if run_all || fig == "10cd" {
        fig10cd_batch_scalability(albums);
    }
    if run_all || fig == "11ab" {
        fig11ab_threads(albums);
    }
    if run_all || fig == "11cf" {
        fig11cf_scalability(albums);
    }
    if run_all || fig == "12" {
        fig12_optimizer_quality();
    }
    if run_all || fig == "13ab" {
        fig13ab_middleware_sizes(albums);
    }
    if run_all || fig == "13cd" {
        fig13cd_middleware_stores(albums.min(4_000));
    }
    if run_all || fig == "cache" {
        fig_cache(albums.min(4_000));
    }
    say!("\n# done");
}

/// Average of the timed query over the relational and document targets
/// (the paper averages over the per-store query family).
fn avg_run(lab: &Lab, size: usize, level: usize, config: QuepaConfig, cold: bool) -> Duration {
    let mut total = Duration::ZERO;
    let targets = [("transactions", StoreKind::Relational), ("catalogue", StoreKind::Document)];
    for (db, kind) in targets {
        let (d, _, _) = lab.run(db, &query_for(kind, size), level, config, cold);
        total += d;
    }
    total / targets.len() as u32
}

/// Fig. 9 (centralized) / Fig. 10(a,b) (distributed): BATCH vs OUTER-BATCH
/// execution time while BATCH_SIZE varies (log x-axis); (a) cold level 0,
/// (b) warm level 1. 10-store polystore, 10 000-result queries.
fn fig9_batching(albums: usize, deployment: Deployment, label: &str) {
    let size = albums.min(10_000);
    if size != 10_000 {
        say!("\n# {label}: query size reduced to {size} (scale substitution)");
    }
    let lab = Lab::new(albums, 2, deployment);
    for (panel, cold, level) in [("(a) cold, level 0", true, 0), ("(b) warm, level 1", false, 1)] {
        header(
            &format!("{label} {panel} — {} deployment", deployment.name()),
            &["BATCH_SIZE", "BATCH", "OUTER-BATCH"],
        );
        for &batch in &BATCH_SIZES {
            let batch_cfg = QuepaConfig {
                augmenter: AugmenterKind::Batch,
                batch_size: batch,
                threads_size: 4,
                cache_size: 1_048_576,
                ..QuepaConfig::default()
            };
            let ob_cfg = QuepaConfig { augmenter: AugmenterKind::OuterBatch, ..batch_cfg };
            let t_batch = avg_run(&lab, size, level, batch_cfg, cold);
            let t_ob = avg_run(&lab, size, level, ob_cfg, cold);
            say!("{}", row(&[batch.to_string(), fmt_duration(t_batch), fmt_duration(t_ob)]));
        }
    }
}

/// Fig. 10(c,d): scalability over the query size in the distributed
/// deployment — batching vs the sequential augmenter.
fn fig10cd_batch_scalability(albums: usize) {
    let lab = Lab::new(albums, 2, Deployment::Distributed);
    const SEQ_CAP: usize = 1_000;
    say!(
        "\n# Fig. 10(c,d): SEQUENTIAL is only run up to {SEQ_CAP}-result queries \
         (it needs one round trip per object; larger points would take minutes \
         and add no information)"
    );
    for (panel, cold, level) in [("(c) cold, level 0", true, 0), ("(d) warm, level 1", false, 1)] {
        header(
            &format!("Fig. 10{panel} — distributed"),
            &["QUERY_SIZE", "SEQUENTIAL", "BATCH", "OUTER-BATCH"],
        );
        for &size in &QUERY_SIZES {
            let size = size.min(albums);
            let base = QuepaConfig {
                batch_size: 1_024,
                threads_size: 4,
                cache_size: 1_048_576,
                augmenter: AugmenterKind::Batch,
                ..QuepaConfig::default()
            };
            let t_seq = if size <= SEQ_CAP {
                fmt_duration(avg_run(
                    &lab,
                    size,
                    level,
                    QuepaConfig { augmenter: AugmenterKind::Sequential, ..base },
                    cold,
                ))
            } else {
                "-".into()
            };
            let t_batch = avg_run(&lab, size, level, base, cold);
            let t_ob = avg_run(
                &lab,
                size,
                level,
                QuepaConfig { augmenter: AugmenterKind::OuterBatch, ..base },
                cold,
            );
            say!("{}", row(&[size.to_string(), t_seq, fmt_duration(t_batch), fmt_duration(t_ob)]));
        }
    }
}

/// Fig. 11(a,b): the concurrent augmenters while THREADS_SIZE varies.
fn fig11ab_threads(albums: usize) {
    let size = albums.min(5_000);
    let lab = Lab::new(albums, 2, Deployment::Centralized);
    let augs = [
        AugmenterKind::Inner,
        AugmenterKind::Outer,
        AugmenterKind::OuterBatch,
        AugmenterKind::OuterInner,
    ];
    for (panel, cold, level) in [("(a) cold, level 0", true, 0), ("(b) warm, level 1", false, 1)] {
        header(
            &format!("Fig. 11{panel} — {size}-result queries, 10 stores"),
            &["THREADS", "INNER", "OUTER", "OUTER-BATCH", "OUTER-INNER"],
        );
        for &threads in &THREAD_COUNTS {
            let mut cells = vec![threads.to_string()];
            for aug in augs {
                let cfg = QuepaConfig {
                    augmenter: aug,
                    threads_size: threads,
                    batch_size: 256,
                    cache_size: 1_048_576,
                    ..QuepaConfig::default()
                };
                cells.push(fmt_duration(avg_run(&lab, size, level, cfg, cold)));
            }
            say!("{}", row(&cells));
        }
    }
}

/// Fig. 11(c–f): every augmenter over the query size (c cold / d warm) and
/// over the number of stores (e cold / f warm).
fn fig11cf_scalability(albums: usize) {
    let lab = Lab::new(albums, 2, Deployment::Centralized);
    let names: Vec<&str> = AugmenterKind::ALL.iter().map(|k| k.name()).collect();
    let mut headers = vec!["QUERY_SIZE"];
    headers.extend(&names);
    for (panel, cold, level) in [("(c) cold, level 0", true, 0), ("(d) warm, level 1", false, 1)] {
        header(&format!("Fig. 11{panel} — 10 stores"), &headers);
        for &size in &QUERY_SIZES {
            let size = size.min(albums);
            let mut cells = vec![size.to_string()];
            for aug in AugmenterKind::ALL {
                let cfg = QuepaConfig {
                    augmenter: aug,
                    threads_size: 8,
                    batch_size: 256,
                    cache_size: 1_048_576,
                    ..QuepaConfig::default()
                };
                cells.push(fmt_duration(avg_run(&lab, size, level, cfg, cold)));
            }
            say!("{}", row(&cells));
        }
    }

    let mut headers = vec!["STORES"];
    headers.extend(&names);
    let size = albums.min(1_000);
    for (panel, cold, level) in [("(e) cold, level 0", true, 0), ("(f) warm, level 1", false, 1)] {
        header(&format!("Fig. 11{panel} — {size}-result queries"), &headers);
        for &sets in &REPLICA_SETS {
            let lab = Lab::new(albums.min(4_000), sets, Deployment::Centralized);
            let mut cells = vec![lab.config.database_count().to_string()];
            for aug in AugmenterKind::ALL {
                let cfg = QuepaConfig {
                    augmenter: aug,
                    threads_size: 8,
                    batch_size: 256,
                    cache_size: 1_048_576,
                    ..QuepaConfig::default()
                };
                cells.push(fmt_duration(avg_run(&lab, size, level, cfg, cold)));
            }
            say!("{}", row(&cells));
        }
    }
}

/// Fig. 12: quality of the ADAPTIVE optimizer against HUMAN and RANDOM on
/// 25 hold-out queries × 4 polystore variants × levels {0, 1}.
fn fig12_optimizer_quality() {
    const FIG12_ALBUMS: usize = 600; // hold-out sizes go up to 595
    say!("\n# Fig. 12: training on the standard grid, then 25 hold-out queries");
    say!("# per polystore variant; for each run HUMAN and RANDOM execute their");
    say!("# configuration under all 6 augmenters, ADAPTIVE gets a single run.");

    let mut best_counts: HashMap<&'static str, usize> = HashMap::new();
    // top-1 / top-2 / top-3 / top-5 membership of the ADAPTIVE run.
    let mut topk = [0usize; 4];
    let mut total_runs = 0usize;

    for &sets in &REPLICA_SETS {
        let lab = Lab::new(FIG12_ALBUMS, sets, Deployment::Centralized);
        // --- Phase 1: collect training logs by sweeping configurations.
        lab.quepa.set_optimizer(None);
        let _ = lab.quepa.take_logs();
        for q in standard_query_set(&[100, 300]) {
            for aug in AugmenterKind::ALL {
                for (batch, threads) in [(16, 2), (256, 8)] {
                    let cfg = QuepaConfig {
                        augmenter: aug,
                        batch_size: batch,
                        threads_size: threads,
                        cache_size: 8_192,
                        ..QuepaConfig::default()
                    };
                    lab.quepa.set_config(cfg);
                    lab.quepa.drop_caches();
                    let _ = lab.quepa.augmented_search(&q.database, &q.query, 0);
                    let _ = lab.quepa.augmented_search(&q.database, &q.query, 1);
                }
            }
        }
        let logs = lab.quepa.take_logs();
        let adaptive = AdaptiveOptimizer::train(&logs).expect("enough training situations");
        let human = HumanOptimizer::default();
        let random = RandomOptimizer::new(7 + sets as u64);

        // --- Phase 3: hold-out queries.
        for q in holdout_query_set() {
            for level in [0usize, 1] {
                total_runs += 1;
                let mut runs: Vec<(&'static str, Duration)> = Vec::with_capacity(13);
                // HUMAN and RANDOM each provide one configuration whose
                // knobs we execute under all six augmenters (§VII-C). The
                // probe run supplies the query characteristics every
                // optimizer sees.
                let probe =
                    lab.quepa.augmented_search(&q.database, &q.query, level).expect("probe run");
                let feats = quepa_core::QueryFeatures {
                    target_kind: lab.polystore.connector_by_name(&q.database).unwrap().kind(),
                    store_count: lab.polystore.len(),
                    result_size: probe.original.len(),
                    augmented_size: probe.augmented.len(),
                    level,
                    distributed: false,
                    filtered: false,
                };
                let current = lab.quepa.config();
                for (name, cfg) in [
                    ("HUMAN", human.choose(&feats, &current)),
                    ("RANDOM", random.choose(&feats, &current)),
                ] {
                    for aug in AugmenterKind::ALL {
                        let c = QuepaConfig { augmenter: aug, ..cfg };
                        let (d, _, _) = lab.run(&q.database, &q.query, level, c, true);
                        runs.push((name, d));
                    }
                }
                let c = adaptive.choose(&feats, &current);
                let (d, _, _) = lab.run(&q.database, &q.query, level, c, true);
                runs.push(("ADAPTIVE", d));

                // Fig. 12(a): which optimizer owns the fastest run.
                let best = runs.iter().min_by_key(|(_, d)| *d).expect("13 runs");
                *best_counts.entry(best.0).or_insert(0) += 1;
                // Fig. 12(b): the rank of the ADAPTIVE run.
                let mut sorted: Vec<_> = runs.iter().collect();
                sorted.sort_by_key(|(_, d)| *d);
                let rank = sorted.iter().position(|(n, _)| *n == "ADAPTIVE").expect("present");
                for (slot, k) in [1usize, 2, 3, 5].iter().enumerate() {
                    if rank < *k {
                        topk[slot] += 1;
                    }
                }
            }
        }
    }

    header("Fig. 12(a) — times each optimizer is the best", &["OPTIMIZER", "WINS"]);
    for name in ["ADAPTIVE", "HUMAN", "RANDOM"] {
        say!(
            "{}",
            row(&[name.to_string(), best_counts.get(name).copied().unwrap_or(0).to_string()])
        );
    }
    header("Fig. 12(b) — ADAPTIVE run rank among the 13 runs", &["TOP-K", "RUNS", "SHARE"]);
    for (slot, k) in [1usize, 2, 3, 5].iter().enumerate() {
        say!(
            "{}",
            row(&[
                format!("top-{k}"),
                topk[slot].to_string(),
                format!("{:.0}%", 100.0 * topk[slot] as f64 / total_runs as f64),
            ])
        );
    }
}

/// Fig. 13(a,b): QUEPA (with ADAPTIVE) against the middleware tools over
/// the query size, 10-store polystore. `X` marks out-of-memory runs.
fn fig13ab_middleware_sizes(albums: usize) {
    let lab = Lab::new(albums, 2, Deployment::Centralized);
    let budget = middleware_budget(&lab);
    let middlewares = lab.middlewares(budget);
    let adaptive = train_quick_adaptive(&lab);

    for (panel, cold, level) in [("(a) cold, level 0", true, 0), ("(b) warm, level 1", false, 1)] {
        let mut headers = vec!["QUERY_SIZE", "QUEPA"];
        headers.extend(middlewares.iter().map(|m| m.name()));
        header(&format!("Fig. 13{panel} — 10 stores"), &headers);
        for &size in &QUERY_SIZES {
            let size = size.min(albums);
            let mut cells = vec![size.to_string()];
            // QUEPA with the trained adaptive optimizer.
            lab.quepa.set_optimizer(None);
            let feats_cfg = adaptive_config(&lab, &adaptive, size, level);
            cells.push(fmt_duration(avg_run(&lab, size, level, feats_cfg, cold)));
            for m in &middlewares {
                if cold {
                    m.reset();
                } else {
                    let _ = m.warm_up();
                    let _ = m.augmented_query(
                        "catalogue",
                        &query_for(StoreKind::Document, size),
                        level,
                    );
                }
                // Middleware target: catalogue — the one store every tool
                // supports (Metamodel lacks Redis, Arango lacks SQL).
                let t0 = std::time::Instant::now();
                match m.augmented_query("catalogue", &query_for(StoreKind::Document, size), level) {
                    Ok(_) => cells.push(fmt_duration(t0.elapsed())),
                    Err(quepa_baselines::MiddlewareError::OutOfMemory { .. }) => {
                        cells.push("X".into())
                    }
                    Err(e) => cells.push(format!("({e:.0?})")),
                }
            }
            say!("{}", row(&cells));
        }
    }
}

/// Fig. 13(c,d): the same competitors over the number of databases at a
/// fixed 1000-result query size. The middleware heap budget is held
/// constant across the axis (it fits the 10-store polystore), so the
/// memory-hungry tools hit `X` as stores grow — the paper's observation.
fn fig13cd_middleware_stores(albums: usize) {
    let budget = middleware_budget(&Lab::new(albums, 2, Deployment::Centralized));
    for (panel, cold, level) in [("(c) cold, level 0", true, 0), ("(d) warm, level 1", false, 1)] {
        let mut printed_header = false;
        for &sets in &REPLICA_SETS {
            let lab = Lab::new(albums, sets, Deployment::Centralized);
            let middlewares = lab.middlewares(budget);
            if !printed_header {
                let mut headers = vec!["STORES", "QUEPA"];
                headers.extend(middlewares.iter().map(|m| m.name()));
                header(&format!("Fig. 13{panel} — 1000-result queries"), &headers);
                printed_header = true;
            }
            let adaptive = train_quick_adaptive(&lab);
            let size = 1_000.min(albums);
            let mut cells = vec![lab.config.database_count().to_string()];
            let cfg = adaptive_config(&lab, &adaptive, size, level);
            cells.push(fmt_duration(avg_run(&lab, size, level, cfg, cold)));
            for m in &middlewares {
                if cold {
                    m.reset();
                } else {
                    let _ = m.warm_up();
                    let _ = m.augmented_query(
                        "catalogue",
                        &query_for(StoreKind::Document, size),
                        level,
                    );
                }
                let t0 = std::time::Instant::now();
                match m.augmented_query("catalogue", &query_for(StoreKind::Document, size), level) {
                    Ok(_) => cells.push(fmt_duration(t0.elapsed())),
                    Err(quepa_baselines::MiddlewareError::OutOfMemory { .. }) => {
                        cells.push("X".into())
                    }
                    Err(e) => cells.push(format!("({e:.0?})")),
                }
            }
            say!("{}", row(&cells));
        }
    }
}

/// The §VII-B(c) memory experiment (described in prose in the paper):
/// CACHE_SIZE sensitivity per deployment on a repeated workload.
fn fig_cache(albums: usize) {
    use quepa_workload::experiments::CACHE_SIZES;
    for deployment in [Deployment::Centralized, Deployment::Distributed] {
        let lab = Lab::new(albums, 1, deployment);
        header(
            &format!("§VII-B(c) cache sensitivity — {}", deployment.name()),
            &["CACHE_SIZE", "TIME", "HIT-RATE"],
        );
        let size = albums.min(1_000);
        for &cache in &CACHE_SIZES {
            let cfg = QuepaConfig {
                augmenter: AugmenterKind::OuterBatch,
                batch_size: 256,
                threads_size: 4,
                cache_size: cache,
                ..QuepaConfig::default()
            };
            // A repeated workload: the same query three times, measuring
            // the last run (the cache can only help on repeats).
            lab.quepa.set_optimizer(None);
            lab.quepa.set_config(cfg);
            lab.quepa.drop_caches();
            lab.quepa.cache().reset_stats();
            let q = query_for(StoreKind::Relational, size);
            let _ = lab.quepa.augmented_search("transactions", &q, 1);
            let _ = lab.quepa.augmented_search("transactions", &q, 1);
            let answer = lab.quepa.augmented_search("transactions", &q, 1).unwrap();
            let (hits, misses) = lab.quepa.cache().stats();
            let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
            say!(
                "{}",
                row(&[
                    cache.to_string(),
                    fmt_duration(answer.duration),
                    format!("{:.0}%", rate * 100.0),
                ])
            );
        }
    }
}

/// The middleware heap budget: every tool gets the same machine, sized so
/// ArangoDB's import of the 10-store polystore *just* fits (20% headroom).
/// Growing the polystore to 13 stores — or materializing the largest
/// queries' join intermediates — exceeds it, the paper's Fig. 13 cliffs.
fn middleware_budget(lab: &Lab) -> usize {
    let probe =
        quepa_baselines::ArangoNat::new(lab.polystore.clone(), lab.index.clone(), usize::MAX);
    quepa_baselines::Middleware::warm_up(&probe).expect("unbounded import");
    probe.budget().high_water() * 12 / 10
}

/// Trains a small ADAPTIVE model on the lab (used by the Fig. 13 runs).
fn train_quick_adaptive(lab: &Lab) -> AdaptiveOptimizer {
    lab.quepa.set_optimizer(None);
    let _ = lab.quepa.take_logs();
    for q in standard_query_set(&[100, 500]) {
        for aug in [AugmenterKind::Sequential, AugmenterKind::Batch, AugmenterKind::OuterBatch] {
            let cfg = QuepaConfig {
                augmenter: aug,
                batch_size: 256,
                threads_size: 8,
                cache_size: 8_192,
                ..QuepaConfig::default()
            };
            lab.quepa.set_config(cfg);
            lab.quepa.drop_caches();
            let _ = lab.quepa.augmented_search(&q.database, &q.query, 0);
        }
    }
    let logs = lab.quepa.take_logs();
    AdaptiveOptimizer::train(&logs).expect("training logs span several situations")
}

/// Asks the trained optimizer for the configuration it would use for this
/// size/level (probing the features with a cheap index-only estimate).
fn adaptive_config(
    lab: &Lab,
    adaptive: &AdaptiveOptimizer,
    size: usize,
    level: usize,
) -> QuepaConfig {
    let probe = lab
        .quepa
        .augmented_search("transactions", &query_for(StoreKind::Relational, size.min(100)), 0)
        .expect("probe");
    let feats = quepa_core::QueryFeatures {
        target_kind: StoreKind::Relational,
        store_count: lab.polystore.len(),
        result_size: size,
        augmented_size: probe.augmented.len() * size.max(100) / 100,
        level,
        distributed: false,
        filtered: false,
    };
    adaptive.choose(&feats, &lab.quepa.config())
}
