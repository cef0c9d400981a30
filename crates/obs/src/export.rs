//! Metrics exporters: Prometheus text exposition and JSON.
//!
//! Both are hand-rolled over [`MetricsSnapshot`] — the offline build has
//! neither a Prometheus client crate nor serde, and the formats are small
//! enough that owning them is cheaper than stubbing a dependency.
//!
//! Histograms follow the Prometheus convention: cumulative `_bucket`
//! counts with inclusive-upper-bound `le` labels (our log2 bucket bounds,
//! in nanoseconds), a final `le="+Inf"` bucket, then `_sum` and `_count`.
//! Only bounds up to the highest populated bucket are emitted, which keeps
//! an idle store from printing 65 zero lines.

use std::fmt::Write as _;

use crate::hist::{bucket_upper_bound, HistogramSnapshot};
use crate::registry::MetricsSnapshot;
use crate::span::Stage;

/// Escapes a Prometheus label value: backslash, double quote and newline
/// must be escaped per the text exposition format.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn escape_json(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

fn prom_histogram(out: &mut String, metric: &str, labels: &str, h: &HistogramSnapshot) {
    let top = h.nonzero().last().map(|(i, _)| i).unwrap_or(0);
    let mut cumulative = 0u64;
    for i in 0..=top {
        cumulative = cumulative.saturating_add(h.buckets[i]);
        let _ = writeln!(
            out,
            "{metric}_bucket{{{labels},le=\"{}\"}} {cumulative}",
            bucket_upper_bound(i)
        );
    }
    let _ = writeln!(out, "{metric}_bucket{{{labels},le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", h.sum_nanos);
    let _ = writeln!(out, "{metric}_count{{{labels}}} {}", h.count);
}

fn prom_counter_header(out: &mut String, metric: &str, help: &str) {
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} counter");
}

/// Renders a snapshot in the Prometheus text exposition format.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();

    let _ =
        writeln!(out, "# HELP quepa_store_sim_latency_nanos Simulated link latency per store (ns)");
    let _ = writeln!(out, "# TYPE quepa_store_sim_latency_nanos histogram");
    for (name, store) in &snapshot.stores {
        if !store.sim_latency.is_empty() {
            let labels = format!("store=\"{}\"", escape_label(name));
            prom_histogram(&mut out, "quepa_store_sim_latency_nanos", &labels, &store.sim_latency);
        }
    }

    let _ = writeln!(
        out,
        "# HELP quepa_store_backoff_nanos Deterministic retry backoff pauses per store (ns)"
    );
    let _ = writeln!(out, "# TYPE quepa_store_backoff_nanos histogram");
    for (name, store) in &snapshot.stores {
        if !store.backoff.is_empty() {
            let labels = format!("store=\"{}\"", escape_label(name));
            prom_histogram(&mut out, "quepa_store_backoff_nanos", &labels, &store.backoff);
        }
    }

    let _ = writeln!(
        out,
        "# HELP quepa_store_pushdown_latency_nanos Simulated cost of pushdown round trips per store (ns)"
    );
    let _ = writeln!(out, "# TYPE quepa_store_pushdown_latency_nanos histogram");
    for (name, store) in &snapshot.stores {
        if !store.pushdown_latency.is_empty() {
            let labels = format!("store=\"{}\"", escape_label(name));
            prom_histogram(
                &mut out,
                "quepa_store_pushdown_latency_nanos",
                &labels,
                &store.pushdown_latency,
            );
        }
    }

    let _ = writeln!(
        out,
        "# HELP quepa_stage_sim_latency_nanos Simulated time attributed to each stage (ns)"
    );
    let _ = writeln!(out, "# TYPE quepa_stage_sim_latency_nanos histogram");
    for stage in Stage::ALL {
        let m = &snapshot.stages[stage.index()];
        if !m.sim_latency.is_empty() {
            let labels = format!("stage=\"{}\"", stage.name());
            prom_histogram(&mut out, "quepa_stage_sim_latency_nanos", &labels, &m.sim_latency);
        }
    }

    type StoreCounter = (&'static str, &'static str, fn(&crate::registry::StoreMetrics) -> u64);
    let counters: [StoreCounter; 8] = [
        ("quepa_store_retries_total", "Round-trip retries per store", |s| s.retries),
        ("quepa_store_timeouts_total", "Simulated timeouts per store", |s| s.timeouts),
        (
            "quepa_store_breaker_trips_total",
            "Closed-to-open circuit breaker transitions per store",
            |s| s.breaker_trips,
        ),
        (
            "quepa_store_breaker_rejections_total",
            "Calls rejected by an open circuit breaker per store",
            |s| s.breaker_rejections,
        ),
        ("quepa_store_faults_total", "Injected faults observed per store", |s| s.faults),
        ("quepa_pushdown_chosen_total", "Store groups the planner executed as a pushdown", |s| {
            s.pushdown_chosen
        }),
        (
            "quepa_pushdown_declined_total",
            "Store groups where the connector declined the filter",
            |s| s.pushdown_declined,
        ),
        (
            "quepa_pushdown_fallback_total",
            "Chosen pushdowns that errored and fell back to fetch-all",
            |s| s.pushdown_fallback,
        ),
    ];
    for (metric, help, get) in counters {
        prom_counter_header(&mut out, metric, help);
        for (name, store) in &snapshot.stores {
            let _ = writeln!(out, "{metric}{{store=\"{}\"}} {}", escape_label(name), get(store));
        }
    }

    prom_counter_header(&mut out, "quepa_stage_spans_total", "Completed spans per stage");
    for stage in Stage::ALL {
        let _ = writeln!(
            out,
            "quepa_stage_spans_total{{stage=\"{}\"}} {}",
            stage.name(),
            snapshot.stages[stage.index()].spans
        );
    }
    prom_counter_header(
        &mut out,
        "quepa_stage_items_total",
        "Work items covered by spans per stage",
    );
    for stage in Stage::ALL {
        let _ = writeln!(
            out,
            "quepa_stage_items_total{{stage=\"{}\"}} {}",
            stage.name(),
            snapshot.stages[stage.index()].items
        );
    }

    prom_counter_header(&mut out, "quepa_cache_hits_total", "LRU cache probe hits");
    let _ = writeln!(out, "quepa_cache_hits_total {}", snapshot.cache.hits);
    prom_counter_header(&mut out, "quepa_cache_misses_total", "LRU cache probe misses");
    let _ = writeln!(out, "quepa_cache_misses_total {}", snapshot.cache.misses);

    let admission: [(&str, &str, u64); 4] = [
        (
            "quepa_admission_offered_total",
            "Requests that reached the serving front end's admission control",
            snapshot.admission.offered,
        ),
        (
            "quepa_admission_served_total",
            "Requests executed and answered (degraded included)",
            snapshot.admission.served,
        ),
        (
            "quepa_admission_degraded_total",
            "Served requests answered in degraded mode (augmentation suppressed)",
            snapshot.admission.degraded,
        ),
        (
            "quepa_admission_shed_total",
            "Requests shed with a structured OVERLOAD response",
            snapshot.admission.shed,
        ),
    ];
    for (metric, help, value) in admission {
        prom_counter_header(&mut out, metric, help);
        let _ = writeln!(out, "{metric} {value}");
    }

    if !snapshot.index_shards.is_empty() {
        type ShardGauge =
            (&'static str, &'static str, fn(&crate::registry::IndexShardMetrics) -> u64);
        let gauges: [ShardGauge; 5] = [
            ("quepa_index_shard_entries", "Live A' index nodes per shard", |s| s.entries),
            (
                "quepa_index_shard_overlay_depth",
                "Delta-overlay entries over the packed base per shard",
                |s| s.overlay_depth,
            ),
            (
                "quepa_index_shard_resident_bytes",
                "Approximate bytes held by the shard's published snapshot",
                |s| s.resident_bytes,
            ),
            (
                "quepa_index_shard_compactions_total",
                "Times the shard's base was recompacted",
                |s| s.compactions,
            ),
            (
                "quepa_index_shard_swaps_total",
                "Times a new snapshot of the shard was published",
                |s| s.swaps,
            ),
        ];
        for (metric, help, get) in gauges {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for (shard, m) in snapshot.index_shards.iter().enumerate() {
                let _ = writeln!(out, "{metric}{{shard=\"{shard}\"}} {}", get(m));
            }
        }
    }

    out
}

fn json_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("{\"count\":");
    let _ = write!(out, "{}", h.count);
    out.push_str(",\"sum_nanos\":");
    let _ = write!(out, "{}", h.sum_nanos);
    out.push_str(",\"buckets\":{");
    let mut first = true;
    for (i, c) in h.nonzero() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", bucket_upper_bound(i), c);
    }
    out.push_str("}}");
}

/// Renders a snapshot as a single JSON object (histograms keyed by their
/// inclusive upper bound; empty buckets omitted).
pub fn json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"stores\":{");
    let mut first = true;
    for (name, store) in &snapshot.stores {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{{\"sim_latency\":", escape_json(name));
        json_histogram(&mut out, &store.sim_latency);
        out.push_str(",\"backoff\":");
        json_histogram(&mut out, &store.backoff);
        out.push_str(",\"pushdown_latency\":");
        json_histogram(&mut out, &store.pushdown_latency);
        let _ = write!(
            out,
            ",\"retries\":{},\"timeouts\":{},\"breaker_trips\":{},\"breaker_rejections\":{},\
             \"faults\":{},\"pushdown_chosen\":{},\"pushdown_declined\":{},\"pushdown_fallback\":{}}}",
            store.retries,
            store.timeouts,
            store.breaker_trips,
            store.breaker_rejections,
            store.faults,
            store.pushdown_chosen,
            store.pushdown_declined,
            store.pushdown_fallback
        );
    }
    out.push_str("},\"stages\":{");
    let mut first = true;
    for stage in Stage::ALL {
        let m = &snapshot.stages[stage.index()];
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{{\"sim_latency\":", stage.name());
        json_histogram(&mut out, &m.sim_latency);
        let _ = write!(out, ",\"spans\":{},\"items\":{}}}", m.spans, m.items);
    }
    let _ = write!(
        out,
        "}},\"cache\":{{\"hits\":{},\"misses\":{}}},\"admission\":{{\"offered\":{},\"served\":{},\"degraded\":{},\"shed\":{}}},\"index_shards\":[",
        snapshot.cache.hits,
        snapshot.cache.misses,
        snapshot.admission.offered,
        snapshot.admission.served,
        snapshot.admission.degraded,
        snapshot.admission.shed
    );
    let mut first = true;
    for m in &snapshot.index_shards {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"entries\":{},\"overlay_depth\":{},\"resident_bytes\":{},\"compactions\":{},\"swaps\":{}}}",
            m.entries, m.overlay_depth, m.resident_bytes, m.compactions, m.swaps
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use std::time::Duration;

    fn snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r.record_link_event("kv", Stage::Fetch, Duration::from_nanos(3));
        r.record_link_event("kv", Stage::Fetch, Duration::from_nanos(5));
        r.record_backoff("kv", Duration::from_nanos(2));
        r.record_cache_probes(1, 0);
        let mut s = r.snapshot();
        s.fold_resilience("kv", 1, 0, 0);
        s
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("line\nbreak"), "line\\nbreak");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = prometheus_text(&snapshot());
        // 3 and 5 ns both land in bucket [4,7] (le="7"); cumulative counts
        // run 0,0,1,2 over le = 0,1,3,7.
        assert!(text.contains("quepa_store_sim_latency_nanos_bucket{store=\"kv\",le=\"3\"} 1"));
        assert!(text.contains("quepa_store_sim_latency_nanos_bucket{store=\"kv\",le=\"7\"} 2"));
        assert!(text.contains("quepa_store_sim_latency_nanos_bucket{store=\"kv\",le=\"+Inf\"} 2"));
        assert!(text.contains("quepa_store_sim_latency_nanos_sum{store=\"kv\"} 8"));
        assert!(text.contains("quepa_store_sim_latency_nanos_count{store=\"kv\"} 2"));
        assert!(text.contains("quepa_store_retries_total{store=\"kv\"} 1"));
        assert!(text.contains("quepa_cache_hits_total 1"));
        assert!(text.contains("# TYPE quepa_store_sim_latency_nanos histogram"));
        assert!(text.contains("quepa_admission_offered_total 0"));
    }

    #[test]
    fn admission_counters_export() {
        let r = MetricsRegistry::new();
        r.record_admission_offered();
        r.record_admission_offered();
        r.record_admission_served(true);
        r.record_admission_shed();
        let s = r.snapshot();
        let text = prometheus_text(&s);
        assert!(text.contains("quepa_admission_offered_total 2"), "{text}");
        assert!(text.contains("quepa_admission_served_total 1"), "{text}");
        assert!(text.contains("quepa_admission_degraded_total 1"), "{text}");
        assert!(text.contains("quepa_admission_shed_total 1"), "{text}");
        let j = json(&s);
        assert!(
            j.contains("\"admission\":{\"offered\":2,\"served\":1,\"degraded\":1,\"shed\":1}"),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "balanced braces in {j}");
    }

    #[test]
    fn pushdown_metrics_export() {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r.record_pushdown_chosen("sql");
        r.record_pushdown_chosen("sql");
        r.record_pushdown_declined("sql");
        r.record_pushdown_fallback("sql");
        r.record_pushdown_latency("sql", Duration::from_nanos(6));
        let s = r.snapshot();
        let text = prometheus_text(&s);
        assert!(text.contains("quepa_pushdown_chosen_total{store=\"sql\"} 2"), "{text}");
        assert!(text.contains("quepa_pushdown_declined_total{store=\"sql\"} 1"), "{text}");
        assert!(text.contains("quepa_pushdown_fallback_total{store=\"sql\"} 1"), "{text}");
        assert!(text.contains("# TYPE quepa_store_pushdown_latency_nanos histogram"), "{text}");
        assert!(text.contains("quepa_store_pushdown_latency_nanos_count{store=\"sql\"} 1"));
        assert!(text.contains("quepa_store_pushdown_latency_nanos_sum{store=\"sql\"} 6"));
        let j = json(&s);
        assert!(j.contains("\"pushdown_latency\":{\"count\":1,\"sum_nanos\":6"), "{j}");
        assert!(
            j.contains("\"pushdown_chosen\":2,\"pushdown_declined\":1,\"pushdown_fallback\":1"),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "balanced braces in {j}");
    }

    #[test]
    fn prometheus_escapes_store_labels() {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r.record_link_event("we\"ird\\name", Stage::Fetch, Duration::from_nanos(1));
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("store=\"we\\\"ird\\\\name\""));
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let s = snapshot();
        let text = json(&s);
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "balanced braces in {text}"
        );
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"kv\":{\"sim_latency\":{\"count\":2"));
        assert!(text.contains("\"retries\":1"));
        assert!(text.contains("\"cache\":{\"hits\":1,\"misses\":0}"));
        assert!(text.contains("\"fetch\":{\"sim_latency\":"));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let empty = MetricsSnapshot::default();
        let text = prometheus_text(&empty);
        assert!(text.contains("quepa_cache_hits_total 0"));
        assert!(!text.contains("_bucket"), "no histogram series for an empty snapshot");
        assert!(!text.contains("quepa_index_shard"), "no shard gauges without a fold");
        let j = json(&empty);
        assert!(j.contains("\"stores\":{}"));
        assert!(j.contains("\"index_shards\":[]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn index_shard_gauges_export() {
        use crate::registry::IndexShardMetrics;
        let mut s = snapshot();
        s.index_shards = vec![
            IndexShardMetrics {
                entries: 7,
                overlay_depth: 2,
                resident_bytes: 4096,
                compactions: 1,
                swaps: 3,
            },
            IndexShardMetrics::default(),
        ];
        let text = prometheus_text(&s);
        assert!(text.contains("# TYPE quepa_index_shard_entries gauge"));
        assert!(text.contains("quepa_index_shard_entries{shard=\"0\"} 7"));
        assert!(text.contains("quepa_index_shard_entries{shard=\"1\"} 0"));
        assert!(text.contains("quepa_index_shard_resident_bytes{shard=\"0\"} 4096"));
        assert!(text.contains("quepa_index_shard_swaps_total{shard=\"0\"} 3"));
        let j = json(&s);
        assert!(j.contains(
            "\"index_shards\":[{\"entries\":7,\"overlay_depth\":2,\"resident_bytes\":4096,\
             \"compactions\":1,\"swaps\":3}"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "balanced braces in {j}");
    }
}
