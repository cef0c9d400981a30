//! Checked-in benchmark baselines (`BENCH_*.json` at the repository root).
//!
//! The files are written by the bench binaries themselves in a fixed
//! shape, so a full JSON parser is unnecessary (and unavailable offline):
//! a scanner that pairs every `"scenario"` string with the `"mean_s"`
//! number that follows it recovers exactly the data the regression gate
//! needs, and rejects malformed files loudly.

use std::collections::BTreeMap;
use std::path::Path;

/// One baseline file: scenario name → recorded mean seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The benchmark name (`"augment_hotpath"`, …) from the file header.
    pub benchmark: String,
    /// Recorded per-scenario means, in file order (BTreeMap for stable
    /// iteration in reports).
    pub means: BTreeMap<String, f64>,
    /// Every numeric field of every scenario object, keyed scenario →
    /// field name → value. `mean_s` appears here too; richer baselines
    /// (the serving sweep records `p999_s`, `qps`, `shed`, …) are read
    /// through this map.
    pub fields: BTreeMap<String, BTreeMap<String, f64>>,
}

impl Baseline {
    /// Loads and scans a `BENCH_*.json` file.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Scans the baseline shape out of the JSON text.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let benchmark =
            string_after(text, "\"benchmark\"").ok_or("missing \"benchmark\" field")?.to_owned();
        let mut means = BTreeMap::new();
        let mut fields = BTreeMap::new();
        let mut rest = text;
        while let Some(pos) = rest.find("\"scenario\"") {
            rest = &rest[pos..];
            let scenario = string_after(rest, "\"scenario\"").ok_or("unreadable scenario name")?;
            let mean = number_after(rest, "\"mean_s\"")
                .ok_or_else(|| format!("scenario {scenario:?} has no mean_s"))?;
            if means.insert(scenario.to_owned(), mean).is_some() {
                return Err(format!("duplicate scenario {scenario:?}"));
            }
            // Every `"key": number` pair up to the object's closing brace
            // (the emitters write one flat object per line, no nesting).
            let object = &rest[..rest.find('}').ok_or("unterminated scenario object")?];
            let mut numbers = BTreeMap::new();
            let mut scan = object;
            while let Some(open) = scan.find('"') {
                scan = &scan[open + 1..];
                let Some(close) = scan.find('"') else { break };
                let key = &scan[..close];
                scan = &scan[close + 1..];
                if let Some(value) = leading_number(scan) {
                    numbers.insert(key.to_owned(), value);
                }
            }
            fields.insert(scenario.to_owned(), numbers);
            rest = &rest["\"scenario\"".len()..];
        }
        // An empty set means the file is not a baseline at all.
        if means.is_empty() {
            return Err("no scenarios found".into());
        }
        Ok(Baseline { benchmark, means, fields })
    }

    /// One numeric field of one scenario, when both exist.
    pub fn field(&self, scenario: &str, key: &str) -> Option<f64> {
        self.fields.get(scenario)?.get(key).copied()
    }
}

/// The string literal following `key` (after a colon), unescaped enough
/// for scenario names (which contain no escapes by construction).
fn string_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let after = &text[text.find(key)? + key.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let after = after.strip_prefix('"')?;
    after.split('"').next()
}

/// The number following `key` (after a colon).
fn number_after(text: &str, key: &str) -> Option<f64> {
    leading_number(&text[text.find(key)? + key.len()..])
}

/// The number at the head of `text` (after a colon), running to the
/// first non-numeric character or the end of the slice.
fn leading_number(text: &str) -> Option<f64> {
    let after = text.trim_start().strip_prefix(':')?.trim_start();
    let end = after
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-' && c != '+' && c != 'e')
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmark": "augment_hotpath",
  "query": "SELECT * FROM inventory WHERE seq < 50",
  "runs_per_scenario": 50,
  "scenarios": [
    {"scenario": "in-process/4stores/level0/cold", "mean_s": 0.000673},
    {"scenario": "centralized/10stores/level1/cold", "mean_s": 0.001828}
  ]
}"#;

    #[test]
    fn parses_the_emitted_shape() {
        let b = Baseline::parse(SAMPLE).unwrap();
        assert_eq!(b.benchmark, "augment_hotpath");
        assert_eq!(b.means.len(), 2);
        assert_eq!(b.means["centralized/10stores/level1/cold"], 0.001828);
        assert_eq!(b.field("in-process/4stores/level0/cold", "mean_s"), Some(0.000673));
    }

    #[test]
    fn scans_every_numeric_field_of_a_scenario() {
        let text = r#"{
  "benchmark": "serving",
  "capacity_qps": 320.0,
  "scenarios": [
    {"scenario": "serving/open-loop/2.00x", "mean_s": 0.0421, "qps": 301.5, "p999_s": 0.31, "shed": 1204, "offered": 2560}
  ]
}"#;
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.field("serving/open-loop/2.00x", "qps"), Some(301.5));
        assert_eq!(b.field("serving/open-loop/2.00x", "p999_s"), Some(0.31));
        assert_eq!(b.field("serving/open-loop/2.00x", "offered"), Some(2560.0));
        assert_eq!(b.field("serving/open-loop/2.00x", "missing"), None);
        assert_eq!(b.field("no-such-scenario", "qps"), None);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(Baseline::parse("{}").is_err(), "no benchmark field");
        assert!(
            Baseline::parse(r#"{"benchmark": "x"}"#).is_err(),
            "a baseline without scenarios is no baseline"
        );
        assert!(Baseline::parse(
            r#"{"benchmark": "x", "scenarios": [{"scenario": "a"}, {"scenario": "a"}]}"#
        )
        .is_err());
    }

    #[test]
    fn checked_in_baselines_scan() {
        for name in [
            "BENCH_augment_hotpath.json",
            "BENCH_fault_overhead.json",
            "BENCH_metrics_overhead.json",
            "BENCH_throughput.json",
            "BENCH_scale.json",
            "BENCH_recovery.json",
            "BENCH_serving.json",
        ] {
            let path =
                std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name);
            if !path.exists() {
                continue; // metrics baseline lands with its bench
            }
            let b = Baseline::load(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(!b.means.is_empty(), "{name}");
            for (scenario, mean) in &b.means {
                assert!(*mean > 0.0, "{name}: {scenario} has non-positive mean");
            }
        }
    }
}
