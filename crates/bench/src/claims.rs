//! The claims this crate holds, in one table, and the one `check` that
//! judges a reading against its row.
//!
//! Every row is a ratio or an equality *inside one run*: who wins and by
//! what factor, which is what the paper's §VII reports and what survives
//! a change of machine. Nothing here compares an absolute time against a
//! number taken elsewhere — absolute times are `BENCHMARK.json` metrics
//! (`benchmark/`), measured against the parent commit in alternating
//! pairs. The one absolute bound, `supernode-cold-s`, is a ceiling with
//! ~10× headroom ("expanding a 10⁵-degree hub stays interactive"), not a
//! band around a recording.
//!
//! `bench_gate` measures the [`Tier::Quick`] rows on every PR; the
//! `scale`, `recovery`, `serving`, `pushdown` and `throughput` bench
//! targets measure theirs where the sweep already produces the reading.
//! Both exit non-zero through [`Report::finish`]. The same table is
//! DESIGN.md "What the gate holds" (`claims_are_documented` keeps the
//! two in step).

/// How a reading is compared with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `reading ≥ bound`.
    AtLeast,
    /// `reading ≤ bound`.
    AtMost,
    /// `reading == bound`, exactly (counts).
    Equal,
}

/// Where a row is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// By `bench_gate`, on every PR (and by its sweep, where one exists).
    Quick,
    /// Only by the row's sweep (`cargo bench -p quepa-bench --bench …`).
    Sweep,
}

/// One held claim.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Row name, as printed and as documented.
    pub name: &'static str,
    /// The PR (or paper figure) that made the claim.
    pub source: &'static str,
    /// Comparison.
    pub op: Op,
    /// Bound.
    pub bound: f64,
    /// Where it is measured.
    pub tier: Tier,
}

const fn claim(name: &'static str, source: &'static str, op: Op, bound: f64, tier: Tier) -> Claim {
    Claim { name, source, op, bound, tier }
}

/// The table.
pub const CLAIMS: &[Claim] = &[
    claim("throughput-16v1", "PR 5, cf. Fig. 11(a,b)", Op::AtLeast, 4.0, Tier::Quick),
    claim("pushdown-speedup", "PR 10", Op::AtLeast, 2.0, Tier::Quick),
    claim("sharded-vs-swap-1e4", "PR 6", Op::AtLeast, 5.0, Tier::Quick),
    claim("wal-off-overhead", "PR 7", Op::AtMost, 1.10, Tier::Quick),
    claim("observability-overhead", "PR 3", Op::AtMost, 1.10, Tier::Quick),
    claim("resilience-overhead", "PR 2", Op::AtMost, 1.10, Tier::Quick),
    claim("smoke-ledger", "PR 8", Op::Equal, 0.0, Tier::Quick),
    claim("flash-live-ledger", "PR 9", Op::Equal, 0.0, Tier::Quick),
    claim("cold-fetch-bookkeeping", "PR 25", Op::AtMost, 2.8, Tier::Quick),
    claim("cold-growth-1e4-1e6", "PR 6", Op::AtMost, 2.0, Tier::Sweep),
    claim("sharded-vs-swap-1e6", "PR 6", Op::AtLeast, 5.0, Tier::Sweep),
    claim("supernode-cold-s", "PR 9", Op::AtMost, 0.5, Tier::Sweep),
    claim("recover-growth-10x", "PR 7", Op::AtMost, 25.0, Tier::Sweep),
    claim("sweep-ledger", "PR 8, PR 9", Op::Equal, 0.0, Tier::Sweep),
    claim("flash-burst-shed", "PR 9", Op::AtLeast, 1.0, Tier::Sweep),
    claim("goodput-floor", "PR 8", Op::AtLeast, 0.7, Tier::Sweep),
    claim("overload-p50-ratio", "PR 8", Op::AtMost, 12.0, Tier::Sweep),
    claim("flash-recovery-ratio", "PR 9", Op::AtMost, 1.15, Tier::Sweep),
];

impl Claim {
    /// The row called `name`; an unknown name is a bug in the caller.
    pub fn named(name: &str) -> &'static Claim {
        CLAIMS.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no claim named {name:?}"))
    }

    /// Whether `reading` satisfies the row. A NaN reading — a ratio over
    /// a failed measurement, or answers that disagreed — never does.
    pub fn holds(&self, reading: f64) -> bool {
        match self.op {
            Op::AtLeast => reading >= self.bound,
            Op::AtMost => reading <= self.bound,
            Op::Equal => reading == self.bound,
        }
    }
}

/// The verdicts of one run.
#[derive(Debug, Default)]
pub struct Report {
    checked: usize,
    /// Rows that did not hold, in the order they were checked.
    pub failed: Vec<&'static str>,
}

impl Report {
    /// Judges `reading` against the row called `name` and prints the one
    /// line format; `detail` says what the reading was made of (the two
    /// sides of the ratio, the spread, the ledger counts).
    pub fn check(&mut self, name: &str, reading: f64, detail: &str) -> bool {
        let claim = Claim::named(name);
        let ok = claim.holds(reading);
        self.checked += 1;
        if !ok {
            self.failed.push(claim.name);
        }
        let op = match claim.op {
            Op::AtLeast => ">=",
            Op::AtMost => "<=",
            Op::Equal => "==",
        };
        println!(
            "{:<6}{:<24}{reading:>10.3} {op} {:<6} {detail}  [{}]",
            if ok { "ok" } else { "FAIL" },
            claim.name,
            claim.bound,
            claim.source,
        );
        ok
    }

    /// Prints the summary and decides the exit code: 1 when any checked
    /// row failed.
    pub fn finish(self, who: &str) {
        if self.failed.is_empty() {
            println!("{who}: {0} of {0} claims hold", self.checked);
        } else {
            eprintln!(
                "{who}: FAILED — {} of {} claims: {}",
                self.failed.len(),
                self.checked,
                self.failed.join(", ")
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_holds_fails_and_sits_on_the_bound() {
        let row = |op, bound| claim("t", "test", op, bound, Tier::Quick);
        for (op, below, above) in
            [(Op::AtLeast, false, true), (Op::AtMost, true, false), (Op::Equal, false, false)]
        {
            let c = row(op, 2.0);
            assert_eq!(c.holds(1.9), below, "{op:?} below the bound");
            assert_eq!(c.holds(2.1), above, "{op:?} above the bound");
            assert!(c.holds(2.0), "{op:?} exactly on the bound");
            assert!(!c.holds(f64::NAN), "{op:?}: NaN never holds");
        }
    }

    #[test]
    fn report_records_exactly_the_failed_rows() {
        let mut report = Report::default();
        assert!(report.check("throughput-16v1", 4.0, "on the bound"));
        assert!(!report.check("pushdown-speedup", f64::NAN, "answers disagree"));
        assert!(!report.check("smoke-ledger", 1.0, "one request unaccounted"));
        assert!(report.check("wal-off-overhead", 0.97, ""));
        assert_eq!(report.failed, ["pushdown-speedup", "smoke-ledger"]);
    }

    /// DESIGN.md "What the gate holds" is this table: a row added,
    /// renamed or dropped on one side only fails tier-1.
    #[test]
    fn claims_are_documented() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("### What the gate holds")
            .nth(1)
            .expect("DESIGN.md has the section")
            .split("\n#")
            .next()
            .unwrap();
        let documented: Vec<&str> =
            section.lines().filter_map(|l| l.strip_prefix("| `")?.split('`').next()).collect();
        let table: Vec<&str> = CLAIMS.iter().map(|c| c.name).collect();
        assert_eq!(documented, table, "DESIGN.md rows vs claims::CLAIMS, in order");
    }
}
