//! Order statistics and the `/proc` readings the metrics are made of.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, by nearest rank; 0 for
/// an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns its `q`-quantile.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux this runs on; reading it would need libc.
const CLK_TCK: f64 = 100.0;

/// Process CPU seconds (user + system) out of a `/proc/<pid>/stat` line.
/// The command name may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in MiB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status is readable on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 5.0);
        assert_eq!(quantile_sorted(&v, 0.9), 9.0);
        assert_eq!(quantile_sorted(&v, 0.99), 10.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn proc_stat_with_awkward_command_name() {
        let line = "42 (a b) c) R 1 42 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 160669 \
                    2703360 271 18446744073709551615";
        assert_eq!(parse_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn proc_status_peak_rss() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }
}
