//! The benchmark's own arithmetic: percentiles, counter deltas, the choice
//! of quiet rounds and the `VmHWM` and `/proc/stat` readers. Everything here is a pure function so the unit tests
//! below pin it down.

/// Percentiles the reports may quote, highest first.
pub const PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest percentile in `candidates` that at least ten samples lie
/// beyond when `n` samples were taken, or `None` when even the lowest
/// candidate is unsupported.
///
/// A percentile `p` leaves `n·(1 − p/100)` samples above it; a tail figure
/// drawn from fewer than ten samples is one or two outliers, not a
/// percentile.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// The `p`-th percentile (0–100) of `sorted` by the nearest-rank rule;
/// `None` for an empty slice. `sorted` must be ascending.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Sorts `values` ascending (NaN-free input; a failed request is
/// `f64::INFINITY`, which sorts last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values
}

/// The median of `values` (midpoint of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Share of the machine's CPU time the hypervisor may take from a round
/// that still counts as quiet: two jiffies a second on two cores, about
/// what `/proc/stat` can resolve over a one-second round.
pub const QUIET_STEAL: f64 = 0.01;

/// The indices, ascending, of the rounds that lost the least CPU time to
/// the hypervisor (`steal`, one share per round). A round counts when it
/// lost no more than the k-th quietest round did, k being a third of the
/// rounds but at least three, or no more than `QUIET_STEAL`.
pub fn quietest_rounds(steal: &[f64]) -> Vec<usize> {
    let ascending = sorted(steal.to_vec());
    let third = (steal.len() / 3).max(3).min(steal.len());
    let Some(&cutoff) = third.checked_sub(1).and_then(|k| ascending.get(k)) else {
        return Vec::new();
    };
    let cutoff = cutoff.max(QUIET_STEAL);
    (0..steal.len()).filter(|&i| steal[i] <= cutoff).collect()
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`;
/// total is the sum of user, nice, system, idle, iowait, irq, softirq and
/// steal. `None` when the line is missing or has fewer than eight fields.
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// The arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// A ratio of two counter deltas `(num_after − num_before) /
/// (den_after − den_before)`. `None` when the denominator did not move (no
/// responses in the window means there is no per-response figure, not a
/// zero one) or a counter went backwards (a restarted daemon).
pub fn delta_ratio(before: (u64, u64), after: (u64, u64)) -> Option<f64> {
    let num = after.0.checked_sub(before.0)?;
    let den = after.1.checked_sub(before.1)?;
    if den == 0 {
        None
    } else {
        Some(num as f64 / den as f64)
    }
}

/// The peak resident set (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
        assert_eq!(highest_supported_percentile(1000, &PERCENTILES), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &PERCENTILES), Some(95.0));
        assert_eq!(
            highest_supported_percentile(10_000, &PERCENTILES),
            Some(99.9)
        );
        assert_eq!(highest_supported_percentile(100, &PERCENTILES), Some(90.0));
        assert_eq!(highest_supported_percentile(99, &PERCENTILES), None);
        assert_eq!(highest_supported_percentile(0, &PERCENTILES), None);
        // Candidate order does not matter.
        assert_eq!(highest_supported_percentile(200, &[90.0, 95.0]), Some(95.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // A failed request is above any limit.
        let with_failure = sorted(vec![3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(percentile(&with_failure, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&with_failure, 50.0), Some(2.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quietest_rounds_keep_the_least_stolen_third() {
        let steal = [0.30, 0.02, 0.20, 0.015, 0.05, 0.40, 0.03, 0.02, 0.10];
        assert_eq!(quietest_rounds(&steal), vec![1, 3, 7]);
        let steal: Vec<f64> = (0..12).map(|i| f64::from(12 - i)).collect();
        assert_eq!(quietest_rounds(&steal), vec![8, 9, 10, 11]);
        // Rounds tied at the cutoff all count.
        assert_eq!(
            quietest_rounds(&[0.5, 0.2, 0.2, 0.2, 0.2, 0.3]),
            vec![1, 2, 3, 4]
        );
        // Rounds that lost no more than `QUIET_STEAL` all count.
        let steal = [0.0, 0.005, 0.3, 0.01, 0.0, 0.2, 0.0, 0.0, 0.011];
        assert_eq!(quietest_rounds(&steal), vec![0, 1, 3, 4, 6, 7]);
        // Too few rounds to choose from: all of them.
        assert_eq!(quietest_rounds(&[0.5, 0.1]), vec![0, 1]);
        assert_eq!(quietest_rounds(&[]), Vec::<usize>::new());
    }

    #[test]
    fn cpu_steal_parsing() {
        let stat = "cpu  923890 0 501874 1146850 466 0 155282 39294 0 0\n\
                    cpu0 459867 0 250659 575490 264 0 77512 19715 0 0\n";
        assert_eq!(
            parse_cpu_steal(stat),
            Some((39294, 923890 + 501874 + 1146850 + 466 + 155282 + 39294))
        );
        assert_eq!(parse_cpu_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_cpu_steal("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_cpu_steal("cpu  1 2 x 4 5 6 7 8\n"), None);
        assert_eq!(parse_cpu_steal(""), None);
        // Stolen share between two readings.
        assert_eq!(delta_ratio((10, 1000), (60, 1200)), Some(0.25));
    }

    #[test]
    fn counter_deltas_with_zero_denominator() {
        assert_eq!(delta_ratio((10, 100), (30, 110)), Some(2.0));
        assert_eq!(delta_ratio((10, 100), (10, 110)), Some(0.0));
        // No responses in the window: no ratio, not a zero or an infinity.
        assert_eq!(delta_ratio((10, 100), (40, 100)), None);
        assert_eq!(delta_ratio((0, 0), (0, 0)), None);
        // A counter that went backwards (daemon restarted) is no delta.
        assert_eq!(delta_ratio((10, 100), (5, 120)), None);
        assert_eq!(delta_ratio((10, 100), (20, 90)), None);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tlca-serve\nVmPeak:\t  812344 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   19000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("VmHWM: 7 kB"), Some(7));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t  abc kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t  100 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }
}
