//! Order statistics for latency samples.
//!
//! A timing is reported as its median plus the highest percentile the
//! sample can support: one with at least [`MIN_BEYOND`] samples beyond it.
//! A percentile computed from fewer tail samples is a guess about the tail,
//! not a measurement of it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Parts a run's latency samples are split into for its reported tail.
pub const TAIL_PARTS: usize = 5;

/// Percentiles considered for the tail, lowest first.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of p50/p90/p99/p99.9/p99.99 with at least [`MIN_BEYOND`]
/// of `n` samples beyond it, or `None` when even the median is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.iter().copied().rev().find(|&p| supports(n, p))
}

/// True when `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9
}

/// Nearest-rank percentile `p` (0–100] of `samples`; `None` if empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentile `p` of each of `parts` consecutive, equal runs of `samples`
/// (in arrival order), then the median of those: a stall confined to part of
/// the run moves one part's tail, not the reported one. `None` unless every
/// part supports `p`.
pub fn percentile_of_parts(samples: &[f64], p: f64, parts: usize) -> Option<f64> {
    let len = samples.len().checked_div(parts)?;
    if !supports(len, p) {
        return None;
    }
    let tails: Vec<f64> =
        samples.chunks_exact(len).take(parts).filter_map(|part| percentile(part, p)).collect();
    median(&tails)
}

/// Median (the mean of the middle pair for an even count); `None` if empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// A one-line summary: count, median, and the highest supported tail.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let n = samples.len();
    let med = median(samples).map_or("-".to_string(), |m| format!("{m:.4}"));
    match highest_supported_percentile(n).filter(|&p| p > 50.0) {
        Some(p) => {
            let tail = percentile(samples, p).expect("non-empty");
            format!("n={n} p50={med}{unit} p{p}={tail:.4}{unit}")
        }
        None => format!("n={n} p50={med}{unit} (too few samples for a tail)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples, 100.0), Some(1000.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn a_stall_in_one_part_does_not_move_the_reported_tail() {
        let mut samples = vec![1.0; 5000];
        samples[100..200].fill(50.0); // a 100-sample stall in the first part
        assert_eq!(percentile(&samples, 99.0), Some(50.0));
        assert_eq!(percentile_of_parts(&samples, 99.0, 5), Some(1.0));
        assert_eq!(percentile_of_parts(&samples[..4999], 99.0, 5), None);
        assert_eq!(percentile_of_parts(&samples, 99.0, 0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn describe_omits_unsupported_tail() {
        assert!(describe(&[1.0; 50], "ms").contains("too few samples"));
        assert!(describe(&[1.0; 100], "ms").contains("p90="));
    }
}
