//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule on sorted samples, and a tail
//! percentile is only reported when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie beyond the value, so one stray
//! request cannot be the whole tail.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles, in parts per ten thousand, lowest first.
const LADDER_PPM: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// 1-based nearest rank of percentile `ppm` (parts per ten thousand) in
/// `n` samples: `ceil(ppm * n / 10_000)`, computed in integers so that
/// `p99` of 1 000 samples is exactly rank 990.
fn rank(n: usize, ppm: u64) -> usize {
    let n = n as u64;
    (ppm * n).div_ceil(10_000).max(1) as usize
}

/// Samples strictly beyond the nearest-rank percentile `ppm` of `n`.
pub fn samples_beyond(n: usize, ppm: u64) -> usize {
    n.saturating_sub(rank(n, ppm))
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9, p99.99)
/// that has at least [`MIN_BEYOND`] samples beyond it in `n` samples, in
/// parts per ten thousand; `None` when not even the median qualifies.
pub fn highest_supported_ppm(n: usize) -> Option<u64> {
    LADDER_PPM
        .iter()
        .copied()
        .rev()
        .find(|&ppm| samples_beyond(n, ppm) >= MIN_BEYOND)
}

/// Nearest-rank percentile `ppm` (parts per ten thousand) of `sorted`
/// (ascending).  Panics on an empty slice.
pub fn percentile(sorted: &[f64], ppm: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), ppm) - 1]
}

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sort ascending in place (total order, so a stray NaN cannot panic).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1_000, 9_900), 10);
        assert_eq!(highest_supported_ppm(1_000), Some(9_900));
        assert_eq!(samples_beyond(999, 9_900), 9);
        assert_eq!(highest_supported_ppm(999), Some(9_000));
    }

    #[test]
    fn ladder_edges() {
        assert_eq!(highest_supported_ppm(0), None);
        assert_eq!(highest_supported_ppm(19), None);
        assert_eq!(highest_supported_ppm(20), Some(5_000));
        assert_eq!(highest_supported_ppm(100), Some(9_000));
        assert_eq!(highest_supported_ppm(10_000), Some(9_990));
        assert_eq!(highest_supported_ppm(100_000), Some(9_999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 5_000), 500.0);
        assert_eq!(percentile(&sorted, 9_900), 990.0);
        // Exactly ten samples lie beyond the reported p99.
        let beyond = sorted.iter().filter(|&&x| x > 990.0).count();
        assert_eq!(beyond, MIN_BEYOND);
        assert_eq!(percentile(&[7.0], 9_900), 7.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
