//! Repetition timing with summary statistics.
//!
//! Fig. 4 reports runtimes "achieving 90 % confidence with the runtime
//! averaged over 10 realizations"; this module provides the same
//! mean ± half-width machinery, plus the paired A/B statistics behind
//! the `repro overhead` cost proof.

use std::time::Instant;

/// Mean, standard deviation, and 90 % confidence half-width of a set of
/// timed repetitions, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Number of repetitions.
    pub reps: usize,
    /// Mean seconds.
    pub mean: f64,
    /// Sample standard deviation (0 for a single rep).
    pub std_dev: f64,
    /// 90 % Student-t confidence half-width (normal approximation only
    /// beyond 30 reps).
    pub ci90: f64,
}

/// Two-sided 90 % Student-t critical value for `dof` degrees of
/// freedom.  At the paper's 10 realizations (9 dof) this is 1.833, not
/// the asymptotic z = 1.645 — the normal approximation understates the
/// half-width by ~11 % at that n.  Beyond 29 dof the difference is
/// under 3 % and we fall back to z.
fn t90(dof: usize) -> f64 {
    const TABLE: [f64; 29] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699,
    ];
    match dof {
        0 => 0.0,
        d if d <= TABLE.len() => TABLE[d - 1],
        _ => 1.645,
    }
}

impl TimingSummary {
    /// Summarize a list of per-repetition durations (seconds).
    pub fn from_samples(samples: &[f64]) -> Self {
        let reps = samples.len();
        assert!(reps > 0, "need at least one sample");
        let mean = samples.iter().sum::<f64>() / reps as f64;
        let var = if reps > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (reps - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let ci90 = t90(reps.saturating_sub(1)) * std_dev / (reps as f64).sqrt();
        Self {
            reps,
            mean,
            std_dev,
            ci90,
        }
    }
}

/// Run `op(rep_index)` `reps` times and summarize the wall times.
pub fn time_repeated<F: FnMut(usize)>(reps: usize, mut op: F) -> TimingSummary {
    let samples: Vec<f64> = (0..reps).map(|r| time_once(|| op(r))).collect();
    TimingSummary::from_samples(&samples)
}

/// Nearest-rank quantile over an unsorted sample set.
pub fn sample_quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// One arm of a paired A/B comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmStats {
    /// Mean, spread and confidence half-width.
    pub summary: TimingSummary,
    /// Fastest sample, seconds.
    pub min: f64,
    /// Nearest-rank p50 of the samples, seconds.
    pub p50: f64,
    /// Nearest-rank p99 of the samples, seconds.
    pub p99: f64,
}

impl ArmStats {
    /// Statistics of one arm's samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self {
            summary: TimingSummary::from_samples(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            p50: sample_quantile(samples, 0.5),
            p99: sample_quantile(samples, 0.99),
        }
    }
}

/// Outcome of an interleaved A/B comparison: what arm `b` costs over
/// base arm `a`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbOverhead {
    /// The base arm.
    pub a: ArmStats,
    /// The arm under test.
    pub b: ArmStats,
    /// Headline: median of the paired per-rep ratios `b / a`, as a
    /// percentage.  With an even pair count it is the upper middle
    /// ratio, not the mean of the two middle ones.
    pub overhead_pct: f64,
    /// Min-vs-min comparison, as a percentage (report only).
    pub min_overhead_pct: f64,
    /// Mean-vs-mean comparison, as a percentage (report only).
    pub mean_overhead_pct: f64,
    /// Number of pairs.
    pub reps: usize,
}

impl AbOverhead {
    /// Whether the headline overhead is at most `budget_pct`.
    pub fn within_budget(&self, budget_pct: f64) -> bool {
        self.overhead_pct <= budget_pct
    }
}

/// Reduce two paired sample sets (`a[i]` and `b[i]` timed back to back)
/// to the [`AbOverhead`] statistics.
pub fn ab_from_samples(a: &[f64], b: &[f64]) -> AbOverhead {
    assert_eq!(a.len(), b.len(), "A/B samples must be paired");
    let a_stats = ArmStats::from_samples(a);
    let b_stats = ArmStats::from_samples(b);
    let mut ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| b / a).collect();
    ratios.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let median_ratio = ratios[ratios.len() / 2];
    AbOverhead {
        overhead_pct: (median_ratio - 1.0) * 100.0,
        min_overhead_pct: (b_stats.min / a_stats.min - 1.0) * 100.0,
        mean_overhead_pct: (b_stats.summary.mean / a_stats.summary.mean - 1.0) * 100.0,
        a: a_stats,
        b: b_stats,
        reps: a.len(),
    }
}

/// Time arm `a` against arm `b` over `reps` interleaved pairs.  Each
/// closure runs its arm once and returns the seconds it timed, so an
/// arm can keep its own setup (say, starting a profiler) outside the
/// timed region.
///
/// The two arms of a pair run back to back, alternating which goes
/// first, so scheduler and frequency drift hit both and cancel in the
/// per-pair ratio; the median ratio throws away the bursts that corrupt
/// a mean (or, when a burst spans a whole arm, even a min).
pub fn paired_ab(
    reps: usize,
    a: &mut dyn FnMut() -> f64,
    b: &mut dyn FnMut() -> f64,
) -> AbOverhead {
    let mut a_samples = Vec::with_capacity(reps);
    let mut b_samples = Vec::with_capacity(reps);
    for r in 0..reps {
        if r % 2 == 0 {
            a_samples.push(a());
            b_samples.push(b());
        } else {
            b_samples.push(b());
            a_samples.push(a());
        }
    }
    ab_from_samples(&a_samples, &b_samples)
}

/// Wall time of one call of `op`, in seconds.
pub fn time_once(op: impl FnOnce()) -> f64 {
    let start = Instant::now();
    op();
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ratio_pairs_give_exactly_that_overhead() {
        let a = [0.010, 0.020, 0.040, 0.080];
        let b: Vec<f64> = a.iter().map(|x| x * 1.25).collect();
        let ab = ab_from_samples(&a, &b);
        assert!((ab.overhead_pct - 25.0).abs() < 1e-9);
        assert!((ab.min_overhead_pct - 25.0).abs() < 1e-9);
        assert!((ab.mean_overhead_pct - 25.0).abs() < 1e-9);
        assert_eq!(ab.reps, 4);
        assert_eq!(ab.a.min, 0.010);
        assert_eq!(ab.b.summary.reps, 4);
    }

    #[test]
    fn even_pair_count_takes_the_upper_middle_ratio() {
        // Ratios 0.9, 1.0, 1.1, 1.3: the headline is ratios[2] = 1.1,
        // not the 1.05 an interpolating median would give.
        let a = [1.0, 1.0, 1.0, 1.0];
        let b = [1.3, 0.9, 1.0, 1.1];
        let ab = ab_from_samples(&a, &b);
        assert!((ab.overhead_pct - 10.0).abs() < 1e-9, "{}", ab.overhead_pct);
        // An odd count takes the true middle.
        let ab = ab_from_samples(&a[..3], &b[..3]);
        assert!((ab.overhead_pct - 0.0).abs() < 1e-9, "{}", ab.overhead_pct);
    }

    #[test]
    fn nearest_rank_quantiles_on_a_known_set() {
        // 1..=100 in scrambled order: rank = round(99 * q).
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        assert_eq!(sample_quantile(&samples, 0.0), 1.0);
        assert_eq!(sample_quantile(&samples, 0.5), 51.0);
        assert_eq!(sample_quantile(&samples, 0.99), 99.0);
        assert_eq!(sample_quantile(&samples, 1.0), 100.0);
        let arm = ArmStats::from_samples(&samples);
        assert_eq!((arm.min, arm.p50, arm.p99), (1.0, 51.0, 99.0));
        // Small sets: p99 of ten samples is the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(sample_quantile(&ten, 0.5), 6.0);
        assert_eq!(sample_quantile(&ten, 0.99), 10.0);
    }

    #[test]
    fn within_budget_includes_the_budget_itself() {
        let a = [1.0; 3];
        let at = ab_from_samples(&a, &[1.5; 3]);
        assert_eq!(at.overhead_pct, 50.0);
        assert!(at.within_budget(50.0));
        assert!(!at.within_budget(49.999));
        let below = ab_from_samples(&a, &[0.5; 3]);
        assert!(below.within_budget(0.0));
    }

    #[test]
    fn paired_ab_alternates_which_arm_goes_first() {
        let order = std::cell::RefCell::new(String::new());
        let ab = paired_ab(
            4,
            &mut || {
                order.borrow_mut().push('a');
                1.0
            },
            &mut || {
                order.borrow_mut().push('b');
                1.0
            },
        );
        assert_eq!(*order.borrow(), "abbaabba");
        assert_eq!(ab.reps, 4);
        assert_eq!(ab.overhead_pct, 0.0);
    }

    #[test]
    fn summary_of_constant_samples() {
        let s = TimingSummary::from_samples(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci90, 0.0);
        assert_eq!(s.reps, 3);
    }

    #[test]
    fn summary_of_spread_samples() {
        let s = TimingSummary::from_samples(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std_dev - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(s.ci90 > 0.0);
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = TimingSummary::from_samples(&[5.0]);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_samples_panic() {
        TimingSummary::from_samples(&[]);
    }

    #[test]
    fn ci90_uses_student_t_at_ten_reps() {
        // The paper's Fig. 4 protocol: 10 realizations.  With 9 dof the
        // two-sided 90 % critical value is 1.833; pin the exact
        // half-width for a unit-variance sample.
        let samples = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let s = TimingSummary::from_samples(&samples);
        assert_eq!(s.reps, 10);
        let expected_sd = (samples.iter().map(|x| (x - 4.5f64).powi(2)).sum::<f64>() / 9.0).sqrt();
        assert!((s.std_dev - expected_sd).abs() < 1e-12);
        let expected = 1.833 * expected_sd / 10f64.sqrt();
        assert!(
            (s.ci90 - expected).abs() < 1e-12,
            "ci90 {} != Student-t half-width {expected}",
            s.ci90
        );
        // And it must be wider than the old normal-approximation value.
        assert!(s.ci90 > 1.645 * expected_sd / 10f64.sqrt());
    }

    #[test]
    fn ci90_falls_back_to_z_for_large_n() {
        let samples: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let s = TimingSummary::from_samples(&samples);
        let expected = 1.645 * s.std_dev / 40f64.sqrt();
        assert!((s.ci90 - expected).abs() < 1e-12);
    }

    #[test]
    fn two_samples_use_first_t_row() {
        // dof = 1 -> t = 6.314.
        let s = TimingSummary::from_samples(&[1.0, 3.0]);
        let expected = 6.314 * s.std_dev / 2f64.sqrt();
        assert!((s.ci90 - expected).abs() < 1e-12);
    }

    #[test]
    fn time_repeated_counts_reps() {
        let mut calls = 0;
        let s = time_repeated(4, |_| calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(s.reps, 4);
        assert!(s.mean >= 0.0);
    }
}
