//! Sample statistics: medians, quartiles and the tail-percentile rule.
//!
//! A tail percentile is only reported when the run collected enough
//! samples for it to mean something: at least [`MIN_BEYOND`] samples must
//! lie beyond it. `p99` therefore needs 1,000 samples and `p90` needs 100.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before percentile `p` (in percent) may be reported.
pub fn samples_needed(p: f64) -> usize {
    // The epsilon keeps float error (100 - 99.9 is not 0.1) from adding one.
    (MIN_BEYOND as f64 * 100.0 / (100.0 - p) - 1e-6).ceil() as usize
}

/// The highest of `candidates` (in percent) that `n` samples support, if
/// any: the tail percentile a run of `n` samples may report.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n >= samples_needed(p))
        .fold(None, |best, p| Some(best.map_or(p, |b: f64| b.max(p))))
}

/// Nearest-rank percentile `p` (in percent) of `samples`; `None` when the
/// samples do not support it (see [`samples_needed`]). The median is
/// always supported once there is one sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let needed = if p <= 50.0 { 1 } else { samples_needed(p) };
    if samples.is_empty() || samples.len() < needed {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (the mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_needed_follows_the_ten_beyond_rule() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(99.9), 10_000);
    }

    #[test]
    fn highest_supported_picks_the_largest_percentile_with_ten_beyond() {
        let c = [50.0, 90.0, 99.0];
        assert_eq!(highest_supported(19, &c), None);
        assert_eq!(highest_supported(20, &c), Some(50.0));
        assert_eq!(highest_supported(99, &c), Some(50.0));
        assert_eq!(highest_supported(100, &c), Some(90.0));
        assert_eq!(highest_supported(999, &c), Some(90.0));
        assert_eq!(highest_supported(1000, &c), Some(99.0));
        assert_eq!(highest_supported(1_000_000, &c), Some(99.0));
    }

    #[test]
    fn percentile_refuses_unsupported_tails() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 90.0), Some(900.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // Exactly ten samples lie beyond the reported value.
        let p = percentile(&v, 99.0).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p).count(), MIN_BEYOND);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let mut b = a.clone();
        b.sort_by(f64::total_cmp);
        assert_eq!(percentile(&a, 90.0), percentile(&b, 90.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
