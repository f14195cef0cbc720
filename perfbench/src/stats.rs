//! Order statistics and ratios for the benchmark's reported numbers.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail it names is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark may report above the median, lowest
/// first.
pub const TAIL_PERCENTILES: [f64; 3] = [90.0, 99.0, 99.9];

/// Median of `xs`: the middle sample, or the mean of the two middle
/// samples for an even count. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th quantile of `xs` (`0 < p < 100`): the sample at
/// rank `ceil(p / 100 * n)`. `None` for no samples.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(xs.len(), p)?;
    Some(sorted(xs)[rank - 1])
}

/// A tail percentile: [`quantile`], but `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(xs.len(), p)?;
    (xs.len() - rank >= MIN_BEYOND)
        .then(|| quantile(xs, p))
        .flatten()
}

/// The highest of [`TAIL_PERCENTILES`] that `n` samples support, if
/// any.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| nearest_rank(n, p).is_some_and(|rank| n - rank >= MIN_BEYOND))
}

/// `num / base`, or 0 when the base is 0: a layer that did no work on a
/// workload reports 0 for its per-unit cost, and the base printed beside
/// the ratio shows why.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    Some(((p * n as f64 / 100.0).ceil() as usize).clamp(1, n))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 25.0), Some(3.0));
        assert_eq!(quantile(&xs, 75.0), Some(8.0));
        assert_eq!(quantile(&[], 25.0), None);
        // A quartile has no tail requirement; the tail percentile does.
        assert_eq!(percentile(&xs, 25.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 99 samples: rank ceil(0.9 * 99) = 90 leaves 9 beyond — refused.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), None);
        // 100 samples: rank 90 leaves exactly 10 beyond — reported.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn percentile_rejects_out_of_range_p() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), None);
        assert_eq!(percentile(&xs, 100.0), None);
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
    }

    #[test]
    fn highest_supported_percentile_follows_the_sample_count() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn ratio_with_a_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }
}
