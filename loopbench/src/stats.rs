//! Order statistics for timing samples.

/// Median of a sample (mean of the two middle values for an even count);
/// 0.0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0.0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// 1-based nearest rank of the `q`th percentile in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0) * n as f64).ceil().clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank `q`th percentile; 0.0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank(xs.len(), q) - 1]
}

/// Samples ranked after the `q`th percentile in a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Minimum samples beyond a reported tail percentile: a percentile with
/// fewer behind it is one or two outliers, not a tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether a sample of `n` supports reporting its `q`th percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
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
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Unsorted input gives the same answer.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), 99.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(tail_supported(100, 50.0));
        assert!(!tail_supported(0, 50.0));
    }
}
