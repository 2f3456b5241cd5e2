//! The estimator's arithmetic: nearest-rank quantiles, the
//! lower-quartile-of-repeats rule, and the "ten samples beyond" test.
//!
//! All measured work is deterministic, so host noise only ever *adds*
//! time. Repeats of the same op are therefore summarised by their lower
//! quartile (robust against both the noise and a single lucky outlier),
//! and percentiles are taken across *distinct* ops, never across noisy
//! repeats of one op.

/// Nearest-rank quantile of an ascending slice: the smallest element
/// with at least `q` of the sample at or below it. `q` in (0, 1].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of an unordered sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// The estimator for repeats of one deterministic piece of work.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A percentile is *supported* by a sample when at least ten samples
/// lie beyond it (p90 needs 100 ops, p99 needs 1000).
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= 10
}

/// `(q3 - q1) / q1` of repeated walls of the same work: the run's own
/// reading of how noisy the host was.
pub fn spread(values: &[f64]) -> f64 {
    let q1 = quantile(values, 0.25);
    (quantile(values, 0.75) - q1) / q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.001), 1.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn lower_quartile_of_small_k() {
        // K = 3: the minimum; K = 12: the third smallest.
        assert_eq!(lower_quartile(&[9.0, 4.0, 6.0]), 4.0);
        let k12: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&k12), 3.0);
        // One lucky outlier does not set the estimate once K > 4.
        assert_eq!(
            lower_quartile(&[0.1, 5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6]),
            5.0
        );
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supported(100, 0.9));
        assert!(!supported(99, 0.9));
        assert!(!supported(36, 0.9));
        assert!(supported(36, 0.5));
        assert!(!supported(19, 0.5));
        assert!(supported(1000, 0.99));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn spread_is_relative_iqr() {
        let v = [100.0, 110.0, 120.0, 130.0];
        assert!((spread(&v) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
