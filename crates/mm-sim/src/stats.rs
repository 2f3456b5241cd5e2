//! Summary statistics and empirical CDFs for experiment reporting.
//!
//! Every table and figure in the paper reduces to means, standard
//! deviations, percentiles, or CDF curves over page-load-time samples;
//! this module is the single implementation all experiment binaries share.

use std::fmt;

/// Accumulates samples and answers summary queries.
///
/// Percentiles use the nearest-rank method on the sorted sample, matching
/// how the paper reports "median" and "95th percentile".
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Build from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }

    /// Add one sample. Panics on NaN — a NaN sample means a broken
    /// experiment, and letting it poison quantiles silently is worse.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been added.
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean. Panics if empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty summary");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        assert!(n >= 1, "std_dev of empty summary");
        if n == 1 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.samples.iter().map(|x| (x - mean).powi(2)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN by construction"));
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`. Panics if empty or `p`
    /// out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.is_empty(), "percentile of empty summary");
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        self.ensure_sorted();
        if p == 0.0 {
            return self.samples[0];
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples[rank.clamp(1, n) - 1]
    }

    /// Linearly interpolated percentile (the R-7 / NumPy default): rank
    /// `p/100 × (n−1)` interpolated between the two closest order
    /// statistics. Smoother than nearest-rank on small samples — a
    /// 64-user fleet's p99 should not snap to the single worst user's
    /// exact value the moment n crosses a rank boundary. Panics if empty
    /// or `p` out of `[0, 100]`.
    pub fn percentile_interpolated(&mut self, p: f64) -> f64 {
        assert!(!self.is_empty(), "percentile of empty summary");
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = (p / 100.0) * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.samples[lo] + (self.samples[hi.min(n - 1)] - self.samples[lo]) * frac
    }

    /// Median (50th percentile, nearest-rank).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Minimum sample.
    pub fn min(&mut self) -> f64 {
        assert!(!self.is_empty());
        self.ensure_sorted();
        self.samples[0]
    }

    /// Maximum sample.
    pub fn max(&mut self) -> f64 {
        assert!(!self.is_empty());
        self.ensure_sorted();
        *self.samples.last().unwrap()
    }

    /// Coefficient of variation (σ / mean), as used by Table 1's
    /// "standard deviations within 1.6% of their means".
    pub fn cv(&self) -> f64 {
        self.std_dev() / self.mean()
    }

    /// The raw samples, in insertion order if no quantile has been queried
    /// yet, otherwise sorted.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Empirical CDF: `points` (x, F(x)) pairs evenly spaced in rank.
    /// Suitable for plotting Figure 2 / Figure 3 style curves.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least 2 CDF points");
        assert!(!self.is_empty());
        self.ensure_sorted();
        let n = self.samples.len();
        (0..points)
            .map(|i| {
                let frac = i as f64 / (points - 1) as f64;
                let idx = ((frac * (n - 1) as f64).round() as usize).min(n - 1);
                (self.samples[idx], (idx + 1) as f64 / n as f64)
            })
            .collect()
    }

    /// Fraction of samples ≤ x.
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        assert!(!self.is_empty());
        self.ensure_sorted();
        let count = self.samples.partition_point(|&s| s <= x);
        count as f64 / self.samples.len() as f64
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0");
        }
        let mut s = self.clone();
        write!(
            f,
            "n={} mean={:.1} sd={:.1} p50={:.1} p95={:.1}",
            s.count(),
            s.mean(),
            s.std_dev(),
            s.percentile(50.0),
            s.percentile(95.0),
        )
    }
}

/// Relative difference `(a - b) / b`, reported as a percentage. Used for the
/// "X% larger than" comparisons throughout the paper.
pub fn percent_diff(a: f64, b: f64) -> f64 {
    assert!(b != 0.0, "percent_diff with zero baseline");
    (a - b) / b * 100.0
}

/// Jain's fairness index over per-flow allocations:
/// `(Σxᵢ)² / (n · Σxᵢ²)`. 1.0 = perfectly equal shares; `1/n` = one flow
/// holds everything; always in `(0, 1]` for positive allocations. The
/// standard fairness statistic for shared-bottleneck experiments.
///
/// Panics on an empty slice, a negative or non-finite allocation, or an
/// all-zero vector — each of those means a broken experiment, not an
/// unfair one.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fairness of zero flows");
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for &x in xs {
        assert!(x.is_finite() && x >= 0.0, "bad allocation: {x}");
        sum += x;
        sum_sq += x * x;
    }
    assert!(sum > 0.0, "fairness of all-zero allocations");
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// Render an ASCII CDF plot (for experiment binaries' terminal output).
pub fn ascii_cdf_plot(series: &[(&str, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    assert!(width >= 20 && height >= 5, "plot too small");
    let xmax = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', '+', 'o', 'x', '#'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in pts {
            let col = ((x / xmax) * (width - 1) as f64).round() as usize;
            let row = ((1.0 - y) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            "1.00 |"
        } else if i == height - 1 {
            "0.00 |"
        } else {
            "     |"
        };
        out.push_str(label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "     +{}\n      0{:>w$.0}\n",
        "-".repeat(width),
        xmax,
        w = width - 1
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("      {} {}\n", marks[si % marks.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std dev with n-1: sqrt(32/7)
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_std_is_zero() {
        let s = Summary::from_samples([42.0]);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Summary::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(95.0), 95.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 1.0);
    }

    #[test]
    fn interpolated_percentiles_small_sample() {
        let mut s = Summary::from_samples([1.0, 2.0, 3.0, 4.0]);
        // rank = p/100 × 3: p50 → 1.5 → 2.5; p95 → 2.85 → 3.85;
        // p99 → 2.97 → 3.97.
        assert!((s.percentile_interpolated(50.0) - 2.5).abs() < 1e-12);
        assert!((s.percentile_interpolated(95.0) - 3.85).abs() < 1e-12);
        assert!((s.percentile_interpolated(99.0) - 3.97).abs() < 1e-12);
        assert_eq!(s.percentile_interpolated(0.0), 1.0);
        assert_eq!(s.percentile_interpolated(100.0), 4.0);
    }

    #[test]
    fn interpolated_percentiles_large_sample() {
        let mut s = Summary::from_samples((1..=100).map(|i| i as f64));
        // rank = p/100 × 99 over samples 1..=100: value = 1 + rank.
        assert!((s.percentile_interpolated(50.0) - 50.5).abs() < 1e-12);
        assert!((s.percentile_interpolated(95.0) - 95.05).abs() < 1e-12);
        assert!((s.percentile_interpolated(99.0) - 99.01).abs() < 1e-12);
    }

    #[test]
    fn interpolated_percentile_single_sample() {
        let mut s = Summary::from_samples([7.0]);
        assert_eq!(s.percentile_interpolated(50.0), 7.0);
        assert_eq!(s.percentile_interpolated(99.0), 7.0);
    }

    #[test]
    fn jain_single_flow_is_one() {
        assert_eq!(jain_fairness(&[123.4]), 1.0);
    }

    #[test]
    fn jain_equal_split_is_one() {
        let v = vec![5.5; 64];
        assert!((jain_fairness(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_hand_computed_values() {
        // (1+2+3)² / (3 × (1+4+9)) = 36/42.
        assert!((jain_fairness(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
        // (4+1+1+1+1)² / (5 × 20) = 64/100.
        assert!((jain_fairness(&[4.0, 1.0, 1.0, 1.0, 1.0]) - 0.64).abs() < 1e-12);
        // One flow starves: index collapses toward 1/n.
        assert!((jain_fairness(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fairness of zero flows")]
    fn jain_empty_rejected() {
        jain_fairness(&[]);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn jain_all_zero_rejected() {
        jain_fairness(&[0.0, 0.0]);
    }

    #[test]
    fn median_odd_count() {
        let mut s = Summary::from_samples([5.0, 1.0, 3.0]);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn insertion_after_query_resorts() {
        let mut s = Summary::from_samples([3.0, 1.0]);
        assert_eq!(s.min(), 1.0);
        s.add(0.5);
        assert_eq!(s.min(), 0.5);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let mut s = Summary::from_samples((0..500).map(|i| (i as f64).sqrt()));
        let cdf = s.cdf(50);
        assert_eq!(cdf.len(), 50);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_at_values() {
        let mut s = Summary::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.cdf_at(0.0), 0.0);
        assert_eq!(s.cdf_at(2.0), 0.5);
        assert_eq!(s.cdf_at(10.0), 1.0);
    }

    #[test]
    fn percent_diff_signs() {
        assert!((percent_diff(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert!((percent_diff(90.0, 100.0) + 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut s = Summary::new();
        s.add(f64::NAN);
    }

    #[test]
    fn ascii_plot_renders() {
        let mut s = Summary::from_samples((1..=100).map(|i| i as f64));
        let cdf = s.cdf(30);
        let plot = ascii_cdf_plot(&[("demo", cdf)], 60, 10);
        assert!(plot.contains("demo"));
        assert!(plot.lines().count() > 10);
    }
}
