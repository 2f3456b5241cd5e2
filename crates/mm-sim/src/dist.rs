//! Sampling distributions used by the workload and variability models.
//!
//! We implement the handful of distributions the experiments need directly
//! (inverse-transform or Box–Muller) rather than pulling in `rand_distr`,
//! keeping the dependency set to the approved list and the sampling
//! algorithms pinned (stable draws across dependency upgrades).

use crate::rng::RngStream;

/// A sampleable one-dimensional distribution.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut RngStream) -> f64;
}

/// Degenerate distribution: always `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut RngStream) -> f64 {
        self.0
    }
}

/// Exponential with the given mean (inverse-transform sampling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Panics if `mean <= 0`.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0, "Exponential mean must be positive: {mean}");
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        // u in (0,1]: avoid ln(0).
        let u = 1.0 - rng.next_f64();
        -self.mean * u.ln()
    }
}

/// Normal via Box–Muller. One value per draw (the companion draw is
/// discarded to keep the stream consumption pattern simple and stable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Panics if `sigma < 0`.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "Normal sigma must be non-negative: {sigma}");
        Normal { mu, sigma }
    }

    fn standard(rng: &mut RngStream) -> f64 {
        let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.mu + self.sigma * Normal::standard(rng)
    }
}

/// Log-normal parameterized by the underlying normal's (μ, σ).
///
/// Web object sizes and server think times are classically log-normal;
/// the corpus generator leans on this heavily.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// From the underlying normal's parameters.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Normal::new(mu, sigma),
        }
    }

    /// Construct so the log-normal itself has the given median and the
    /// underlying σ — convenient for "median object is 12 KB"-style
    /// calibration. `median` must be positive.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "LogNormal median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// The log-normal with mean one and the underlying σ (μ = −σ²/2): a
    /// multiplicative jitter that leaves the mean where it was. `sigma`
    /// must be non-negative.
    pub fn mean_one(sigma: f64) -> Self {
        LogNormal::new(-sigma * sigma / 2.0, sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Discrete distribution over `T` with explicit weights.
#[derive(Debug, Clone)]
pub struct Weighted<T: Clone> {
    items: Vec<(T, f64)>,
    total: f64,
}

impl<T: Clone> Weighted<T> {
    /// Panics if empty or any weight is negative / all weights zero.
    pub fn new(items: Vec<(T, f64)>) -> Self {
        assert!(!items.is_empty(), "Weighted: no items");
        let total: f64 = items
            .iter()
            .map(|(_, w)| {
                assert!(*w >= 0.0, "negative weight");
                *w
            })
            .sum();
        assert!(total > 0.0, "Weighted: all weights zero");
        Weighted { items, total }
    }

    /// Draw one item.
    pub fn sample(&self, rng: &mut RngStream) -> T {
        let mut x = rng.next_f64() * self.total;
        for (item, w) in &self.items {
            if x < *w {
                return item.clone();
            }
            x -= w;
        }
        // Floating-point slack: return the last item.
        self.items.last().unwrap().0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(dist: &dyn Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = RngStream::from_seed(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = RngStream::from_seed(0);
        let d = Constant(4.25);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 4.25);
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(30.0);
        let m = mean_of(&d, 3, 50_000);
        assert!((m - 30.0).abs() / 30.0 < 0.03, "mean {m}");
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let mut rng = RngStream::from_seed(4);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::with_median(500.0, 1.0);
        let mut rng = RngStream::from_seed(5);
        let mut samples: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = samples[10_000];
        assert!((med - 500.0).abs() / 500.0 < 0.05, "median {med}");
    }

    #[test]
    fn weighted_proportions() {
        let d = Weighted::new(vec![("a", 1.0), ("b", 3.0)]);
        let mut rng = RngStream::from_seed(7);
        let n = 40_000;
        let b_count = (0..n).filter(|_| d.sample(&mut rng) == "b").count();
        let frac = b_count as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic]
    fn weighted_rejects_zero_total() {
        let _ = Weighted::new(vec![("a", 0.0)]);
    }
}
