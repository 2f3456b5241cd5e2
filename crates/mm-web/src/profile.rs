//! Host profiles: the "two machines" of Table 1.
//!
//! A profile is a distribution of per-packet host processing jitter
//! (scheduler wakeups, timer quantization, softirq delays). Two machines
//! running the same experiment differ in their noise *realizations* but
//! not in distribution — which is exactly the property Table 1 tests:
//! means within 0.5% across machines, standard deviations within 1.6% of
//! the mean.

use mm_net::HostNoise;
use mm_sim::dist::LogNormal;
use mm_sim::RngStream;

/// A named host-machine profile.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// Label, e.g. `machine-1`.
    pub name: String,
    /// Median per-packet processing jitter, microseconds.
    pub(crate) median_jitter_us: f64,
    /// Lognormal sigma of the jitter.
    pub(crate) sigma: f64,
    /// Sigma of the browser's per-resource CPU-cost jitter (mean-one
    /// lognormal): renderer GC/scheduling variability, the dominant PLT
    /// variance source on one machine.
    pub cpu_sigma: f64,
}

impl HostProfile {
    /// The paper's "Machine 1": a typical 2014 desktop.
    pub fn machine_1() -> HostProfile {
        HostProfile {
            name: "machine-1".to_string(),
            median_jitter_us: 25.0,
            sigma: 0.7,
            cpu_sigma: 0.12,
        }
    }

    /// The paper's "Machine 2": same class of hardware, its own noise.
    pub fn machine_2() -> HostProfile {
        HostProfile {
            name: "machine-2".to_string(),
            median_jitter_us: 25.0,
            sigma: 0.7,
            cpu_sigma: 0.12,
        }
    }

    /// Instantiate the noise process for one host. Each (profile, seed,
    /// label) triple yields an independent, reproducible realization.
    pub fn noise(&self, seed: u64, label: &str) -> HostNoise {
        let rng = RngStream::from_seed(seed).fork(&self.name).fork(label);
        HostNoise::new(
            rng,
            Box::new(LogNormal::with_median(self.median_jitter_us, self.sigma)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_sim::dist::Distribution;

    #[test]
    fn profiles_share_distribution() {
        let a = HostProfile::machine_1();
        let b = HostProfile::machine_2();
        assert_eq!(a.median_jitter_us, b.median_jitter_us);
        assert_eq!(a.sigma, b.sigma);
        assert_ne!(a.name, b.name);
    }

    #[test]
    fn jitter_magnitudes_sane() {
        // Draw directly from the profile's distribution: tens of
        // microseconds, not milliseconds.
        let p = HostProfile::machine_1();
        let mut rng = RngStream::from_seed(1).fork(&p.name).fork("t");
        let d = LogNormal::with_median(p.median_jitter_us, p.sigma);
        let mean_us: f64 = (0..10_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 10_000.0;
        assert!((10.0..100.0).contains(&mean_us), "mean {mean_us}us");
    }

    #[test]
    fn noise_realizations_differ_across_seeds_and_labels() {
        // Indirect check: the underlying forked RNG streams differ.
        let p = HostProfile::machine_1();
        let mut r1 = RngStream::from_seed(1).fork(&p.name).fork("x");
        let mut r2 = RngStream::from_seed(2).fork(&p.name).fork("x");
        let mut r3 = RngStream::from_seed(1).fork(&p.name).fork("y");
        let a = r1.next_f64();
        assert_ne!(a, r2.next_f64());
        assert_ne!(a, r3.next_f64());
    }
}
