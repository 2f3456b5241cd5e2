//! Trace generators: constant bit rate, cellular-like time-varying links,
//! and on-off links.
//!
//! The paper's own repository ships recorded Verizon/AT&T LTE traces; since
//! those are not redistributable here, [`cellular`] synthesizes traces with
//! the same qualitative structure (bursty, autocorrelated rate variation
//! with outages) from a seeded Markov-modulated process. DESIGN.md records
//! this substitution.

use mm_sim::dist::{Distribution, LogNormal};
use mm_sim::RngStream;

use crate::format::{Trace, TRACE_MTU};

/// A constant-bit-rate trace of the given rate and period.
///
/// Opportunities are laid out by accumulating the exact fractional number
/// of opportunities per millisecond and emitting on integer crossings —
/// the same quantization a real mm-link CBR trace has, which is the source
/// of LinkShell's small overhead in Figure 2.
pub fn constant_rate(mbps: f64, period_ms: u64) -> Trace {
    assert!(mbps > 0.0, "rate must be positive");
    assert!(period_ms > 0, "period must be positive");
    let opps_per_ms = mbps * 1e6 / 8.0 / TRACE_MTU as f64 / 1000.0;
    let mut deliveries = Vec::with_capacity((opps_per_ms * period_ms as f64) as usize + 1);
    let mut acc = 0.0;
    for ms in 1..=period_ms {
        acc += opps_per_ms;
        while acc >= 1.0 {
            deliveries.push(ms);
            acc -= 1.0;
        }
    }
    // Guarantee the trace is non-empty and ends at the period so the wrap
    // preserves the mean rate.
    if deliveries.is_empty() || *deliveries.last().unwrap() != period_ms {
        deliveries.push(period_ms);
    }
    Trace::from_timestamps(deliveries).expect("generated CBR trace is valid")
}

/// Parameters for the cellular-like generator.
#[derive(Debug, Clone)]
pub struct CellularParams {
    /// Long-run mean rate, Mbit/s.
    pub mean_mbps: f64,
    /// Multiplicative spread of the rate process (lognormal sigma of the
    /// per-step factor). 0 = constant.
    pub volatility: f64,
    /// Mean sojourn in each rate state, ms.
    pub state_ms: u64,
    /// Probability a state is an outage (zero delivery).
    pub outage_prob: f64,
    /// Trace period, ms.
    pub period_ms: u64,
}

impl Default for CellularParams {
    fn default() -> Self {
        CellularParams {
            mean_mbps: 10.0,
            volatility: 0.6,
            state_ms: 200,
            outage_prob: 0.03,
            period_ms: 60_000,
        }
    }
}

/// Markov-modulated cellular-like trace: the rate takes a new lognormal
/// multiple of the mean every ~`state_ms`, with occasional outages, and
/// per-millisecond delivery counts accumulate fractionally at the state
/// rate.
pub fn cellular(params: &CellularParams, rng: &mut RngStream) -> Trace {
    assert!(params.mean_mbps > 0.0 && params.period_ms > 0);
    let mean_opps_per_ms = params.mean_mbps * 1e6 / 8.0 / TRACE_MTU as f64 / 1000.0;
    let mut deliveries = Vec::new();
    let mut state_left: u64 = 0;
    let mut state_rate = mean_opps_per_ms;
    let mut acc = 0.0;
    for ms in 1..=params.period_ms {
        if state_left == 0 {
            // Enter a new state.
            state_left = 1 + (rng.next_f64() * 2.0 * params.state_ms as f64) as u64;
            if rng.gen_bool(params.outage_prob) {
                state_rate = 0.0;
            } else {
                state_rate = mean_opps_per_ms * LogNormal::mean_one(params.volatility).sample(rng);
            }
        }
        state_left -= 1;
        acc += state_rate;
        while acc >= 1.0 {
            deliveries.push(ms);
            acc -= 1.0;
        }
    }
    if deliveries.is_empty() || *deliveries.last().unwrap() != params.period_ms {
        deliveries.push(params.period_ms);
    }
    Trace::from_timestamps(deliveries).expect("generated cellular trace is valid")
}

/// An on-off trace: `rate_mbps` for `on_ms`, silence for `off_ms`,
/// repeating for `period_ms`.
pub fn on_off(rate_mbps: f64, on_ms: u64, off_ms: u64, period_ms: u64) -> Trace {
    assert!(rate_mbps > 0.0 && on_ms > 0 && period_ms > 0);
    let opps_per_ms = rate_mbps * 1e6 / 8.0 / TRACE_MTU as f64 / 1000.0;
    let cycle = on_ms + off_ms;
    let mut deliveries = Vec::new();
    let mut acc = 0.0;
    for ms in 1..=period_ms {
        let phase = (ms - 1) % cycle;
        if phase < on_ms {
            acc += opps_per_ms;
            while acc >= 1.0 {
                deliveries.push(ms);
                acc -= 1.0;
            }
        }
    }
    if deliveries.is_empty() || *deliveries.last().unwrap() != period_ms {
        deliveries.push(period_ms);
    }
    Trace::from_timestamps(deliveries).expect("generated on-off trace is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_mean_rate_accurate() {
        for mbps in [1.0, 14.0, 25.0, 100.0, 1000.0] {
            let t = constant_rate(mbps, 1000);
            let measured = t.mean_rate_mbps();
            assert!(
                (measured - mbps).abs() / mbps < 0.01,
                "target {mbps}, measured {measured}"
            );
        }
    }

    #[test]
    fn cbr_low_rate_sparse() {
        // 0.12 Mbit/s = 10 opportunities per second.
        let t = constant_rate(0.12, 1000);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn cbr_high_rate_many_per_ms() {
        // 1000 Mbit/s ≈ 83.3 opportunities per ms.
        let t = constant_rate(1000.0, 100);
        let per_ms = t.len() as f64 / 100.0;
        assert!((per_ms - 83.3).abs() < 1.0, "per-ms {per_ms}");
    }

    #[test]
    fn cellular_mean_near_target() {
        let params = CellularParams {
            mean_mbps: 10.0,
            period_ms: 120_000,
            ..CellularParams::default()
        };
        let mut rng = RngStream::from_seed(42);
        let t = cellular(&params, &mut rng);
        let measured = t.mean_rate_mbps();
        assert!((measured - 10.0).abs() / 10.0 < 0.35, "measured {measured}");
    }

    #[test]
    fn cellular_is_time_varying() {
        let params = CellularParams::default();
        let mut rng = RngStream::from_seed(7);
        let t = cellular(&params, &mut rng);
        let series = t.rate_timeseries(1000);
        let rates: Vec<f64> = series.iter().map(|s| s.1).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64;
        assert!(var.sqrt() / mean > 0.2, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn cellular_deterministic_per_seed() {
        let params = CellularParams::default();
        let a = cellular(&params, &mut RngStream::from_seed(3));
        let b = cellular(&params, &mut RngStream::from_seed(3));
        let c = cellular(&params, &mut RngStream::from_seed(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn on_off_has_silent_gaps() {
        let t = on_off(12.0, 100, 100, 1000);
        let series = t.rate_timeseries(100);
        let silent = series.iter().filter(|(_, r)| *r < 0.5).count();
        assert!(silent >= 4, "expected silent windows, got {silent}");
    }

    #[test]
    fn generated_traces_wrap_cleanly() {
        let t = constant_rate(14.0, 1000);
        // Walking opportunities across the wrap must stay monotonic.
        let mut last = 0;
        for i in 0..(t.len() as u64 * 3) {
            let ts = t.opportunity_ms(i);
            assert!(ts >= last);
            last = ts;
        }
    }
}
