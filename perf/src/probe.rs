//! Timing context for the layer probes: repeats a closure a fixed
//! number of times, summarises by the lower quartile, records a span
//! per probe and collects the resulting metrics.

use std::time::Instant;

use crate::metrics::Metric;
use crate::spans::Recorder;
use crate::stats::lower_quartile;

/// Repeats of every probe closure. Five: the lower quartile is then the
/// second-fastest, so neither a noisy nor a single lucky repeat sets it,
/// and the first (cold) repeat is discarded for free.
const REPEATS: usize = 5;

pub struct ProbeCtx {
    pub rec: Recorder,
    pub metrics: Vec<Metric>,
}

/// The crate a metric belongs to: the name up to the first `.`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

impl ProbeCtx {
    pub fn new(rec: Recorder) -> ProbeCtx {
        ProbeCtx {
            rec,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Run `f` inside a span named after the metric it feeds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.rec.span(name, layer_of(name), f)
    }

    /// Nanoseconds per unit of work: `f` performs `units` units per
    /// call and is called [`REPEATS`] times; the lower quartile wall is
    /// divided by `units`. No metric is pushed.
    pub fn time_quiet(&mut self, name: &'static str, units: u64, mut f: impl FnMut()) -> f64 {
        let walls: Vec<f64> = (0..REPEATS)
            .map(|_| {
                self.span(name, |_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_nanos() as f64
                })
            })
            .collect();
        lower_quartile(&walls) / units as f64
    }

    /// [`ProbeCtx::time_quiet`], scaled from nanoseconds by `scale`
    /// (1e-3 for µs, 1e-6 for ms) and pushed as metric `name`.
    pub fn time_per_unit(
        &mut self,
        name: &'static str,
        unit: &'static str,
        scale: f64,
        units: u64,
        f: impl FnMut(),
    ) -> f64 {
        let value = self.time_quiet(name, units, f) * scale;
        self.push(name, value, unit);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_per_unit_divides_and_scales() {
        let mut ctx = ProbeCtx::new(Recorder::new());
        let mut calls = 0;
        let v = ctx.time_per_unit("mm-sim.x", "us", 1e-3, 10, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(calls, REPEATS);
        // 2 ms per call over 10 units = 200 µs per unit, give or take.
        assert!((200.0..2_000.0).contains(&v), "{v}");
        assert_eq!(
            ctx.metrics,
            [Metric {
                name: "mm-sim.x",
                value: v,
                unit: "us"
            }]
        );
        assert_eq!(ctx.rec.spans().len(), REPEATS);
        assert_eq!(ctx.rec.spans()[0].layer, "mm-sim");
        assert_eq!(layer_of("core.min_load_ms"), "core");
    }
}
