//! Offline capture analysis: throughput-vs-capacity binning and
//! queueing-delay percentile bands.
//!
//! All functions work on one [`CaptureData`] at a time — loads run in
//! separate simulations with separate clocks, so events from different
//! loads are never combined.

use std::collections::BTreeMap;

use mm_capture::{CaptureData, PacketEventKind, TapPoint};

const NS_PER_MS: u64 = 1_000_000;

/// Most bins one throughput series may hold: 55 simulated hours at the
/// default 200 ms. A capture whose last delivery lies further out is an
/// error, not an allocation sized by its timestamp.
pub(crate) const MAX_BINS: u64 = 1_000_000;

/// One time bin of a throughput series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThroughputBin {
    /// Bin start, in sim milliseconds.
    pub(crate) t_ms: u64,
    /// Bytes the link delivered in this bin.
    pub(crate) delivered_bytes: u64,
    /// Bytes the trace *offered* in this bin (delivery opportunities ×
    /// MTU) — mahimahi's shaded capacity region.
    pub(crate) capacity_bytes: u64,
}

/// Binned delivered-vs-capacity series for one link direction.
#[derive(Debug, Clone)]
pub(crate) struct ThroughputSeries {
    pub(crate) point: TapPoint,
    pub(crate) bin_ms: u64,
    pub(crate) bins: Vec<ThroughputBin>,
}

impl ThroughputSeries {
    /// Total bytes delivered across all bins.
    pub(crate) fn delivered_total(&self) -> u64 {
        self.bins.iter().map(|b| b.delivered_bytes).sum()
    }
}

/// Megabits per second a byte count over `bin_ms` corresponds to.
pub(crate) fn mbps(bytes: u64, bin_ms: u64) -> f64 {
    if bin_ms == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / (bin_ms as f64 / 1000.0) / 1e6
}

/// Number of trace delivery opportunities strictly before `t_ms`,
/// honoring the trace's indefinite wrap (`t(i) = (i/n)·period + d[i%n]`).
/// `sorted` holds one period's delivery offsets in ascending order.
/// Saturates rather than overflows, so it stays monotone in `t_ms`.
fn opportunities_before(sorted: &[u64], period_ms: u64, t_ms: u64) -> u64 {
    if sorted.is_empty() || period_ms == 0 {
        return 0;
    }
    let in_partial = sorted.partition_point(|&d| d < t_ms % period_ms) as u64;
    (t_ms / period_ms)
        .saturating_mul(sorted.len() as u64)
        .saturating_add(in_partial)
}

/// Bin every instrumented link's Deliver events into `bin_ms` windows,
/// pairing each bin with the capacity its trace offered over the same
/// window. The sum of `delivered_bytes` across bins equals the total
/// bytes delivered (no event is lost to binning). A series longer than
/// [`MAX_BINS`] is an error naming its link.
pub(crate) fn throughput(data: &CaptureData, bin_ms: u64) -> Result<Vec<ThroughputSeries>, String> {
    assert!(bin_ms > 0, "bin width must be positive");
    let mut out = Vec::new();
    for meta in &data.links {
        let delivers: Vec<_> = data
            .packets
            .iter()
            .filter(|p| p.point == meta.point && p.kind == PacketEventKind::Deliver)
            .collect();
        let end_ns = delivers.iter().map(|p| p.t_ns).max().unwrap_or(0);
        let n_bins = end_ns / NS_PER_MS / bin_ms + 1;
        if n_bins > MAX_BINS {
            return Err(format!(
                "link {}: a delivery at {end_ns} ns needs {n_bins} bins of {bin_ms} ms, \
                 more than {MAX_BINS}",
                meta.point.label()
            ));
        }
        let mut sorted = meta.deliveries_ms.to_vec();
        sorted.sort_unstable();
        let before = |t_ms| opportunities_before(&sorted, meta.period_ms, t_ms);
        let mut bins: Vec<ThroughputBin> = (0..n_bins)
            .map(|i| ThroughputBin {
                t_ms: i * bin_ms,
                delivered_bytes: 0,
                capacity_bytes: (before((i + 1) * bin_ms) - before(i * bin_ms))
                    .saturating_mul(meta.mtu_bytes as u64),
            })
            .collect();
        for p in delivers {
            let idx = (p.t_ns / NS_PER_MS / bin_ms) as usize;
            bins[idx].delivered_bytes += p.size_bytes as u64;
        }
        out.push(ThroughputSeries {
            point: meta.point,
            bin_ms,
            bins,
        });
    }
    Ok(out)
}

/// One per-packet queueing-delay observation (a Dequeue event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DelaySample {
    pub(crate) t_ns: u64,
    pub(crate) sojourn_ns: u64,
}

/// Per-packet queueing delays observed at `point`, in event order.
pub(crate) fn delay_samples(data: &CaptureData, point: TapPoint) -> Vec<DelaySample> {
    data.packets
        .iter()
        .filter(|p| p.point == point && p.kind == PacketEventKind::Dequeue)
        .map(|p| DelaySample {
            t_ns: p.t_ns,
            sojourn_ns: p.sojourn_ns,
        })
        .collect()
}

/// Percentile summary of one delay bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DelayBand {
    /// Bin start, in sim milliseconds.
    pub(crate) t_ms: u64,
    pub(crate) p50_ms: f64,
    pub(crate) p95_ms: f64,
    pub(crate) max_ms: f64,
    /// Samples in the bin.
    pub(crate) n: usize,
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Summarize delay samples into per-bin percentile bands. Bins with no
/// samples are omitted (an idle queue has no sojourn to report).
pub(crate) fn delay_bands(samples: &[DelaySample], bin_ms: u64) -> Vec<DelayBand> {
    assert!(bin_ms > 0, "bin width must be positive");
    let mut by_bin: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in samples {
        let bin = s.t_ns / NS_PER_MS / bin_ms;
        by_bin
            .entry(bin)
            .or_default()
            .push(s.sojourn_ns as f64 / NS_PER_MS as f64);
    }
    by_bin
        .into_iter()
        .map(|(bin, mut v)| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            DelayBand {
                t_ms: bin * bin_ms,
                p50_ms: percentile(&v, 50.0),
                p95_ms: percentile(&v, 95.0),
                max_ms: *v.last().unwrap(),
                n: v.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_capture::{Dir, LinkMeta, PacketEvent, PointKind};

    fn point() -> TapPoint {
        TapPoint {
            kind: PointKind::Link,
            index: 1,
            dir: Dir::Down,
        }
    }

    fn deliver(t_ms: u64, size: u32) -> PacketEvent {
        PacketEvent {
            t_ns: t_ms * NS_PER_MS,
            kind: PacketEventKind::Deliver,
            point: point(),
            pkt_id: t_ms,
            size_bytes: size,
            sojourn_ns: 0,
            flow: 0,
        }
    }

    fn meta() -> LinkMeta {
        LinkMeta {
            point: point(),
            // One opportunity per ms.
            deliveries_ms: (0..10).collect(),
            period_ms: 10,
            mtu_bytes: 1500,
        }
    }

    #[test]
    fn throughput_bins_preserve_totals_and_capacity_wraps() {
        let data = CaptureData {
            load: 0,
            links: vec![meta()],
            packets: vec![deliver(0, 1500), deliver(1, 700), deliver(25, 1500)],
            https: vec![],
            dropped: 0,
        };
        let series = throughput(&data, 10).unwrap();
        assert_eq!(series.len(), 1);
        let s = &series[0];
        assert_eq!(s.bins.len(), 3);
        assert_eq!(s.bins[0].delivered_bytes, 2200);
        assert_eq!(s.bins[1].delivered_bytes, 0);
        assert_eq!(s.bins[2].delivered_bytes, 1500);
        assert_eq!(s.delivered_total(), 3700);
        // 10 opportunities per 10 ms bin, wrapping past the 10 ms period.
        for b in &s.bins {
            assert_eq!(b.capacity_bytes, 10 * 1500, "bin at {}", b.t_ms);
        }
    }

    #[test]
    fn delay_bands_summarize_sojourns() {
        let samples: Vec<DelaySample> = (0..100)
            .map(|i| DelaySample {
                t_ns: i * NS_PER_MS, // one per ms, all in one 200 ms bin
                sojourn_ns: (i + 1) * NS_PER_MS,
            })
            .collect();
        let bands = delay_bands(&samples, 200);
        assert_eq!(bands.len(), 1);
        let b = &bands[0];
        assert_eq!(b.n, 100);
        assert_eq!(b.max_ms, 100.0);
        assert!((b.p50_ms - 51.0).abs() < 1.5, "p50 {}", b.p50_ms);
        assert!((b.p95_ms - 95.0).abs() < 1.5, "p95 {}", b.p95_ms);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=4).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 3.0); // round(1.5) = 2 ⇒ v[2]
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
