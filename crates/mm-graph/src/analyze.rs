//! Offline capture analysis: throughput-vs-capacity binning, queueing-
//! delay percentile bands, and HTTP resource waterfalls.
//!
//! All functions work on one [`CaptureData`] at a time — loads run in
//! separate simulations with separate clocks, so events from different
//! loads are never combined.

use std::collections::BTreeMap;

use mm_capture::{CaptureData, HttpPhase, LinkMeta, PacketEventKind, TapPoint, NO_RESOURCE};

const NS_PER_MS: u64 = 1_000_000;

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
fn opportunities_before(meta: &LinkMeta, t_ms: u64) -> u64 {
    let n = meta.deliveries_ms.len() as u64;
    if n == 0 || meta.period_ms == 0 {
        return 0;
    }
    let full = t_ms / meta.period_ms;
    let rem = t_ms % meta.period_ms;
    let in_partial = meta.deliveries_ms.iter().filter(|&&d| d < rem).count() as u64;
    full * n + in_partial
}

/// Bin every instrumented link's Deliver events into `bin_ms` windows,
/// pairing each bin with the capacity its trace offered over the same
/// window. The sum of `delivered_bytes` across bins equals the total
/// bytes delivered (no event is lost to binning).
pub(crate) fn throughput(data: &CaptureData, bin_ms: u64) -> Vec<ThroughputSeries> {
    assert!(bin_ms > 0, "bin width must be positive");
    let mut out = Vec::new();
    for meta in &data.links {
        let delivers: Vec<_> = data
            .packets
            .iter()
            .filter(|p| p.point == meta.point && p.kind == PacketEventKind::Deliver)
            .collect();
        let end_ns = delivers.iter().map(|p| p.t_ns).max().unwrap_or(0);
        let n_bins = (end_ns / NS_PER_MS / bin_ms + 1) as usize;
        let mut bins: Vec<ThroughputBin> = (0..n_bins as u64)
            .map(|i| ThroughputBin {
                t_ms: i * bin_ms,
                delivered_bytes: 0,
                capacity_bytes: (opportunities_before(meta, (i + 1) * bin_ms)
                    - opportunities_before(meta, i * bin_ms))
                    * meta.mtu_bytes as u64,
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
    out
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

/// One resource's row in the page-load waterfall.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WaterfallRow {
    pub(crate) resource: u32,
    pub(crate) url: String,
    /// Discovery time (the `Queued` event).
    pub(crate) queued_ns: u64,
    /// First request-on-the-wire time, if the request was ever sent.
    pub(crate) sent_ns: Option<u64>,
    /// Completion (`Done`) or final-failure (`Failed`) time.
    pub(crate) finished_ns: Option<u64>,
    pub(crate) status: u16,
    pub(crate) bytes: u64,
    pub(crate) failed: bool,
}

/// Assemble the browser-side HTTP events into per-resource waterfall
/// rows, ordered by discovery time. Server-side events (tagged
/// [`NO_RESOURCE`]) are skipped — they carry no resource index; join on
/// URL if server-side timing is wanted.
pub(crate) fn waterfall(data: &CaptureData) -> Vec<WaterfallRow> {
    let mut rows: BTreeMap<u32, WaterfallRow> = BTreeMap::new();
    for h in &data.https {
        if h.resource == NO_RESOURCE {
            continue;
        }
        let row = rows.entry(h.resource).or_insert_with(|| WaterfallRow {
            resource: h.resource,
            url: h.url.clone(),
            queued_ns: h.t_ns,
            sent_ns: None,
            finished_ns: None,
            status: 0,
            bytes: 0,
            failed: false,
        });
        match h.phase {
            HttpPhase::Queued => {
                row.queued_ns = h.t_ns;
                row.url = h.url.clone();
            }
            // First send starts the network phase; a retried request
            // keeps its original start (the wait was real).
            HttpPhase::Sent => {
                if row.sent_ns.is_none() {
                    row.sent_ns = Some(h.t_ns);
                }
            }
            HttpPhase::Done => {
                row.finished_ns = Some(h.t_ns);
                row.status = h.status;
                row.bytes = h.bytes;
                row.failed = false;
            }
            HttpPhase::Failed => {
                row.finished_ns = Some(h.t_ns);
                row.failed = true;
            }
            HttpPhase::ServerRecv | HttpPhase::ServerSent => {}
        }
    }
    let mut rows: Vec<WaterfallRow> = rows.into_values().collect();
    rows.sort_by_key(|r| (r.queued_ns, r.resource));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_capture::{Dir, HttpEvent, PacketEvent, PointKind};

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
        let series = throughput(&data, 10);
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
    fn waterfall_rows_track_phases() {
        let mk = |t_ns, phase, resource, url: &str, status, bytes| HttpEvent {
            t_ns,
            phase,
            resource,
            url: url.to_string(),
            status,
            bytes,
        };
        let data = CaptureData {
            load: 0,
            links: vec![],
            packets: vec![],
            https: vec![
                mk(10, HttpPhase::Queued, 0, "http://a/", 0, 0),
                mk(12, HttpPhase::Sent, 0, "http://a/", 0, 0),
                mk(90, HttpPhase::Done, 0, "http://a/", 200, 5000),
                mk(20, HttpPhase::Queued, 1, "http://a/x.js", 0, 0),
                mk(22, HttpPhase::Sent, 1, "http://a/x.js", 0, 0),
                mk(99, HttpPhase::Failed, 1, "http://a/x.js", 0, 0),
                // Server-side events must be ignored here.
                mk(15, HttpPhase::ServerRecv, NO_RESOURCE, "/", 0, 0),
            ],
            dropped: 0,
        };
        let rows = waterfall(&data);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].resource, 0);
        assert_eq!(rows[0].sent_ns, Some(12));
        assert_eq!(rows[0].finished_ns, Some(90));
        assert_eq!(rows[0].status, 200);
        assert!(!rows[0].failed);
        assert!(rows[1].failed);
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
