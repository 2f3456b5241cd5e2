//! # mm-graph — offline capture analyzer
//!
//! Consumes the per-packet/per-request captures `mm-capture` writes
//! (`--capture-out` on every experiment bin) and emits mahimahi-style
//! artifacts with a zero-dependency SVG writer:
//!
//! - per-link **throughput-vs-capacity** timeseries (the
//!   `mm-throughput-graph` shaded-capacity convention),
//! - per-packet **queueing-delay** scatter with p50/p95 percentile
//!   bands (`mm-delay-graph`),
//! - an **HTTP resource waterfall** per page load, from the events
//!   tapped at the browser/replay boundary.
//!
//! The `mmgraph` bin drives [`render_capture`] over a capture file or
//! directory; each graph also gets a CSV twin so numbers stay
//! machine-checkable.

mod analyze;
mod parse;
mod render;
pub mod svg;

use analyze::{delay_bands, delay_samples, throughput, waterfall};
pub use parse::parse_capture_bytes;
use render::{delay_csv, delay_svg, throughput_csv, throughput_svg, waterfall_csv, waterfall_svg};

use mm_capture::CaptureData;

/// One rendered output file (name is relative to the chosen out dir).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    pub name: String,
    pub content: String,
}

/// Default bin width for timeseries graphs, matching mahimahi's
/// `mm-throughput-graph` half-second binning spirit at sim timescales.
pub const DEFAULT_BIN_MS: u64 = 200;

/// Render every artifact one capture supports: per instrumented link a
/// throughput SVG/CSV pair and (when the link saw queue activity) a
/// queueing-delay pair, plus one waterfall pair when browser-side HTTP
/// events are present. Deterministic: same capture ⇒ same bytes.
pub fn render_capture(data: &CaptureData, bin_ms: u64) -> Vec<Artifact> {
    let mut out = Vec::new();
    let load = data.load;
    for series in throughput(data, bin_ms) {
        let label = series.point.label();
        out.push(Artifact {
            name: format!("load{load}-throughput-{label}.svg"),
            content: throughput_svg(&series, &format!("load {load} · {label} · throughput")),
        });
        out.push(Artifact {
            name: format!("load{load}-throughput-{label}.csv"),
            content: throughput_csv(&series),
        });
        let samples = delay_samples(data, series.point);
        if !samples.is_empty() {
            let bands = delay_bands(&samples, bin_ms);
            out.push(Artifact {
                name: format!("load{load}-delay-{label}.svg"),
                content: delay_svg(
                    &samples,
                    &bands,
                    &format!("load {load} · {label} · queueing delay"),
                ),
            });
            out.push(Artifact {
                name: format!("load{load}-delay-{label}.csv"),
                content: delay_csv(&bands),
            });
        }
    }
    let rows = waterfall(data);
    if !rows.is_empty() {
        out.push(Artifact {
            name: format!("load{load}-waterfall.svg"),
            content: waterfall_svg(&rows, &format!("load {load} · resource waterfall")),
        });
        out.push(Artifact {
            name: format!("load{load}-waterfall.csv"),
            content: waterfall_csv(&rows),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_capture::{
        Dir, HttpEvent, HttpPhase, LinkMeta, PacketEvent, PacketEventKind, PointKind, TapPoint,
    };

    fn sample_capture() -> CaptureData {
        let point = TapPoint {
            kind: PointKind::Link,
            index: 1,
            dir: Dir::Down,
        };
        let mut packets = Vec::new();
        for i in 0..50u64 {
            packets.push(PacketEvent {
                t_ns: i * 10_000_000,
                kind: PacketEventKind::Dequeue,
                point,
                pkt_id: i,
                size_bytes: 1500,
                sojourn_ns: (i % 7) * 1_000_000,
                flow: 0,
            });
            packets.push(PacketEvent {
                t_ns: i * 10_000_000,
                kind: PacketEventKind::Deliver,
                point,
                pkt_id: i,
                size_bytes: 1500,
                sojourn_ns: 0,
                flow: 0,
            });
        }
        CaptureData {
            load: 4,
            links: vec![LinkMeta {
                point,
                deliveries_ms: (0..10).collect(),
                period_ms: 10,
                mtu_bytes: 1500,
            }],
            packets,
            https: vec![
                HttpEvent {
                    t_ns: 0,
                    phase: HttpPhase::Queued,
                    resource: 0,
                    url: "http://10.0.0.1/".into(),
                    status: 0,
                    bytes: 0,
                },
                HttpEvent {
                    t_ns: 400_000_000,
                    phase: HttpPhase::Done,
                    resource: 0,
                    url: "http://10.0.0.1/".into(),
                    status: 200,
                    bytes: 9000,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn render_emits_all_artifact_kinds() {
        let arts = render_capture(&sample_capture(), 100);
        let names: Vec<&str> = arts.iter().map(|a| a.name.as_str()).collect();
        assert!(
            names.contains(&"load4-throughput-link1-down.svg"),
            "{names:?}"
        );
        assert!(names.contains(&"load4-throughput-link1-down.csv"));
        assert!(names.contains(&"load4-delay-link1-down.svg"));
        assert!(names.contains(&"load4-delay-link1-down.csv"));
        assert!(names.contains(&"load4-waterfall.svg"));
        assert!(names.contains(&"load4-waterfall.csv"));
    }

    #[test]
    fn render_is_deterministic() {
        let data = sample_capture();
        assert_eq!(render_capture(&data, 100), render_capture(&data, 100));
    }

    use proptest::prelude::*;

    proptest! {
        /// Integrating the throughput series over all bins recovers the
        /// exact number of bytes delivered — binning loses nothing.
        #[test]
        fn throughput_integration_equals_bytes_delivered(
            sizes in proptest::collection::vec(40u32..1500, 1..200),
            gaps_ms in proptest::collection::vec(0u64..50, 1..200),
            bin_ms in 1u64..500,
        ) {
            let point = TapPoint { kind: PointKind::Link, index: 1, dir: Dir::Up };
            let mut t_ms = 0u64;
            let mut packets = Vec::new();
            for (i, (size, gap)) in sizes.iter().zip(gaps_ms.iter().cycle()).enumerate() {
                t_ms += gap;
                packets.push(PacketEvent {
                    t_ns: t_ms * 1_000_000,
                    kind: PacketEventKind::Deliver,
                    point,
                    pkt_id: i as u64,
                    size_bytes: *size,
                    sojourn_ns: 0,
                    flow: 0,
                });
            }
            let expected: u64 = sizes.iter().map(|&s| s as u64).sum();
            let data = CaptureData {
                load: 0,
                links: vec![LinkMeta {
                    point,
                    deliveries_ms: vec![0].into(),
                    period_ms: 1,
                    mtu_bytes: 1500,
                }],
                packets,
                https: vec![],
                dropped: 0,
            };
            let series = throughput(&data, bin_ms);
            prop_assert_eq!(series.len(), 1);
            prop_assert_eq!(series[0].delivered_total(), expected);
        }
    }
}
