//! Render analysis results as SVG graphs and CSV tables.
//!
//! The graphs mirror mahimahi's `mm-throughput-graph` / `mm-delay-graph`
//! conventions: capacity as a shaded region with achieved throughput as
//! a line on top; queueing delay as a per-packet scatter with p50/p95
//! band lines.

use crate::analyze::{mbps, DelayBand, DelaySample, ThroughputSeries};
use crate::svg::{fnum, Plot, Svg};

const W: u32 = 720;
const H: u32 = 360;
const MARGIN_L: f64 = 56.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 36.0;
const MARGIN_B: f64 = 44.0;

const CAPACITY_FILL: &str = "#d9d9d9";
const THROUGHPUT_STROKE: &str = "#2266bb";
const P50_STROKE: &str = "#2266bb";
const P95_STROKE: &str = "#dd8822";
const SCATTER_FILL: &str = "#b0b0b0";

fn chart_plot(xmax: f64, ymax: f64) -> Plot {
    Plot {
        x: MARGIN_L,
        y: MARGIN_T,
        w: W as f64 - MARGIN_L - MARGIN_R,
        h: H as f64 - MARGIN_T - MARGIN_B,
        xmin: 0.0,
        xmax: xmax.max(f64::MIN_POSITIVE),
        ymin: 0.0,
        ymax: ymax.max(f64::MIN_POSITIVE),
    }
}

/// Throughput-vs-capacity timeseries for one link direction: shaded
/// capacity region, achieved-throughput line, utilization in the title.
pub(crate) fn throughput_svg(s: &ThroughputSeries, title: &str) -> String {
    let xmax = s.bins.last().map(|b| b.t_ms + s.bin_ms).unwrap_or(1) as f64;
    let ymax = s
        .bins
        .iter()
        .map(|b| mbps(b.capacity_bytes.max(b.delivered_bytes), s.bin_ms))
        .fold(1.0_f64, f64::max)
        * 1.05;
    let p = chart_plot(xmax, ymax);
    let mut svg = Svg::new(W, H);

    // Capacity as a filled step region down to the x-axis.
    let mut cap_pts = vec![(p.sx(0.0), p.sy(0.0))];
    for b in &s.bins {
        let y = p.sy(mbps(b.capacity_bytes, s.bin_ms));
        cap_pts.push((p.sx(b.t_ms as f64), y));
        cap_pts.push((p.sx((b.t_ms + s.bin_ms) as f64), y));
    }
    cap_pts.push((p.sx(xmax), p.sy(0.0)));
    svg.polygon(&cap_pts, CAPACITY_FILL);

    // Achieved throughput as a step line.
    let mut tput_pts = Vec::new();
    for b in &s.bins {
        let y = p.sy(mbps(b.delivered_bytes, s.bin_ms));
        tput_pts.push((p.sx(b.t_ms as f64), y));
        tput_pts.push((p.sx((b.t_ms + s.bin_ms) as f64), y));
    }
    svg.polyline(&tput_pts, THROUGHPUT_STROKE, 1.5);

    let cap_total: u64 = s.bins.iter().map(|b| b.capacity_bytes).sum();
    let util = if cap_total > 0 {
        s.delivered_total() as f64 / cap_total as f64 * 100.0
    } else {
        0.0
    };
    p.frame(&mut svg, "time (ms)", "Mbit/s");
    svg.text(MARGIN_L, 16.0, 12, "start", "#202020", title);
    svg.text(
        W as f64 - MARGIN_R,
        16.0,
        11,
        "end",
        "#202020",
        &format!(
            "delivered {} of {} offered bytes ({}% util)",
            s.delivered_total(),
            cap_total,
            fnum(util)
        ),
    );
    svg.finish()
}

/// Per-packet queueing-delay scatter with p50/p95 band lines.
pub(crate) fn delay_svg(samples: &[DelaySample], bands: &[DelayBand], title: &str) -> String {
    const NS_PER_MS: f64 = 1_000_000.0;
    let xmax = samples
        .iter()
        .map(|s| s.t_ns as f64 / NS_PER_MS)
        .fold(1.0_f64, f64::max);
    let ymax = samples
        .iter()
        .map(|s| s.sojourn_ns as f64 / NS_PER_MS)
        .fold(0.1_f64, f64::max)
        * 1.05;
    let p = chart_plot(xmax, ymax);
    let mut svg = Svg::new(W, H);

    for s in samples {
        svg.circle(
            p.sx(s.t_ns as f64 / NS_PER_MS),
            p.sy(s.sojourn_ns as f64 / NS_PER_MS),
            1.2,
            SCATTER_FILL,
        );
    }
    let band_line = |field: fn(&DelayBand) -> f64| -> Vec<(f64, f64)> {
        bands
            .iter()
            .map(|b| (p.sx(b.t_ms as f64), p.sy(field(b))))
            .collect()
    };
    svg.polyline(&band_line(|b| b.p50_ms), P50_STROKE, 1.5);
    svg.polyline(&band_line(|b| b.p95_ms), P95_STROKE, 1.5);

    p.frame(&mut svg, "time (ms)", "queueing delay (ms)");
    svg.text(MARGIN_L, 16.0, 12, "start", "#202020", title);
    svg.text(
        W as f64 - MARGIN_R,
        16.0,
        11,
        "end",
        "#202020",
        &format!("{} packets · p50 — · p95 —", samples.len()),
    );
    svg.finish()
}

/// CSV for a throughput series: one row per bin.
pub(crate) fn throughput_csv(s: &ThroughputSeries) -> String {
    let mut out =
        String::from("t_ms,delivered_bytes,capacity_bytes,delivered_mbps,capacity_mbps\n");
    for b in &s.bins {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            b.t_ms,
            b.delivered_bytes,
            b.capacity_bytes,
            fnum(mbps(b.delivered_bytes, s.bin_ms)),
            fnum(mbps(b.capacity_bytes, s.bin_ms)),
        ));
    }
    out
}

/// CSV for delay bands: one row per bin.
pub(crate) fn delay_csv(bands: &[DelayBand]) -> String {
    let mut out = String::from("t_ms,n,p50_ms,p95_ms,max_ms\n");
    for b in bands {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            b.t_ms,
            b.n,
            fnum(b.p50_ms),
            fnum(b.p95_ms),
            fnum(b.max_ms),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::ThroughputBin;

    #[test]
    fn throughput_svg_is_wellformed() {
        let s = ThroughputSeries {
            point: mm_capture::TapPoint {
                kind: mm_capture::PointKind::Link,
                index: 1,
                dir: mm_capture::Dir::Down,
            },
            bin_ms: 100,
            bins: vec![
                ThroughputBin {
                    t_ms: 0,
                    delivered_bytes: 150_000,
                    capacity_bytes: 150_000,
                },
                ThroughputBin {
                    t_ms: 100,
                    delivered_bytes: 75_000,
                    capacity_bytes: 150_000,
                },
            ],
        };
        let out = throughput_svg(&s, "test");
        assert!(out.starts_with("<svg"));
        assert!(out.contains("polygon"));
        assert!(out.contains("polyline"));
        assert!(out.contains("75% util"), "{out}");
    }

    #[test]
    fn csv_rows_match_bins() {
        let s = ThroughputSeries {
            point: mm_capture::TapPoint {
                kind: mm_capture::PointKind::Link,
                index: 1,
                dir: mm_capture::Dir::Up,
            },
            bin_ms: 50,
            bins: vec![ThroughputBin {
                t_ms: 0,
                delivered_bytes: 625_000,
                capacity_bytes: 1_250_000,
            }],
        };
        let csv = throughput_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        // 625 kB in 50 ms = 100 Mbit/s.
        assert_eq!(lines[1], "0,625000,1250000,100,200");
    }
}
