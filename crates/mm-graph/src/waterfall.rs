//! Waterfall rendering: one row per resource, phases as colored
//! segments, critical-path rows marked — the browser-devtools view of a
//! replayed load, drawn with the deterministic SVG writer so the
//! artifact is byte-stable and diffable in CI.

use std::collections::HashSet;

use mm_trace::SpanKind;

use crate::svg::{fnum, Svg};
use crate::{critical_path, PageTree, PHASE_ORDER};

/// Fill color per phase kind (ColorBrewer-ish, print-safe).
pub(crate) fn phase_color(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Queued => "#bdbdbd",
        SpanKind::ConnSetup => "#f28e2b",
        SpanKind::MuxWait => "#e15759",
        SpanKind::RequestTx => "#76b7b2",
        SpanKind::ServerThink => "#59a14f",
        SpanKind::Transfer => "#4e79a7",
        SpanKind::RenderQueue => "#edc948",
        SpanKind::Parse => "#b07aa1",
        SpanKind::Failed => "#d37295",
        SpanKind::HolWait => "#e03030",
        _ => "#888888",
    }
}

const LEFT: f64 = 170.0;
const TOP: f64 = 46.0;
const ROW_H: f64 = 14.0;
const ROW_GAP: f64 = 3.0;
const PLOT_W: f64 = 640.0;

/// Render one page's waterfall. Rows are resources in queue order;
/// a `●` prefix marks critical-path rows; transport `HolWait` windows
/// overlay as thin red strips on the rows sharing their connection.
pub fn waterfall_svg(tree: &PageTree) -> String {
    let rows: Vec<_> = {
        let mut rs: Vec<_> = tree.resources.iter().collect();
        rs.sort_by_key(|r| (r.t0_ns, r.res));
        rs
    };
    let critical: HashSet<u32> = critical_path(tree).iter().map(|s| s.res).collect();
    let t0 = tree.page.t0_ns;
    let span_ns = tree.page.dur_ns().max(1) as f64;
    let x = |t: u64| LEFT + (t.saturating_sub(t0) as f64 / span_ns) * PLOT_W;

    let height = (TOP + rows.len() as f64 * (ROW_H + ROW_GAP) + 40.0).ceil() as u32;
    let mut svg = Svg::new((LEFT + PLOT_W + 20.0).ceil() as u32, height);
    svg.text(
        8.0,
        16.0,
        12,
        "start",
        "#202020",
        &format!(
            "load {}  {}  PLT {} ms",
            tree.page.load,
            if tree.page.detail.is_empty() {
                "-"
            } else {
                &tree.page.detail
            },
            fnum(tree.page.dur_ns() as f64 / 1e6)
        ),
    );
    // Legend.
    let mut lx = 8.0;
    for kind in PHASE_ORDER.iter().chain([SpanKind::HolWait].iter()) {
        svg.rect(lx, 24.0, 9.0, 9.0, phase_color(*kind));
        svg.text(lx + 12.0, 32.0, 9, "start", "#404040", kind.as_str());
        lx += 13.0 + 6.5 * kind.as_str().len() as f64 + 10.0;
    }
    for (i, r) in rows.iter().enumerate() {
        let y = TOP + i as f64 * (ROW_H + ROW_GAP);
        let mark = if critical.contains(&r.res) {
            "\u{25cf} "
        } else {
            ""
        };
        // The URL's last 24 characters (not bytes: a URL may hold any text).
        let skip = r.url.chars().count().saturating_sub(24);
        let label = format!("{mark}{}", r.url.chars().skip(skip).collect::<String>());
        svg.text(LEFT - 6.0, y + ROW_H - 3.0, 9, "end", "#303030", &label);
        if let Some(phases) = tree.phases.get(&r.id) {
            for p in phases {
                svg.rect_titled(
                    x(p.t0_ns),
                    y,
                    x(p.t1_ns) - x(p.t0_ns),
                    ROW_H,
                    phase_color(p.kind),
                    &format!(
                        "res {} {}: {} ms",
                        r.res,
                        p.kind.as_str(),
                        fnum(p.dur_ns() as f64 / 1e6)
                    ),
                );
            }
        }
        // Transport reassembly waits on this row's connection.
        let conn = tree
            .phases
            .get(&r.id)
            .and_then(|ps| ps.iter().find(|p| p.conn != 0))
            .map(|p| p.conn)
            .unwrap_or(0);
        if conn != 0 {
            for h in tree.hol_waits.iter().filter(|h| h.conn == conn) {
                // Only strips overlapping this row's interval.
                if h.t1_ns > r.t0_ns && h.t0_ns < r.t1_ns {
                    svg.rect_titled(
                        x(h.t0_ns),
                        y + ROW_H - 3.0,
                        x(h.t1_ns) - x(h.t0_ns),
                        3.0,
                        phase_color(SpanKind::HolWait),
                        &format!("hol_wait: {} ms", fnum(h.dur_ns() as f64 / 1e6)),
                    );
                }
            }
        }
    }
    // Time axis: 0 and PLT.
    let base = TOP + rows.len() as f64 * (ROW_H + ROW_GAP) + 6.0;
    svg.line(LEFT, base, LEFT + PLOT_W, base, "#404040", 1.0);
    svg.text(LEFT, base + 14.0, 9, "middle", "#404040", "0");
    svg.text(
        LEFT + PLOT_W,
        base + 14.0,
        9,
        "middle",
        "#404040",
        &format!("{} ms", fnum(span_ns / 1e6)),
    );
    svg.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_trace::Span;

    #[test]
    fn waterfall_is_stable_svg() {
        let mk = |id, parent, kind, t0, t1, res| Span {
            load: 1,
            id,
            parent,
            kind,
            t0_ns: t0,
            t1_ns: t1,
            res,
            conn: 5,
            url: format!("http://h/{res}"),
            detail: String::new(),
        };
        let spans = vec![
            mk(1, 0, SpanKind::Page, 0, 100, mm_trace::NO_RESOURCE),
            mk(2, 1, SpanKind::Resource, 0, 100, 0),
            mk(3, 2, SpanKind::Queued, 0, 40, 0),
            mk(4, 2, SpanKind::Transfer, 40, 90, 0),
            mk(5, 2, SpanKind::Parse, 90, 100, 0),
            mk(6, 0, SpanKind::HolWait, 50, 60, mm_trace::NO_RESOURCE),
        ];
        let pages = crate::build_pages(&spans);
        let a = waterfall_svg(&pages[0]);
        let b = waterfall_svg(&pages[0]);
        assert_eq!(a, b, "rendering must be deterministic");
        assert!(a.starts_with("<svg"));
        assert!(a.contains("hol_wait"));
        assert!(a.contains("<title>res 0 transfer"));
    }

    #[test]
    fn a_multi_byte_url_is_cut_at_a_character() {
        let mk = |id, parent, kind, url: &str| Span {
            load: 1,
            id,
            parent,
            kind,
            t0_ns: 0,
            t1_ns: 100,
            res: 0,
            conn: 5,
            url: url.to_string(),
            detail: String::new(),
        };
        // 25 bytes from the end is the middle of a `π`.
        let url = format!("http://h/{}x", "π".repeat(30));
        let spans = vec![
            mk(1, 0, SpanKind::Page, "http://h/"),
            mk(2, 1, SpanKind::Resource, &url),
        ];
        let svg = waterfall_svg(&crate::build_pages(&spans)[0]);
        let label = format!(">{}x</text>", "π".repeat(23));
        assert!(svg.contains(&label), "{svg}");
    }
}
