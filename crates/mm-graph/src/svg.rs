//! A zero-dependency SVG writer.
//!
//! Emits plain SVG 1.1 text with deterministic number formatting (two
//! decimal places, trailing zeros trimmed), so rendered artifacts are
//! byte-stable across runs and platforms — a requirement for the
//! golden-file tests and for diffable CI archives. SVG rather than a
//! raster format because it needs no image codec (keeping the crate
//! dependency-free), stays legible at any zoom, and diffs as text.
//! Both the capture graphs and the span waterfall draw through it.

/// Deterministic float formatting: fixed two decimals, then trailing
/// zeros and a bare point trimmed (`12.50` → `12.5`, `3.00` → `3`).
pub(crate) fn fnum(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v:.2}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

fn esc_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// A `points` attribute: `x,y` pairs separated by spaces.
fn points(pts: &[(f64, f64)]) -> String {
    let pairs: Vec<String> = pts
        .iter()
        .map(|(x, y)| format!("{},{}", fnum(*x), fnum(*y)))
        .collect();
    pairs.join(" ")
}

/// An SVG document under construction.
pub(crate) struct Svg {
    width: u32,
    height: u32,
    body: String,
}

impl Svg {
    /// A document of the given pixel size with a white background.
    pub(crate) fn new(width: u32, height: u32) -> Svg {
        let mut svg = Svg {
            width,
            height,
            body: String::new(),
        };
        svg.rect(0.0, 0.0, width as f64, height as f64, "#ffffff");
        svg
    }

    pub(crate) fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str) {
        self.body.push_str(&format!(
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"/>\n",
            fnum(x),
            fnum(y),
            fnum(w.max(0.0)),
            fnum(h.max(0.0)),
            fill,
        ));
    }

    /// A rect with a `<title>` child (hover tooltip in browsers).
    pub(crate) fn rect_titled(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, title: &str) {
        self.body.push_str(&format!(
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"><title>{}</title></rect>\n",
            fnum(x),
            fnum(y),
            fnum(w.max(0.0)),
            fnum(h.max(0.0)),
            fill,
            esc_xml(title),
        ));
    }

    pub(crate) fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.body.push_str(&format!(
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"{}\" stroke-width=\"{}\"/>\n",
            fnum(x1),
            fnum(y1),
            fnum(x2),
            fnum(y2),
            stroke,
            fnum(width),
        ));
    }

    pub(crate) fn polyline(&mut self, pts: &[(f64, f64)], stroke: &str, width: f64) {
        if !pts.is_empty() {
            self.body.push_str(&format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"{}\"/>\n",
                points(pts),
                fnum(width),
            ));
        }
    }

    /// A closed filled polygon (used for capacity areas and bands).
    pub(crate) fn polygon(&mut self, pts: &[(f64, f64)], fill: &str) {
        if !pts.is_empty() {
            self.body.push_str(&format!(
                "<polygon points=\"{}\" fill=\"{fill}\"/>\n",
                points(pts)
            ));
        }
    }

    pub(crate) fn circle(&mut self, x: f64, y: f64, r: f64, fill: &str) {
        self.body.push_str(&format!(
            "<circle cx=\"{}\" cy=\"{}\" r=\"{}\" fill=\"{}\"/>\n",
            fnum(x),
            fnum(y),
            fnum(r),
            fill,
        ));
    }

    /// Text anchored `start`, `middle`, or `end` at (x, y).
    pub(crate) fn text(&mut self, x: f64, y: f64, size: u32, anchor: &str, fill: &str, s: &str) {
        self.body.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" font-size=\"{}\" font-family=\"sans-serif\" \
             text-anchor=\"{}\" fill=\"{}\">{}</text>\n",
            fnum(x),
            fnum(y),
            size,
            anchor,
            fill,
            esc_xml(s),
        ));
    }

    /// The finished document.
    pub(crate) fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
             viewBox=\"0 0 {} {}\">\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body,
        )
    }
}

/// A rectangular plot area with data-space → pixel-space mapping and a
/// standard frame (border, ticks, axis labels).
pub(crate) struct Plot {
    pub(crate) x: f64,
    pub(crate) y: f64,
    pub(crate) w: f64,
    pub(crate) h: f64,
    pub(crate) xmin: f64,
    pub(crate) xmax: f64,
    pub(crate) ymin: f64,
    pub(crate) ymax: f64,
}

impl Plot {
    /// Data x → pixel x.
    pub(crate) fn sx(&self, v: f64) -> f64 {
        let span = (self.xmax - self.xmin).max(f64::MIN_POSITIVE);
        self.x + (v - self.xmin) / span * self.w
    }

    /// Data y → pixel y (inverted: larger values are higher).
    pub(crate) fn sy(&self, v: f64) -> f64 {
        let span = (self.ymax - self.ymin).max(f64::MIN_POSITIVE);
        self.y + self.h - (v - self.ymin) / span * self.h
    }

    /// Draw the plot frame: border, 5 ticks per axis, axis labels.
    pub(crate) fn frame(&self, svg: &mut Svg, xlabel: &str, ylabel: &str) {
        svg.line(self.x, self.y, self.x, self.y + self.h, "#404040", 1.0);
        svg.line(
            self.x,
            self.y + self.h,
            self.x + self.w,
            self.y + self.h,
            "#404040",
            1.0,
        );
        const TICKS: u32 = 5;
        for i in 0..=TICKS {
            let f = i as f64 / TICKS as f64;
            let xv = self.xmin + f * (self.xmax - self.xmin);
            let yv = self.ymin + f * (self.ymax - self.ymin);
            let px = self.sx(xv);
            let py = self.sy(yv);
            svg.line(
                px,
                self.y + self.h,
                px,
                self.y + self.h + 4.0,
                "#404040",
                1.0,
            );
            svg.text(
                px,
                self.y + self.h + 16.0,
                10,
                "middle",
                "#404040",
                &fnum(xv),
            );
            svg.line(self.x - 4.0, py, self.x, py, "#404040", 1.0);
            svg.text(self.x - 6.0, py + 3.0, 10, "end", "#404040", &fnum(yv));
        }
        svg.text(
            self.x + self.w / 2.0,
            self.y + self.h + 32.0,
            11,
            "middle",
            "#202020",
            xlabel,
        );
        // Vertical-ish y label: rendered horizontally above the axis to
        // avoid transform attributes (keeps the writer minimal).
        svg.text(self.x - 6.0, self.y - 8.0, 11, "start", "#202020", ylabel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnum_is_deterministic_and_trimmed() {
        assert_eq!(fnum(12.50), "12.5");
        assert_eq!(fnum(3.00), "3");
        assert_eq!(fnum(0.254), "0.25");
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(-0.001), "-0");
        assert_eq!(fnum(f64::NAN), "0");
    }

    #[test]
    fn document_structure_and_escaping() {
        let mut svg = Svg::new(100, 50);
        svg.text(1.0, 2.0, 10, "start", "#000", "a<b&\"c\"");
        let out = svg.finish();
        assert!(out.starts_with("<svg xmlns"));
        assert!(out.ends_with("</svg>\n"));
        assert!(out.contains("a&lt;b&amp;&quot;c&quot;"));
    }

    #[test]
    fn plot_maps_corners() {
        let p = Plot {
            x: 10.0,
            y: 20.0,
            w: 100.0,
            h: 50.0,
            xmin: 0.0,
            xmax: 10.0,
            ymin: 0.0,
            ymax: 5.0,
        };
        assert_eq!(p.sx(0.0), 10.0);
        assert_eq!(p.sx(10.0), 110.0);
        assert_eq!(p.sy(0.0), 70.0);
        assert_eq!(p.sy(5.0), 20.0);
    }
}
