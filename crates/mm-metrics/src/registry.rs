//! The instrument registry and Prometheus text-format encoder.
//!
//! Single-threaded by design (the simulator is single-threaded per
//! world): instruments are `Rc` handles into cells owned jointly with
//! the registry. Families are stored in registration order so
//! [`Registry::encode`] output is deterministic — the same run always
//! produces the same scrape text.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `delta`.
    pub fn add(&self, delta: u64) {
        self.0.set(self.0.get().saturating_add(delta));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Set the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.0.set(value);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        self.0.get()
    }
}

struct HistogramInner {
    /// Finite bucket upper bounds, strictly ascending. An implicit
    /// `+Inf` bucket always follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `counts.len()
    /// == bounds.len() + 1`, the last entry being the `+Inf` bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// A fixed-bucket histogram. Bucket bounds are set at registration and
/// never change; `observe` is a binary search plus two adds.
#[derive(Clone)]
pub struct Histogram(Rc<RefCell<HistogramInner>>);

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram(Rc::new(RefCell::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        })))
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let mut inner = self.0.borrow_mut();
        let idx = inner.bounds.partition_point(|&b| b < value);
        inner.counts[idx] += 1;
        inner.sum += value;
        inner.count += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.borrow().count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.0.borrow().sum
    }

    /// Per-bucket (non-cumulative) counts, `+Inf` bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.borrow().counts.clone()
    }

    /// Finite bucket upper bounds.
    pub(crate) fn bounds(&self) -> Vec<f64> {
        self.0.borrow().bounds.clone()
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    /// Label pairs, in registration order (encoded verbatim).
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

impl Family {
    fn kind(&self) -> &'static str {
        match self.series.first().map(|s| &s.instrument) {
            Some(Instrument::Counter(_)) | None => "counter",
            Some(Instrument::Gauge(_)) => "gauge",
            Some(Instrument::Histogram(_)) => "histogram",
        }
    }
}

/// A registry of metric families. Cloning is cheap (shared handle);
/// instruments registered through any clone appear in every clone's
/// `encode` output.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<Vec<Family>>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<F>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: F,
    ) -> Instrument
    where
        F: FnOnce() -> Instrument,
    {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let mut families = self.inner.borrow_mut();
        let family = match families.iter_mut().position(|f| f.name == name) {
            Some(i) => &mut families[i],
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|(have, want)| have.0 == want.0 && have.1 == want.1)
        }) {
            return clone_instrument(&series.instrument);
        }
        let instrument = make();
        family.series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            instrument: clone_instrument(&instrument),
        });
        instrument
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or create a counter with label pairs. Re-registering the
    /// same `(name, labels)` returns a handle to the same series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, help, labels, || {
            Instrument::Counter(Counter::default())
        }) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a gauge with label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, help, labels, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create an unlabeled histogram with the given finite
    /// bucket upper bounds (an implicit `+Inf` bucket is appended).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Get or create a histogram with label pairs.
    pub(crate) fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.get_or_insert(name, help, labels, || {
            Instrument::Histogram(Histogram::new(bounds))
        }) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Encode every registered family in Prometheus text exposition
    /// format, in registration order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for family in self.inner.borrow().iter() {
            if !family.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            }
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind()));
            for series in &family.series {
                match &series.instrument {
                    Instrument::Counter(c) => {
                        out.push_str(&family.name);
                        push_labels(&mut out, &series.labels, None);
                        out.push_str(&format!(" {}\n", c.get()));
                    }
                    Instrument::Gauge(g) => {
                        out.push_str(&family.name);
                        push_labels(&mut out, &series.labels, None);
                        out.push_str(&format!(" {}\n", fmt_f64(g.get())));
                    }
                    Instrument::Histogram(h) => {
                        let bounds = h.bounds();
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, count) in counts.iter().enumerate() {
                            cumulative += count;
                            let le = match bounds.get(i) {
                                Some(b) => fmt_f64(*b),
                                None => "+Inf".to_string(),
                            };
                            out.push_str(&format!("{}_bucket", family.name));
                            push_labels(&mut out, &series.labels, Some(&le));
                            out.push_str(&format!(" {cumulative}\n"));
                        }
                        out.push_str(&format!("{}_sum", family.name));
                        push_labels(&mut out, &series.labels, None);
                        out.push_str(&format!(" {}\n", fmt_f64(h.sum())));
                        out.push_str(&format!("{}_count", family.name));
                        push_labels(&mut out, &series.labels, None);
                        out.push_str(&format!(" {}\n", h.count()));
                    }
                }
            }
        }
        out
    }
}

fn clone_instrument(i: &Instrument) -> Instrument {
    match i {
        Instrument::Counter(c) => Instrument::Counter(c.clone()),
        Instrument::Gauge(g) => Instrument::Gauge(g.clone()),
        Instrument::Histogram(h) => Instrument::Histogram(h.clone()),
    }
}

fn push_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            c => s.push(c),
        }
    }
    s
}

/// Format an `f64` the way Prometheus expects: integral values without
/// a fractional part, everything else via Rust's shortest round-trip.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Validate a Prometheus text-format exposition: every line must be a
/// comment, blank, or `name[{labels}] value`. Returns the first
/// offending line on failure. This is the check the figsoak smoke arm
/// runs over its own scrape before archiving it.
pub fn validate_text(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if name_end < series.len() && !series.ends_with('}') {
            return Err(format!(
                "line {}: unterminated labels: {line:?}",
                lineno + 1
            ));
        }
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad value {value:?}", lineno + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let registry = Registry::new();
        let c = registry.counter("requests_total", "Requests served.");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        let g = registry.gauge("cwnd_bytes", "Current cwnd.");
        g.set(14600.0);
        assert_eq!(g.get(), 14600.0);
        let text = registry.encode();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 3"));
        assert!(text.contains("cwnd_bytes 14600"));
        validate_text(&text).unwrap();
    }

    #[test]
    fn labeled_series_are_distinct_and_idempotent() {
        let registry = Registry::new();
        let up = registry.counter_with("drops_total", "", &[("dir", "up")]);
        let down = registry.counter_with("drops_total", "", &[("dir", "down")]);
        up.inc();
        down.add(5);
        // Re-registering returns the same series handle.
        let up2 = registry.counter_with("drops_total", "", &[("dir", "up")]);
        up2.inc();
        assert_eq!(up.get(), 2);
        let text = registry.encode();
        assert!(text.contains("drops_total{dir=\"up\"} 2"));
        assert!(text.contains("drops_total{dir=\"down\"} 5"));
        validate_text(&text).unwrap();
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_encoding() {
        let registry = Registry::new();
        let h = registry.histogram("plt_seconds", "Page load time.", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(0.5);
        h.observe(3.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket_counts(), vec![1, 2, 1]);
        let text = registry.encode();
        assert!(text.contains("plt_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("plt_seconds_bucket{le=\"1\"} 3"));
        assert!(text.contains("plt_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("plt_seconds_count 4"));
        validate_text(&text).unwrap();
    }

    #[test]
    fn boundary_observation_lands_in_its_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        // Prometheus buckets are `le` (inclusive upper bounds).
        h.observe(1.0);
        assert_eq!(h.bucket_counts(), vec![1, 0, 0]);
        h.observe(2.0);
        assert_eq!(h.bucket_counts(), vec![1, 1, 0]);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_text("ok_metric 1\n").is_ok());
        assert!(validate_text("bad metric name 1 2 3\n").is_err());
        assert!(validate_text("no_value\n").is_err());
        assert!(validate_text("x{dir=\"up\" 1\n").is_err());
    }
}
