//! The [`MetricsSink`] hook trait and its standard registry-backed
//! implementation.
//!
//! Instrumented code (the TCP socket, qdiscs, the harness) never
//! talks to a [`crate::Registry`] directly — it calls the sink with a
//! metric *name* and lets the sink decide where the value goes. Every
//! trait method has a no-op default, and callers hold
//! `Option<MetricsHandle>` defaulting to `None`, so the disabled path
//! is a single branch. Sinks must only observe: a sink that schedules
//! timers or sends packets would perturb the simulation's event order
//! and break the byte-identical-when-off guarantee's enabled-mode
//! cousin (enabled runs produce the same simulation, plus metrics).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::registry::{Counter, Gauge, Histogram, Registry};
use crate::trace::{FlowSample, FlowTracer};
use crate::{BACKLOG_BUCKETS_PKTS, LATENCY_BUCKETS_S};

/// Observer hook for instrumented code. All methods default to no-ops
/// so implementations opt into exactly the signals they want.
pub trait MetricsSink {
    /// Add `delta` to the counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Set the gauge `name` to `value`.
    fn gauge_set(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Record `value` into the histogram `name`.
    fn observe(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Register a flow for time-series tracing. Returning `None`
    /// (the default) tells the caller to skip `flow_sample` entirely.
    fn flow_open(&self, desc: &str) -> Option<u64> {
        let _ = desc;
        None
    }

    /// Record a time-series sample for a flow from `flow_open`.
    fn flow_sample(&self, flow: u64, sample: &FlowSample) {
        let _ = (flow, sample);
    }
}

/// A cheaply clonable, `Debug`-opaque handle to a shared sink — the
/// type instrumented configs carry as `Option<MetricsHandle>`.
#[derive(Clone)]
pub struct MetricsHandle(Rc<dyn MetricsSink>);

impl MetricsHandle {
    /// Wrap a sink implementation.
    pub fn new(sink: impl MetricsSink + 'static) -> MetricsHandle {
        MetricsHandle(Rc::new(sink))
    }
}

impl std::ops::Deref for MetricsHandle {
    type Target = dyn MetricsSink;

    fn deref(&self) -> &(dyn MetricsSink + 'static) {
        &*self.0
    }
}

impl fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MetricsHandle")
    }
}

/// The standard sink: binds metric names to [`Registry`] instruments
/// (created lazily on first touch) and forwards flow samples to an
/// optional [`FlowTracer`].
///
/// Histogram buckets are chosen by name convention: `*_seconds` gets
/// the latency ladder, `*_packets` the backlog ladder, everything
/// else a generic powers-of-ten ladder.
pub struct RegistrySink {
    registry: Registry,
    tracer: Option<FlowTracer>,
    counters: Lazy<Counter>,
    gauges: Lazy<Gauge>,
    histograms: Lazy<Histogram>,
}

/// Name → instrument cache for the sink's hot path. Sinks see a
/// handful of distinct `&'static str` names, each usually the same
/// string literal on every call, so a linear scan with a
/// pointer-equality fast path beats hashing the name per event
/// (`transfer_1mb_metrics_enabled` is the regression gate).
struct Lazy<T> {
    entries: RefCell<Vec<(&'static str, T)>>,
}

impl<T> Lazy<T> {
    fn new() -> Lazy<T> {
        Lazy {
            entries: RefCell::new(Vec::new()),
        }
    }

    fn with<R>(&self, name: &'static str, make: impl FnOnce() -> T, f: impl FnOnce(&T) -> R) -> R {
        let mut entries = self.entries.borrow_mut();
        for (n, v) in entries.iter() {
            if std::ptr::eq(*n, name) || *n == name {
                return f(v);
            }
        }
        let v = make();
        let r = f(&v);
        entries.push((name, v));
        r
    }
}

/// Generic bucket ladder for histograms with no unit suffix.
const GENERIC_BUCKETS: [f64; 10] = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

impl RegistrySink {
    /// A sink writing into `registry`, with flow tracing disabled.
    pub fn new(registry: Registry) -> RegistrySink {
        RegistrySink {
            registry,
            tracer: None,
            counters: Lazy::new(),
            gauges: Lazy::new(),
            histograms: Lazy::new(),
        }
    }

    /// A sink writing into `registry` that also records per-flow
    /// time series into `tracer`.
    pub fn with_tracer(registry: Registry, tracer: FlowTracer) -> RegistrySink {
        RegistrySink {
            tracer: Some(tracer),
            ..RegistrySink::new(registry)
        }
    }
}

impl MetricsSink for RegistrySink {
    fn counter_add(&self, name: &'static str, delta: u64) {
        self.counters
            .with(name, || self.registry.counter(name, ""), |c| c.add(delta));
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.gauges
            .with(name, || self.registry.gauge(name, ""), |g| g.set(value));
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.histograms.with(
            name,
            || {
                let bounds: &[f64] = if name.ends_with("_seconds") {
                    &LATENCY_BUCKETS_S
                } else if name.ends_with("_packets") {
                    &BACKLOG_BUCKETS_PKTS
                } else {
                    &GENERIC_BUCKETS
                };
                self.registry.histogram(name, "", bounds)
            },
            |h| h.observe(value),
        );
    }

    fn flow_open(&self, desc: &str) -> Option<u64> {
        self.tracer.as_ref().map(|t| t.open_flow(desc))
    }

    fn flow_sample(&self, flow: u64, sample: &FlowSample) {
        if let Some(tracer) = &self.tracer {
            tracer.record(flow, sample.clone());
        }
    }
}

/// Forwards every sink call to each of several sinks, so one
/// instrumented socket can feed e.g. a [`RegistrySink`] and an auditor
/// at once. `flow_open` returns a fanout-local id and remembers each
/// child's own id for it, so children keep their private numbering.
pub struct FanoutSink {
    sinks: Vec<MetricsHandle>,
    /// Each child's id (if it opted in) for every flow id handed to the
    /// caller: flow `f`'s ids are `flows[f * sinks.len()..][..sinks.len()]`.
    flows: RefCell<Vec<Option<u64>>>,
}

impl FanoutSink {
    /// A fanout over `sinks`, in call order.
    pub fn new(sinks: Vec<MetricsHandle>) -> FanoutSink {
        FanoutSink {
            sinks,
            flows: RefCell::new(Vec::new()),
        }
    }
}

impl MetricsSink for FanoutSink {
    fn counter_add(&self, name: &'static str, delta: u64) {
        for s in &self.sinks {
            s.counter_add(name, delta);
        }
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        for s in &self.sinks {
            s.gauge_set(name, value);
        }
    }

    fn observe(&self, name: &'static str, value: f64) {
        for s in &self.sinks {
            s.observe(name, value);
        }
    }

    fn flow_open(&self, desc: &str) -> Option<u64> {
        let n = self.sinks.len();
        let mut flows = self.flows.borrow_mut();
        let start = flows.len();
        flows.extend(self.sinks.iter().map(|s| s.flow_open(desc)));
        if flows[start..].iter().all(Option::is_none) {
            flows.truncate(start);
            return None;
        }
        Some((start / n) as u64)
    }

    fn flow_sample(&self, flow: u64, sample: &FlowSample) {
        let n = self.sinks.len();
        let flows = self.flows.borrow();
        let per_child = (flow as usize)
            .checked_mul(n)
            .and_then(|start| flows.get(start..)?.get(..n));
        let Some(per_child) = per_child else {
            return;
        };
        for (s, id) in self.sinks.iter().zip(per_child) {
            if let Some(id) = id {
                s.flow_sample(*id, sample);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_sink_creates_instruments_lazily() {
        let registry = Registry::new();
        let sink = RegistrySink::new(registry.clone());
        sink.counter_add("tcp_retransmits_total", 3);
        sink.counter_add("tcp_retransmits_total", 1);
        sink.gauge_set("tcp_cwnd_bytes", 29200.0);
        sink.observe("plt_seconds", 0.4);
        let text = registry.encode();
        assert!(text.contains("tcp_retransmits_total 4"));
        assert!(text.contains("tcp_cwnd_bytes 29200"));
        assert!(text.contains("plt_seconds_bucket{le=\"0.5\"} 1"));
    }

    #[test]
    fn noop_default_sink_ignores_everything() {
        struct Quiet;
        impl MetricsSink for Quiet {}
        let handle = MetricsHandle::new(Quiet);
        handle.counter_add("x_total", 1);
        assert!(handle.flow_open("a-b").is_none());
    }

    #[test]
    fn flow_samples_reach_the_tracer() {
        let tracer = FlowTracer::new();
        let sink = RegistrySink::with_tracer(Registry::new(), tracer.clone());
        let flow = sink.flow_open("a-b").unwrap();
        sink.flow_sample(flow, &FlowSample::default());
        assert_eq!(tracer.sample_count(), 1);
    }

    #[test]
    fn fanout_forwards_and_maps_flow_ids() {
        let registry = Registry::new();
        let tracer = FlowTracer::new();
        // Child 0 declines flows; child 1 traces them. The tracer child
        // is seeded with a flow of its own so its ids diverge from the
        // fanout's.
        let traced = RegistrySink::with_tracer(Registry::new(), tracer.clone());
        tracer.open_flow("pre-existing");
        let fanout = FanoutSink::new(vec![
            MetricsHandle::new(RegistrySink::new(registry.clone())),
            MetricsHandle::new(traced),
        ]);
        fanout.counter_add("x_total", 2);
        assert!(registry.encode().contains("x_total 2"));
        let flow = fanout.flow_open("a-b").unwrap();
        assert_eq!(flow, 0); // fanout-local numbering
        fanout.flow_sample(flow, &FlowSample::default());
        assert_eq!(tracer.sample_count(), 1);
        assert_eq!(tracer.flow_count(), 2);
        // A second flow gets the next id; an id never handed out reaches
        // no child.
        assert_eq!(fanout.flow_open("c-d"), Some(1));
        fanout.flow_sample(1, &FlowSample::default());
        fanout.flow_sample(2, &FlowSample::default());
        fanout.flow_sample(u64::MAX, &FlowSample::default());
        assert_eq!(tracer.sample_count(), 2);
        // No child tracing: no id, and no slot taken.
        let declining = FanoutSink::new(vec![MetricsHandle::new(RegistrySink::new(
            registry.clone(),
        ))]);
        assert_eq!(declining.flow_open("a-b"), None);
        assert!(declining.flows.borrow().is_empty());
    }
}
