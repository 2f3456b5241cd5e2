//! Zero-dependency observability layer for the mahimahi-rs workspace.
//!
//! Three pieces, deliberately decoupled from the simulator so any crate
//! can depend on this one without cycles:
//!
//! - [`Registry`]: a single-threaded registry of counters, gauges and
//!   fixed-bucket histograms with a Prometheus text-format encoder
//!   ([`Registry::encode`]). Instruments are cheap `Rc` handles; the
//!   registry owns the family table so the encoded output is ordered
//!   by registration (deterministic across runs).
//! - [`MetricsSink`]: the hook trait instrumented code calls into. All
//!   methods default to no-ops, and call sites hold an
//!   `Option<Rc<dyn MetricsSink>>` that defaults to `None`, so the
//!   disabled path costs one branch and the simulation's event order
//!   is never perturbed (sinks observe, they never schedule).
//!   [`RegistrySink`] is the standard implementation binding metric
//!   names to registry instruments and flow samples to a tracer.
//! - [`FlowTracer`]: per-flow time-series capture ([`FlowSample`]:
//!   t, cwnd, ssthresh, srtt, pacing rate, bytes in flight, delivered,
//!   retransmit count, state) with interval-based downsampling and a
//!   compact JSONL dump for offline anomaly debugging.
//!
//! Everything here uses plain `std` — no vendored stubs required.

mod registry;
mod sink;
mod trace;

pub use registry::{validate_text, Counter, Gauge, Histogram, Registry};
pub use sink::{FanoutSink, MetricsHandle, MetricsSink, RegistrySink};
pub use trace::{FlowSample, FlowTracer};

/// Default histogram buckets for latency-shaped metrics, in seconds.
/// Mirrors the classic Prometheus duration ladder, extended to cover
/// multi-second page loads.
pub const LATENCY_BUCKETS_S: [f64; 12] = [
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// Default histogram buckets for queue-backlog-shaped metrics, in
/// packets (powers of two up to a deep 1024-packet buffer).
pub(crate) const BACKLOG_BUCKETS_PKTS: [f64; 11] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];
