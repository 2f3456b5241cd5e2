//! Per-flow time-series capture with a compact JSONL dump.
//!
//! A [`FlowTracer`] is handed (via the sink hook) to instrumented
//! sockets; each socket opens a flow once and records [`FlowSample`]s
//! at congestion-relevant events. The tracer downsamples on a minimum
//! inter-sample interval — except when the sample is "interesting"
//! (state change or new retransmission), which is always kept — and
//! caps per-flow storage so a pathological flow cannot consume
//! unbounded memory during a soak.

use std::cell::RefCell;
use std::rc::Rc;

/// One point in a flow's time series. Times are in seconds of
/// simulated time; byte quantities are raw bytes; rates are bytes/sec.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowSample {
    /// Simulated time of the sample, seconds.
    pub t_s: f64,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Slow-start threshold, bytes (`u64::MAX` until first reduction).
    pub ssthresh: u64,
    /// Smoothed RTT, seconds (0 until the first measurement).
    pub srtt_s: f64,
    /// Pacing rate, bytes/sec (0 when pacing is off).
    pub pacing_rate: f64,
    /// Bytes currently in flight.
    pub bytes_in_flight: u64,
    /// Cumulative bytes delivered (rate-estimator view).
    pub delivered: u64,
    /// Cumulative retransmitted segments.
    pub retx_count: u64,
    /// Coarse connection state, e.g. `"open"`, `"recovery"`, `"loss"`.
    pub state: &'static str,
    /// Which socket event produced this sample (`"tx"` for new-data
    /// transmits, `"sack"` for SACK-carrying acks, `""` otherwise).
    /// Audit-only: not serialized to JSONL.
    pub event: &'static str,
    /// Highest sequence sent (audit-only).
    pub snd_nxt: u64,
    /// Lowest unacknowledged sequence (audit-only).
    pub snd_una: u64,
    /// Next sequence expected by the receiver side (audit-only).
    pub rcv_nxt: u64,
    /// Peer-advertised receive window, bytes (audit-only).
    pub rwnd: u64,
    /// Sender MSS, bytes (audit-only).
    pub mss: u64,
    /// Incrementally maintained SACK pipe estimate (audit-only).
    pub pipe: u64,
    /// Definitional pipe recomputed by walking the retransmission
    /// queue (audit-only; equals `pipe` on a correct implementation).
    pub pipe_walk: u64,
    /// RACK clock: latest delivered (sent-time, end-seq), audit-only.
    pub rack_clock_ns: u64,
    /// End sequence paired with `rack_clock_ns` (audit-only).
    pub rack_clock_end: u64,
    /// High-water (sent-time, end-seq) over all RACK loss marks so
    /// far; `(0, 0)` when nothing has been marked (audit-only).
    pub rack_mark_ns: u64,
    /// End sequence paired with `rack_mark_ns` (audit-only).
    pub rack_mark_end: u64,
    /// Maximum bytes ever released ahead of the pacer's token clock
    /// (audit-only; 0 on a conforming sender).
    pub pacing_excess: u64,
    /// SACK blocks carried on this ack, `(start, end)` pairs in the
    /// receiver's most-recent-first order (audit-only).
    pub sack_blocks: Vec<(u64, u64)>,
}

struct FlowRecord {
    desc: String,
    samples: Vec<FlowSample>,
    /// Most recent sample rejected by downsampling or the cap. Emitted
    /// after the kept samples at serialization time so a flow's final
    /// cwnd/srtt are never lost, however dense its tail was.
    pending: Option<FlowSample>,
}

struct TracerInner {
    flows: Vec<FlowRecord>,
    min_interval_s: f64,
    max_samples_per_flow: usize,
    dropped: u64,
}

/// Records per-flow [`FlowSample`] time series. Cloning shares the
/// underlying store.
#[derive(Clone)]
pub struct FlowTracer {
    inner: Rc<RefCell<TracerInner>>,
}

impl Default for FlowTracer {
    fn default() -> Self {
        FlowTracer::new()
    }
}

impl FlowTracer {
    /// A tracer with the default limits: at most one routine sample
    /// per flow per simulated millisecond, 4096 samples per flow.
    pub fn new() -> FlowTracer {
        FlowTracer::with_limits(0.001, 4096)
    }

    /// A tracer with explicit downsampling limits.
    pub fn with_limits(min_interval_s: f64, max_samples_per_flow: usize) -> FlowTracer {
        FlowTracer {
            inner: Rc::new(RefCell::new(TracerInner {
                flows: Vec::new(),
                min_interval_s,
                max_samples_per_flow,
                dropped: 0,
            })),
        }
    }

    /// Register a flow (e.g. `"100.64.0.2:3300-10.0.0.1:80"`) and get
    /// its id for subsequent [`FlowTracer::record`] calls.
    pub fn open_flow(&self, desc: &str) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.flows.push(FlowRecord {
            desc: desc.to_string(),
            samples: Vec::new(),
            pending: None,
        });
        (inner.flows.len() - 1) as u64
    }

    /// Record a sample for `flow`. Routine samples closer than the
    /// minimum interval to the previous kept sample are dropped;
    /// samples that change `state` or `retx_count` are always kept
    /// (subject to the per-flow cap).
    pub fn record(&self, flow: u64, sample: FlowSample) {
        let mut inner = self.inner.borrow_mut();
        let min_interval = inner.min_interval_s;
        let cap = inner.max_samples_per_flow;
        let Some(record) = inner.flows.get_mut(flow as usize) else {
            return;
        };
        if record.samples.len() >= cap {
            record.pending = Some(sample);
            inner.dropped += 1;
            return;
        }
        if let Some(last) = record.samples.last() {
            let interesting = sample.state != last.state || sample.retx_count != last.retx_count;
            if !interesting && sample.t_s - last.t_s < min_interval {
                record.pending = Some(sample);
                inner.dropped += 1;
                return;
            }
        }
        record.pending = None;
        record.samples.push(sample);
    }

    /// Number of flows opened.
    #[cfg(test)]
    pub(crate) fn flow_count(&self) -> usize {
        self.inner.borrow().flows.len()
    }

    /// Total samples kept across all flows.
    pub fn sample_count(&self) -> usize {
        self.inner
            .borrow()
            .flows
            .iter()
            .map(|f| f.samples.len())
            .sum()
    }

    /// Samples dropped by downsampling or the per-flow cap.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Encode every kept sample as one JSON object per line.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, record) in self.inner.borrow().flows.iter().enumerate() {
            for s in record.samples.iter().chain(record.pending.iter()) {
                out.push_str(&format!(
                    concat!(
                        "{{\"flow\":{},\"desc\":\"{}\",\"t\":{},\"cwnd\":{},",
                        "\"ssthresh\":{},\"srtt\":{},\"pacing_rate\":{},",
                        "\"in_flight\":{},\"delivered\":{},\"retx\":{},\"state\":\"{}\"}}\n"
                    ),
                    id,
                    escape_json(&record.desc),
                    s.t_s,
                    s.cwnd,
                    s.ssthresh,
                    s.srtt_s,
                    s.pacing_rate,
                    s.bytes_in_flight,
                    s.delivered,
                    s.retx_count,
                    escape_json(s.state),
                ));
            }
        }
        out
    }

    /// Drain all flows out of this tracer (used to merge per-world
    /// tracers into a process-wide trace file), returning JSONL.
    pub fn take_jsonl(&self) -> String {
        let out = self.to_jsonl();
        self.inner.borrow_mut().flows.clear();
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_s: f64, retx: u64, state: &'static str) -> FlowSample {
        FlowSample {
            t_s,
            cwnd: 14600,
            ssthresh: u64::MAX,
            srtt_s: 0.1,
            pacing_rate: 0.0,
            bytes_in_flight: 4380,
            delivered: 0,
            retx_count: retx,
            state,
            ..FlowSample::default()
        }
    }

    #[test]
    fn downsamples_routine_but_keeps_interesting() {
        let tracer = FlowTracer::with_limits(0.01, 100);
        let flow = tracer.open_flow("a-b");
        tracer.record(flow, sample(0.000, 0, "open"));
        tracer.record(flow, sample(0.001, 0, "open")); // too close: dropped
        tracer.record(flow, sample(0.002, 1, "open")); // retx changed: kept
        tracer.record(flow, sample(0.003, 1, "recovery")); // state changed: kept
        tracer.record(flow, sample(0.020, 1, "recovery")); // interval passed: kept
        assert_eq!(tracer.sample_count(), 4);
        assert_eq!(tracer.dropped(), 1);
    }

    #[test]
    fn per_flow_cap_bounds_memory() {
        let tracer = FlowTracer::with_limits(0.0, 3);
        let flow = tracer.open_flow("a-b");
        for i in 0..10 {
            tracer.record(flow, sample(i as f64, 0, "open"));
        }
        assert_eq!(tracer.sample_count(), 3);
        assert_eq!(tracer.dropped(), 7);
    }

    #[test]
    fn final_sample_survives_downsampling() {
        let tracer = FlowTracer::with_limits(0.01, 100);
        let flow = tracer.open_flow("a-b");
        tracer.record(flow, sample(0.000, 0, "open"));
        let mut last = sample(0.001, 0, "open");
        last.cwnd = 99_999; // routine, too close: evicted from `samples`
        tracer.record(flow, last);
        assert_eq!(tracer.sample_count(), 1);
        assert_eq!(tracer.dropped(), 1);
        // ...but the terminal sample still reaches the JSONL dump.
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"cwnd\":99999"));
        // A kept sample supersedes any pending one: no duplicates.
        let tracer = FlowTracer::with_limits(0.01, 100);
        let flow = tracer.open_flow("a-b");
        tracer.record(flow, sample(0.000, 0, "open"));
        tracer.record(flow, sample(0.001, 0, "open"));
        tracer.record(flow, sample(0.020, 0, "open"));
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn final_sample_survives_per_flow_cap() {
        let tracer = FlowTracer::with_limits(0.0, 3);
        let flow = tracer.open_flow("a-b");
        for i in 0..10 {
            tracer.record(flow, sample(i as f64, 0, "open"));
        }
        assert_eq!(tracer.sample_count(), 3);
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().last().unwrap().contains("\"t\":9"));
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let tracer = FlowTracer::new();
        let flow = tracer.open_flow("100.64.0.2:3300-10.0.0.1:80");
        tracer.record(flow, sample(0.5, 2, "recovery"));
        let jsonl = tracer.to_jsonl();
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"desc\":\"100.64.0.2:3300-10.0.0.1:80\""));
        assert!(line.contains("\"retx\":2"));
        assert!(line.contains("\"state\":\"recovery\""));
        // Drain empties the store.
        assert!(!tracer.take_jsonl().is_empty());
        assert_eq!(tracer.flow_count(), 0);
    }
}
