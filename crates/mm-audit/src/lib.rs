//! # mm-audit — runtime conformance auditor and equivalence digests
//!
//! Every observer hook in the workspace (`MetricsSink`, `PacketTap`,
//! `SpanSink`) was built to *record* what the simulation does. This
//! crate turns the same event streams into a *judge*: an [`Auditor`]
//! implements all three hook traits and validates, online, the
//! invariants the rest of the stack promises —
//!
//! - **packet conservation** per instrumented shell point: every
//!   dequeue, drop and delivery must refer to a packet the ledger knows
//!   about, sizes must agree, and at the end of the run
//!   `enqueued == dequeued + evicted + residual backlog` in both
//!   packets and bytes, cross-checked against the qdisc's own
//!   `qdisc_*_backlog_now_packets` gauge and `*_total` counters;
//! - **TCP conformance** per traced connection: window-gated transmit
//!   bursts never leave more in flight than cwnd (or the peer's
//!   window), the incrementally maintained SACK pipe equals the
//!   definitional walk, SACK blocks are well-formed/disjoint/in-window,
//!   RACK never marks a segment at-or-after its own clock, and the
//!   pacer never releases more than one segment ahead of its token
//!   clock;
//! - **HTTP/span consistency**: every browser `Done` matches a server
//!   `ServerSent` byte count for the same request path, and each resource's
//!   phase spans tile its resource span exactly (the contract `mmpath`'s
//!   critical-path walk stands on).
//!
//! Violations are *accumulated*, never panicked: an auditor in a CI
//! smoke run or a soak must report everything it saw, not die on the
//! first anomaly. [`Auditor::finish`] returns an [`AuditReport`] whose
//! JSONL form the `mmaudit` binary renders and gates on.
//!
//! The report also carries **equivalence digests**: one 64-bit hash per
//! link point and per connection, folded from per-packet event hashes
//! with a commutative combine (wrapping add), so the digest of a run is
//! *order-insensitive* — a serial site loop and a thread-sharded one
//! (`bench::parallel_map`) must produce identical digests, and
//! `mmaudit --compare a/ b/` exits nonzero when any scope differs.
//! Process-global load ids are deliberately excluded from the hash:
//! they are claim-order-dependent and would differ across shardings.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use mm_capture::{
    Dir, HttpEvent, HttpPhase, PacketEvent, PacketEventKind, PacketTap, PointKind, TapHandle,
    TapPoint,
};
use mm_metrics::{FlowSample, MetricsHandle, MetricsSink};
use mm_trace::jsonl::{escape, get_str, get_u64};
use mm_trace::{Span, SpanHandle, SpanKind, SpanSink, NO_RESOURCE};

/// One invariant breach. `code` is a stable machine-readable slug
/// (`cwnd-overfill`, `untracked-dequeue`, ...), `scope` names the
/// entity (a tap-point label, a flow description, `res:<n>`), and
/// `detail` carries the expected/actual values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub code: &'static str,
    pub scope: String,
    pub(crate) detail: String,
}

/// Everything one audited load produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Process-unique load id (claim-order-dependent; excluded from
    /// digests).
    pub(crate) load: u64,
    pub violations: Vec<Violation>,
    /// Violations discarded past the in-memory cap.
    pub dropped_violations: u64,
    /// Order-insensitive per-scope equivalence digests: tap-point
    /// labels (`link1-down`) and connections (`conn:<flow key>`).
    pub digests: BTreeMap<String, u64>,
    pub packets: u64,
    pub(crate) http_events: u64,
    pub samples: u64,
    pub spans: u64,
}

impl AuditReport {
    /// True when the run satisfied every audited invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped_violations == 0
    }

    /// Serialize as the flat JSONL `mmaudit` consumes: one line per
    /// violation, one per digest scope, and a trailing summary.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{{\"ev\":\"violation\",\"load\":{},\"code\":\"{}\",\"scope\":\"{}\",\"detail\":\"{}\"}}\n",
                self.load,
                escape(v.code),
                escape(&v.scope),
                escape(&v.detail),
            ));
        }
        for (scope, hash) in &self.digests {
            out.push_str(&format!(
                "{{\"ev\":\"digest\",\"load\":{},\"scope\":\"{}\",\"hash\":{}}}\n",
                self.load,
                escape(scope),
                hash,
            ));
        }
        out.push_str(&format!(
            concat!(
                "{{\"ev\":\"audit_summary\",\"load\":{},\"violations\":{},",
                "\"dropped_violations\":{},\"packets\":{},\"http_events\":{},",
                "\"samples\":{},\"spans\":{}}}\n"
            ),
            self.load,
            self.violations.len(),
            self.dropped_violations,
            self.packets,
            self.http_events,
            self.samples,
            self.spans,
        ));
        out
    }
}

/// FNV-1a over a byte string; the workspace's standard cheap stable hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of one packet event for the equivalence digest. Everything
/// deterministic about the event participates; the process-global load
/// id does not (it depends on claim order across threads).
fn packet_digest(ev: &PacketEvent) -> u64 {
    let mut buf = [0u8; 41];
    buf[0] = match ev.kind {
        PacketEventKind::Enqueue => 0,
        PacketEventKind::Dequeue => 1,
        PacketEventKind::Drop => 2,
        PacketEventKind::Deliver => 3,
    };
    buf[1..9].copy_from_slice(&ev.pkt_id.to_le_bytes());
    buf[9..17].copy_from_slice(&(ev.size_bytes as u64).to_le_bytes());
    buf[17..25].copy_from_slice(&ev.sojourn_ns.to_le_bytes());
    buf[25..33].copy_from_slice(&ev.t_ns.to_le_bytes());
    buf[33..41].copy_from_slice(&ev.flow.to_le_bytes());
    fnv1a64(&buf)
}

/// The per-event maps' hasher: one multiply of the `u64` key (a packet
/// id or a flow fingerprint) by an odd constant. The keys come from the
/// simulation, never from outside input, so there are no crafted
/// collisions to resist. Nothing is ever read out of these maps in
/// iteration order — digests are re-keyed into a `BTreeMap` and backlog
/// is a sum — so their order reaches no report.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type U64Map<V> = HashMap<u64, V, BuildHasherDefault<MulHasher>>;

/// Per-tap-point packet ledger.
struct Ledger {
    point: TapPoint,
    enq: u64,
    enq_bytes: u64,
    deq: u64,
    deq_bytes: u64,
    refused: u64,
    evicted: u64,
    evicted_bytes: u64,
    delivered: u64,
    /// pkt id → wire size, for packets currently inside the queue.
    outstanding: U64Map<u32>,
    /// Dequeued but not yet delivered (queue points only).
    in_transit: U64Map<u32>,
    digest: u64,
}

impl Ledger {
    fn new(point: TapPoint) -> Ledger {
        Ledger {
            point,
            enq: 0,
            enq_bytes: 0,
            deq: 0,
            deq_bytes: 0,
            refused: 0,
            evicted: 0,
            evicted_bytes: 0,
            delivered: 0,
            outstanding: U64Map::default(),
            in_transit: U64Map::default(),
            digest: 0,
        }
    }

    fn backlog_packets(&self) -> u64 {
        self.outstanding.len() as u64
    }

    fn backlog_bytes(&self) -> u64 {
        self.outstanding.values().map(|&s| s as u64).sum()
    }
}

/// Gauge cross-check state for one direction's instrumented qdisc.
#[derive(Default)]
struct GaugeTrack {
    /// Deferred gauge-vs-ledger mismatches (dropped wholesale if the
    /// direction turns out to have several links — the per-direction
    /// gauge names cannot be attributed then).
    bad: Vec<Violation>,
    /// Set when a second distinct link point appears in this direction.
    ambiguous: bool,
}

/// Per-traced-connection state.
struct FlowState {
    desc: String,
    samples: u64,
}

type PointKey = (u8, u32, u8);

fn point_key(p: TapPoint) -> PointKey {
    let kind = match p.kind {
        PointKind::Link => 0,
        PointKind::Delay => 1,
        PointKind::Loss => 2,
    };
    let dir = match p.dir {
        Dir::Up => 0,
        Dir::Down => 1,
    };
    (kind, p.index, dir)
}

fn dir_index(d: Dir) -> usize {
    match d {
        Dir::Up => 0,
        Dir::Down => 1,
    }
}

/// The bounded violation list: past [`MAX_VIOLATIONS`] only a count.
#[derive(Clone, Default)]
struct Violations {
    list: Vec<Violation>,
    dropped: u64,
}

impl Violations {
    fn push(&mut self, code: &'static str, scope: String, detail: String) {
        if self.list.len() >= MAX_VIOLATIONS {
            self.dropped += 1;
            return;
        }
        self.list.push(Violation {
            code,
            scope,
            detail,
        });
    }
}

struct State {
    load: u64,
    violations: Violations,
    /// Points are reported in key order at finish, so they stay a tree.
    points: BTreeMap<PointKey, Ledger>,
    /// Per-connection digests keyed by the packet flow fingerprint.
    conn_digests: U64Map<u64>,
    /// The single instrumented link point per direction, if unique.
    link_point: [Option<u32>; 2],
    gauges: [GaugeTrack; 2],
    counters: BTreeMap<&'static str, u64>,
    flows: Vec<FlowState>,
    /// Request path → body sizes the servers reported sending for it.
    /// Keyed by path because the two sides name resources differently:
    /// servers see the request target (`/asset/1.css`), browsers the
    /// absolute URL — and distinct origins may serve the same path.
    srv_sent: BTreeMap<String, Vec<u64>>,
    http_events: u64,
    packets: u64,
    spans: u64,
    /// The resource whose phase chain is arriving (tiling check).
    chain: Option<Chain>,
}

/// One resource's phase chain, checked as it arrives. The browser emits
/// a `Resource` span and then its phases contiguously and in time order
/// (`mm-browser`'s `emit_resource_chain`), so one open chain — verified
/// and forgotten when the next resource starts — is all the state the
/// tiling check needs, however many spans a world emits. Chains are
/// keyed by the resource span's *id* (its phases carry it as `parent`):
/// `Span::res` is a per-browser index and aliases across the users of a
/// shared world.
struct Chain {
    id: u64,
    res: u32,
    t0: u64,
    t1: u64,
    /// Where the next phase must start.
    cursor: u64,
    /// A gap or overlap was already reported for this chain.
    broken: bool,
}

impl Chain {
    /// The chain has ended (the next resource began, or the run is
    /// over): its phases must have reached the end of its span.
    fn check_end(&self, out: &mut Violations) {
        if !self.broken && self.cursor != self.t1 {
            let detail = format!(
                "phases cover [{},{}], resource span is [{},{}]",
                self.t0, self.cursor, self.t0, self.t1
            );
            out.push("span-tiling", format!("res:{}", self.res), detail);
        }
    }
}

/// Hard cap on retained violations; a systematically broken run should
/// produce a bounded report, not an unbounded allocation.
const MAX_VIOLATIONS: usize = 1024;
/// Gauge mismatches retained per direction — one is diagnostic, a
/// thousand is noise.
const MAX_GAUGE_VIOLATIONS: usize = 8;

/// The conformance auditor: one per audited page load. Clones share
/// state, so one auditor can be registered as the metrics sink, the
/// packet tap and the span sink of the same world at once.
///
/// Auditors only observe (they implement the same contracts as every
/// other sink) and never panic on bad input — anomalies become
/// [`Violation`]s in the final report.
#[derive(Clone)]
pub struct Auditor {
    inner: Rc<RefCell<State>>,
    next_span_id: Rc<Cell<u64>>,
}

impl Auditor {
    /// An auditor for one page load (the id tags report lines only; it
    /// never enters the digests).
    pub fn for_load(load: u64) -> Auditor {
        Auditor {
            inner: Rc::new(RefCell::new(State {
                load,
                violations: Violations::default(),
                points: BTreeMap::new(),
                conn_digests: U64Map::default(),
                link_point: [None, None],
                gauges: [GaugeTrack::default(), GaugeTrack::default()],
                counters: BTreeMap::new(),
                flows: Vec::new(),
                srv_sent: BTreeMap::new(),
                http_events: 0,
                packets: 0,
                spans: 0,
                chain: None,
            })),
            next_span_id: Rc::new(Cell::new(0)),
        }
    }

    /// This auditor as a TCP/qdisc metrics sink.
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle::new(self.clone())
    }

    /// This auditor as a per-packet tap.
    pub fn tap_handle(&self) -> TapHandle {
        TapHandle::new(self.clone())
    }

    /// This auditor as a causal-span sink.
    pub fn span_handle(&self) -> SpanHandle {
        SpanHandle::new(Rc::new(self.clone()))
    }

    /// Violations recorded so far (finish-time checks not included).
    pub fn violation_count(&self) -> usize {
        self.inner.borrow().violations.list.len()
    }

    /// Run the end-of-load checks (conservation, counter and gauge
    /// cross-checks, span tiling) and assemble the report. The checks
    /// report into the report's copy of the violation list, never the
    /// live one, so calling `finish` again returns the same report.
    pub fn finish(&self) -> AuditReport {
        let st = self.inner.borrow();
        let mut violations = st.violations.clone();
        st.finish_ledgers(&mut violations);
        if let Some(c) = &st.chain {
            c.check_end(&mut violations);
        }
        let mut digests = BTreeMap::new();
        for led in st.points.values() {
            digests.insert(led.point.label(), led.digest);
        }
        for (flow, hash) in &st.conn_digests {
            digests.insert(format!("conn:{flow:016x}"), *hash);
        }
        AuditReport {
            load: st.load,
            violations: violations.list,
            dropped_violations: violations.dropped,
            digests,
            packets: st.packets,
            http_events: st.http_events,
            samples: st.flows.iter().map(|f| f.samples).sum(),
            spans: st.spans,
        }
    }
}

impl State {
    fn finish_ledgers(&self, out: &mut Violations) {
        for led in self.points.values() {
            // Packet/byte conservation. With a consistent event stream
            // these hold by construction; they fail exactly when the
            // per-event checks saw untracked or duplicated ids, and
            // state the imbalance in one line.
            let accounted = led.deq + led.evicted + led.backlog_packets();
            if led.enq != accounted {
                out.push(
                    "conservation",
                    led.point.label(),
                    format!(
                        "enqueued {} != dequeued {} + evicted {} + backlog {}",
                        led.enq,
                        led.deq,
                        led.evicted,
                        led.backlog_packets()
                    ),
                );
            }
            let accounted_bytes = led.deq_bytes + led.evicted_bytes + led.backlog_bytes();
            if led.enq_bytes != accounted_bytes {
                out.push(
                    "conservation-bytes",
                    led.point.label(),
                    format!(
                        "enqueued {} B != dequeued {} B + evicted {} B + backlog {} B",
                        led.enq_bytes,
                        led.deq_bytes,
                        led.evicted_bytes,
                        led.backlog_bytes()
                    ),
                );
            }
        }
        // Qdisc cross-checks, per direction, only when exactly one link
        // point exists there (the qdisc metric names carry no index).
        for (di, track) in self.gauges.iter().enumerate() {
            if track.ambiguous {
                continue;
            }
            let Some(index) = self.link_point[di] else {
                continue;
            };
            let dir = if di == 0 { Dir::Up } else { Dir::Down };
            let key = point_key(TapPoint {
                kind: PointKind::Link,
                index,
                dir,
            });
            let Some(led) = self.points.get(&key) else {
                continue;
            };
            for v in &track.bad {
                out.push(v.code, v.scope.clone(), v.detail.clone());
            }
            let (enq_name, drop_name) = if di == 0 {
                ("qdisc_up_enqueues_total", "qdisc_up_drops_total")
            } else {
                ("qdisc_down_enqueues_total", "qdisc_down_drops_total")
            };
            // An instrumented qdisc always counts enqueues; only check
            // when one reported (the tap can run without instruments).
            if let Some(&enq_total) = self.counters.get(enq_name) {
                // The instrument counts every offer; refusals included.
                let offered = led.enq + led.refused;
                if enq_total != offered {
                    out.push(
                        "counter-enqueues-mismatch",
                        led.point.label(),
                        format!("{enq_name} {enq_total} != tap enqueue+refused {offered}"),
                    );
                }
                let drops_total = self.counters.get(drop_name).copied().unwrap_or(0);
                let dropped = led.refused + led.evicted;
                if drops_total != dropped {
                    out.push(
                        "counter-drops-mismatch",
                        led.point.label(),
                        format!("{drop_name} {drops_total} != tap drops {dropped}"),
                    );
                }
            }
        }
    }
}

impl PacketTap for Auditor {
    fn on_packet(&self, ev: &PacketEvent) {
        let mut st = self.inner.borrow_mut();
        st.packets += 1;
        let h = packet_digest(ev);
        if ev.flow != 0 {
            let d = st.conn_digests.entry(ev.flow).or_insert(0);
            *d = d.wrapping_add(h);
        }
        if ev.point.kind == PointKind::Link {
            let di = dir_index(ev.point.dir);
            match st.link_point[di] {
                None => st.link_point[di] = Some(ev.point.index),
                Some(i) if i == ev.point.index => {}
                Some(_) => {
                    // Two links in one direction: the per-direction
                    // qdisc gauges/counters cannot be attributed.
                    st.gauges[di].ambiguous = true;
                    st.gauges[di].bad.clear();
                }
            }
        }
        let led = st
            .points
            .entry(point_key(ev.point))
            .or_insert_with(|| Ledger::new(ev.point));
        led.digest = led.digest.wrapping_add(h);
        let mut bad: Option<(&'static str, String)> = None;
        match ev.kind {
            PacketEventKind::Enqueue => {
                led.enq += 1;
                led.enq_bytes += ev.size_bytes as u64;
                if led.outstanding.insert(ev.pkt_id, ev.size_bytes).is_some() {
                    bad = Some((
                        "dup-enqueue",
                        format!("pkt {} enqueued while already queued", ev.pkt_id),
                    ));
                }
            }
            PacketEventKind::Dequeue => {
                led.deq += 1;
                led.deq_bytes += ev.size_bytes as u64;
                match led.outstanding.remove(&ev.pkt_id) {
                    None => {
                        bad = Some((
                            "untracked-dequeue",
                            format!("pkt {} dequeued but never enqueued", ev.pkt_id),
                        ));
                    }
                    Some(size) if size != ev.size_bytes => {
                        bad = Some((
                            "size-mismatch",
                            format!(
                                "pkt {} enqueued at {size} B, dequeued at {} B",
                                ev.pkt_id, ev.size_bytes
                            ),
                        ));
                    }
                    Some(_) => {}
                }
                led.in_transit.insert(ev.pkt_id, ev.size_bytes);
            }
            PacketEventKind::Drop => {
                match led.outstanding.remove(&ev.pkt_id) {
                    // In-queue victim (drop-head eviction, AQM).
                    Some(size) => {
                        led.evicted += 1;
                        led.evicted_bytes += size as u64;
                    }
                    // Refused at the door (tail drop, loss shell).
                    None => led.refused += 1,
                }
            }
            PacketEventKind::Deliver => {
                led.delivered += 1;
                // Only queue points (those that enqueue) promise the
                // dequeue→deliver pairing; delay/loss shells deliver
                // directly.
                if led.enq > 0 && led.in_transit.remove(&ev.pkt_id).is_none() {
                    bad = Some((
                        "unmatched-deliver",
                        format!("pkt {} delivered but never dequeued", ev.pkt_id),
                    ));
                }
            }
        }
        if let Some((code, detail)) = bad {
            st.violations.push(code, ev.point.label(), detail);
        }
    }

    fn on_http(&self, ev: &HttpEvent) {
        let mut st = self.inner.borrow_mut();
        st.http_events += 1;
        match ev.phase {
            HttpPhase::ServerSent => {
                let path = url_path(&ev.url).to_string();
                st.srv_sent.entry(path).or_default().push(ev.bytes);
            }
            HttpPhase::Done => match st.srv_sent.get(url_path(&ev.url)) {
                None => {
                    let scope = ev.url.clone();
                    st.violations.push(
                        "http-done-unmatched",
                        scope,
                        format!("browser finished {} B but no server send seen", ev.bytes),
                    );
                }
                // Any origin having sent this exact size for this path
                // satisfies the check; a browser byte count no server
                // produced is the defect (truncated or padded body).
                Some(sent) if !sent.contains(&ev.bytes) => {
                    let detail = format!("browser finished {} B, server sent {sent:?} B", ev.bytes);
                    let scope = ev.url.clone();
                    st.violations.push("http-bytes-mismatch", scope, detail);
                }
                Some(_) => {}
            },
            _ => {}
        }
    }
}

impl MetricsSink for Auditor {
    fn counter_add(&self, name: &'static str, delta: u64) {
        let mut st = self.inner.borrow_mut();
        *st.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        let di = match name {
            "qdisc_up_backlog_now_packets" => 0,
            "qdisc_down_backlog_now_packets" => 1,
            _ => return,
        };
        let mut st = self.inner.borrow_mut();
        if st.gauges[di].ambiguous {
            return;
        }
        // The observed qdisc reports an operation's packet events
        // before its depth, so the ledger has digested the operation
        // this gauge closes.
        let ledger_backlog = st.link_point[di].and_then(|index| {
            let dir = if di == 0 { Dir::Up } else { Dir::Down };
            let key = point_key(TapPoint {
                kind: PointKind::Link,
                index,
                dir,
            });
            st.points.get(&key).map(Ledger::backlog_packets)
        });
        let track = &mut st.gauges[di];
        if let Some(backlog) = ledger_backlog {
            if value != backlog as f64 && track.bad.len() < MAX_GAUGE_VIOLATIONS {
                track.bad.push(Violation {
                    code: "gauge-ledger-mismatch",
                    scope: name.to_string(),
                    detail: format!("qdisc reported depth {value}, packet ledger holds {backlog}"),
                });
            }
        }
    }

    fn flow_open(&self, desc: &str) -> Option<u64> {
        let mut st = self.inner.borrow_mut();
        st.flows.push(FlowState {
            desc: desc.to_string(),
            samples: 0,
        });
        Some((st.flows.len() - 1) as u64)
    }

    fn flow_sample(&self, flow: u64, sample: &FlowSample) {
        let mut st = self.inner.borrow_mut();
        let State {
            flows, violations, ..
        } = &mut *st;
        let Some(fs) = flows.get_mut(flow as usize) else {
            return;
        };
        fs.samples += 1;
        // Checks report breaches only: a conforming sample copies nothing,
        // not even its flow's name.
        let mut report = |code, detail| violations.push(code, fs.desc.clone(), detail);
        if sample.snd_una > sample.snd_nxt {
            report(
                "seq-order",
                format!("snd_una {} > snd_nxt {}", sample.snd_una, sample.snd_nxt),
            );
        }
        if sample.pipe != sample.pipe_walk {
            report(
                "pipe-divergence",
                format!(
                    "incremental pipe {} != retransmission-queue walk {}",
                    sample.pipe, sample.pipe_walk
                ),
            );
        }
        // RACK's loss clock: a mark records the (sent-time, end-seq) of
        // a segment declared lost, which must predate the most recently
        // delivered segment that drives the clock.
        let mark = (sample.rack_mark_ns, sample.rack_mark_end);
        if mark != (0, 0) && mark >= (sample.rack_clock_ns, sample.rack_clock_end) {
            report(
                "rack-mark-order",
                format!(
                    "mark ({},{}) at-or-after clock ({},{})",
                    sample.rack_mark_ns,
                    sample.rack_mark_end,
                    sample.rack_clock_ns,
                    sample.rack_clock_end
                ),
            );
        }
        if sample.event == "tx" {
            // Samples tagged "tx" come only from window-gated new-data
            // bursts; loss-recovery paths with their own budgets
            // (limited transmit, TLP, PRR) are deliberately untagged.
            if sample.bytes_in_flight > sample.cwnd {
                report(
                    "cwnd-overfill",
                    format!(
                        "{} B in flight after transmit, cwnd {} B",
                        sample.bytes_in_flight, sample.cwnd
                    ),
                );
            }
            if sample.bytes_in_flight > sample.rwnd {
                report(
                    "rwnd-overfill",
                    format!(
                        "{} B in flight after transmit, peer window {} B",
                        sample.bytes_in_flight, sample.rwnd
                    ),
                );
            }
            if sample.pacing_excess > sample.mss {
                report(
                    "pacing-excess",
                    format!(
                        "released {} B ahead of the pacer clock (> 1 MSS = {} B)",
                        sample.pacing_excess, sample.mss
                    ),
                );
            }
        }
        if sample.event == "sack" {
            check_sack_blocks(
                &sample.sack_blocks,
                sample.rcv_nxt,
                sample.rwnd,
                &mut report,
            );
        }
    }
}

/// Most SACK blocks one ack may carry.
const MAX_SACK_BLOCKS: usize = 3;

/// Validate one ack's SACK blocks. The receiver reports blocks in
/// RFC 2018 most-recent-first order, so the auditor sort-normalizes
/// before the disjointness walk.
fn check_sack_blocks(
    blocks: &[(u64, u64)],
    rcv_nxt: u64,
    window: u64,
    report: &mut impl FnMut(&'static str, String),
) {
    if blocks.len() > MAX_SACK_BLOCKS {
        report(
            "sack-count",
            format!(
                "{} SACK blocks on one ack (max {MAX_SACK_BLOCKS})",
                blocks.len()
            ),
        );
    }
    // Sorted on the stack; only an ack already over the count pays
    // for a heap copy.
    let mut stack = [(0, 0); MAX_SACK_BLOCKS];
    let mut heap = Vec::new();
    let sorted: &mut [(u64, u64)] = match stack.get_mut(..blocks.len()) {
        Some(s) => {
            s.copy_from_slice(blocks);
            s
        }
        None => {
            heap.extend_from_slice(blocks);
            &mut heap
        }
    };
    sorted.sort_unstable();
    for &(start, end) in &*sorted {
        if start >= end {
            report(
                "sack-empty-block",
                format!("block [{start},{end}) is empty"),
            );
        }
        if start < rcv_nxt {
            report(
                "sack-below-ack",
                format!("block [{start},{end}) starts below rcv_nxt {rcv_nxt}"),
            );
        }
        if end > rcv_nxt.saturating_add(window) {
            report(
                "sack-beyond-window",
                format!(
                    "block [{start},{end}) ends beyond window edge {}",
                    rcv_nxt.saturating_add(window)
                ),
            );
        }
    }
    for w in sorted.windows(2) {
        if w[1].0 < w[0].1 {
            report(
                "sack-overlap",
                format!(
                    "blocks [{},{}) and [{},{}) overlap",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ),
            );
        }
    }
}

/// The path component a server request target and a browser's absolute
/// URL share: `http://host:80/asset/1.css` and `/asset/1.css` both map
/// to `/asset/1.css`. A string without a scheme is already a target; an
/// authority with no path means the root.
fn url_path(url: &str) -> &str {
    match url.find("://") {
        Some(i) => {
            let rest = &url[i + 3..];
            match rest.find('/') {
                Some(j) => &rest[j..],
                None => "/",
            }
        }
        None => url,
    }
}

impl SpanSink for Auditor {
    fn next_id(&self) -> u64 {
        let id = self.next_span_id.get() + 1;
        self.next_span_id.set(id);
        id
    }

    fn record(&self, span: Span) {
        let mut st = self.inner.borrow_mut();
        st.spans += 1;
        if span.res == NO_RESOURCE {
            return;
        }
        if span.kind == SpanKind::Resource {
            let st = &mut *st;
            if let Some(c) = &st.chain {
                c.check_end(&mut st.violations);
            }
            st.chain = Some(Chain {
                id: span.id,
                res: span.res,
                t0: span.t0_ns,
                t1: span.t1_ns,
                cursor: span.t0_ns,
                broken: false,
            });
        } else if span.kind.is_phase() {
            let detail = match &mut st.chain {
                Some(c) if c.id == span.parent => {
                    let at = std::mem::replace(&mut c.cursor, span.t1_ns);
                    // One report per chain: past a break the cursor
                    // only resynchronises.
                    let first_break = at != span.t0_ns && !c.broken;
                    c.broken |= first_break;
                    first_break.then(|| {
                        format!(
                            "phase gap/overlap: chain reached {at}, next phase is [{},{}]",
                            span.t0_ns, span.t1_ns
                        )
                    })
                }
                _ => Some(format!(
                    "phase [{},{}] of resource span {} arrived outside its chain",
                    span.t0_ns, span.t1_ns, span.parent
                )),
            };
            if let Some(detail) = detail {
                st.violations
                    .push("span-tiling", format!("res:{}", span.res), detail);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Report parsing (the `mmaudit` side).

/// One violation parsed back from report JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedViolation {
    pub load: u64,
    pub code: String,
    pub scope: String,
    pub detail: String,
}

/// An audit file parsed and aggregated across its loads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedAudit {
    pub violations: Vec<ParsedViolation>,
    /// Per-scope digests combined across loads with the same
    /// commutative fold the auditor uses, so file order is irrelevant.
    pub digests: BTreeMap<String, u64>,
    pub loads: u64,
    pub packets: u64,
    pub samples: u64,
    pub spans: u64,
    pub dropped_violations: u64,
}

/// Parse audit-report JSONL (any concatenation of per-load reports).
pub fn parse_audit_jsonl(text: &str) -> Result<ParsedAudit, String> {
    let mut out = ParsedAudit::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fail = |e: String| format!("line {}: {e}", idx + 1);
        match get_str(line, "ev").map_err(&fail)?.as_str() {
            "violation" => out.violations.push(ParsedViolation {
                load: get_u64(line, "load").map_err(&fail)?,
                code: get_str(line, "code").map_err(&fail)?,
                scope: get_str(line, "scope").map_err(&fail)?,
                detail: get_str(line, "detail").map_err(&fail)?,
            }),
            "digest" => {
                let scope = get_str(line, "scope").map_err(&fail)?;
                let hash = get_u64(line, "hash").map_err(&fail)?;
                let d = out.digests.entry(scope).or_insert(0);
                *d = d.wrapping_add(hash);
            }
            "audit_summary" => {
                out.loads += 1;
                out.packets = out
                    .packets
                    .saturating_add(get_u64(line, "packets").map_err(&fail)?);
                out.samples = out
                    .samples
                    .saturating_add(get_u64(line, "samples").map_err(&fail)?);
                out.spans = out
                    .spans
                    .saturating_add(get_u64(line, "spans").map_err(&fail)?);
                out.dropped_violations = out
                    .dropped_violations
                    .saturating_add(get_u64(line, "dropped_violations").map_err(&fail)?);
            }
            other => return Err(fail(format!("unknown event type {other:?}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> TapPoint {
        TapPoint {
            kind: PointKind::Link,
            index: 1,
            dir: Dir::Down,
        }
    }

    fn ev(kind: PacketEventKind, pkt_id: u64, t_ns: u64) -> PacketEvent {
        PacketEvent {
            t_ns,
            kind,
            point: point(),
            pkt_id,
            size_bytes: 1500,
            sojourn_ns: 0,
            flow: 0xabcd,
        }
    }

    #[test]
    fn clean_packet_lifecycle_produces_no_violations() {
        let a = Auditor::for_load(0);
        for id in 0..10 {
            a.on_packet(&ev(PacketEventKind::Enqueue, id, id * 10));
            a.on_packet(&ev(PacketEventKind::Dequeue, id, id * 10 + 5));
            a.on_packet(&ev(PacketEventKind::Deliver, id, id * 10 + 5));
        }
        let report = a.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.packets, 30);
        assert!(report.digests.contains_key("link1-down"));
        assert!(report
            .digests
            .contains_key(&format!("conn:{:016x}", 0xabcd_u64)));
    }

    #[test]
    fn digests_are_order_insensitive() {
        let forward = Auditor::for_load(0);
        let backward = Auditor::for_load(7); // load id must not matter
        let events: Vec<PacketEvent> = (0..20)
            .flat_map(|id| {
                [
                    ev(PacketEventKind::Enqueue, id, id * 10),
                    ev(PacketEventKind::Dequeue, id, id * 10 + 3),
                ]
            })
            .collect();
        for e in &events {
            forward.on_packet(e);
        }
        for e in events.iter().rev() {
            backward.on_packet(e);
        }
        assert_eq!(forward.finish().digests, backward.finish().digests);
    }

    #[test]
    fn residual_backlog_balances_conservation() {
        let a = Auditor::for_load(0);
        a.on_packet(&ev(PacketEventKind::Enqueue, 1, 10));
        a.on_packet(&ev(PacketEventKind::Enqueue, 2, 20));
        a.on_packet(&ev(PacketEventKind::Dequeue, 1, 30));
        // pkt 2 still queued at end of run: not a violation.
        let report = a.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn eviction_and_refusal_are_distinguished() {
        let a = Auditor::for_load(0);
        a.on_packet(&ev(PacketEventKind::Enqueue, 1, 10));
        a.on_packet(&ev(PacketEventKind::Drop, 1, 20)); // eviction
        a.on_packet(&ev(PacketEventKind::Drop, 2, 30)); // refusal
        assert!(a.finish().is_clean());
    }

    #[test]
    fn sack_most_recent_first_order_is_normalized() {
        let mut bad = Vec::new();
        let mut report = |code, detail| bad.push((code, detail));
        // RFC 2018 receiver order: newest block first.
        check_sack_blocks(&[(3000, 4000), (1000, 2000)], 500, 1 << 20, &mut report);
        check_sack_blocks(&[(1000, 2500), (2000, 3000)], 500, 1 << 20, &mut report);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].0, "sack-overlap");
    }

    #[test]
    fn more_blocks_than_an_ack_carries_are_still_each_checked() {
        let mut bad = Vec::new();
        let blocks = [(4000, 5000), (3000, 3000), (1000, 2000), (1500, 2500)];
        check_sack_blocks(&blocks, 500, 1 << 20, &mut |code, _| bad.push(code));
        assert_eq!(bad, ["sack-count", "sack-empty-block", "sack-overlap"]);
    }

    #[test]
    fn finish_twice_returns_the_same_report() {
        let a = Auditor::for_load(0);
        a.on_packet(&ev(PacketEventKind::Dequeue, 9, 20)); // untracked
        a.gauge_set("qdisc_down_backlog_now_packets", 5.0); // ledger holds 0
        a.record(Span {
            load: 0,
            id: 1,
            parent: 0,
            kind: SpanKind::Resource,
            t0_ns: 100,
            t1_ns: 400,
            res: 0,
            conn: 0,
            url: String::new(),
            detail: String::new(),
        }); // no phases by the end
        let first = a.finish();
        let codes: Vec<&str> = first.violations.iter().map(|v| v.code).collect();
        assert_eq!(
            codes,
            [
                "untracked-dequeue",
                "conservation",
                "conservation-bytes",
                "gauge-ledger-mismatch",
                "span-tiling"
            ]
        );
        assert_eq!(a.finish(), first);
        assert_eq!(a.violation_count(), 1);
    }

    #[test]
    fn report_jsonl_roundtrips() {
        let a = Auditor::for_load(3);
        a.on_packet(&ev(PacketEventKind::Enqueue, 1, 10));
        a.on_packet(&ev(PacketEventKind::Dequeue, 9, 20)); // untracked
        let report = a.finish();
        // The untracked dequeue, plus the packet and byte conservation
        // imbalances it causes at finish time.
        let codes: Vec<&str> = report.violations.iter().map(|v| v.code).collect();
        assert_eq!(
            codes,
            ["untracked-dequeue", "conservation", "conservation-bytes"]
        );
        let parsed = parse_audit_jsonl(&report.to_jsonl()).unwrap();
        assert_eq!(parsed.loads, 1);
        assert_eq!(parsed.violations.len(), 3);
        assert_eq!(parsed.violations[0].code, "untracked-dequeue");
        assert_eq!(parsed.violations[0].load, 3);
        let mut expect = BTreeMap::new();
        for (k, v) in &report.digests {
            expect.insert(k.clone(), *v);
        }
        assert_eq!(parsed.digests, expect);
    }

    #[test]
    fn parse_combines_digests_across_loads() {
        let a = Auditor::for_load(0);
        let b = Auditor::for_load(1);
        a.on_packet(&ev(PacketEventKind::Enqueue, 1, 10));
        b.on_packet(&ev(PacketEventKind::Enqueue, 2, 20));
        let ab = format!("{}{}", a.finish().to_jsonl(), b.finish().to_jsonl());
        let ba = format!("{}{}", b.finish().to_jsonl(), a.finish().to_jsonl());
        let pa = parse_audit_jsonl(&ab).unwrap();
        let pb = parse_audit_jsonl(&ba).unwrap();
        assert_eq!(pa.digests, pb.digests);
        assert_eq!(pa.loads, 2);
    }

    #[test]
    fn span_tiling_checked_per_resource() {
        let span = |kind, res, t0, t1| Span {
            load: 0,
            id: 0,
            parent: 0,
            kind,
            t0_ns: t0,
            t1_ns: t1,
            res,
            conn: 0,
            url: String::new(),
            detail: String::new(),
        };
        let a = Auditor::for_load(0);
        a.record(span(SpanKind::Resource, 0, 100, 400));
        a.record(span(SpanKind::Queued, 0, 100, 150));
        a.record(span(SpanKind::Transfer, 0, 150, 390));
        a.record(span(SpanKind::Parse, 0, 390, 400));
        // Resource 1 leaves a gap between phases.
        a.record(span(SpanKind::Resource, 1, 0, 300));
        a.record(span(SpanKind::Queued, 1, 0, 100));
        a.record(span(SpanKind::Transfer, 1, 120, 300));
        let report = a.finish();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].code, "span-tiling");
        assert_eq!(report.violations[0].scope, "res:1");
        assert_eq!(report.spans, 7);
    }
}
