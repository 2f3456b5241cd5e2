//! Mutation tests: inject one known defect into otherwise-correct
//! machinery and assert the auditor reports exactly the violation that
//! defect should produce — no more, no less — while the un-mutated
//! twin of each scenario audits clean. This is the evidence that the
//! checks have teeth *and* don't cry wolf.

use std::collections::VecDeque;

use bytes::Bytes;
use mm_audit::Auditor;
use mm_capture::{Dir, PacketEvent, PacketEventKind, PacketTap, PointKind, TapPoint};
use mm_metrics::{FlowSample, MetricsSink};
use mm_net::{IpAddr, Packet, SocketAddr, TcpFlags, TcpSegment};
use mm_shells::{DropTail, EnqueueResult, ObservedQdisc, Qdisc, QdiscStats, QueueLimit};
use mm_sim::Timestamp;
use mm_trace::{Span, SpanKind, SpanSink};

fn pkt(id: u64, payload: usize) -> Packet {
    Packet {
        id,
        src: SocketAddr::new(IpAddr::new(1, 1, 1, 1), 1),
        dst: SocketAddr::new(IpAddr::new(2, 2, 2, 2), 2),
        segment: TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 0,
            window: 0,
            sack: Default::default(),
            payload: Bytes::from(vec![0; payload]),
        },
        corrupted: false,
    }
}

fn t(ms: u64) -> Timestamp {
    Timestamp::from_millis(ms)
}

fn link_down() -> TapPoint {
    TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    }
}

/// Distinct violation codes in report order, deduplicated.
fn codes(report: &mm_audit::AuditReport) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for v in &report.violations {
        if !out.contains(&v.code) {
            out.push(v.code);
        }
    }
    out
}

/// The mutant: a FIFO qdisc that accepts every packet but silently
/// discards every second one — the packet is never stored, and
/// `stats.dropped` never counts it. Exactly the defect the auditor's
/// qdisc cross-checks (gauge-vs-ledger, drop-counter-vs-tap) exist to
/// catch, because the observing decorator cannot see a loss the
/// discipline refuses to admit to.
struct LeakyQdisc {
    q: VecDeque<Packet>,
    bytes: usize,
    stats: QdiscStats,
    offered: u64,
}

impl LeakyQdisc {
    fn new() -> Self {
        LeakyQdisc {
            q: VecDeque::new(),
            bytes: 0,
            stats: QdiscStats::default(),
            offered: 0,
        }
    }
}

impl Qdisc for LeakyQdisc {
    fn enqueue(&mut self, _now: Timestamp, pkt: Packet) -> EnqueueResult {
        self.offered += 1;
        self.stats.enqueued += 1;
        if self.offered.is_multiple_of(2) {
            // The defect: claim acceptance, keep nothing, count nothing.
            return EnqueueResult::Accepted;
        }
        self.bytes += pkt.wire_size();
        self.q.push_back(pkt);
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self, _now: Timestamp) -> Option<Packet> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_size();
        self.stats.dequeued += 1;
        Some(pkt)
    }

    fn peek_size(&self) -> Option<usize> {
        self.q.front().map(Packet::wire_size)
    }

    fn len_packets(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

/// Drive three enqueues then drain, through the production decorator
/// with both of its streams (packet events and instruments) feeding one
/// auditor — mirroring exactly how the harness wires a shell's queue.
fn drive(auditor: &Auditor, inner: Box<dyn Qdisc>) {
    let tap = Some(auditor.tap_handle());
    let mut q = ObservedQdisc::new(inner, link_down(), tap, Some(auditor.metrics_handle()));
    for i in 0..3u64 {
        q.enqueue(t(i), pkt(i, 1000));
    }
    for i in 0..3u64 {
        q.dequeue(t(10 + i));
    }
}

#[test]
fn silently_leaking_qdisc_trips_gauge_and_drop_counter_checks() {
    let auditor = Auditor::for_load(1);
    drive(&auditor, Box::new(LeakyQdisc::new()));
    let report = auditor.finish();
    // The leak surfaces in both cross-checks — the qdisc's depth gauge
    // disagrees with the packet ledger while the leaked packet is
    // outstanding, and at the end the tap-attributed drop (the shadow
    // FIFO pins the vanished packet) has no drop-counter counterpart —
    // and in nothing else: conservation still balances because the tap
    // accounted the victim.
    assert_eq!(
        codes(&report),
        vec!["gauge-ledger-mismatch", "counter-drops-mismatch"],
        "unexpected violation mix: {:?}",
        report.violations
    );
    assert!(report
        .violations
        .iter()
        .any(|v| v.code == "counter-drops-mismatch" && v.scope == "link1-down"));
}

#[test]
fn honest_qdisc_through_the_same_harness_audits_clean() {
    // Un-mutated twin: a DropTail that genuinely refuses its third
    // packet (and counts the refusal) produces zero violations.
    let auditor = Auditor::for_load(2);
    drive(&auditor, Box::new(DropTail::new(QueueLimit::Packets(2))));
    let report = auditor.finish();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(report.digests.contains_key("link1-down"));
    assert!(report.packets > 0);
}

#[test]
fn cwnd_overfilled_by_one_segment_is_flagged_exactly() {
    let auditor = Auditor::for_load(3);
    let flow = MetricsSink::flow_open(&auditor, "100.64.0.2:3300-10.0.0.1:80").unwrap();
    let full = FlowSample {
        event: "tx",
        cwnd: 10 * 1460,
        bytes_in_flight: 10 * 1460,
        rwnd: 1 << 30,
        mss: 1460,
        ..FlowSample::default()
    };
    // Flight exactly equal to cwnd is legal — the check is strict.
    MetricsSink::flow_sample(&auditor, flow, &full);
    assert_eq!(auditor.violation_count(), 0);
    let over = FlowSample {
        bytes_in_flight: 11 * 1460,
        ..full
    };
    MetricsSink::flow_sample(&auditor, flow, &over);
    let report = auditor.finish();
    assert_eq!(codes(&report), vec!["cwnd-overfill"]);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].scope, "100.64.0.2:3300-10.0.0.1:80");
}

/// A clean two-packet lifecycle at a link point, as raw tap events.
fn clean_stream() -> Vec<PacketEvent> {
    let ev = |kind, pkt_id, t_ns| PacketEvent {
        t_ns,
        kind,
        point: link_down(),
        pkt_id,
        size_bytes: 1040,
        sojourn_ns: 0,
        flow: 0x42,
    };
    vec![
        ev(PacketEventKind::Enqueue, 0, 1_000),
        ev(PacketEventKind::Enqueue, 1, 2_000),
        ev(PacketEventKind::Dequeue, 0, 3_000),
        ev(PacketEventKind::Dequeue, 1, 4_000),
    ]
}

#[test]
fn truncated_capture_stream_is_flagged_and_changes_the_digest() {
    let whole = Auditor::for_load(4);
    for ev in &clean_stream() {
        PacketTap::on_packet(&whole, ev);
    }
    let whole = whole.finish();
    assert!(whole.is_clean(), "violations: {:?}", whole.violations);

    // Mutation: the same stream minus its first event — a capture file
    // truncated at the head. The orphaned dequeue is called out per
    // event, and the end-of-load ledger states the resulting imbalance.
    let truncated = Auditor::for_load(4);
    for ev in &clean_stream()[1..] {
        PacketTap::on_packet(&truncated, ev);
    }
    let truncated = truncated.finish();
    assert_eq!(
        codes(&truncated),
        vec!["untracked-dequeue", "conservation", "conservation-bytes"]
    );
    // And the equivalence digest moves, so `mmaudit --compare` against
    // the intact run's report exits nonzero.
    assert_ne!(whole.digests["link1-down"], truncated.digests["link1-down"]);
    assert_ne!(
        whole.digests["conn:0000000000000042"],
        truncated.digests["conn:0000000000000042"]
    );
}

/// One resource's span and phase chain as a browser emits them: the
/// `Resource` span over `[cuts[0], cuts[last]]`, then one phase per
/// consecutive pair of `cuts`, ids drawn from the sink. `skip` removes
/// the start of one phase (the mutation: a gap in the chain).
fn emit_chain(sink: &Auditor, res: u32, cuts: &[u64], skip: u64) {
    let span = |id, parent, kind, t0_ns, t1_ns| Span {
        load: 0,
        id,
        parent,
        kind,
        t0_ns,
        t1_ns,
        res,
        conn: 0,
        url: String::new(),
        detail: String::new(),
    };
    let id = sink.next_id();
    let (first, last) = (cuts[0], cuts[cuts.len() - 1]);
    sink.record(span(id, 0, SpanKind::Resource, first, last));
    let kinds = [SpanKind::Queued, SpanKind::Transfer, SpanKind::Parse];
    for (w, kind) in cuts.windows(2).zip(kinds) {
        let t0 = if w[0] == skip { w[0] + 1 } else { w[0] };
        sink.record(span(sink.next_id(), id, kind, t0, w[1]));
    }
}

#[test]
fn two_browsers_chains_with_equal_res_tile_independently() {
    // A shared world: two users' browsers number their resources from 0
    // each, and their chains arrive interleaved through one sink. Each
    // chain tiles its own resource span; only `res` collides.
    let auditor = Auditor::for_load(5);
    for res in 0..4u32 {
        let t = 1_000 * res as u64;
        emit_chain(&auditor, res, &[t, t + 100, t + 400, t + 450], u64::MAX);
        emit_chain(&auditor, res, &[t + 7, t + 300, t + 310, t + 900], u64::MAX);
    }
    let report = auditor.finish();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.spans, 32);

    // Mutation: the same streams with a 1 ns gap in the second
    // browser's chain for resource 2 — caught, once, under its scope.
    let auditor = Auditor::for_load(5);
    for res in 0..4u32 {
        let t = 1_000 * res as u64;
        emit_chain(&auditor, res, &[t, t + 100, t + 400, t + 450], u64::MAX);
        emit_chain(&auditor, res, &[t + 7, t + 300, t + 310, t + 900], 2_300);
    }
    let report = auditor.finish();
    assert_eq!(codes(&report), vec!["span-tiling"]);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].scope, "res:2");
}

#[test]
fn tiling_is_checked_however_many_spans_a_world_emits() {
    // A soak-sized stream (> 65 536 spans) of well-tiled chains audits
    // clean in bounded memory, and a short last chain is still seen.
    let soak_sized = || {
        let auditor = Auditor::for_load(6);
        for i in 0..20_000u64 {
            let cuts = [i, i + 3, i + 9, i + 10];
            emit_chain(&auditor, (i % 50) as u32, &cuts, u64::MAX);
        }
        auditor
    };
    let auditor = soak_sized();
    let report = auditor.finish();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.spans, 80_000);

    let auditor = soak_sized();
    let id = auditor.next_id();
    auditor.record(Span {
        load: 0,
        id,
        parent: 0,
        kind: SpanKind::Resource,
        t0_ns: 5,
        t1_ns: 50,
        res: 3,
        conn: 0,
        url: String::new(),
        detail: String::new(),
    });
    let report = auditor.finish();
    assert_eq!(codes(&report), vec!["span-tiling"]);
    assert_eq!(report.violations[0].scope, "res:3");
}
