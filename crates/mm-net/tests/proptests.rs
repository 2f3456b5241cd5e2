//! Property tests: TCP delivers arbitrary byte streams intact, in order,
//! through handshake, segmentation and reassembly; the SACK scoreboard
//! keeps its structural invariants under arbitrary block/ack
//! interleavings; SACK and RACK-TLP loss recovery terminate with the
//! incremental pipe estimate equal to the definitional walk and bounded
//! by the bytes in flight; the RACK state machine keeps its
//! reordering-window and delivery-clock invariants; a SACK receiver acks
//! every arrival immediately, with blocks, while holes exist.

use bytes::Bytes;
use mm_net::tcp::pacing::Pacer;
use mm_net::tcp::rack::RackState;
use mm_net::tcp::rate::{MinRttFilter, RateEstimator};
use mm_net::tcp::sack::Scoreboard;
use mm_net::{
    CcAlgorithm, Host, IpAddr, Listener, Namespace, Packet, PacketIdGen, PacketSink, RecoveryTier,
    SackBlock, SinkRef, SocketAddr, SocketApp, SocketEvent, TcpConfig, TcpHandle,
};
use mm_sim::{SimDuration, Simulator, Timestamp};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

struct Collect {
    buf: Rc<RefCell<Vec<u8>>>,
}
impl SocketApp for Collect {
    fn on_event(&self, _sim: &mut Simulator, _h: &TcpHandle, ev: SocketEvent) {
        if let SocketEvent::Data(b) = ev {
            self.buf.borrow_mut().extend_from_slice(&b);
        }
    }
}

struct Sink {
    buf: Rc<RefCell<Vec<u8>>>,
}
impl Listener for Sink {
    fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
        Rc::new(Collect {
            buf: self.buf.clone(),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn tcp_stream_integrity(chunks in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..5000), 1..8)) {
        let mut sim = Simulator::new();
        let ns = Namespace::root("w");
        let ids = PacketIdGen::new();
        let client = Host::new_in(IpAddr::new(10, 0, 0, 1), ids.clone(), &ns);
        let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
        let received = Rc::new(RefCell::new(Vec::new()));
        server.listen(80, Rc::new(Sink { buf: received.clone() }));

        struct SendAll {
            chunks: RefCell<Vec<Vec<u8>>>,
        }
        impl SocketApp for SendAll {
            fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                if matches!(ev, SocketEvent::Connected) {
                    for c in self.chunks.borrow_mut().drain(..) {
                        h.send(sim, Bytes::from(c));
                    }
                }
            }
        }
        let expected: Vec<u8> = chunks.concat();
        client.connect(
            &mut sim,
            SocketAddr::new(server.ip(), 80),
            Rc::new(SendAll { chunks: RefCell::new(chunks) }),
        );
        sim.run();
        prop_assert_eq!(&received.borrow()[..], &expected[..]);
    }
}

/// Connect, write once on `Connected` through `write`, run to the end;
/// returns what the receiver saw as `(instant, bytes)` per delivery plus
/// the engine's event count.
fn deliveries_of(
    write: impl Fn(&mut Simulator, &TcpHandle) + 'static,
) -> (Vec<(Timestamp, usize)>, u64) {
    struct Timeline(Rc<RefCell<Vec<(Timestamp, usize)>>>);
    impl SocketApp for Timeline {
        fn on_event(&self, sim: &mut Simulator, _h: &TcpHandle, ev: SocketEvent) {
            if let SocketEvent::Data(b) = ev {
                self.0.borrow_mut().push((sim.now(), b.len()));
            }
        }
    }
    impl Listener for Timeline {
        fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
            Rc::new(Timeline(self.0.clone()))
        }
    }
    struct WriteOnce<F>(F);
    impl<F: Fn(&mut Simulator, &TcpHandle)> SocketApp for WriteOnce<F> {
        fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
            if matches!(ev, SocketEvent::Connected) {
                (self.0)(sim, h);
            }
        }
    }
    let mut sim = Simulator::new();
    let ns = Namespace::root("w");
    let ids = PacketIdGen::new();
    let client = Host::new_in(IpAddr::new(10, 0, 0, 1), ids.clone(), &ns);
    let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
    let seen = Rc::new(RefCell::new(Vec::new()));
    server.listen(80, Rc::new(Timeline(seen.clone())));
    client.connect(
        &mut sim,
        SocketAddr::new(server.ip(), 80),
        Rc::new(WriteOnce(write)),
    );
    sim.run();
    let seen = seen.borrow().clone();
    (seen, sim.events_executed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn vectored_send_is_send_of_the_concatenation(
        sizes in prop::collection::vec(0usize..4000, 1..6),
    ) {
        let chunks: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Bytes::from(vec![i as u8; n]))
            .collect();
        let whole = Bytes::from(chunks.iter().flat_map(|c| c.iter().copied()).collect::<Vec<u8>>());
        let vectored = deliveries_of(move |sim, h| h.send_vectored(sim, chunks.clone()));
        let coalesced = deliveries_of(move |sim, h| h.send(sim, whole.clone()));
        prop_assert_eq!(vectored, coalesced);
    }
}

/// One scoreboard operation: merge a SACK block or advance the
/// cumulative ack.
#[derive(Debug, Clone)]
enum SbOp {
    Add { start: u64, len: u64 },
    Advance { to: u64 },
}

fn sb_ops() -> impl Strategy<Value = Vec<SbOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..50_000, 1u64..5000).prop_map(|(start, len)| SbOp::Add { start, len }),
            (0u64..60_000).prop_map(|to| SbOp::Advance { to }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn scoreboard_ranges_sorted_disjoint_nonadjacent(ops in sb_ops()) {
        let mut sb = Scoreboard::new();
        let mut una = 0u64;
        for op in ops {
            match op {
                SbOp::Add { start, len } => {
                    sb.add_blocks(&[SackBlock::new(start, start + len)], una);
                }
                SbOp::Advance { to } => {
                    una = una.max(to);
                    sb.advance(una);
                }
            }
            // Invariants after every step: sorted, disjoint, with real
            // gaps between ranges (adjacent ranges must have merged),
            // nothing below the cumulative ack.
            let ranges = sb.ranges();
            for r in ranges {
                prop_assert!(r.start < r.end);
                prop_assert!(r.start >= una);
            }
            for w in ranges.windows(2) {
                prop_assert!(w[0].end < w[1].start,
                    "ranges {:?} not disjoint/merged", ranges);
            }
            // Byte accounting agrees with the ranges.
            let total: u64 = ranges.iter().map(|r| r.end - r.start).sum();
            prop_assert_eq!(total, sb.sacked_bytes());
        }
    }

    #[test]
    fn scoreboard_add_is_idempotent_and_monotone(ops in sb_ops()) {
        let mut sb = Scoreboard::new();
        for op in &ops {
            if let SbOp::Add { start, len } = op {
                sb.add_blocks(&[SackBlock::new(*start, start + len)], 0);
            }
        }
        let bytes = sb.sacked_bytes();
        let ranges: Vec<_> = sb.ranges().to_vec();
        // Re-adding every block changes nothing.
        for op in &ops {
            if let SbOp::Add { start, len } = op {
                let newly = sb.add_blocks(&[SackBlock::new(*start, start + len)], 0);
                prop_assert_eq!(newly, 0);
            }
        }
        prop_assert_eq!(sb.sacked_bytes(), bytes);
        prop_assert_eq!(sb.ranges(), &ranges[..]);
    }
}

/// Drops the data segments whose 0-based first-transmission index is in
/// `drops`, once each; samples the sender's pipe/flight invariant — and
/// the incremental-pipe-equals-walk invariant — on every packet it
/// forwards.
struct DropByIndex {
    next: SinkRef,
    drops: Vec<u64>,
    seen: RefCell<u64>,
    dropped_seqs: RefCell<Vec<u64>>,
    handle: RefCell<Option<TcpHandle>>,
    violations: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl PacketSink for DropByIndex {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if let Some(h) = self.handle.borrow().as_ref() {
            let pipe = h.pipe_estimate();
            let flight = h.flight_bytes();
            if pipe > flight {
                self.violations.borrow_mut().push((pipe, flight));
            }
            let walk = h.pipe_estimate_walk();
            if pipe != walk {
                self.violations.borrow_mut().push((pipe, walk));
            }
        }
        if !pkt.segment.payload.is_empty() && !self.dropped_seqs.borrow().contains(&pkt.segment.seq)
        {
            let idx = {
                let mut seen = self.seen.borrow_mut();
                let i = *seen;
                *seen += 1;
                i
            };
            if self.drops.contains(&idx) {
                self.dropped_seqs.borrow_mut().push(pkt.segment.seq);
                return;
            }
        }
        let next = self.next.clone();
        sim.schedule_in(SimDuration::from_millis(20), move |sim| {
            next.deliver(sim, pkt)
        });
    }
}

/// Shared body: transfer `total` bytes under `config` dropping data
/// segments by first-transmission index, asserting stream integrity,
/// recovery termination, and the pipe invariants sampled on every
/// packet.
fn recovery_terminates(config: TcpConfig, total: usize, drops: &[u64]) {
    let mut sim = Simulator::new();
    let ns = Namespace::root("w");
    let ids = PacketIdGen::new();
    let client = Host::new(IpAddr::new(10, 0, 0, 1), ids.clone());
    let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
    client.set_tcp_config(config.clone());
    server.set_tcp_config(config);

    let violations = Rc::new(RefCell::new(Vec::new()));
    let wire = Rc::new(DropByIndex {
        next: ns.router(),
        drops: drops.to_vec(),
        seen: RefCell::new(0),
        dropped_seqs: RefCell::new(Vec::new()),
        handle: RefCell::new(None),
        violations: violations.clone(),
    });
    ns.add_host(client.ip(), client.sink());
    client.set_egress(wire.clone());

    let received = Rc::new(RefCell::new(Vec::new()));
    server.listen(
        80,
        Rc::new(Sink {
            buf: received.clone(),
        }),
    );
    let payload: Vec<u8> = (0..total as u32).map(|i| (i % 251) as u8).collect();
    struct SendAll {
        data: RefCell<Option<Bytes>>,
    }
    impl SocketApp for SendAll {
        fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
            if matches!(ev, SocketEvent::Connected) {
                if let Some(d) = self.data.borrow_mut().take() {
                    h.send(sim, d);
                }
            }
        }
    }
    let h = client.connect(
        &mut sim,
        SocketAddr::new(server.ip(), 80),
        Rc::new(SendAll {
            data: RefCell::new(Some(Bytes::from(payload.clone()))),
        }),
    );
    *wire.handle.borrow_mut() = Some(h.clone());
    sim.run();
    // Recovery terminated: the whole stream arrived intact (the
    // simulator ran out of events, so nothing is stuck retrying).
    assert_eq!(&received.borrow()[..], &payload[..]);
    assert!(h.sack_enabled());
    assert!(
        violations.borrow().is_empty(),
        "pipe violated flight bound or walk equality: {:?}",
        violations.borrow()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sack_recovery_terminates_and_pipe_bounded(
        total in 10_000usize..120_000,
        drops in prop::collection::vec(0u64..60, 0..12),
    ) {
        recovery_terminates(
            TcpConfig::builder().recovery(RecoveryTier::Sack).build(),
            total,
            &drops,
        );
    }

    #[test]
    fn racktlp_recovery_terminates_and_pipe_bounded(
        total in 10_000usize..120_000,
        drops in prop::collection::vec(0u64..60, 0..12),
    ) {
        // Same invariants with the time-based machinery live: RACK marks,
        // TLP probes and F-RTO must never corrupt the stream, stall the
        // transfer, or desynchronize the incremental pipe. (The
        // TLP-never-fires-past-a-nearer-RTO invariant is a debug
        // assertion exercised by every one of these cases.)
        recovery_terminates(
            TcpConfig::builder().recovery(RecoveryTier::RackTlp).build(),
            total,
            &drops,
        );
    }

    #[test]
    fn bbr_paced_recovery_terminates_and_pipe_bounded(
        total in 10_000usize..120_000,
        drops in prop::collection::vec(0u64..60, 0..12),
    ) {
        // The rate-control subsystem live end to end: BBR's model, the
        // pacer's release timer, rate samples from both cumulative and
        // SACK deliveries — under arbitrary drop sets the stream must
        // still arrive intact with the pipe invariants holding on every
        // packet.
        recovery_terminates(
            TcpConfig::builder()
                .cc(CcAlgorithm::Bbr)
                .recovery(RecoveryTier::RackTlp)
                .build(),
            total,
            &drops,
        );
    }
}

/// Mirror of the receiver's reassembly state, maintained by the wires on
/// either side of the server, used to check the receiver's SACK contract
/// (RFC 2018): while holes exist, every arrival is acked before the next
/// one is taken in, and every ACK carries SACK blocks.
#[derive(Default)]
struct ReceiverModel {
    rcv_nxt: u64,
    ooo: std::collections::BTreeMap<u64, u64>,
    /// 1 while a data arrival that demanded an immediate ACK is still
    /// unacked; the next data arrival finding it set is a violation.
    pending_immediate: u32,
    /// Whether any hole ever existed (guards tests against vacuity).
    holes_seen: bool,
    violations: Vec<String>,
}

impl ReceiverModel {
    fn holes(&self) -> bool {
        !self.ooo.is_empty()
    }

    fn on_data(&mut self, seq: u64, len: u64) {
        if self.pending_immediate > 0 {
            self.violations.push(format!(
                "data at seq {seq} arrived before the previous in-hole arrival was acked"
            ));
        }
        let end = seq + len;
        if end > self.rcv_nxt {
            let start = seq.max(self.rcv_nxt);
            if start == self.rcv_nxt {
                self.rcv_nxt = end;
                // Drain contiguous out-of-order coverage.
                while let Some((&oseq, &olen)) = self.ooo.iter().next() {
                    if oseq > self.rcv_nxt {
                        break;
                    }
                    self.ooo.pop_first();
                    self.rcv_nxt = self.rcv_nxt.max(oseq + olen);
                }
            } else {
                self.ooo.entry(start).or_insert(end - start);
            }
        }
        // Any arrival while holes remain — out-of-order, duplicate, or
        // in-order below the holes — must be acked before the next data
        // segment is processed.
        self.pending_immediate = if self.holes() { 1 } else { 0 };
        self.holes_seen |= self.holes();
    }

    fn on_ack(&mut self, blocks_len: usize) {
        if self.holes() && blocks_len == 0 {
            self.violations
                .push("ACK without SACK blocks while holes exist".to_string());
        }
        self.pending_immediate = 0;
    }
}

/// Client→server wire: drops by first-transmission index, then delivers
/// after a fixed delay, updating the shared model in the same event as
/// the server's dispatch (scheduled just before it, so the ACK the
/// server emits observes the updated model).
struct ModelledDataWire {
    next: SinkRef,
    delay: SimDuration,
    drops: Vec<u64>,
    seen: RefCell<u64>,
    dropped_seqs: RefCell<Vec<u64>>,
    model: Rc<RefCell<ReceiverModel>>,
}

impl PacketSink for ModelledDataWire {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if !pkt.segment.payload.is_empty() && !self.dropped_seqs.borrow().contains(&pkt.segment.seq)
        {
            let idx = {
                let mut seen = self.seen.borrow_mut();
                let i = *seen;
                *seen += 1;
                i
            };
            if self.drops.contains(&idx) {
                self.dropped_seqs.borrow_mut().push(pkt.segment.seq);
                return;
            }
        }
        let next = self.next.clone();
        let model = self.model.clone();
        sim.schedule_in(self.delay, move |sim| {
            if !pkt.segment.payload.is_empty() {
                let (seq, len) = (pkt.segment.seq, pkt.segment.payload.len() as u64);
                let m = model.clone();
                // Runs before the host's same-timestamp dispatch of this
                // packet, and after the dispatch of every earlier one.
                sim.schedule_at(sim.now(), move |_| m.borrow_mut().on_data(seq, len));
            }
            next.deliver(sim, pkt);
        });
    }
}

/// Server→client wire: checks each ACK against the model synchronously
/// (it is invoked inside the server's dispatch, after the model update
/// for the triggering data segment), then delivers after the delay.
struct AckCheckWire {
    next: SinkRef,
    delay: SimDuration,
    model: Rc<RefCell<ReceiverModel>>,
}

impl PacketSink for AckCheckWire {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if pkt.segment.payload.is_empty() && !pkt.segment.flags.syn {
            self.model
                .borrow_mut()
                .on_ack(pkt.segment.sack.blocks.len());
        }
        let next = self.next.clone();
        sim.schedule_in(self.delay, move |sim| next.deliver(sim, pkt));
    }
}

/// Transfer at the given recovery tier under arbitrary drops, returning
/// the model's violations.
fn modelled_receiver_transfer(
    tier: RecoveryTier,
    total: usize,
    drops: &[u64],
) -> (Vec<u8>, Vec<u8>, Vec<String>, bool) {
    let mut sim = Simulator::new();
    let ns = Namespace::root("w");
    let ids = PacketIdGen::new();
    let client = Host::new(IpAddr::new(10, 0, 0, 1), ids.clone());
    let server = Host::new(IpAddr::new(10, 0, 0, 2), ids);
    let config = TcpConfig::builder().recovery(tier).build();
    client.set_tcp_config(config.clone());
    server.set_tcp_config(config);

    let model = Rc::new(RefCell::new(ReceiverModel {
        // The client's SYN consumes sequence number 0; its data stream
        // starts at 1.
        rcv_nxt: 1,
        ..ReceiverModel::default()
    }));
    let delay = SimDuration::from_millis(20);
    // Server reachable through the namespace; its ACKs flow back through
    // the checking wire straight to the client's sink.
    ns.add_host(server.ip(), server.sink());
    server.set_egress(Rc::new(AckCheckWire {
        next: client.sink(),
        delay,
        model: model.clone(),
    }));
    client.set_egress(Rc::new(ModelledDataWire {
        next: ns.router(),
        delay,
        drops: drops.to_vec(),
        seen: RefCell::new(0),
        dropped_seqs: RefCell::new(Vec::new()),
        model: model.clone(),
    }));

    let received = Rc::new(RefCell::new(Vec::new()));
    server.listen(
        80,
        Rc::new(Sink {
            buf: received.clone(),
        }),
    );
    let payload: Vec<u8> = (0..total as u32).map(|i| (i % 251) as u8).collect();
    struct SendAll {
        data: RefCell<Option<Bytes>>,
    }
    impl SocketApp for SendAll {
        fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
            if matches!(ev, SocketEvent::Connected) {
                if let Some(d) = self.data.borrow_mut().take() {
                    h.send(sim, d);
                }
            }
        }
    }
    client.connect(
        &mut sim,
        SocketAddr::new(server.ip(), 80),
        Rc::new(SendAll {
            data: RefCell::new(Some(Bytes::from(payload.clone()))),
        }),
    );
    sim.run();
    let violations = model.borrow().violations.clone();
    let holes_seen = model.borrow().holes_seen;
    let got = received.borrow().clone();
    (payload, got, violations, holes_seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sack_receiver_acks_immediately_with_blocks_while_holes(
        total in 10_000usize..100_000,
        drops in prop::collection::vec(0u64..50, 0..10),
    ) {
        let (payload, got, violations, _) =
            modelled_receiver_transfer(RecoveryTier::Sack, total, &drops);
        prop_assert_eq!(&got[..], &payload[..]);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }
}

/// Deterministic end-to-end pin of the same contract: one mid-stream
/// drop, holes provably existed, every in-hole ACK left immediately and
/// carried blocks, and the stream arrived intact.
#[test]
fn sack_receiver_single_drop_e2e() {
    let (payload, got, violations, holes_seen) =
        modelled_receiver_transfer(RecoveryTier::Sack, 60_000, &[12]);
    assert_eq!(&got[..], &payload[..]);
    assert!(holes_seen, "the dropped segment must have opened a hole");
    assert!(violations.is_empty(), "{violations:?}");
}

/// One operation against the RACK state machine.
#[derive(Debug, Clone)]
enum RackOp {
    /// A delivery observed `rtt_ms` after its transmission.
    Deliver {
        sent_ms: u64,
        end_seq: u64,
        rtt_ms: u64,
        retransmitted: bool,
    },
    /// A RACK loss mark was disproven.
    SpuriousMark,
}

fn rack_ops() -> impl Strategy<Value = Vec<RackOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..10_000, 1u64..1 << 20, 5u64..500, any::<bool>()).prop_map(
                |(sent_ms, end_seq, rtt_ms, retransmitted)| RackOp::Deliver {
                    sent_ms,
                    end_seq,
                    rtt_ms,
                    retransmitted,
                }
            ),
            Just(RackOp::SpuriousMark),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn rack_reo_window_monotone_under_fixed_min_rtt(ops in rack_ops()) {
        let mut r = RackState::new();
        // Pin min_rtt below every generated sample so the window base is
        // fixed and the adaptive multiplier's monotonicity is observable.
        r.on_delivered(Timestamp::ZERO, 1, false, Timestamp::from_millis(5));
        let mut prev = r.reo_wnd();
        for op in ops {
            match op {
                RackOp::Deliver { sent_ms, end_seq, rtt_ms, retransmitted } => {
                    let sent = Timestamp::from_millis(sent_ms);
                    r.on_delivered(sent, end_seq, retransmitted,
                        sent + SimDuration::from_millis(rtt_ms));
                }
                RackOp::SpuriousMark => r.on_spurious_mark(),
            }
            let w = r.reo_wnd();
            prop_assert!(w >= prev, "reordering window narrowed: {} -> {}", prev, w);
            prev = w;
        }
    }

    #[test]
    fn rack_never_marks_segments_sent_after_the_clock(
        ops in rack_ops(),
        probe_dt_ms in 0u64..100_000,
        probe_end in 1u64..1 << 20,
        now_ms in 0u64..1_000_000,
    ) {
        let mut r = RackState::new();
        for op in ops {
            match op {
                RackOp::Deliver { sent_ms, end_seq, rtt_ms, retransmitted } => {
                    let sent = Timestamp::from_millis(sent_ms);
                    r.on_delivered(sent, end_seq, retransmitted,
                        sent + SimDuration::from_millis(rtt_ms));
                }
                RackOp::SpuriousMark => r.on_spurious_mark(),
            }
            // Whatever the history, nothing transmitted at or after the
            // delivery clock is ever deemed lost, at any observation
            // time: it has had no chance to be overtaken.
            if let Some((clock_ts, clock_end)) = r.clock() {
                let later = clock_ts + SimDuration::from_millis(probe_dt_ms);
                let now = Timestamp::from_millis(now_ms);
                prop_assert!(!r.is_lost(later + SimDuration::from_nanos(1), probe_end, now));
                prop_assert!(!r.is_lost(clock_ts, clock_end + probe_end, now));
            }
        }
    }
}

/// One sender burst in the fixed-rate-world rate-sample property: wait
/// `gap_ms`, then hand `burst` segments to the link queue at once.
#[derive(Debug, Clone)]
struct Burst {
    gap_ms: u64,
    burst: usize,
}

fn bursts() -> impl Strategy<Value = Vec<Burst>> {
    prop::collection::vec(
        (0u64..80, 1usize..16).prop_map(|(gap_ms, burst)| Burst { gap_ms, burst }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Delivery-rate samples in a fixed-rate world never exceed the
    /// link rate, no matter how the sender bursts: the max(send-elapsed,
    /// ack-elapsed) interval rule is exactly what prevents a burst from
    /// reading as bandwidth. (Samples are u64 — "never negative" holds
    /// by construction; the substantive bound is the link rate.)
    #[test]
    fn rate_samples_bounded_by_fixed_link_rate(sends in bursts()) {
        const SEG: u64 = 1000;
        const GAP_MS: u64 = 10; // one segment per 10 ms = 100 kB/s
        const RATE: u64 = SEG * 1000 / GAP_MS;
        let mut e = RateEstimator::new();
        // FIFO of segments on the wire: (stamped record, send time).
        let mut wire: std::collections::VecDeque<(mm_net::tcp::rate::TxRecord, Timestamp)> =
            std::collections::VecDeque::new();
        let mut now = Timestamp::ZERO;
        // The link's next free delivery slot.
        let mut next_slot = Timestamp::ZERO;
        for b in sends {
            now += SimDuration::from_millis(b.gap_ms);
            // Deliver everything whose slot has passed. Store-and-forward:
            // every segment, including one meeting an idle link, takes a
            // full serialization interval — the property is a statement
            // about links that actually rate-limit, and a zero-cost first
            // hop would legitimately deliver two segments within one gap.
            while let Some(&(rec, sent_at)) = wire.front() {
                let slot = next_slot.max(sent_at) + SimDuration::from_millis(GAP_MS);
                if slot > now {
                    break;
                }
                wire.pop_front();
                next_slot = slot;
                e.on_delivery(SEG, slot);
                if let Some(s) = e.sample(&rec, sent_at, slot) {
                    // +1 absorbs integer rounding in the division.
                    prop_assert!(
                        s.bw <= RATE + 1,
                        "sample {} exceeds link rate {}",
                        s.bw,
                        RATE
                    );
                }
            }
            for _ in 0..b.burst {
                let rec = e.on_send(now, wire.is_empty());
                wire.push_back((rec, now));
            }
        }
    }

    /// The pacer's release schedule is a hard rate bound: over any
    /// horizon, released bytes never exceed rate × elapsed plus the one
    /// immediately-released segment, however erratically the sender
    /// polls.
    #[test]
    fn pacer_releases_bounded_by_rate(
        polls in prop::collection::vec(1u64..20_000, 1..120),
        rate in 10_000u64..10_000_000,
        seg in 100u64..1500,
    ) {
        let mut p = Pacer::new();
        let mut sent = 0u64;
        let mut now_ns = 0u64;
        for dt_us in polls {
            now_ns += dt_us * 1000;
            let now = Timestamp::from_nanos(now_ns);
            while p.can_send(now) {
                p.on_sent(now, seg, rate);
                sent += seg;
            }
            let budget = (rate as u128 * now_ns as u128 / 1_000_000_000) as u64 + seg;
            prop_assert!(
                sent <= budget,
                "released {} > budget {} at t={}ns",
                sent,
                budget,
                now_ns
            );
        }
    }

    /// The windowed min-RTT filter equals a brute-force oracle after
    /// every update, and is monotone non-increasing between expiries:
    /// within a window, new samples can only lower (or hold) the
    /// minimum.
    #[test]
    fn min_rtt_filter_matches_oracle_and_is_monotone_within_window(
        samples in prop::collection::vec((0u64..3000, 1u64..500), 1..80),
    ) {
        const WINDOW_MS: u64 = 5000;
        let mut f = MinRttFilter::new(SimDuration::from_millis(WINDOW_MS));
        let mut oracle: Vec<(u64, u64)> = Vec::new(); // (time ms, rtt ms)
        let mut now_ms = 0u64;
        let mut prev_min: Option<u64> = None;
        for (dt_ms, rtt_ms) in samples {
            now_ms += dt_ms;
            let expired = oracle
                .iter()
                .any(|&(t, _)| now_ms.saturating_sub(t) > WINDOW_MS);
            oracle.retain(|&(t, _)| now_ms.saturating_sub(t) <= WINDOW_MS);
            oracle.push((now_ms, rtt_ms));
            f.update(SimDuration::from_millis(rtt_ms), Timestamp::from_millis(now_ms));
            let min = oracle.iter().map(|&(_, r)| r).min().unwrap();
            prop_assert_eq!(f.min(), Some(SimDuration::from_millis(min)));
            if let Some(prev) = prev_min {
                if !expired {
                    prop_assert!(
                        min <= prev,
                        "minimum rose from {} to {} with nothing expired",
                        prev,
                        min
                    );
                }
            }
            prev_min = Some(min);
        }
    }
}

/// Every new-data transmission is window-gated *before* the pacer sees
/// it, so pacing can delay — never expand — what cwnd permits: on a
/// clean paced BBR transfer, flight ≤ cwnd holds at every forwarded
/// packet.
struct FlightVsCwnd {
    next: SinkRef,
    delay: SimDuration,
    handle: RefCell<Option<TcpHandle>>,
    violations: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl PacketSink for FlightVsCwnd {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if let Some(h) = self.handle.borrow().as_ref() {
            let (flight, cwnd) = (h.flight_bytes(), h.cwnd());
            if flight > cwnd {
                self.violations.borrow_mut().push((flight, cwnd));
            }
        }
        let next = self.next.clone();
        sim.schedule_in(self.delay, move |sim| next.deliver(sim, pkt));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn paced_flight_never_exceeds_cwnd(
        total in 5_000usize..200_000,
        delay_ms in 1u64..60,
    ) {
        let mut sim = Simulator::new();
        let ns = Namespace::root("w");
        let ids = PacketIdGen::new();
        let client = Host::new(IpAddr::new(10, 0, 0, 1), ids.clone());
        let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
        let config = TcpConfig::builder()
            .cc(CcAlgorithm::Bbr)
            .recovery(RecoveryTier::RackTlp)
            .build();
        client.set_tcp_config(config.clone());
        server.set_tcp_config(config);
        let violations = Rc::new(RefCell::new(Vec::new()));
        let wire = Rc::new(FlightVsCwnd {
            next: ns.router(),
            delay: SimDuration::from_millis(delay_ms),
            handle: RefCell::new(None),
            violations: violations.clone(),
        });
        ns.add_host(client.ip(), client.sink());
        client.set_egress(wire.clone());
        let received = Rc::new(RefCell::new(Vec::new()));
        server.listen(80, Rc::new(Sink { buf: received.clone() }));
        let payload: Vec<u8> = (0..total as u32).map(|i| (i % 251) as u8).collect();
        struct SendAll {
            data: RefCell<Option<Bytes>>,
        }
        impl SocketApp for SendAll {
            fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                if matches!(ev, SocketEvent::Connected) {
                    if let Some(d) = self.data.borrow_mut().take() {
                        h.send(sim, d);
                    }
                }
            }
        }
        let h = client.connect(
            &mut sim,
            SocketAddr::new(server.ip(), 80),
            Rc::new(SendAll { data: RefCell::new(Some(Bytes::from(payload.clone()))) }),
        );
        *wire.handle.borrow_mut() = Some(h.clone());
        sim.run();
        prop_assert_eq!(&received.borrow()[..], &payload[..]);
        prop_assert!(
            violations.borrow().is_empty(),
            "flight exceeded cwnd on a clean paced transfer: {:?}",
            violations.borrow()
        );
    }
}
