//! End-to-end RACK-TLP and F-RTO behavior: pure tail loss recovers via a
//! Tail Loss Probe without waiting out the RTO, and a spurious
//! retransmission timeout (delay, not loss) is detected and undone —
//! congestion window restored, RTO backoff dropped. These are the two
//! mechanisms figcell's RACK-TLP columns (`racktlp_speedup_pct`,
//! `racktlp_vs_sack_pct`) measure at page-load scale.

mod common;

use bytes::Bytes;
use common::{hosts, scripted_upload};
use mm_net::{
    Packet, PacketSink, RecoveryTier, SinkRef, SocketApp, SocketEvent, TcpConfig, TcpHandle,
};
use mm_shells::transfer::{payload, upload, Sender};
use mm_sim::{SimDuration, Simulator, Timestamp};
use std::cell::RefCell;
use std::rc::Rc;

/// A delay wire that additionally *stalls*: packets entering during
/// `[stall_from, stall_until)` are released, order preserved, no earlier
/// than `stall_until` plus the delay — pure added delay, zero loss. The
/// release floor is monotone so FIFO order survives. It also samples the
/// sender's (timeouts, spurious_rtos, cwnd, rto) on every packet it
/// carries, giving the test a timeline to assert the F-RTO undo against.
/// One per-packet sender observation: (timeouts, spurious_rtos, cwnd,
/// current rto).
type SenderSample = (u64, u64, u64, SimDuration);

struct StallWire {
    next: SinkRef,
    delay: SimDuration,
    stall_from: Timestamp,
    stall_until: Timestamp,
    handle: RefCell<Option<TcpHandle>>,
    samples: Rc<RefCell<Vec<SenderSample>>>,
}

impl PacketSink for StallWire {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if let Some(h) = self.handle.borrow().as_ref() {
            let s = h.stats();
            self.samples.borrow_mut().push((
                s.timeouts,
                s.spurious_rtos,
                h.cwnd(),
                h.current_rto(),
            ));
        }
        let now = sim.now();
        let release = if now >= self.stall_from && now < self.stall_until {
            self.stall_until + self.delay
        } else {
            now + self.delay
        };
        let next = self.next.clone();
        sim.schedule_at(release, move |sim| next.deliver(sim, pkt));
    }
}

/// Writes its payload on `Connected` and never closes. The tail-loss
/// tests drop the last data segments; with a FIN riding them (the shared
/// `Sender` closes) `tail_burst_recovered_by_probe_plus_rack_marks`
/// reads two timeouts, not zero.
struct SendOnConnect(Bytes);

impl SocketApp for SendOnConnect {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        if let SocketEvent::Connected = ev {
            h.send(sim, self.0.clone());
        }
    }
}

const RTT_MS: u64 = 80;

/// Transfer `total` bytes at the given recovery tier over `2 * one_way`
/// RTT, dropping data segments `[drop_from, drop_to)` once. Returns
/// (completion time, client-side stats).
fn tail_loss_transfer(
    tier: RecoveryTier,
    total: usize,
    one_way: SimDuration,
    drop_from: u64,
    drop_to: u64,
) -> (Timestamp, mm_net::TcpStats) {
    tail_loss_transfer_cfg(
        tier,
        TcpConfig::default().min_rto,
        total,
        one_way,
        drop_from,
        drop_to,
    )
}

fn tail_loss_transfer_cfg(
    tier: RecoveryTier,
    min_rto: SimDuration,
    total: usize,
    one_way: SimDuration,
    drop_from: u64,
    drop_to: u64,
) -> (Timestamp, mm_net::TcpStats) {
    tail_loss_transfer_with(
        TcpConfig::builder().recovery(tier).min_rto(min_rto).build(),
        total,
        one_way,
        drop_from,
        drop_to,
    )
}

/// Same transfer with an explicit sender-side TCP config (the server
/// runs the config minus any metrics sink, so exported counters are
/// sender events only).
fn tail_loss_transfer_with(
    client_cfg: TcpConfig,
    total: usize,
    one_way: SimDuration,
    drop_from: u64,
    drop_to: u64,
) -> (Timestamp, mm_net::TcpStats) {
    let server_cfg = {
        let mut c = client_cfg.clone();
        c.metrics = None;
        c
    };
    let sender = |data| Rc::new(SendOnConnect(data));
    scripted_upload(
        sender, client_cfg, server_cfg, total, one_way, drop_from, drop_to,
    )
}

/// 60 KB is 42 MSS segments; the last data segment has index 41.
const SEGS_60K: u64 = 42;

#[test]
fn tail_loss_recovered_by_tlp_without_rto() {
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    // Drop only the final data segment: pure tail loss, invisible to the
    // scoreboard (nothing sent after it to generate SACKs).
    let (with_rack, rack_stats) = tail_loss_transfer(
        RecoveryTier::RackTlp,
        60_000,
        one_way,
        SEGS_60K - 1,
        SEGS_60K,
    );
    let (with_sack, sack_stats) =
        tail_loss_transfer(RecoveryTier::Sack, 60_000, one_way, SEGS_60K - 1, SEGS_60K);

    // SACK alone has no answer but the RTO (RFC 6675 §5.1 route).
    assert!(sack_stats.timeouts >= 1, "{sack_stats:?}");
    // RACK-TLP probes the tail after ~2 RTT instead.
    assert_eq!(rack_stats.timeouts, 0, "{rack_stats:?}");
    assert!(rack_stats.tlp_probes >= 1, "{rack_stats:?}");
    assert!(
        with_rack < with_sack,
        "TLP should beat the RTO: rack {with_rack} vs sack {with_sack}"
    );
}

#[test]
fn tail_burst_recovered_by_probe_plus_rack_marks() {
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    // Drop the last three data segments. The probe retransmits the very
    // tail; its SACK advances RACK's delivery clock past the two other
    // holes, which are then marked lost by time and repaired — all
    // without an RTO.
    let (_, rack_stats) = tail_loss_transfer(
        RecoveryTier::RackTlp,
        60_000,
        one_way,
        SEGS_60K - 3,
        SEGS_60K,
    );
    assert_eq!(rack_stats.timeouts, 0, "{rack_stats:?}");
    assert!(rack_stats.tlp_probes >= 1, "{rack_stats:?}");
    assert!(rack_stats.rack_loss_marks >= 2, "{rack_stats:?}");
}

/// The same tail burst from the shared closing `Sender`: the FIN rides
/// the last dropped segment. It should recover as the non-closing run
/// does, with one probe and RACK marks and no timeout; it reads two
/// timeouts, two probes and no marks (ROADMAP item 2(g)).
#[test]
#[ignore = "ROADMAP item 2"]
fn tail_burst_with_a_fin_recovered_by_probe_plus_rack_marks() {
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    let config = TcpConfig::builder().recovery(RecoveryTier::RackTlp).build();
    let (_, stats) = scripted_upload(
        Sender::new,
        config.clone(),
        config,
        60_000,
        one_way,
        SEGS_60K - 3,
        SEGS_60K,
    );
    assert_eq!(
        (stats.timeouts, stats.tlp_probes),
        (0, 1),
        "(timeouts, probes): {stats:?}"
    );
    assert!(stats.rack_loss_marks > 0, "{stats:?}");
}

#[test]
fn tlp_fire_counter_matches_exactly_one_probe() {
    // The pure-tail-loss scenario fires exactly one Tail Loss Probe and
    // no RTO; a registry sink on the sender must report exactly that —
    // one `tcp_tlp_fires_total`, zero `tcp_rto_total` — in agreement
    // with the socket's own stats.
    use mm_metrics::{MetricsHandle, Registry, RegistrySink};
    let registry = Registry::new();
    let sink = MetricsHandle::new(RegistrySink::new(registry.clone()));
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    let (_, stats) = tail_loss_transfer_with(
        TcpConfig::builder()
            .recovery(RecoveryTier::RackTlp)
            .metrics(sink)
            .build(),
        60_000,
        one_way,
        SEGS_60K - 1,
        SEGS_60K,
    );
    assert_eq!(stats.tlp_probes, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    let counter = |name: &str| registry.counter(name, "").get();
    assert_eq!(counter("tcp_tlp_fires_total"), 1);
    assert_eq!(counter("tcp_rto_total"), 0);
    assert_eq!(counter("tcp_retransmits_total"), stats.retransmissions);
}

#[test]
fn spurious_undo_counter_matches_frto_verdict() {
    // The delay-spike (no loss) scenario: the one RTO that fires is
    // declared spurious by F-RTO exactly once, and the counters agree
    // with the stats — `tcp_rto_total` counts the timeout,
    // `tcp_spurious_rto_undo_total` counts the undo.
    use mm_metrics::{MetricsHandle, Registry, RegistrySink};
    let registry = Registry::new();
    let sink = MetricsHandle::new(RegistrySink::new(registry.clone()));
    let (_, stats, _) = stalled_transfer_with(
        TcpConfig::builder()
            .recovery(RecoveryTier::RackTlp)
            .metrics(sink)
            .build(),
    );
    assert!(stats.timeouts >= 1, "{stats:?}");
    assert_eq!(stats.spurious_rtos, 1, "{stats:?}");
    let counter = |name: &str| registry.counter(name, "").get();
    assert_eq!(counter("tcp_rto_total"), stats.timeouts);
    assert_eq!(counter("tcp_spurious_rto_undo_total"), 1);
}

#[test]
fn tlp_defers_to_a_nearer_rto() {
    // With a tiny min_rto the steady-state RTO (srtt + min_rto) drops
    // below the probe timeout (2·srtt + slack), so the TLP must never be
    // armed — the tail loss is the RTO's to handle. (The converse — that
    // a fired TLP always beat any armed RTO — is a debug assertion that
    // every test in this suite exercises.)
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    let (_, stats) = tail_loss_transfer_cfg(
        RecoveryTier::RackTlp,
        SimDuration::from_millis(10),
        60_000,
        one_way,
        SEGS_60K - 1,
        SEGS_60K,
    );
    assert_eq!(stats.tlp_probes, 0, "{stats:?}");
    assert!(stats.timeouts >= 1, "{stats:?}");
}

/// Transfer with a mid-flight stall (delay spike, no loss). Returns
/// (completion time, stats, per-packet sender samples).
fn stalled_transfer(tier: RecoveryTier) -> (Timestamp, mm_net::TcpStats, Vec<SenderSample>) {
    stalled_transfer_with(TcpConfig::builder().recovery(tier).build())
}

fn stalled_transfer_with(
    client_cfg: TcpConfig,
) -> (Timestamp, mm_net::TcpStats, Vec<SenderSample>) {
    let one_way = SimDuration::from_millis(20);
    let total = 1_000_000usize;
    let mut sim = Simulator::new();
    let server_cfg = {
        let mut c = client_cfg.clone();
        c.metrics = None;
        c
    };
    let (client, server, ns) = hosts(client_cfg, server_cfg, one_way);
    let samples = Rc::new(RefCell::new(Vec::new()));
    let wire = Rc::new(StallWire {
        next: ns.router(),
        delay: one_way,
        // The stall must open after the first slow-start waves (so an RTT
        // estimate exists) and close after exactly one RTO has fired
        // (~srtt + min_rto past the last ack) but before its backed-off
        // successor (RFC 5682 applies F-RTO to the first timeout only).
        stall_from: Timestamp::from_millis(200),
        stall_until: Timestamp::from_millis(800),
        handle: RefCell::new(None),
        samples: samples.clone(),
    });
    client.set_egress(wire.clone());

    let (h, receiver) = upload(&mut sim, &client, &server, 80, payload(total));
    *wire.handle.borrow_mut() = Some(h.clone());
    sim.run();
    assert!(receiver.intact(), "stream corrupted");
    let finished = receiver.last_data().expect("transfer never completed");
    let s = samples.borrow().clone();
    (finished, h.stats(), s)
}

#[test]
fn spurious_rto_detected_and_undone() {
    let (with_rack, rack_stats, samples) = stalled_transfer(RecoveryTier::RackTlp);
    let (with_sack, sack_stats, _) = stalled_transfer(RecoveryTier::Sack);

    // The stall delays — never drops — packets, so the timeout it causes
    // is spurious. F-RTO must say so, exactly once.
    assert!(rack_stats.timeouts >= 1, "{rack_stats:?}");
    assert_eq!(rack_stats.spurious_rtos, 1, "{rack_stats:?}");
    assert_eq!(sack_stats.spurious_rtos, 0, "no F-RTO below RackTlp");

    // Timeline assertions from the per-packet samples: the undo restored
    // the pre-timeout congestion window and dropped the RTO backoff.
    let pre_timeout_cwnd = samples
        .iter()
        .filter(|s| s.0 == 0)
        .map(|s| s.2)
        .max()
        .expect("samples before the timeout");
    let during = samples
        .iter()
        .find(|s| s.0 >= 1 && s.1 == 0)
        .expect("samples between timeout and verdict");
    let after = samples
        .iter()
        .find(|s| s.1 >= 1)
        .expect("samples after the spurious verdict");
    assert!(
        during.2 < pre_timeout_cwnd,
        "timeout must first collapse cwnd: {} vs {}",
        during.2,
        pre_timeout_cwnd
    );
    assert!(
        after.2 >= pre_timeout_cwnd,
        "undo must restore cwnd: {} vs {}",
        after.2,
        pre_timeout_cwnd
    );
    // The exponential backoff is dropped: post-verdict the RTO is
    // recomputed from the estimator. (The first recomputation can sit
    // above the old backed-off value because the delayed originals just
    // fed the estimator genuine 600 ms samples — but with the backoff
    // multiplier gone it falls back below it as the variance decays,
    // which a still-backed-off timer never could without another ack.)
    assert!(
        samples.iter().any(|s| s.1 >= 1 && s.3 < during.3),
        "undo must shed the backed-off RTO: backed-off {}",
        during.3
    );

    // And the undo is worth real time: the collapsed-window SACK run
    // cannot beat the restored-window RACK run.
    assert!(
        with_rack <= with_sack,
        "spurious-RTO undo should not lose: rack {with_rack} vs sack {with_sack}"
    );
}
