//! End-to-end behavior of the rate-control subsystem over emulated
//! links: BBR converges to the bottleneck rate, BBR holds a far smaller
//! standing queue than a loss-based sender in a deep buffer, and only
//! BBR paces — the mechanisms figcell's CC columns (`bbr_vs_reno_pct`
//! and its siblings) measure at page-load scale.

use mm_net::{CcAlgorithm, FnSink, Packet, RecoveryTier, SinkRef, TcpConfig};
use mm_shells::transfer::{Transfer, TransferSpec};
use mm_shells::{DropTail, QueueLimit, ShellLayer, ShellStack};
use mm_sim::{SimDuration, Simulator, Timestamp};
use mm_trace::constant_rate;
use std::cell::RefCell;
use std::rc::Rc;

/// A bulk upload through `mm-delay <one_way> mm-link <rate>` with the
/// given uplink queue: client inside the stack, server at the root.
fn bulk_upload(
    config: TcpConfig,
    total: usize,
    mbps: f64,
    one_way: SimDuration,
    queue: QueueLimit,
) -> Transfer {
    bulk_upload_through(config, total, mbps, one_way, queue, |stack| stack)
}

/// [`bulk_upload`] with the client's packets sent to what `egress`
/// wraps around the stack's innermost router.
fn bulk_upload_through(
    config: TcpConfig,
    total: usize,
    mbps: f64,
    one_way: SimDuration,
    queue: QueueLimit,
    egress: impl FnOnce(SinkRef) -> SinkRef,
) -> Transfer {
    let spec = TransferSpec {
        tcp: config,
        bytes: total,
    };
    let shells = |stack: ShellStack| {
        stack
            .delay(one_way)
            .link(constant_rate(mbps, 1000), &move || {
                Box::new(DropTail::new(queue))
            })
    };
    Transfer::through(&spec, shells, egress)
}

fn uplink_max_backlog(stack: &ShellStack) -> usize {
    stack
        .layers()
        .iter()
        .find_map(|l| match l {
            ShellLayer::Link(s) => Some(s.uplink.qdisc_stats().max_backlog_packets),
            _ => None,
        })
        .expect("stack has a link layer")
}

fn bbr_config() -> TcpConfig {
    TcpConfig::builder()
        .cc(CcAlgorithm::Bbr)
        .recovery(RecoveryTier::RackTlp)
        .build()
}

/// The issue's convergence criterion: on a clean 14 Mbit/s / 120 ms RTT
/// link, BBR reaches ≥ 90% of the link rate within 10 s (measured over
/// the 2 s → 10 s window, past startup).
#[test]
fn bbr_converges_to_link_rate() {
    let mut w = bulk_upload(
        bbr_config(),
        25 << 20, // more than 10 s of capacity
        14.0,
        SimDuration::from_millis(60),
        QueueLimit::Infinite,
    );
    w.sim.run_until(Timestamp::from_secs(2));
    let at_2s = w.received() as u64;
    w.sim.run_until(Timestamp::from_secs(10));
    let delta = w.received() as u64 - at_2s;
    // 90% of the 14 Mbit/s *wire* rate over 8 s (payload goodput is
    // ~97.3% of wire, so this demands ≥ 92.5% utilization).
    let floor = (0.9 * 14e6 / 8.0 * 8.0) as u64;
    assert!(
        delta >= floor,
        "BBR delivered {delta} B in 8 s; need ≥ {floor}"
    );
    // And the model converged to the truth: bandwidth estimate within
    // 15% of the link, min-RTT within a few ms of the propagation RTT.
    let bw = w.client.delivery_rate().expect("bw estimate exists");
    assert!(
        (bw as f64) > 0.85 * 14e6 / 8.0 && (bw as f64) < 1.15 * 14e6 / 8.0,
        "bw estimate {bw} B/s vs link 1.75e6"
    );
    let min_rtt = w.client.min_rtt_estimate().expect("min rtt exists");
    assert!(
        min_rtt >= SimDuration::from_millis(120) && min_rtt <= SimDuration::from_millis(135),
        "min rtt {min_rtt}"
    );
    assert!(
        w.client.stats().pacing_waits > 0,
        "the pacer must actually have spaced transmissions"
    );
}

/// The bufferbloat criterion: under a deep droptail buffer (256
/// packets), a loss-based sender fills the whole queue before it backs
/// off; BBR's standing queue stays bounded by its inflight cap
/// (cwnd_gain × BDP), far below the buffer.
#[test]
fn bbr_standing_queue_below_reno_in_deep_buffer() {
    let reno = TcpConfig::builder()
        .cc(CcAlgorithm::Reno)
        .recovery(RecoveryTier::RackTlp)
        .build();
    let run = |config: TcpConfig| {
        let mut w = bulk_upload(
            config,
            12 << 20,
            10.0,
            SimDuration::from_millis(20),
            QueueLimit::Packets(256),
        );
        w.sim.run_until(Timestamp::from_secs(5));
        let received = w.received() as u64;
        (uplink_max_backlog(&w.stack), received)
    };
    let (reno_queue, reno_bytes) = run(reno);
    let (bbr_queue, bbr_bytes) = run(bbr_config());
    assert_eq!(
        reno_queue, 256,
        "a loss-based sender must fill the deep buffer"
    );
    assert!(
        bbr_queue < reno_queue / 2,
        "BBR standing queue {bbr_queue} vs Reno {reno_queue}"
    );
    // The short queue must not cost meaningful throughput.
    assert!(
        bbr_bytes as f64 >= reno_bytes as f64 * 0.9,
        "BBR delivered {bbr_bytes} vs Reno {reno_bytes}"
    );
}

/// A socket paces exactly when its controller models a rate: the
/// loss-based controllers have none, so through a clean link and a
/// shallow lossy buffer alike they burst the window, the pacer never
/// holds a segment back, and every byte still arrives.
#[test]
fn loss_based_controllers_never_pace() {
    for cc in [CcAlgorithm::Reno, CcAlgorithm::Cubic] {
        for queue in [QueueLimit::Infinite, QueueLimit::Packets(32)] {
            let total = 2 << 20;
            let config = TcpConfig::builder()
                .cc(cc)
                .recovery(RecoveryTier::RackTlp)
                .build();
            let mut w = bulk_upload(config, total, 10.0, SimDuration::from_millis(20), queue);
            w.sim.run();
            assert_eq!(
                w.received(),
                total,
                "{cc:?} under {queue:?}: transfer completes intact"
            );
            assert_eq!(
                w.client.stats().pacing_waits,
                0,
                "{cc:?} under {queue:?}: a loss-based controller never paces"
            );
        }
    }
}

/// ROADMAP item 2(e): a sender whose window has less than one MSS free
/// sends what fits, so CUBIC's byte-granular window dribbles runts — the
/// stack has no sender-side silly-window avoidance (RFC 1122 §4.2.3.4),
/// where Linux counts cwnd in whole packets. Fails until that is fixed.
#[test]
#[ignore = "ROADMAP item 2(e)"]
fn cubic_bulk_upload_sends_no_runt_segments() {
    let total = 4_000_000;
    let config = TcpConfig::builder()
        .cc(CcAlgorithm::Cubic)
        .recovery(RecoveryTier::Sack)
        .build();
    // Every data segment the client sends: (sequence end, payload).
    let sent = Rc::new(RefCell::new(Vec::new()));
    let log = sent.clone();
    let mut w = bulk_upload_through(
        config,
        total,
        8.0,
        SimDuration::from_millis(40),
        QueueLimit::Packets(32),
        move |stack| {
            FnSink::new(move |sim: &mut Simulator, p: Packet| {
                let len = p.segment.payload.len();
                if len > 0 {
                    log.borrow_mut().push((p.segment.seq + len as u64, len));
                }
                stack.deliver(sim, p);
            })
        },
    );
    w.sim.run();
    assert_eq!(w.received(), total);
    let sent = sent.borrow();
    let end = sent
        .iter()
        .map(|&(end, _)| end)
        .max()
        .expect("data was sent");
    let runts = sent
        .iter()
        .filter(|&&(seq_end, len)| len < 100 && seq_end != end)
        .count();
    assert_eq!(
        runts,
        0,
        "{runts} of {} data segments under 100 B",
        sent.len()
    );
}
