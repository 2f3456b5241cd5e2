//! End-to-end behavior of the rate-control subsystem over emulated
//! links: BBR converges to the bottleneck rate, BBR holds a far smaller
//! standing queue than a loss-based sender in a deep buffer, and only
//! BBR paces — the mechanisms figcell's CC columns (`bbr_vs_reno_pct`
//! and its siblings) measure at page-load scale.

use bytes::Bytes;
use mm_net::{
    CcAlgorithm, Host, IpAddr, Listener, Namespace, PacketIdGen, RecoveryTier, SocketAddr,
    SocketApp, SocketEvent, TcpConfig, TcpHandle,
};
use mm_shells::{DropTail, QueueLimit, ShellLayer, ShellStack};
use mm_sim::{SimDuration, Simulator, Timestamp};
use mm_trace::constant_rate;
use std::cell::RefCell;
use std::rc::Rc;

struct Collect {
    bytes: Rc<RefCell<u64>>,
    done_at: Rc<RefCell<Option<Timestamp>>>,
    expect: u64,
}
impl SocketApp for Collect {
    fn on_event(&self, sim: &mut Simulator, _h: &TcpHandle, ev: SocketEvent) {
        if let SocketEvent::Data(b) = ev {
            let mut total = self.bytes.borrow_mut();
            *total += b.len() as u64;
            if *total >= self.expect {
                *self.done_at.borrow_mut() = Some(sim.now());
            }
        }
    }
}

struct Accept {
    bytes: Rc<RefCell<u64>>,
    done_at: Rc<RefCell<Option<Timestamp>>>,
    expect: u64,
}
impl Listener for Accept {
    fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
        Rc::new(Collect {
            bytes: self.bytes.clone(),
            done_at: self.done_at.clone(),
            expect: self.expect,
        })
    }
}

struct SendOnConnect {
    data: RefCell<Option<Bytes>>,
}
impl SocketApp for SendOnConnect {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        if matches!(ev, SocketEvent::Connected) {
            if let Some(d) = self.data.borrow_mut().take() {
                h.send(sim, d);
            }
        }
    }
}

struct World {
    sim: Simulator,
    stack: ShellStack,
    received: Rc<RefCell<u64>>,
    client: TcpHandle,
    /// Held, not used: a namespace only knows its hosts, it does not
    /// keep them.
    _hosts: [Host; 2],
}

/// A bulk upload through `mm-delay <one_way> mm-link <rate>` with the
/// given uplink queue: client inside the stack, server at the root.
fn bulk_upload(
    config: TcpConfig,
    total: usize,
    mbps: f64,
    one_way: SimDuration,
    queue: QueueLimit,
) -> World {
    let mut sim = Simulator::new();
    let root = Namespace::root("root");
    let ids = PacketIdGen::new();
    let server = Host::new_in(IpAddr::new(8, 8, 8, 8), ids.clone(), &root);
    server.set_tcp_config(config.clone());
    let received = Rc::new(RefCell::new(0u64));
    let done_at = Rc::new(RefCell::new(None));
    server.listen(
        80,
        Rc::new(Accept {
            bytes: received.clone(),
            done_at,
            expect: total as u64,
        }),
    );
    let stack = ShellStack::new(&root)
        .delay(one_way)
        .link(constant_rate(mbps, 1000), &move || {
            Box::new(DropTail::new(queue))
        });
    let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &stack.innermost());
    client.set_tcp_config(config);
    let handle = client.connect(
        &mut sim,
        SocketAddr::new(server.ip(), 80),
        Rc::new(SendOnConnect {
            data: RefCell::new(Some(Bytes::from(vec![7u8; total]))),
        }),
    );
    World {
        sim,
        stack,
        received,
        client: handle,
        _hosts: [server, client],
    }
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
    let at_2s = *w.received.borrow();
    w.sim.run_until(Timestamp::from_secs(10));
    let delta = *w.received.borrow() - at_2s;
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
        let received = *w.received.borrow();
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
                *w.received.borrow(),
                total as u64,
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
