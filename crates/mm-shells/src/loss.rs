//! LossShell: independent (Bernoulli) packet loss per direction, the
//! equivalent of mahimahi's `mm-loss <uplink|downlink> <rate>`.

use std::cell::RefCell;
use std::rc::Rc;

use mm_capture::{PacketEvent, PacketEventKind, TapHandle, TapPoint};
use mm_net::{Namespace, Packet, PacketSink, SinkRef};
use mm_sim::{RngStream, Simulator};

/// Counters for one loss direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossStats {
    pub(crate) seen: u64,
    pub dropped: u64,
}

/// One direction of a LossShell.
pub struct LossLink {
    p: f64,
    rng: RefCell<RngStream>,
    next: SinkRef,
    stats: RefCell<LossStats>,
    /// Per-packet observability hook ([`LossLink::set_tap`]); reports
    /// drops only (pass-through is synchronous and uneventful).
    tap: RefCell<Option<(TapHandle, TapPoint)>>,
}

impl LossLink {
    /// Drop each packet independently with probability `p`.
    pub(crate) fn new(p: f64, rng: RngStream, next: SinkRef) -> Rc<Self> {
        assert!((0.0..=1.0).contains(&p), "loss rate out of range: {p}");
        Rc::new(LossLink {
            p,
            rng: RefCell::new(rng),
            next,
            stats: RefCell::new(LossStats::default()),
            tap: RefCell::new(None),
        })
    }

    /// Attach a per-packet tap: each Bernoulli loss reports a
    /// [`PacketEventKind::Drop`] event. Taps observe only — the RNG
    /// stream and drop decisions are untouched.
    pub(crate) fn set_tap(&self, tap: TapHandle, point: TapPoint) {
        *self.tap.borrow_mut() = Some((tap, point));
    }

    /// Counters snapshot.
    pub fn stats(&self) -> LossStats {
        *self.stats.borrow()
    }
}

impl PacketSink for LossLink {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        let drop = self.p > 0.0 && self.rng.borrow_mut().gen_bool(self.p);
        {
            let mut s = self.stats.borrow_mut();
            s.seen += 1;
            if drop {
                s.dropped += 1;
            }
        }
        if drop {
            if let Some((tap, point)) = &*self.tap.borrow() {
                tap.on_packet(&PacketEvent {
                    t_ns: sim.now().as_nanos(),
                    kind: PacketEventKind::Drop,
                    point: *point,
                    pkt_id: pkt.id,
                    size_bytes: pkt.wire_size() as u32,
                    sojourn_ns: 0,
                    flow: pkt.flow_key(),
                });
            }
        } else {
            self.next.deliver(sim, pkt);
        }
    }
}

/// Handle to a constructed loss shell.
pub struct LossShell {
    /// The namespace applications run inside.
    pub(crate) inner_ns: Namespace,
    pub uplink: Rc<LossLink>,
    pub downlink: Rc<LossLink>,
}

/// Build a LossShell under `parent` with independent loss rates per
/// direction. RNG streams are forked per direction from `rng` so uplink
/// and downlink decisions are independent.
pub(crate) fn loss_shell(
    parent: &Namespace,
    name: &str,
    uplink_loss: f64,
    downlink_loss: f64,
    rng: &RngStream,
) -> LossShell {
    let inner_ns = Namespace::root(name);
    let uplink = LossLink::new(uplink_loss, rng.fork("loss-up"), parent.router());
    let downlink = LossLink::new(downlink_loss, rng.fork("loss-down"), inner_ns.router());
    parent.attach_child(&inner_ns, uplink.clone(), downlink.clone());
    LossShell {
        inner_ns,
        uplink,
        downlink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mm_net::{FnSink, IpAddr, SocketAddr, TcpFlags, TcpSegment};

    fn pkt(id: u64) -> Packet {
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
                payload: Bytes::new(),
            },
            corrupted: false,
        }
    }

    #[test]
    fn loss_rate_approximates_p() {
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0u64));
        let d = delivered.clone();
        let sink = FnSink::new(move |_: &mut Simulator, _| *d.borrow_mut() += 1);
        let link = LossLink::new(0.25, RngStream::from_seed(5), sink);
        for i in 0..20_000 {
            link.deliver(&mut sim, pkt(i));
        }
        let s = link.stats();
        assert_eq!(s.seen, 20_000);
        let rate = s.dropped as f64 / s.seen as f64;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
        assert_eq!(*delivered.borrow(), s.seen - s.dropped);
    }

    #[test]
    fn zero_loss_passes_everything() {
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0u64));
        let d = delivered.clone();
        let sink = FnSink::new(move |_: &mut Simulator, _| *d.borrow_mut() += 1);
        let link = LossLink::new(0.0, RngStream::from_seed(5), sink);
        for i in 0..100 {
            link.deliver(&mut sim, pkt(i));
        }
        assert_eq!(*delivered.borrow(), 100);
        assert_eq!(link.stats().dropped, 0);
    }

    #[test]
    fn shell_directions_independent() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let rng = RngStream::from_seed(9);
        let shell = loss_shell(&parent, "lossy", 1.0, 0.0, &rng);
        // Outer host and inner host.
        let outer_got = Rc::new(RefCell::new(0u64));
        let og = outer_got.clone();
        parent.add_host(
            IpAddr::new(8, 8, 8, 8),
            FnSink::new(move |_: &mut Simulator, _| *og.borrow_mut() += 1),
        );
        let inner_got = Rc::new(RefCell::new(0u64));
        let ig = inner_got.clone();
        shell.inner_ns.add_host(
            IpAddr::new(100, 64, 0, 2),
            FnSink::new(move |_: &mut Simulator, _| *ig.borrow_mut() += 1),
        );
        // Uplink loses 100%: nothing reaches the outer host.
        for i in 0..10 {
            let mut p = pkt(i);
            p.dst = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 80);
            shell.inner_ns.router().deliver(&mut sim, p);
        }
        // Downlink loses 0%: everything reaches the inner host.
        for i in 0..10 {
            let mut p = pkt(100 + i);
            p.dst = SocketAddr::new(IpAddr::new(100, 64, 0, 2), 80);
            parent.router().deliver(&mut sim, p);
        }
        sim.run();
        assert_eq!(*outer_got.borrow(), 0);
        assert_eq!(*inner_got.borrow(), 10);
        assert_eq!(shell.uplink.stats().dropped, 10);
        assert_eq!(shell.downlink.stats().dropped, 0);
    }
}
