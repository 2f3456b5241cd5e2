//! LossShell: independent (Bernoulli) packet loss per direction, the
//! equivalent of mahimahi's `mm-loss <uplink|downlink> <rate>`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mm_capture::{Dir, PacketEventKind, PointKind};
use mm_net::{Namespace, Packet, PacketSink, SinkRef};
use mm_sim::{RngStream, Simulator};

use crate::tap::{Observers, Reporter};

/// Counters for one loss direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossStats {
    pub dropped: u64,
}

/// One direction of a LossShell.
pub struct LossLink {
    p: f64,
    rng: RefCell<RngStream>,
    next: SinkRef,
    dropped: Cell<u64>,
    /// Reports each Bernoulli loss as [`PacketEventKind::Drop`]
    /// (pass-through is synchronous and uneventful). The RNG stream and
    /// drop decisions are the same with or without it.
    report: Option<Reporter>,
}

impl LossLink {
    /// Drop each packet independently with probability `p`.
    fn new(p: f64, rng: RngStream, next: SinkRef, report: Option<Reporter>) -> Rc<Self> {
        assert!((0.0..=1.0).contains(&p), "loss rate out of range: {p}");
        Rc::new(LossLink {
            p,
            rng: RefCell::new(rng),
            next,
            dropped: Cell::new(0),
            report,
        })
    }

    /// Counters snapshot.
    pub fn stats(&self) -> LossStats {
        LossStats {
            dropped: self.dropped.get(),
        }
    }
}

impl PacketSink for LossLink {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if self.p > 0.0 && self.rng.borrow_mut().gen_bool(self.p) {
            self.dropped.set(self.dropped.get() + 1);
            if let Some(report) = &self.report {
                report.packet(sim.now(), PacketEventKind::Drop, &pkt);
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
/// direction, both observed by `observers`. RNG streams are forked per
/// direction from `rng` so uplink and downlink decisions are independent.
pub(crate) fn loss_shell(
    parent: &Namespace,
    name: &str,
    (uplink_loss, downlink_loss): (f64, f64),
    rng: &RngStream,
    observers: &Observers,
) -> LossShell {
    let inner_ns = Namespace::root(name);
    let report = |dir| observers.reporter(PointKind::Loss, dir);
    let uplink = LossLink::new(
        uplink_loss,
        rng.fork("loss-up"),
        parent.router(),
        report(Dir::Up),
    );
    let downlink = LossLink::new(
        downlink_loss,
        rng.fork("loss-down"),
        inner_ns.router(),
        report(Dir::Down),
    );
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
    use crate::pkt;
    use mm_net::{FnSink, IpAddr, SocketAddr};

    #[test]
    fn loss_rate_approximates_p() {
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0u64));
        let d = delivered.clone();
        let sink = FnSink::new(move |_: &mut Simulator, _| *d.borrow_mut() += 1);
        let link = LossLink::new(0.25, RngStream::from_seed(5), sink, None);
        for i in 0..20_000 {
            link.deliver(&mut sim, pkt(i, 0));
        }
        let dropped = link.stats().dropped;
        let rate = dropped as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
        assert_eq!(*delivered.borrow(), 20_000 - dropped);
    }

    #[test]
    fn zero_loss_passes_everything() {
        let mut sim = Simulator::new();
        let delivered = Rc::new(RefCell::new(0u64));
        let d = delivered.clone();
        let sink = FnSink::new(move |_: &mut Simulator, _| *d.borrow_mut() += 1);
        let link = LossLink::new(0.0, RngStream::from_seed(5), sink, None);
        for i in 0..100 {
            link.deliver(&mut sim, pkt(i, 0));
        }
        assert_eq!(*delivered.borrow(), 100);
        assert_eq!(link.stats().dropped, 0);
    }

    #[test]
    fn shell_directions_independent() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let rng = RngStream::from_seed(9);
        let shell = loss_shell(&parent, "lossy", (1.0, 0.0), &rng, &Observers::default());
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
            let mut p = pkt(i, 0);
            p.dst = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 80);
            shell.inner_ns.router().deliver(&mut sim, p);
        }
        // Downlink loses 0%: everything reaches the inner host.
        for i in 0..10 {
            let mut p = pkt(100 + i, 0);
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
