//! The packet-forwarding abstraction all network elements implement.
//!
//! A [`PacketSink`] receives a packet and either consumes it (a host),
//! forwards it (a namespace router), or holds and releases it later (an
//! emulation shell). Shell chains are built by composing sinks; this is the
//! Rust rendering of Mahimahi's "arbitrarily composable shells".
//!
//! Borrow discipline (single-threaded `Rc<RefCell>` world): a sink's
//! `deliver` may process synchronously, but must drop any interior borrows
//! *before* calling the next sink. Hosts additionally defer processing
//! through the event queue, so application logic never re-enters a borrowed
//! cell.

use std::cell::RefCell;
use std::rc::Rc;

use mm_sim::Simulator;

use crate::packet::Packet;

/// A consumer of packets. See module docs for the borrow discipline.
pub trait PacketSink {
    /// Hand `pkt` to this element at the current simulation time.
    fn deliver(&self, sim: &mut Simulator, pkt: Packet);

    /// False once the actor this sink delivers into no longer exists.
    /// Only the two sinks that end at an actor — a host's delivery sink
    /// and a namespace's router — hold it weakly and can go dead; a router
    /// asks before forwarding so the packet is counted `unroutable`
    /// instead of vanishing. Forwarding elements keep the default.
    fn is_live(&self) -> bool {
        true
    }
}

/// Shared handle to a sink.
pub type SinkRef = Rc<dyn PacketSink>;

/// A sink that drops everything (the default route of an unattached
/// namespace) while counting what it dropped.
#[derive(Default)]
pub(crate) struct BlackHole {
    dropped: RefCell<u64>,
}

impl BlackHole {
    /// New black hole with a zeroed counter.
    pub(crate) fn new() -> Rc<Self> {
        Rc::new(BlackHole::default())
    }

    /// Packets swallowed so far.
    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        *self.dropped.borrow()
    }
}

impl PacketSink for BlackHole {
    fn deliver(&self, _sim: &mut Simulator, _pkt: Packet) {
        *self.dropped.borrow_mut() += 1;
    }
}

/// A sink backed by a closure — handy in tests and for custom elements.
pub struct FnSink<F: Fn(&mut Simulator, Packet)> {
    f: F,
}

impl<F: Fn(&mut Simulator, Packet) + 'static> FnSink<F> {
    /// Wrap a closure as a sink.
    pub fn new(f: F) -> Rc<Self> {
        Rc::new(FnSink { f })
    }
}

impl<F: Fn(&mut Simulator, Packet)> PacketSink for FnSink<F> {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        (self.f)(sim, pkt)
    }
}

/// Test support: forwards to `next` after `by` — a one-element shell
/// chain, for tests that need packets in flight.
#[cfg(test)]
pub(crate) fn delayed(next: SinkRef, by: mm_sim::SimDuration) -> SinkRef {
    FnSink::new(move |sim: &mut Simulator, pkt: Packet| {
        let next = next.clone();
        sim.schedule_in(by, move |sim| next.deliver(sim, pkt));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{IpAddr, SocketAddr};
    use crate::packet::{TcpFlags, TcpSegment};
    use bytes::Bytes;

    fn test_packet(id: u64) -> Packet {
        Packet {
            id,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 1234),
            dst: SocketAddr::new(IpAddr::new(10, 0, 0, 2), 80),
            segment: TcpSegment {
                flags: TcpFlags::ACK,
                seq: 0,
                ack: 0,
                window: 65535,
                sack: Default::default(),
                payload: Bytes::from_static(b"hello"),
            },
            corrupted: false,
        }
    }

    #[test]
    fn blackhole_counts() {
        let mut sim = Simulator::new();
        let bh = BlackHole::new();
        bh.deliver(&mut sim, test_packet(1));
        bh.deliver(&mut sim, test_packet(2));
        assert_eq!(bh.dropped(), 2);
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut sim = Simulator::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let sink = FnSink::new(move |_, p: Packet| s.borrow_mut().push(p.id));
        sink.deliver(&mut sim, test_packet(7));
        assert_eq!(*seen.borrow(), vec![7]);
    }
}
