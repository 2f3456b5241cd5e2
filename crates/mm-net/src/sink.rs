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

use mm_sim::{Simulator, Timestamp};

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
pub struct BlackHole {
    dropped: RefCell<u64>,
}

impl BlackHole {
    /// New black hole with a zeroed counter.
    pub fn new() -> Rc<Self> {
        Rc::new(BlackHole::default())
    }

    /// Packets swallowed so far.
    pub fn dropped(&self) -> u64 {
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

/// One observed packet in a capture.
#[derive(Debug, Clone)]
pub struct CaptureEntry {
    pub at: Timestamp,
    pub summary: String,
    pub wire_size: usize,
    pub packet_id: u64,
}

/// Shared, growable packet capture — the simulator's stand-in for a pcap
/// file. Attach via [`Tap`].
#[derive(Clone, Default)]
pub struct Capture {
    entries: Rc<RefCell<Vec<CaptureEntry>>>,
}

impl Capture {
    /// Fresh empty capture.
    pub fn new() -> Self {
        Capture::default()
    }

    /// Record one packet.
    pub fn record(&self, at: Timestamp, pkt: &Packet) {
        self.entries.borrow_mut().push(CaptureEntry {
            at,
            summary: pkt.summary(),
            wire_size: pkt.wire_size(),
            packet_id: pkt.id,
        });
    }

    /// Number of packets captured.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total wire bytes captured.
    pub fn total_bytes(&self) -> u64 {
        self.entries
            .borrow()
            .iter()
            .map(|e| e.wire_size as u64)
            .sum()
    }

    /// Clone the entries out (test/report use).
    pub fn entries(&self) -> Vec<CaptureEntry> {
        self.entries.borrow().clone()
    }

    /// Render as text, one packet per line, like `tcpdump` output.
    pub fn dump(&self) -> String {
        self.entries
            .borrow()
            .iter()
            .map(|e| format!("{} {}", e.at, e.summary))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A transparent tap: records every packet to a [`Capture`] and forwards
/// unchanged.
pub struct Tap {
    capture: Capture,
    next: SinkRef,
}

impl Tap {
    /// Insert a tap in front of `next`.
    pub fn new(capture: Capture, next: SinkRef) -> Rc<Self> {
        Rc::new(Tap { capture, next })
    }
}

impl PacketSink for Tap {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        self.capture.record(sim.now(), &pkt);
        self.next.deliver(sim, pkt);
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

    #[test]
    fn tap_records_and_forwards() {
        let mut sim = Simulator::new();
        let cap = Capture::new();
        let bh = BlackHole::new();
        let tap = Tap::new(cap.clone(), bh.clone());
        tap.deliver(&mut sim, test_packet(3));
        assert_eq!(cap.len(), 1);
        assert_eq!(bh.dropped(), 1);
        assert_eq!(cap.total_bytes(), 45); // 40 header + 5 payload
        assert!(cap.dump().contains("#3"));
    }

    #[test]
    fn capture_entries_clone_out() {
        let mut sim = Simulator::new();
        let cap = Capture::new();
        let tap = Tap::new(cap.clone(), BlackHole::new());
        for i in 0..5 {
            tap.deliver(&mut sim, test_packet(i));
        }
        let entries = cap.entries();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[4].packet_id, 4);
    }
}
