//! Virtual network namespaces and routing between them.
//!
//! Mahimahi's isolation story: each shell runs inside a private Linux
//! network namespace, connected to its parent by a veth pair, so traffic
//! inside one shell can never touch the host network or another shell.
//! Here a [`Namespace`] is the simulated equivalent: it knows a set of hosts
//! (by IP), optional child namespaces (reached through shell processor
//! chains), and an optional parent uplink.
//!
//! Routing, per packet, at each namespace:
//! 1. destination is a local host → deliver locally;
//! 2. destination belongs to a (transitive) child → send down that child's
//!    downlink chain;
//! 3. otherwise, if attached to a parent → send up the uplink chain;
//! 4. otherwise count it as unroutable and drop.
//!
//! Per-namespace counters make the paper's isolation property directly
//! testable: two sibling namespaces never exchange packets.
//!
//! Ownership (DESIGN.md §6): a namespace holds its parent and both shell
//! chains strongly, and is itself held by its hosts and by whoever built
//! it. Nothing points back down strongly — a [`Namespace::router`] sink and
//! a host's delivery sink hold their actor weakly — so a world is freed
//! when its handles are dropped, and a packet for an actor that is gone is
//! counted `unroutable`, never a panic.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use mm_sim::Simulator;

use crate::addr::IpAddr;
use crate::hash::AddrMap;
use crate::packet::Packet;
use crate::sink::{PacketSink, SinkRef};

/// Traffic counters kept by every namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NsCounters {
    /// Packets delivered to hosts in this namespace.
    pub delivered_local: u64,
    /// Packets routed down into a child namespace.
    pub forwarded_down: u64,
    /// Packets routed up to the parent namespace.
    pub forwarded_up: u64,
    /// Packets with no route, or whose next hop no longer exists (dropped).
    pub unroutable: u64,
}

impl NsCounters {
    /// Total packets this namespace's router has seen.
    pub fn total(&self) -> u64 {
        self.delivered_local + self.forwarded_down + self.forwarded_up + self.unroutable
    }
}

struct NsInner {
    name: String,
    hosts: AddrMap<IpAddr, SinkRef>,
    /// Destination IP → entry sink of the downlink chain toward the child
    /// namespace owning that IP (transitively).
    child_routes: AddrMap<IpAddr, SinkRef>,
    /// Entry sink of the uplink chain toward the parent, if attached.
    uplink: Option<SinkRef>,
    /// Parent namespace: for propagating host registrations upward, and
    /// what keeps every ancestor of a live host alive.
    parent: Option<Namespace>,
    /// The downlink entry the parent uses to reach this namespace; stored so
    /// that hosts registered after attachment can propagate routes upward.
    downlink_entry_hint: Option<SinkRef>,
    counters: NsCounters,
}

/// What every handle to one namespace shares.
struct NsShared {
    state: RefCell<NsInner>,
    /// The namespace's one router sink, handed out by [`Namespace::router`].
    router: SinkRef,
}

/// A virtual network namespace. Cloning yields another handle to the same
/// namespace.
#[derive(Clone)]
pub struct Namespace {
    inner: Rc<NsShared>,
}

impl Namespace {
    /// Create a root (detached) namespace.
    pub fn root(name: &str) -> Self {
        Namespace {
            inner: Rc::new_cyclic(|ns: &Weak<NsShared>| NsShared {
                state: RefCell::new(NsInner {
                    name: name.to_string(),
                    hosts: AddrMap::default(),
                    child_routes: AddrMap::default(),
                    uplink: None,
                    parent: None,
                    downlink_entry_hint: None,
                    counters: NsCounters::default(),
                }),
                router: Rc::new(Router { ns: ns.clone() }),
            }),
        }
    }

    /// The namespace's name (diagnostics only).
    pub fn name(&self) -> String {
        self.inner.state.borrow().name.clone()
    }

    /// Snapshot of this namespace's counters.
    pub fn counters(&self) -> NsCounters {
        self.inner.state.borrow().counters
    }

    /// Register a host's delivery sink under `ip`. The registration
    /// propagates to ancestors so packets from anywhere in the tree can
    /// route here. Panics if the IP is already taken in this namespace by
    /// a host that still exists — two hosts claiming one address is a
    /// configuration bug.
    pub fn add_host(&self, ip: IpAddr, sink: SinkRef) {
        {
            let mut inner = self.inner.state.borrow_mut();
            assert!(
                inner.hosts.get(&ip).is_none_or(|old| !old.is_live()),
                "namespace {}: duplicate host {ip}",
                inner.name
            );
            inner.hosts.insert(ip, sink);
        }
        self.propagate_route_up(ip);
    }

    /// Attach `child` under this namespace.
    ///
    /// * `uplink_entry`: sink receiving child→parent packets; the chain must
    ///   terminate at this namespace's [`Namespace::router`].
    /// * `downlink_entry`: sink receiving parent→child packets; the chain
    ///   must terminate at the child's router.
    ///
    /// All addresses already registered inside `child` are routed through
    /// `downlink_entry`, as are any registered later. From here on `child`
    /// keeps this namespace alive; this namespace reaches `child` only
    /// through the downlink chain, whose terminal router holds it weakly.
    pub fn attach_child(&self, child: &Namespace, uplink_entry: SinkRef, downlink_entry: SinkRef) {
        {
            let mut c = child.inner.state.borrow_mut();
            assert!(c.parent.is_none(), "namespace {} already attached", c.name);
            c.uplink = Some(uplink_entry);
            c.parent = Some(self.clone());
        }
        // Route all of the child's current addresses (its own hosts and its
        // transitive children) through the downlink chain.
        let addrs: Vec<IpAddr> = {
            let c = child.inner.state.borrow();
            c.hosts
                .keys()
                .copied()
                .chain(c.child_routes.keys().copied())
                .collect()
        };
        for ip in addrs {
            self.register_child_route(ip, downlink_entry.clone());
        }
        // Remember the entry for future registrations from this child.
        child.inner.state.borrow_mut().downlink_entry_hint = Some(downlink_entry);
    }

    fn register_child_route(&self, ip: IpAddr, via: SinkRef) {
        {
            let mut inner = self.inner.state.borrow_mut();
            inner.child_routes.insert(ip, via);
        }
        self.propagate_route_up(ip);
    }

    fn propagate_route_up(&self, ip: IpAddr) {
        let (parent, hint) = {
            let inner = self.inner.state.borrow();
            (inner.parent.clone(), inner.downlink_entry_hint.clone())
        };
        if let (Some(parent), Some(hint)) = (parent, hint) {
            parent.register_child_route(ip, hint);
        }
    }

    /// The router sink for this namespace: where hosts send egress packets
    /// and where shell chains terminate. One per namespace; it holds the
    /// namespace weakly, so wiring it into any chain can never form an
    /// ownership cycle.
    pub fn router(&self) -> SinkRef {
        self.inner.router.clone()
    }
}

impl NsShared {
    fn route(&self, sim: &mut Simulator, pkt: Packet) {
        let next = {
            let mut guard = self.state.borrow_mut();
            let inner = &mut *guard;
            let ip = pkt.dst.ip;
            let (next, taken) = if let Some(host) = inner.hosts.get(&ip) {
                (host, &mut inner.counters.delivered_local)
            } else if let Some(down) = inner.child_routes.get(&ip) {
                (down, &mut inner.counters.forwarded_down)
            } else if let Some(up) = &inner.uplink {
                (up, &mut inner.counters.forwarded_up)
            } else {
                inner.counters.unroutable += 1;
                return;
            };
            // The host (or directly attached namespace) behind the entry
            // was dropped: its address is as unreachable as an unknown one.
            if !next.is_live() {
                inner.counters.unroutable += 1;
                return;
            }
            *taken += 1;
            next.clone()
        };
        next.deliver(sim, pkt);
    }
}

struct Router {
    ns: Weak<NsShared>,
}

impl PacketSink for Router {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        // A namespace nobody holds has no host left to deliver to: a packet
        // still inside a shell chain when it went is dropped here, already
        // counted as forwarded by the last router that saw it.
        if let Some(ns) = self.ns.upgrade() {
            ns.route(sim, pkt);
        }
    }

    fn is_live(&self) -> bool {
        self.ns.strong_count() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SocketAddr;
    use crate::packet::{TcpFlags, TcpSegment};
    use crate::sink::{delayed, BlackHole, FnSink};
    use bytes::Bytes;
    use std::cell::RefCell;

    fn pkt(dst: IpAddr) -> Packet {
        Packet {
            id: 0,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 1000),
            dst: SocketAddr::new(dst, 80),
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

    fn collector() -> (Rc<RefCell<Vec<IpAddr>>>, SinkRef) {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let sink = FnSink::new(move |_, p: Packet| s.borrow_mut().push(p.dst.ip));
        (seen, sink)
    }

    #[test]
    fn local_delivery() {
        let mut sim = Simulator::new();
        let ns = Namespace::root("test");
        let (seen, sink) = collector();
        let ip = IpAddr::new(10, 0, 0, 2);
        ns.add_host(ip, sink);
        ns.router().deliver(&mut sim, pkt(ip));
        assert_eq!(*seen.borrow(), vec![ip]);
        assert_eq!(ns.counters().delivered_local, 1);
    }

    #[test]
    fn unroutable_dropped_and_counted() {
        let mut sim = Simulator::new();
        let ns = Namespace::root("test");
        ns.router().deliver(&mut sim, pkt(IpAddr::new(8, 8, 8, 8)));
        assert_eq!(ns.counters().unroutable, 1);
        assert_eq!(ns.counters().delivered_local, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate host")]
    fn duplicate_host_panics() {
        let ns = Namespace::root("test");
        let ip = IpAddr::new(10, 0, 0, 2);
        ns.add_host(ip, BlackHole::new());
        ns.add_host(ip, BlackHole::new());
    }

    #[test]
    fn child_to_parent_routing() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let child = Namespace::root("child");
        let server_ip = IpAddr::new(93, 184, 216, 34);
        let (seen, sink) = collector();
        parent.add_host(server_ip, sink);
        // Plain chains: child uplink goes straight to the parent router,
        // downlink straight to the child router.
        parent.attach_child(&child, parent.router(), child.router());

        child.router().deliver(&mut sim, pkt(server_ip));
        assert_eq!(*seen.borrow(), vec![server_ip]);
        assert_eq!(child.counters().forwarded_up, 1);
        assert_eq!(parent.counters().delivered_local, 1);
    }

    #[test]
    fn parent_to_child_routing() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let child = Namespace::root("child");
        let browser_ip = IpAddr::new(100, 64, 0, 2);
        let (seen, sink) = collector();
        child.add_host(browser_ip, sink);
        parent.attach_child(&child, parent.router(), child.router());

        parent.router().deliver(&mut sim, pkt(browser_ip));
        assert_eq!(*seen.borrow(), vec![browser_ip]);
        assert_eq!(parent.counters().forwarded_down, 1);
        assert_eq!(child.counters().delivered_local, 1);
    }

    #[test]
    fn host_added_after_attach_is_routable() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let child = Namespace::root("child");
        parent.attach_child(&child, parent.router(), child.router());
        let late_ip = IpAddr::new(100, 64, 0, 9);
        let (seen, sink) = collector();
        child.add_host(late_ip, sink);
        parent.router().deliver(&mut sim, pkt(late_ip));
        assert_eq!(*seen.borrow(), vec![late_ip]);
    }

    #[test]
    fn grandchild_routes_transitively() {
        let mut sim = Simulator::new();
        let root = Namespace::root("root");
        let mid = Namespace::root("mid");
        let leaf = Namespace::root("leaf");
        root.attach_child(&mid, root.router(), mid.router());
        mid.attach_child(&leaf, mid.router(), leaf.router());
        let deep_ip = IpAddr::new(100, 64, 1, 1);
        let (seen, sink) = collector();
        leaf.add_host(deep_ip, sink);
        root.router().deliver(&mut sim, pkt(deep_ip));
        assert_eq!(*seen.borrow(), vec![deep_ip]);
        assert_eq!(mid.counters().forwarded_down, 1);

        // And from the leaf up to a root host.
        let (rseen, rsink) = collector();
        let root_ip = IpAddr::new(1, 1, 1, 1);
        root.add_host(root_ip, rsink);
        leaf.router().deliver(&mut sim, pkt(root_ip));
        assert_eq!(*rseen.borrow(), vec![root_ip]);
    }

    #[test]
    fn siblings_are_isolated() {
        let mut sim = Simulator::new();
        let root = Namespace::root("root");
        let a = Namespace::root("a");
        let b = Namespace::root("b");
        root.attach_child(&a, root.router(), a.router());
        root.attach_child(&b, root.router(), b.router());
        let a_ip = IpAddr::new(100, 64, 0, 1);
        let b_ip = IpAddr::new(100, 65, 0, 1);
        let (a_seen, a_sink) = collector();
        let (b_seen, b_sink) = collector();
        a.add_host(a_ip, a_sink);
        b.add_host(b_ip, b_sink);

        // a sends to b: routed up to root, then down into b — b's host sees
        // it (namespaces route, like IP), but a's counters show the packet
        // left a; nothing in b leaks into a.
        a.router().deliver(&mut sim, pkt(b_ip));
        assert_eq!(*b_seen.borrow(), vec![b_ip]);
        assert!(a_seen.borrow().is_empty());
        assert_eq!(a.counters().delivered_local, 0);
        assert_eq!(b.counters().delivered_local, 1);
    }

    #[test]
    fn one_router_per_namespace() {
        let ns = Namespace::root("test");
        assert!(Rc::ptr_eq(&ns.router(), &ns.router()));
    }

    #[test]
    fn a_namespace_does_not_keep_its_children_alive() {
        let parent = Namespace::root("parent");
        let child = Namespace::root("child");
        parent.attach_child(&child, parent.router(), child.router());
        let child_router = child.router();
        assert!(child_router.is_live());
        drop(child);
        assert!(!child_router.is_live());
    }

    #[test]
    fn a_child_keeps_its_ancestors_alive() {
        let mut sim = Simulator::new();
        let root = Namespace::root("root");
        let leaf = Namespace::root("leaf");
        let (seen, sink) = collector();
        let root_ip = IpAddr::new(1, 1, 1, 1);
        root.add_host(root_ip, sink);
        root.attach_child(&leaf, root.router(), leaf.router());
        drop(root);
        leaf.router().deliver(&mut sim, pkt(root_ip));
        assert_eq!(*seen.borrow(), vec![root_ip]);
    }

    #[test]
    fn packets_for_a_dropped_namespace_are_counted_not_fatal() {
        let mut sim = Simulator::new();
        let parent = Namespace::root("parent");
        let ms = mm_sim::SimDuration::from_millis;

        // Directly attached: the parent sees the dead router and counts.
        let near = Namespace::root("near");
        let near_ip = IpAddr::new(100, 64, 0, 1);
        near.add_host(near_ip, BlackHole::new());
        parent.attach_child(&near, parent.router(), near.router());
        drop(near);
        parent.router().deliver(&mut sim, pkt(near_ip));
        assert_eq!(parent.counters().unroutable, 1);

        // Behind a chain, with packets in flight when the last handle
        // goes: they reach the chain's end and stop there.
        let far = Namespace::root("far");
        let far_ip = IpAddr::new(100, 65, 0, 1);
        let (seen, sink) = collector();
        far.add_host(far_ip, sink);
        parent.attach_child(
            &far,
            delayed(parent.router(), ms(10)),
            delayed(far.router(), ms(10)),
        );
        parent.router().deliver(&mut sim, pkt(far_ip));
        sim.run();
        assert_eq!(*seen.borrow(), vec![far_ip]);
        parent.router().deliver(&mut sim, pkt(far_ip));
        drop(far);
        parent.router().deliver(&mut sim, pkt(far_ip));
        assert_eq!(sim.run(), mm_sim::RunResult::QueueEmpty);
        assert_eq!(seen.borrow().len(), 1);
        assert_eq!(parent.counters().forwarded_down, 3);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let p1 = Namespace::root("p1");
        let p2 = Namespace::root("p2");
        let c = Namespace::root("c");
        p1.attach_child(&c, p1.router(), c.router());
        p2.attach_child(&c, p2.router(), c.router());
    }
}
