//! Virtual network namespaces and routing between them.
//!
//! Mahimahi's isolation story: each shell runs inside a private Linux
//! network namespace, connected to its parent by a veth pair, so traffic
//! inside one shell can never touch the host network or another shell.
//! Here a [`Namespace`] is the simulated equivalent: it owns a set of hosts
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

use std::cell::RefCell;
use std::rc::Rc;

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
    /// Packets with no route (dropped).
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
    /// Parent namespace, for propagating host registrations upward.
    parent: Option<Namespace>,
    /// The downlink entry the parent uses to reach this namespace; stored so
    /// that hosts registered after attachment can propagate routes upward.
    downlink_entry_hint: Option<SinkRef>,
    counters: NsCounters,
}

/// A virtual network namespace. Cloning yields another handle to the same
/// namespace.
#[derive(Clone)]
pub struct Namespace {
    inner: Rc<RefCell<NsInner>>,
}

impl Namespace {
    /// Create a root (detached) namespace.
    pub fn root(name: &str) -> Self {
        Namespace {
            inner: Rc::new(RefCell::new(NsInner {
                name: name.to_string(),
                hosts: AddrMap::default(),
                child_routes: AddrMap::default(),
                uplink: None,
                parent: None,
                downlink_entry_hint: None,
                counters: NsCounters::default(),
            })),
        }
    }

    /// The namespace's name (diagnostics only).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Snapshot of this namespace's counters.
    pub fn counters(&self) -> NsCounters {
        self.inner.borrow().counters
    }

    /// Register a host's delivery sink under `ip`. The registration
    /// propagates to ancestors so packets from anywhere in the tree can
    /// route here. Panics if the IP is already taken in this namespace —
    /// two hosts claiming one address is a configuration bug.
    pub fn add_host(&self, ip: IpAddr, sink: SinkRef) {
        {
            let mut inner = self.inner.borrow_mut();
            assert!(
                !inner.hosts.contains_key(&ip),
                "namespace {}: duplicate host {ip}",
                inner.name
            );
            inner.hosts.insert(ip, sink);
        }
        self.propagate_route_up(ip);
    }

    /// Remove a host (e.g. when a shell tears down). No-op if absent.
    pub fn remove_host(&self, ip: IpAddr) {
        self.inner.borrow_mut().hosts.remove(&ip);
        // Ancestor child_routes entries are left in place; they become
        // unroutable at this namespace, which the counters surface.
    }

    /// True if `ip` is a host directly inside this namespace.
    pub fn has_host(&self, ip: IpAddr) -> bool {
        self.inner.borrow().hosts.contains_key(&ip)
    }

    /// Attach `child` under this namespace.
    ///
    /// * `uplink_entry`: sink receiving child→parent packets; the chain must
    ///   terminate at this namespace's [`Namespace::router`].
    /// * `downlink_entry`: sink receiving parent→child packets; the chain
    ///   must terminate at the child's router.
    ///
    /// All addresses already registered inside `child` are routed through
    /// `downlink_entry`, as are any registered later.
    pub fn attach_child(&self, child: &Namespace, uplink_entry: SinkRef, downlink_entry: SinkRef) {
        {
            let mut c = child.inner.borrow_mut();
            assert!(c.parent.is_none(), "namespace {} already attached", c.name);
            c.uplink = Some(uplink_entry);
            c.parent = Some(self.clone());
        }
        // Route all of the child's current addresses (its own hosts and its
        // transitive children) through the downlink chain.
        let addrs: Vec<IpAddr> = {
            let c = child.inner.borrow();
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
        child.inner.borrow_mut().downlink_entry_hint = Some(downlink_entry);
    }

    fn register_child_route(&self, ip: IpAddr, via: SinkRef) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.child_routes.insert(ip, via);
        }
        self.propagate_route_up(ip);
    }

    fn propagate_route_up(&self, ip: IpAddr) {
        let (parent, hint) = {
            let inner = self.inner.borrow();
            (inner.parent.clone(), inner.downlink_entry_hint.clone())
        };
        if let (Some(parent), Some(hint)) = (parent, hint) {
            parent.register_child_route(ip, hint);
        }
    }

    /// The router sink for this namespace: where hosts send egress packets
    /// and where shell chains terminate.
    pub fn router(&self) -> SinkRef {
        Rc::new(Router { ns: self.clone() })
    }

    fn route(&self, sim: &mut Simulator, pkt: Packet) {
        let (next, kind) = {
            let mut inner = self.inner.borrow_mut();
            if let Some(host) = inner.hosts.get(&pkt.dst.ip).cloned() {
                inner.counters.delivered_local += 1;
                (Some(host), "local")
            } else if let Some(down) = inner.child_routes.get(&pkt.dst.ip).cloned() {
                inner.counters.forwarded_down += 1;
                (Some(down), "down")
            } else if let Some(up) = inner.uplink.clone() {
                inner.counters.forwarded_up += 1;
                (Some(up), "up")
            } else {
                inner.counters.unroutable += 1;
                (None, "drop")
            }
        };
        let _ = kind;
        if let Some(next) = next {
            next.deliver(sim, pkt);
        }
    }
}

// `downlink_entry_hint` lives on NsInner but is set post-construction; add
// the field via a second impl block to keep the constructor readable.
struct Router {
    ns: Namespace,
}

impl PacketSink for Router {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        self.ns.route(sim, pkt);
    }
}

// -- NsInner needs the hint field; declared here to keep related code close.
impl NsInner {
    #[allow(dead_code)]
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SocketAddr;
    use crate::packet::{TcpFlags, TcpSegment};
    use crate::sink::{BlackHole, FnSink};
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
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let p1 = Namespace::root("p1");
        let p2 = Namespace::root("p2");
        let c = Namespace::root("c");
        p1.attach_child(&c, p1.router(), c.router());
        p2.attach_child(&c, p2.router(), c.router());
    }
}
