//! Virtual hosts: socket demultiplexing, listeners, ephemeral ports, and
//! optional per-host processing noise (the "two machines" of Table 1).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use mm_sim::dist::Distribution;
use mm_sim::{EventTarget, RngStream, SimDuration, Simulator, TimerMux};

use crate::addr::{IpAddr, SocketAddr};
use crate::conn::{ConnId, ConnTable};
use crate::fabric::Namespace;
use crate::hash::AddrMap;
use crate::packet::{Packet, TcpFlags, TcpSegment};
use crate::sink::{BlackHole, PacketSink, SinkRef};
use crate::tcp::socket::{HostLinks, SocketApp, TcpConfig, TcpHandle};

/// Generates simulation-unique packet ids. One per experiment world,
/// shared by every host.
#[derive(Clone, Default)]
pub struct PacketIdGen(Rc<Cell<u64>>);

impl PacketIdGen {
    /// Fresh generator starting at zero.
    pub fn new() -> Self {
        PacketIdGen::default()
    }

    pub(crate) fn shared(&self) -> Rc<Cell<u64>> {
        self.0.clone()
    }
}

/// Accepts inbound connections on a listening port.
pub trait Listener {
    /// A new connection completed its SYN; return the application that
    /// will own it. Called before the handshake finishes, so the app's
    /// first event is `Connected`.
    fn on_connection(&self, sim: &mut Simulator, handle: TcpHandle) -> Rc<dyn SocketApp>;
}

/// Per-host counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostStats {
    pub packets_in: u64,
    pub(crate) packets_out: u64,
    pub corrupted_dropped: u64,
    pub(crate) rst_sent: u64,
    pub connections_accepted: u64,
    pub connections_initiated: u64,
}

/// Per-packet processing noise: models host scheduling/timer jitter so two
/// "machines" with different noise seeds produce slightly different but
/// statistically equivalent timings (Table 1).
pub struct HostNoise {
    rng: RngStream,
    dist: Box<dyn Distribution>,
}

impl HostNoise {
    /// `dist` samples a delay in microseconds.
    pub fn new(rng: RngStream, dist: Box<dyn Distribution>) -> Self {
        HostNoise { rng, dist }
    }

    fn sample(&mut self) -> SimDuration {
        let us = self.dist.sample(&mut self.rng).max(0.0);
        SimDuration::from_nanos((us * 1000.0) as u64)
    }
}

struct HostInner {
    ip: IpAddr,
    egress: SinkRef,
    /// The namespace this host is attached to. The egress router holds it
    /// only weakly; this is what keeps a host's way out — its namespace,
    /// and through it every ancestor — alive for as long as the host is.
    ns: Option<Namespace>,
    /// Live sockets in a flat slab (stable generation-checked [`ConnId`]s
    /// plus the `(local, remote)` demux map) — point lookups only, so the
    /// storage layout is invisible to event ordering.
    sockets: ConnTable,
    listeners: AddrMap<u16, Rc<dyn Listener>>,
    /// Transparent-intercept listener: accepts a SYN to *any* (ip, port),
    /// binding the socket to the packet's original destination — the
    /// simulated equivalent of an iptables REDIRECT + SO_ORIGINAL_DST
    /// man-in-the-middle, which is how RecordShell's proxy operates.
    catch_all: Option<Rc<dyn Listener>>,
    next_ephemeral: u16,
    ids: PacketIdGen,
    config: TcpConfig,
    /// When set, every new socket's timers share this mux instead of each
    /// registering into the simulator's global heap. Off by default: the
    /// mux batches same-instant firings, which shifts event interleaving
    /// relative to the pre-mux baselines; fleet worlds opt in.
    timer_mux: Option<TimerMux>,
    noise: Option<HostNoise>,
    /// Dispatch-ordering floor: host noise must never reorder a host's
    /// inbound packet stream (real scheduler jitter delays the whole
    /// softirq queue, it does not swap packets), so dispatch times are
    /// monotone per host.
    last_dispatch_at: mm_sim::Timestamp,
    /// Packets delivered to this host and not yet dispatched, oldest
    /// first: one pending dispatch event each. Dispatch times are
    /// monotone (`last_dispatch_at`), so the events pop in this order.
    inbox: VecDeque<Packet>,
    /// The out-buffer this host's sockets share ([`HostLinks::out`]).
    out: Rc<RefCell<Vec<Packet>>>,
    stats: HostStats,
}

/// What every handle to one host shares. A type of this crate, so that it
/// can be the target of the host's dispatch events.
struct HostCell(RefCell<HostInner>);

impl std::ops::Deref for HostCell {
    type Target = RefCell<HostInner>;
    fn deref(&self) -> &RefCell<HostInner> {
        &self.0
    }
}

/// A virtual host. Cloning yields another handle to the same host.
#[derive(Clone)]
pub struct Host {
    inner: Rc<HostCell>,
}

impl Host {
    /// Create a host with the given address. It must be attached to a
    /// namespace (or given an egress) before its packets go anywhere.
    pub fn new(ip: IpAddr, ids: PacketIdGen) -> Self {
        Host {
            inner: Rc::new(HostCell(RefCell::new(HostInner {
                ip,
                egress: BlackHole::new(),
                ns: None,
                sockets: ConnTable::new(),
                listeners: AddrMap::default(),
                catch_all: None,
                next_ephemeral: 32768,
                ids,
                config: TcpConfig::default(),
                timer_mux: None,
                noise: None,
                last_dispatch_at: mm_sim::Timestamp::ZERO,
                inbox: VecDeque::new(),
                out: Rc::default(),
                stats: HostStats::default(),
            }))),
        }
    }

    /// Create and attach to `ns` in one step.
    pub fn new_in(ip: IpAddr, ids: PacketIdGen, ns: &Namespace) -> Self {
        let host = Host::new(ip, ids);
        host.attach(ns);
        host
    }

    /// This host's IP address.
    pub fn ip(&self) -> IpAddr {
        self.inner.borrow().ip
    }

    /// Counters snapshot.
    pub fn stats(&self) -> HostStats {
        self.inner.borrow().stats
    }

    /// Replace the default TCP configuration used for new sockets.
    pub fn set_tcp_config(&self, config: TcpConfig) {
        self.inner.borrow_mut().config = config;
    }

    /// Current default TCP configuration.
    pub fn tcp_config(&self) -> TcpConfig {
        self.inner.borrow().config.clone()
    }

    /// Install per-packet processing noise (host profile).
    pub fn set_noise(&self, noise: HostNoise) {
        self.inner.borrow_mut().noise = Some(noise);
    }

    /// Route every *subsequently created* socket's timers through one
    /// shared per-host [`TimerMux`]. Idempotent. Population-scale worlds
    /// enable this on all hosts; single-load baselines leave it off so
    /// their event interleaving (and BENCH outputs) stay byte-identical.
    pub fn enable_timer_mux(&self) {
        let mut inner = self.inner.borrow_mut();
        if inner.timer_mux.is_none() {
            inner.timer_mux = Some(TimerMux::new());
        }
    }

    /// The shared timer mux, if enabled.
    pub fn timer_mux(&self) -> Option<TimerMux> {
        self.inner.borrow().timer_mux.clone()
    }

    /// Register this host in a namespace: sets the egress to the
    /// namespace's router and registers the delivery sink. The host keeps
    /// the namespace alive from here on; the namespace only *knows* the
    /// host, so whoever created the host must hold it for as long as it
    /// should receive packets.
    pub(crate) fn attach(&self, ns: &Namespace) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.egress = ns.router();
            inner.ns = Some(ns.clone());
        }
        ns.add_host(self.ip(), self.sink());
    }

    /// Point this host's egress at an arbitrary sink (used by proxy hosts
    /// that inject traffic into a namespace they are not addressed in).
    pub fn set_egress(&self, sink: SinkRef) {
        self.inner.borrow_mut().egress = sink;
    }

    /// The sink through which the network delivers packets to this host.
    /// It does not keep the host alive: once the last [`Host`] handle is
    /// dropped it reports [`PacketSink::is_live`] false and drops what it
    /// is given.
    pub fn sink(&self) -> SinkRef {
        Rc::new(HostSink {
            host: Rc::downgrade(&self.inner),
        })
    }

    /// Listen for connections on `port`. Panics if the port is taken.
    pub fn listen(&self, port: u16, listener: Rc<dyn Listener>) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.listeners.contains_key(&port),
            "host {}: port {port} already listening",
            inner.ip
        );
        inner.listeners.insert(port, listener);
    }

    /// Install a transparent-intercept listener: every inbound SYN is
    /// accepted regardless of destination address, with the socket bound
    /// to the original destination (MITM proxying).
    pub fn listen_any(&self, listener: Rc<dyn Listener>) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.catch_all.is_none(), "catch-all listener already set");
        inner.catch_all = Some(listener);
    }

    /// Open a connection to `remote`; `app` receives socket events.
    pub fn connect(
        &self,
        sim: &mut Simulator,
        remote: SocketAddr,
        app: Rc<dyn SocketApp>,
    ) -> TcpHandle {
        let (local, config, links) = {
            let mut inner = self.inner.borrow_mut();
            let port = inner.alloc_ephemeral(remote);
            inner.stats.connections_initiated += 1;
            let local = SocketAddr::new(inner.ip, port);
            (local, inner.config.clone(), inner.links())
        };
        let handle = TcpHandle::connect(sim, local, remote, config, links, app);
        self.inner
            .borrow_mut()
            .sockets
            .insert((local, remote), handle.clone());
        handle
    }

    /// Number of live sockets (tests/diagnostics).
    pub fn socket_count(&self) -> usize {
        self.inner.borrow().sockets.len()
    }

    /// Live connection ids, in slot order (diagnostics; pair with
    /// [`Host::socket`]).
    pub fn socket_ids(&self) -> Vec<ConnId> {
        self.inner.borrow().sockets.ids().collect()
    }

    /// The socket for a [`ConnId`], if that incarnation is still live.
    pub fn socket(&self, id: ConnId) -> Option<TcpHandle> {
        self.inner.borrow().sockets.get(id).cloned()
    }

    /// Drop closed sockets from the connection table.
    pub fn reap_closed(&self) {
        self.inner
            .borrow_mut()
            .sockets
            .retain(|h| h.state() != crate::tcp::socket::TcpState::Closed);
    }

    fn dispatch(&self, sim: &mut Simulator, pkt: Packet) {
        enum Action {
            Socket(TcpHandle),
            Accept(Rc<dyn Listener>),
            Rst,
            Drop,
        }
        let action = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.packets_in += 1;
            if pkt.corrupted {
                inner.stats.corrupted_dropped += 1;
                Action::Drop
            } else if pkt.dst.ip != inner.ip && inner.catch_all.is_none() {
                // Misdelivered packet (shouldn't happen with correct
                // routing); drop silently but count it.
                Action::Drop
            } else if let Some(h) = inner.sockets.get_by_addr(&(pkt.dst, pkt.src)) {
                Action::Socket(h.clone())
            } else if pkt.segment.flags.syn && !pkt.segment.flags.ack {
                match inner.listeners.get(&pkt.dst.port) {
                    Some(l) => Action::Accept(l.clone()),
                    None => match &inner.catch_all {
                        Some(l) => Action::Accept(l.clone()),
                        None => Action::Rst,
                    },
                }
            } else if pkt.segment.flags.rst {
                Action::Drop
            } else {
                Action::Rst
            }
        };
        match action {
            Action::Drop => {}
            Action::Socket(h) => h.handle_segment(sim, pkt.segment),
            Action::Accept(listener) => self.accept(sim, listener, pkt),
            Action::Rst => {
                let (egress, id) = {
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.rst_sent += 1;
                    inner.stats.packets_out += 1;
                    let id = inner.ids.shared().get();
                    inner.ids.shared().set(id + 1);
                    (inner.egress.clone(), id)
                };
                let rst = Packet {
                    id,
                    src: pkt.dst,
                    dst: pkt.src,
                    segment: TcpSegment {
                        flags: TcpFlags::RST,
                        seq: pkt.segment.ack,
                        ack: pkt.segment.seq_end(),
                        window: 0,
                        sack: Default::default(),
                        payload: bytes::Bytes::new(),
                    },
                    corrupted: false,
                };
                egress.deliver(sim, rst);
            }
        }
    }

    fn accept(&self, sim: &mut Simulator, listener: Rc<dyn Listener>, pkt: Packet) {
        let (config, links) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.connections_accepted += 1;
            (inner.config.clone(), inner.links())
        };
        // Two-phase accept: the listener's app is installed before any
        // event can fire (the SYN-ACK raises none).
        let handle = TcpHandle::accept(sim, pkt.dst, pkt.src, &pkt.segment, config, links);
        let app = listener.on_connection(sim, handle.clone());
        handle.set_app(app);
        self.inner
            .borrow_mut()
            .sockets
            .insert((pkt.dst, pkt.src), handle);
    }
}

impl HostInner {
    /// What this host lends a socket it is about to create.
    fn links(&self) -> HostLinks {
        HostLinks {
            egress: self.egress.clone(),
            packet_ids: self.ids.shared(),
            out: self.out.clone(),
            timer_mux: self.timer_mux.clone(),
        }
    }

    fn alloc_ephemeral(&mut self, remote: SocketAddr) -> u16 {
        // Linear probe from the cursor; 28k ports is far more than any
        // page load needs.
        for _ in 0..28_000 {
            let port = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral >= 60_999 {
                32768
            } else {
                self.next_ephemeral + 1
            };
            let local = SocketAddr::new(self.ip, port);
            if !self.sockets.contains_addr(&(local, remote)) && !self.listeners.contains_key(&port)
            {
                return port;
            }
        }
        panic!("host {}: ephemeral ports exhausted", self.ip);
    }
}

struct HostSink {
    host: Weak<HostCell>,
}

impl PacketSink for HostSink {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        let Some(host) = self.host.upgrade() else {
            return;
        };
        // Defer through the event queue so application logic never runs
        // inside another element's borrow, applying host noise if any.
        // The packet waits in the host's inbox; the event holds the host.
        let at = {
            let mut inner = host.borrow_mut();
            let delay = match inner.noise.as_mut() {
                Some(n) => n.sample(),
                None => SimDuration::ZERO,
            };
            let at = (sim.now() + delay).max(inner.last_dispatch_at);
            inner.last_dispatch_at = at;
            inner.inbox.push_back(pkt);
            at
        };
        sim.schedule_target_at("sim_events_host_total", at, host, 0);
    }

    fn is_live(&self) -> bool {
        self.host.strong_count() > 0
    }
}

/// A dispatch event came due: hand the oldest waiting packet to its
/// socket, listener or reset path.
impl EventTarget for HostCell {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, _token: u64) {
        let head = self.borrow_mut().inbox.pop_front();
        let pkt = head.expect("one dispatch event per waiting packet");
        Host { inner: self }.dispatch(sim, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::delayed;
    use crate::tcp::socket::{SocketEvent, TcpState};
    use bytes::Bytes;

    /// An app that records events and can echo or respond.
    struct Recorder {
        events: Rc<RefCell<Vec<String>>>,
        data: Rc<RefCell<Vec<u8>>>,
    }

    type SharedLog = Rc<RefCell<Vec<String>>>;
    type SharedBuf = Rc<RefCell<Vec<u8>>>;

    impl Recorder {
        fn new() -> (Rc<Self>, SharedLog, SharedBuf) {
            let events = Rc::new(RefCell::new(Vec::new()));
            let data = Rc::new(RefCell::new(Vec::new()));
            (
                Rc::new(Recorder {
                    events: events.clone(),
                    data: data.clone(),
                }),
                events,
                data,
            )
        }
    }

    impl SocketApp for Recorder {
        fn on_event(&self, _sim: &mut Simulator, _h: &TcpHandle, ev: SocketEvent) {
            match ev {
                SocketEvent::Connected => self.events.borrow_mut().push("connected".into()),
                SocketEvent::Data(b) => {
                    self.events.borrow_mut().push(format!("data:{}", b.len()));
                    self.data.borrow_mut().extend_from_slice(&b);
                }
                SocketEvent::PeerClosed => self.events.borrow_mut().push("peer_closed".into()),
                SocketEvent::Reset => self.events.borrow_mut().push("reset".into()),
                SocketEvent::SendQueueDrained => {}
            }
        }
    }

    /// Echo server listener: replies with whatever it receives.
    struct EchoListener;
    impl Listener for EchoListener {
        fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
            struct Echo;
            impl SocketApp for Echo {
                fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                    if let SocketEvent::Data(b) = ev {
                        h.send(sim, b);
                    }
                }
            }
            Rc::new(Echo)
        }
    }

    fn two_host_world() -> (Simulator, Namespace, Host, Host) {
        let sim = Simulator::new();
        let ns = Namespace::root("world");
        let ids = PacketIdGen::new();
        let client = Host::new_in(IpAddr::new(10, 0, 0, 1), ids.clone(), &ns);
        let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
        (sim, ns, client, server)
    }

    #[test]
    fn connect_handshake_completes() {
        let (mut sim, _ns, client, server) = two_host_world();
        server.listen(80, Rc::new(EchoListener));
        let (app, events, _) = Recorder::new();
        let remote = SocketAddr::new(server.ip(), 80);
        let h = client.connect(&mut sim, remote, app);
        sim.run();
        assert_eq!(h.state(), TcpState::Established);
        assert_eq!(*events.borrow(), vec!["connected"]);
        assert_eq!(server.stats().connections_accepted, 1);
    }

    #[test]
    fn echo_round_trip() {
        let (mut sim, _ns, client, server) = two_host_world();
        server.listen(80, Rc::new(EchoListener));
        let (app, _events, data) = Recorder::new();
        let remote = SocketAddr::new(server.ip(), 80);
        let h = client.connect(&mut sim, remote, app);
        h.send(&mut sim, Bytes::from_static(b"ping"));
        sim.run();
        assert_eq!(&data.borrow()[..], b"ping");
    }

    #[test]
    fn large_transfer_integrity() {
        let (mut sim, _ns, client, server) = two_host_world();
        server.listen(80, Rc::new(EchoListener));
        let (app, _events, data) = Recorder::new();
        let remote = SocketAddr::new(server.ip(), 80);
        let h = client.connect(&mut sim, remote, app);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        h.send(&mut sim, Bytes::from(payload.clone()));
        sim.run();
        assert_eq!(data.borrow().len(), payload.len());
        assert_eq!(&data.borrow()[..], &payload[..]);
    }

    #[test]
    fn connect_to_closed_port_resets() {
        let (mut sim, _ns, client, server) = two_host_world();
        let (app, events, _) = Recorder::new();
        let remote = SocketAddr::new(server.ip(), 81);
        let h = client.connect(&mut sim, remote, app);
        sim.run_until(mm_sim::Timestamp::from_secs(2));
        assert_eq!(h.state(), TcpState::Closed);
        assert_eq!(*events.borrow(), vec!["reset"]);
        assert_eq!(server.stats().rst_sent, 1);
    }

    #[test]
    fn graceful_close_both_directions() {
        let (mut sim, _ns, client, server) = two_host_world();
        struct CloseOnData;
        impl Listener for CloseOnData {
            fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
                struct App;
                impl SocketApp for App {
                    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                        match ev {
                            SocketEvent::Data(b) => {
                                h.send(sim, b);
                                h.close(sim);
                            }
                            SocketEvent::PeerClosed => {}
                            _ => {}
                        }
                    }
                }
                Rc::new(App)
            }
        }
        server.listen(80, Rc::new(CloseOnData));
        let (app, events, data) = Recorder::new();
        let remote = SocketAddr::new(server.ip(), 80);
        let h = client.connect(&mut sim, remote, app);
        h.send(&mut sim, Bytes::from_static(b"bye"));
        sim.run_until(mm_sim::Timestamp::from_secs(1));
        // Server echoed then closed; client saw data + peer_closed.
        assert_eq!(&data.borrow()[..], b"bye");
        assert!(events.borrow().contains(&"peer_closed".to_string()));
        // Client closes too; both reach Closed.
        h.close(&mut sim);
        sim.run_until(mm_sim::Timestamp::from_secs(2));
        assert_eq!(h.state(), TcpState::Closed);
    }

    #[test]
    fn duplicate_listen_panics() {
        let (_sim, _ns, _client, server) = two_host_world();
        server.listen(80, Rc::new(EchoListener));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.listen(80, Rc::new(EchoListener));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn ephemeral_ports_distinct() {
        let (mut sim, _ns, client, server) = two_host_world();
        server.listen(80, Rc::new(EchoListener));
        let remote = SocketAddr::new(server.ip(), 80);
        let mut ports = std::collections::HashSet::new();
        for _ in 0..50 {
            let (app, _, _) = Recorder::new();
            let h = client.connect(&mut sim, remote, app);
            assert!(ports.insert(h.local_addr().port));
        }
        sim.run();
        assert_eq!(client.socket_count(), 50);
    }

    #[test]
    fn corrupted_packets_dropped_at_host() {
        let (mut sim, ns, client, server) = two_host_world();
        server.listen(80, Rc::new(EchoListener));
        // Deliver a corrupted packet directly to the server's sink.
        let pkt = Packet {
            id: 999,
            src: SocketAddr::new(client.ip(), 5555),
            dst: SocketAddr::new(server.ip(), 80),
            segment: TcpSegment {
                flags: TcpFlags::SYN,
                seq: 0,
                ack: 0,
                window: 0,
                sack: Default::default(),
                payload: Bytes::new(),
            },
            corrupted: true,
        };
        ns.router().deliver(&mut sim, pkt);
        sim.run();
        assert_eq!(server.stats().corrupted_dropped, 1);
        assert_eq!(server.stats().connections_accepted, 0);
    }

    #[test]
    fn reap_closed_removes_sockets() {
        let (mut sim, _ns, client, server) = two_host_world();
        let (app, _, _) = Recorder::new();
        // Connect to closed port: resets quickly.
        let remote = SocketAddr::new(server.ip(), 9);
        let _ = client.connect(&mut sim, remote, app);
        sim.run_until(mm_sim::Timestamp::from_secs(1));
        assert_eq!(client.socket_count(), 1);
        client.reap_closed();
        assert_eq!(client.socket_count(), 0);
    }

    #[test]
    fn a_host_keeps_its_namespace_alive() {
        let (mut sim, ns, client, server) = two_host_world();
        drop(ns);
        server.listen(80, Rc::new(EchoListener));
        let (app, _events, data) = Recorder::new();
        let h = client.connect(&mut sim, SocketAddr::new(server.ip(), 80), app);
        h.send(&mut sim, Bytes::from_static(b"ping"));
        sim.run();
        assert_eq!(&data.borrow()[..], b"ping");
    }

    #[test]
    fn dropping_a_host_mid_transfer_is_counted_not_fatal() {
        // 10 ms each way between the hosts, so there are always packets
        // in flight and both ends have retransmission timers armed.
        let mut sim = Simulator::new();
        let ns = Namespace::root("world");
        let ids = PacketIdGen::new();
        let client = Host::new_in(IpAddr::new(10, 0, 0, 1), ids.clone(), &ns);
        let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
        let ms = SimDuration::from_millis;
        client.set_egress(delayed(ns.router(), ms(10)));
        server.set_egress(delayed(ns.router(), ms(10)));
        server.listen(80, Rc::new(EchoListener));
        let (app, events, _data) = Recorder::new();
        let h = client.connect(&mut sim, SocketAddr::new(server.ip(), 80), app);
        h.send(&mut sim, Bytes::from(vec![7u8; 200_000]));
        sim.run_until(mm_sim::Timestamp::from_millis(75));
        assert_eq!(h.state(), TcpState::Established);
        assert_eq!(ns.counters().unroutable, 0);

        // The last handle to the server goes: its sockets, their apps and
        // their armed timers go with it.
        drop(server);
        assert_eq!(sim.run(), mm_sim::RunResult::QueueEmpty);
        // Everything the client had in flight, and every retransmission
        // until it gave up, found no one there.
        assert!(ns.counters().unroutable > 10, "{:?}", ns.counters());
        assert_eq!(h.state(), TcpState::Closed);
        assert_eq!(events.borrow().last().map(String::as_str), Some("reset"));
    }

    #[test]
    fn a_host_dropped_with_packets_in_its_inbox_still_dispatches_them() {
        let (mut sim, ns, client, server) = two_host_world();
        let accepted = Rc::new(Cell::new(0));
        struct Count(Rc<Cell<u32>>);
        impl Listener for Count {
            fn on_connection(&self, sim: &mut Simulator, h: TcpHandle) -> Rc<dyn SocketApp> {
                self.0.set(self.0.get() + 1);
                EchoListener.on_connection(sim, h)
            }
        }
        server.listen(80, Rc::new(Count(accepted.clone())));
        // 1 ms of noise: what is delivered waits in the inbox.
        server.set_noise(HostNoise::new(
            RngStream::from_seed(1),
            Box::new(mm_sim::dist::Constant(1000.0)),
        ));
        let remote = SocketAddr::new(server.ip(), 80);
        for _ in 0..3 {
            let (app, _, _) = Recorder::new();
            client.connect(&mut sim, remote, app);
        }
        assert_eq!(
            sim.pending_events(),
            3 + 3,
            "three SYNs waiting, three RTOs armed"
        );
        // A pending dispatch holds the host, as the closure it replaces
        // did: the SYNs are accepted (in order), then the host is gone.
        drop(server);
        sim.run_until(mm_sim::Timestamp::from_millis(5));
        assert_eq!(accepted.get(), 3);
        assert_eq!(
            ns.counters().unroutable,
            3,
            "the clients' ACKs found no one"
        );
        assert_eq!(
            Rc::strong_count(&accepted),
            1,
            "the host and its listener were freed"
        );
    }

    #[test]
    fn a_dead_hosts_address_can_be_taken_again() {
        let (mut sim, ns, client, server) = two_host_world();
        let ip = server.ip();
        drop(server);
        let again = Host::new_in(ip, PacketIdGen::new(), &ns);
        again.listen(80, Rc::new(EchoListener));
        let (app, events, _) = Recorder::new();
        let _h = client.connect(&mut sim, SocketAddr::new(ip, 80), app);
        sim.run();
        assert_eq!(*events.borrow(), vec!["connected"]);
    }

    #[test]
    fn a_closed_socket_lets_go_of_its_app() {
        let (mut sim, _ns, client, server) = two_host_world();
        let (app, events, _) = Recorder::new();
        // Connect to a closed port: reset, and closed, at once.
        let h = client.connect(&mut sim, SocketAddr::new(server.ip(), 81), app.clone());
        assert_eq!(Rc::strong_count(&app), 2);
        sim.run_until(mm_sim::Timestamp::from_secs(2));
        assert_eq!(*events.borrow(), vec!["reset"]);
        assert_eq!(Rc::strong_count(&app), 1, "only the test still holds it");
        // The handle keeps answering, and the table entry stays until
        // it is reaped.
        assert_eq!(h.state(), TcpState::Closed);
        assert_eq!(h.local_addr().ip, client.ip());
        assert_eq!(h.stats().segments_sent, 1);
        assert_eq!(client.socket_count(), 1);
    }

    #[test]
    fn a_gracefully_closed_pair_lets_go_of_both_apps() {
        let (mut sim, _ns, client, server) = two_host_world();
        struct CloseBack(Rc<Cell<usize>>);
        impl Drop for CloseBack {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        impl SocketApp for CloseBack {
            fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                if matches!(ev, SocketEvent::Connected | SocketEvent::PeerClosed) {
                    h.close(sim);
                }
            }
        }
        struct Accept(Rc<Cell<usize>>);
        impl Listener for Accept {
            fn on_connection(&self, _: &mut Simulator, _: TcpHandle) -> Rc<dyn SocketApp> {
                Rc::new(CloseBack(self.0.clone()))
            }
        }
        let dropped = Rc::new(Cell::new(0));
        server.listen(80, Rc::new(Accept(dropped.clone())));
        let h = client.connect(
            &mut sim,
            SocketAddr::new(server.ip(), 80),
            Rc::new(CloseBack(dropped.clone())),
        );
        sim.run();
        assert_eq!(h.state(), TcpState::Closed);
        assert_eq!(dropped.get(), 2, "both ends released their app at Closed");
        assert_eq!(client.socket_count() + server.socket_count(), 2);
    }

    #[test]
    fn host_noise_delays_processing() {
        let (mut sim, _ns, client, server) = two_host_world();
        server.listen(80, Rc::new(EchoListener));
        // 1 ms fixed "noise" per packet on the server.
        server.set_noise(HostNoise::new(
            RngStream::from_seed(1),
            Box::new(mm_sim::dist::Constant(1000.0)),
        ));
        let (app, events, _) = Recorder::new();
        let remote = SocketAddr::new(server.ip(), 80);
        let _h = client.connect(&mut sim, remote, app);
        sim.run();
        assert_eq!(*events.borrow(), vec!["connected"]);
        // Handshake took at least the server-side noise.
        assert!(sim.now() >= mm_sim::Timestamp::from_millis(1));
    }
}
