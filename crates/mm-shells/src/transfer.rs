//! One bulk TCP transfer, the way every test, the fleet and
//! `examples/tcp_probe.rs` build one (DESIGN.md §2).
//!
//! Two apps: a [`Sender`] writes its payload once the connection is up
//! and closes; a [`Receiver`] checks every delivered chunk against the
//! payload at its offset, folds `(instant, length)` into a digest, and
//! closes on the peer's FIN. [`Serve`] hands the connections a
//! listener accepts to one of them; [`upload`] pairs them between two
//! hosts a caller has wired. And one world, [`Transfer`]: an
//! upload from a client in a [`ShellStack`]'s innermost namespace to a
//! server at its root.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use mm_net::{
    Host, IpAddr, Listener, Namespace, PacketIdGen, SinkRef, SocketAddr, SocketApp, SocketEvent,
    TcpConfig, TcpHandle, TcpStats,
};
use mm_sim::{EngineProfile, Simulator, Timestamp};

use crate::compose::ShellStack;

/// `n` bytes of `i % 251`: a prime period, so a chunk delivered at the
/// wrong offset does not match the payload there.
pub fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// Writes its payload on `Connected`, then closes.
pub struct Sender {
    payload: Bytes,
}

impl Sender {
    pub fn new(payload: Bytes) -> Rc<Sender> {
        Rc::new(Sender { payload })
    }
}

impl SocketApp for Sender {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        if let SocketEvent::Connected = ev {
            h.send(sim, self.payload.clone());
            h.close(sim);
        }
    }
}

/// The account of one connection's delivered stream; closes on the
/// peer's FIN.
pub struct Receiver {
    payload: Bytes,
    received: Cell<usize>,
    matched: Cell<bool>,
    digest: Cell<u64>,
    last_data: Cell<Option<Timestamp>>,
}

/// fnv1a64's offset basis: a digest before anything is folded in.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `v`'s little-endian bytes into the fnv1a64 hash `h`.
pub fn fnv(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Receiver {
    pub fn new(payload: Bytes) -> Rc<Receiver> {
        Rc::new(Receiver {
            payload,
            received: Cell::new(0),
            matched: Cell::new(true),
            digest: Cell::new(FNV_OFFSET),
            last_data: Cell::new(None),
        })
    }

    /// Bytes delivered so far.
    pub fn received(&self) -> usize {
        self.received.get()
    }

    /// Exactly the payload arrived: every byte, each at its offset.
    pub fn intact(&self) -> bool {
        self.matched.get() && self.received.get() == self.payload.len()
    }

    /// fnv1a64 over `(instant, length)` of every delivered chunk.
    pub fn digest(&self) -> u64 {
        self.digest.get()
    }

    /// When the last chunk so far arrived.
    pub fn last_data(&self) -> Option<Timestamp> {
        self.last_data.get()
    }
}

impl SocketApp for Receiver {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Data(chunk) => {
                let (at, now) = (self.received.get(), sim.now());
                let end = at + chunk.len();
                if self.payload.get(at..end) != Some(&chunk[..]) {
                    self.matched.set(false);
                }
                self.received.set(end);
                self.digest.set(fnv(
                    fnv(self.digest.get(), now.as_nanos()),
                    chunk.len() as u64,
                ));
                self.last_data.set(Some(now));
            }
            SocketEvent::PeerClosed => h.close(sim),
            _ => {}
        }
    }
}

/// Hands every connection a listener accepts to one app. A [`Sender`]
/// serves any number; a [`Receiver`] keeps one stream's account.
pub struct Serve(pub Rc<dyn SocketApp>);

impl Listener for Serve {
    fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
        self.0.clone()
    }
}

/// An upload of `data` between two hosts already on one path: a
/// [`Receiver`] listening at `server`'s `port`, and a [`Sender`] that
/// `client` connects to it. Returns the sending socket and the receiver.
pub fn upload(
    sim: &mut Simulator,
    client: &Host,
    server: &Host,
    port: u16,
    data: Bytes,
) -> (TcpHandle, Rc<Receiver>) {
    let receiver = Receiver::new(data.clone());
    server.listen(port, Rc::new(Serve(receiver.clone())));
    let to = SocketAddr::new(server.ip(), port);
    (client.connect(sim, to, Sender::new(data)), receiver)
}

/// What a [`Transfer`] is: both ends' TCP and the payload's size.
pub struct TransferSpec {
    pub tcp: TcpConfig,
    pub bytes: usize,
}

const SERVER_IP: IpAddr = IpAddr::new(10, 0, 0, 2);
const CLIENT_IP: IpAddr = IpAddr::new(10, 0, 0, 1);

/// One upload of [`payload`]`(bytes)`, connected and ready to run: a
/// [`Sender`] at a client in the stack's innermost namespace, a
/// [`Receiver`] at a server at its root.
pub struct Transfer {
    pub sim: Simulator,
    /// The shells between the ends, for their counters.
    pub stack: ShellStack,
    /// The sending socket.
    pub client: TcpHandle,
    /// Held: a namespace only knows its hosts, it does not keep them.
    hosts: [Host; 2],
    receiver: Rc<Receiver>,
}

/// What a [`Transfer`] run left.
#[derive(Debug, Clone)]
pub struct TransferResult {
    pub sender: TcpStats,
    pub receiver: TcpStats,
    /// [`Receiver::digest`].
    pub digest: u64,
    pub intact: bool,
    pub events_executed: u64,
    /// The engine profile, if one was enabled on `sim`.
    pub profile: Option<EngineProfile>,
    /// `sim.now()`: where the engine's clock stopped, superseded timers
    /// included.
    pub completed_at: Timestamp,
    /// When the last chunk of data arrived.
    pub last_data: Timestamp,
}

impl Transfer {
    /// Build the world: `shells` nests the shells into a stack rooted
    /// at the server's namespace.
    pub fn new(spec: &TransferSpec, shells: impl FnOnce(ShellStack) -> ShellStack) -> Transfer {
        Transfer::through(spec, shells, |router| router)
    }

    /// [`Transfer::new`] with the client's packets sent to what `egress`
    /// wraps around the stack's innermost router, from the SYN on.
    pub fn through(
        spec: &TransferSpec,
        shells: impl FnOnce(ShellStack) -> ShellStack,
        egress: impl FnOnce(SinkRef) -> SinkRef,
    ) -> Transfer {
        let mut sim = Simulator::new();
        let root = Namespace::root("root");
        let ids = PacketIdGen::new();
        let server = Host::new_in(SERVER_IP, ids.clone(), &root);
        server.set_tcp_config(spec.tcp.clone());
        let stack = shells(ShellStack::new(&root));
        let client_host = Host::new_in(CLIENT_IP, ids, &stack.innermost());
        client_host.set_egress(egress(stack.innermost().router()));
        client_host.set_tcp_config(spec.tcp.clone());
        let (client, receiver) = upload(&mut sim, &client_host, &server, 80, payload(spec.bytes));
        Transfer {
            sim,
            stack,
            client,
            hosts: [server, client_host],
            receiver,
        }
    }

    /// Bytes the server has received so far.
    pub fn received(&self) -> usize {
        self.receiver.received()
    }

    /// Run to the last event.
    pub fn run(&mut self) -> TransferResult {
        self.sim.run();
        let server = &self.hosts[0];
        let accepted = server
            .socket_ids()
            .first()
            .and_then(|&id| server.socket(id))
            .expect("the server accepted the upload");
        TransferResult {
            sender: self.client.stats(),
            receiver: accepted.stats(),
            digest: self.receiver.digest(),
            intact: self.receiver.intact(),
            events_executed: self.sim.events_executed(),
            profile: self.sim.profile().cloned(),
            completed_at: self.sim.now(),
            last_data: self.receiver.last_data().expect("data arrived"),
        }
    }
}
