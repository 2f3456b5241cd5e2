//! The scripted-drop path of the SACK and RACK-TLP recovery tests: a
//! fixed delay each way, and a forward wire that drops a chosen run of
//! the sender's data segments on their first transmission only.

use bytes::Bytes;
use mm_net::{
    Host, IpAddr, Namespace, Packet, PacketIdGen, PacketSink, SinkRef, SocketAddr, SocketApp,
    TcpConfig, TcpStats,
};
use mm_shells::transfer::{payload, Receiver, Serve};
use mm_sim::{SimDuration, Simulator, Timestamp};
use std::cell::RefCell;
use std::rc::Rc;

/// A fixed-delay wire dropping data segments `[drop_from, drop_to)`
/// (0-based, counted over every data segment entering it) once.
pub struct LossyWire {
    next: SinkRef,
    delay: SimDuration,
    data_seen: RefCell<u64>,
    drop_from: u64,
    drop_to: u64,
    dropped: RefCell<Vec<u64>>,
}

impl PacketSink for LossyWire {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        if !pkt.segment.payload.is_empty() {
            let mut seen = self.data_seen.borrow_mut();
            let idx = *seen;
            *seen += 1;
            // A retransmission revisits a dropped seq and passes.
            let first_transmission = self.dropped.borrow().iter().all(|&s| s != pkt.segment.seq);
            if first_transmission && idx >= self.drop_from && idx < self.drop_to {
                self.dropped.borrow_mut().push(pkt.segment.seq);
                return;
            }
        }
        let next = self.next.clone();
        sim.schedule_in(self.delay, move |sim| next.deliver(sim, pkt));
    }
}

/// A plain fixed-delay wire (the reverse path).
pub struct DelayWire {
    pub next: SinkRef,
    pub delay: SimDuration,
}

impl PacketSink for DelayWire {
    fn deliver(&self, sim: &mut Simulator, pkt: Packet) {
        let next = self.next.clone();
        sim.schedule_in(self.delay, move |sim| next.deliver(sim, pkt));
    }
}

/// The two hosts of an upload, the server in a namespace whose route
/// back to the client is a [`DelayWire`]; the client's egress is left
/// to the caller.
pub fn hosts(
    client_cfg: TcpConfig,
    server_cfg: TcpConfig,
    one_way: SimDuration,
) -> (Host, Host, Namespace) {
    let ns = Namespace::root("w");
    let ids = PacketIdGen::new();
    let client = Host::new(IpAddr::new(10, 0, 0, 1), ids.clone());
    let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
    client.set_tcp_config(client_cfg);
    server.set_tcp_config(server_cfg);
    ns.add_host(
        client.ip(),
        Rc::new(DelayWire {
            next: client.sink(),
            delay: one_way,
        }),
    );
    (client, server, ns)
}

/// Upload `total` bytes from the app `sender` makes of them, over an
/// RTT of `2 * one_way`, dropping data segments `[drop_from, drop_to)`
/// once. Returns (when the last byte arrived, client-side TCP stats).
pub fn scripted_upload<S: SocketApp + 'static>(
    sender: fn(Bytes) -> Rc<S>,
    client_cfg: TcpConfig,
    server_cfg: TcpConfig,
    total: usize,
    one_way: SimDuration,
    drop_from: u64,
    drop_to: u64,
) -> (Timestamp, TcpStats) {
    let mut sim = Simulator::new();
    let (client, server, ns) = hosts(client_cfg, server_cfg, one_way);
    client.set_egress(Rc::new(LossyWire {
        next: ns.router(),
        delay: one_way,
        data_seen: RefCell::new(0),
        drop_from,
        drop_to,
        dropped: RefCell::new(Vec::new()),
    }));
    let data = payload(total);
    let receiver = Receiver::new(data.clone());
    server.listen(80, Rc::new(Serve(receiver.clone())));
    let h = client.connect(&mut sim, SocketAddr::new(server.ip(), 80), sender(data));
    sim.run();
    assert!(receiver.intact(), "stream corrupted");
    let finished = receiver.last_data().expect("transfer never completed");
    (finished, h.stats())
}
