//! Client ↔ server over the simulated network: streams, concurrency
//! limits, priorities, flow control, and connection death.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use mm_http::{Request, Response, Url};
use mm_mux::{
    Frame, FrameDecoder, MuxClient, MuxConfig, MuxHandler, MuxOwner, MuxResponder, MuxServerConn,
};
use mm_net::{
    Host, IpAddr, Listener, Namespace, PacketIdGen, SocketAddr, SocketApp, SocketEvent, TcpHandle,
};
use mm_sim::{SimDuration, Simulator};

/// Serves `/echo/<n>` with an `n`-byte body; tracks peak concurrency.
struct TestHandler {
    in_flight: Rc<RefCell<(usize, usize)>>, // (current, peak)
    delay: SimDuration,
}

impl MuxHandler for TestHandler {
    fn handle(
        &self,
        sim: &mut Simulator,
        _peer: SocketAddr,
        req: Request,
        responder: MuxResponder,
    ) {
        let n: usize = req
            .path()
            .rsplit('/')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4);
        let body: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let resp = Response::ok(Bytes::from(body), "application/octet-stream");
        {
            let mut f = self.in_flight.borrow_mut();
            f.0 += 1;
            f.1 = f.1.max(f.0);
        }
        let in_flight = self.in_flight.clone();
        if self.delay.is_zero() {
            in_flight.borrow_mut().0 -= 1;
            responder.respond(sim, &resp);
        } else {
            let at = sim.now() + self.delay;
            sim.schedule_at(at, move |sim| {
                in_flight.borrow_mut().0 -= 1;
                responder.respond(sim, &resp);
            });
        }
    }
}

struct MuxListener {
    config: MuxConfig,
    handler: Rc<TestHandler>,
}

impl Listener for MuxListener {
    fn on_connection(&self, _sim: &mut Simulator, h: TcpHandle) -> Rc<dyn SocketApp> {
        Rc::new(MuxServerConn::new(
            h,
            self.config.clone(),
            self.handler.clone(),
        ))
    }
}

struct World {
    sim: Simulator,
    /// Held, not used: a namespace only knows its hosts, it does not
    /// keep them.
    _server: Host,
    client_host: Host,
    server_addr: SocketAddr,
    in_flight: Rc<RefCell<(usize, usize)>>,
}

fn world(config: &MuxConfig, server_delay: SimDuration) -> World {
    let sim = Simulator::new();
    let ns = Namespace::root("mux-test");
    let ids = PacketIdGen::new();
    let server = Host::new_in(IpAddr::new(10, 0, 0, 1), ids.clone(), &ns);
    let client_host = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
    let in_flight = Rc::new(RefCell::new((0, 0)));
    server.listen(
        80,
        Rc::new(MuxListener {
            config: config.clone(),
            handler: Rc::new(TestHandler {
                in_flight: in_flight.clone(),
                delay: server_delay,
            }),
        }),
    );
    World {
        sim,
        _server: server,
        client_host,
        server_addr: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80),
        in_flight,
    }
}

/// Each settled request's path and response (`None`: lost), in the
/// order they settled.
type Results = Rc<RefCell<Vec<(String, Option<Response>)>>>;

/// The test owner: records what settles.
struct Recorder(Results);

impl MuxOwner for Recorder {
    fn settled(&self, _sim: &mut Simulator, url: Url, _tag: u32, response: Option<Response>) {
        self.0
            .borrow_mut()
            .push((url.target().to_string(), response));
    }
}

/// A client of `addr` whose settled requests land in the results.
fn connect_to(w: &mut World, addr: SocketAddr, cfg: MuxConfig) -> (MuxClient, Results) {
    let out: Results = Rc::default();
    let client = MuxClient::connect(&mut w.sim, &w.client_host, addr, cfg, Recorder(out.clone()));
    (client, out)
}

fn connect(w: &mut World, cfg: MuxConfig) -> (MuxClient, Results) {
    let addr = w.server_addr;
    connect_to(w, addr, cfg)
}

/// The server's URL for `path`.
fn url(path: &str) -> Url {
    Url::parse(&format!("http://10.0.0.1{path}")).expect("a test URL")
}

fn fetch(w: &mut World, client: &MuxClient, path: &str, priority: u8) {
    client.request(&mut w.sim, url(path), priority, 0);
}

#[test]
fn many_streams_one_connection() {
    let cfg = MuxConfig::default();
    let mut w = world(&cfg, SimDuration::ZERO);
    let (client, out) = connect(&mut w, cfg);
    for i in 0..20 {
        fetch(&mut w, &client, &format!("/echo/{}", 100 + i), 1);
    }
    w.sim.run();
    let results = out.borrow();
    assert_eq!(results.len(), 20);
    for (path, result) in results.iter() {
        let resp = result.as_ref().expect("stream completed");
        assert_eq!(resp.status, 200);
        let n: usize = path.rsplit('/').next().unwrap().parse().unwrap();
        assert_eq!(resp.body.len(), n);
        assert!(resp
            .body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (i % 251) as u8));
    }
    // Everything rode one TCP connection.
    assert_eq!(w.client_host.stats().connections_initiated, 1);
}

#[test]
fn concurrent_streams_capped() {
    let cfg = MuxConfig {
        max_concurrent_streams: 4,
        ..MuxConfig::default()
    };
    // Server think time keeps streams open long enough to overlap.
    let mut w = world(&cfg, SimDuration::from_millis(50));
    let (client, out) = connect(&mut w, cfg);
    for _ in 0..12 {
        fetch(&mut w, &client, "/echo/64", 1);
    }
    assert_eq!(
        client.queued_requests(),
        12,
        "nothing dispatches pre-connect"
    );
    w.sim.run();
    assert_eq!(out.borrow().len(), 12);
    let peak = w.in_flight.borrow().1;
    assert!(peak <= 4, "server saw {peak} concurrent requests");
    assert!(peak >= 2, "streams never overlapped");
}

#[test]
fn priority_jumps_the_queue() {
    let cfg = MuxConfig {
        max_concurrent_streams: 1,
        ..MuxConfig::default()
    };
    let mut w = world(&cfg, SimDuration::from_millis(10));
    let (client, out) = connect(&mut w, cfg);
    // Three subresources queued first, then the "root" at priority 0.
    fetch(&mut w, &client, "/echo/8", 1);
    fetch(&mut w, &client, "/echo/9", 1);
    fetch(&mut w, &client, "/echo/10", 1);
    fetch(&mut w, &client, "/root", 0);
    w.sim.run();
    let order: Vec<String> = out.borrow().iter().map(|(p, _)| p.clone()).collect();
    // One stream at a time, so completion order == dispatch order; the
    // priority-0 request must run first.
    assert_eq!(order[0], "/root");
}

#[test]
fn large_body_flow_controlled() {
    // Windows far smaller than the body: the transfer must stall for
    // WINDOW_UPDATEs and still complete intact.
    let cfg = MuxConfig {
        initial_stream_window: 8 * 1024,
        connection_window: 16 * 1024,
        frame_max_data: 2 * 1024,
        ..MuxConfig::default()
    };
    let mut w = world(&cfg, SimDuration::ZERO);
    let (client, out) = connect(&mut w, cfg);
    fetch(&mut w, &client, "/echo/200000", 1);
    w.sim.run();
    let results = out.borrow();
    let resp = results[0].1.as_ref().expect("completed");
    assert_eq!(resp.body.len(), 200_000);
    assert!(resp
        .body
        .iter()
        .enumerate()
        .all(|(i, &b)| b == (i % 251) as u8));
}

#[test]
fn two_streams_interleave_under_tiny_frames() {
    let cfg = MuxConfig {
        frame_max_data: 1024,
        ..MuxConfig::default()
    };
    let mut w = world(&cfg, SimDuration::ZERO);
    let (client, out) = connect(&mut w, cfg);
    fetch(&mut w, &client, "/echo/50000", 1);
    fetch(&mut w, &client, "/echo/50000", 1);
    w.sim.run();
    let results = out.borrow();
    assert_eq!(results.len(), 2);
    for (_, r) in results.iter() {
        assert_eq!(r.as_ref().unwrap().body.len(), 50_000);
    }
}

#[test]
fn refused_connection_fails_requests() {
    let cfg = MuxConfig::default();
    let mut w = world(&cfg, SimDuration::ZERO);
    // Port 81 has no listener: the SYN is refused with RST.
    let addr = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 81);
    let (client, out) = connect_to(&mut w, addr, cfg);
    fetch(&mut w, &client, "/echo/1", 1);
    w.sim.run();
    assert!(client.is_dead());
    let results = out.borrow();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].1, None, "the request was lost");
    // Requests after death fail immediately, too.
    drop(results);
    fetch(&mut w, &client, "/echo/2", 1);
    assert_eq!(out.borrow().len(), 2);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let cfg = MuxConfig::default();
        let mut w = world(&cfg, SimDuration::from_millis(5));
        let (client, _out) = connect(&mut w, cfg);
        for i in 0..10 {
            fetch(&mut w, &client, &format!("/echo/{}", 1000 * (i + 1)), 1);
        }
        w.sim.run();
        w.sim.now()
    };
    assert_eq!(run(), run());
}

#[test]
fn mismatched_connection_windows_negotiate() {
    // Server configured with a large connection window, client with a
    // tiny one: SETTINGS negotiation must make the server respect the
    // client's window (and its WINDOW_UPDATE cadence), or the transfer
    // would stall forever mid-body.
    let server_cfg = MuxConfig::default(); // 2 MiB connection window
    let client_cfg = MuxConfig {
        initial_stream_window: 32 * 1024,
        connection_window: 64 * 1024,
        ..MuxConfig::default()
    };
    let mut w = world(&server_cfg, SimDuration::ZERO);
    let (client, out) = connect(&mut w, client_cfg);
    fetch(&mut w, &client, "/echo/500000", 1);
    w.sim.run();
    let results = out.borrow();
    let resp = results[0].1.as_ref().expect("completed despite mismatch");
    assert_eq!(resp.body.len(), 500_000);
}

/// The client owns its connection, not the other way round: once the
/// caller lets go of it, what the socket still receives has no one to
/// report to, and the outstanding requests are simply never answered.
#[test]
fn events_for_a_dropped_client_are_ignored() {
    let cfg = MuxConfig::default();
    let mut w = world(&cfg, SimDuration::from_millis(5));
    let (client, out) = connect(&mut w, cfg);
    fetch(&mut w, &client, "/echo/50000", 1);
    // Handshake done and the request out; the server is thinking.
    w.sim.run_until(mm_sim::Timestamp::from_millis(2));
    assert_eq!(client.active_streams(), 1);
    let heard = w.client_host.stats().packets_in;
    drop(client);
    assert_eq!(w.sim.run(), mm_sim::RunResult::QueueEmpty);
    assert!(
        w.client_host.stats().packets_in > heard,
        "the server answered"
    );
    assert!(out.borrow().is_empty(), "nobody was listening");
}

/// A responder held across think time does not own the connection: if
/// the server host is gone when the answer is ready, it goes nowhere.
#[test]
fn a_responder_that_outlives_its_connection_writes_nothing() {
    let cfg = MuxConfig::default();
    let World {
        mut sim,
        _server: server,
        client_host,
        server_addr,
        in_flight,
    } = world(&cfg, SimDuration::from_millis(5));
    let out: Results = Rc::default();
    let client = MuxClient::connect(
        &mut sim,
        &client_host,
        server_addr,
        cfg,
        Recorder(out.clone()),
    );
    client.request(&mut sim, url("/echo/50000"), 1, 0);
    sim.run_until(mm_sim::Timestamp::from_millis(2));
    assert_eq!(in_flight.borrow().0, 1, "the handler holds a responder");
    drop(server);
    assert_eq!(sim.run(), mm_sim::RunResult::QueueEmpty);
    assert_eq!(in_flight.borrow().0, 0, "the handler did try to respond");
    // Nothing was written, so the client (its request long acknowledged)
    // is still waiting.
    assert!(out.borrow().is_empty());
    assert_eq!(client.active_streams(), 1);
}

/// A server that answers the client's first bytes with SETTINGS and
/// 12 KiB of DATA on stream 99, which the client never opened, and keeps
/// every byte the client sends.
#[derive(Clone)]
struct StrayData {
    heard: Rc<RefCell<Vec<u8>>>,
}

impl Listener for StrayData {
    fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
        Rc::new(self.clone())
    }
}

impl SocketApp for StrayData {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        let SocketEvent::Data(bytes) = ev else {
            return;
        };
        let first = self.heard.borrow().is_empty();
        self.heard.borrow_mut().extend_from_slice(&bytes);
        if first {
            let settings = Frame::Settings {
                max_concurrent_streams: 32,
                initial_window: 1 << 16,
                connection_window: 1 << 16,
            };
            let stray = Frame::Data {
                stream: 99,
                end_stream: false,
                payload: Bytes::from(vec![0u8; 12 * 1024]),
            };
            h.send(sim, settings.encode());
            h.send(sim, stray.encode());
        }
    }
}

/// DATA on a stream the client does not know still counts against the
/// connection window (RFC 9113 §6.9): with a 16 KiB window, 12 KiB of
/// it earn the server a connection WINDOW_UPDATE. Were it dropped
/// uncounted, the window would shrink for good and later streams wedge.
#[test]
fn stray_data_is_credited_to_the_connection_window() {
    let mut sim = Simulator::new();
    let ns = Namespace::root("mux-stray");
    let ids = PacketIdGen::new();
    let server = Host::new_in(IpAddr::new(10, 0, 0, 1), ids.clone(), &ns);
    let client_host = Host::new_in(IpAddr::new(10, 0, 0, 2), ids, &ns);
    let heard = Rc::new(RefCell::new(Vec::new()));
    server.listen(
        80,
        Rc::new(StrayData {
            heard: heard.clone(),
        }),
    );
    let cfg = MuxConfig {
        connection_window: 16 * 1024,
        ..MuxConfig::default()
    };
    let out: Results = Rc::default();
    let addr = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80);
    let client = MuxClient::connect(&mut sim, &client_host, addr, cfg, Recorder(out.clone()));
    client.request(&mut sim, url("/never/answered"), 1, 0);
    sim.run_until(mm_sim::Timestamp::from_millis(100));
    let sent = FrameDecoder::new()
        .feed(&heard.borrow())
        .expect("the client's bytes decode");
    let update = Frame::WindowUpdate {
        stream: 0,
        increment: 12 * 1024,
    };
    assert!(sent.contains(&update), "the client sent only {sent:?}");
    assert!(!client.is_dead() && out.borrow().is_empty());
    assert_eq!(client.active_streams(), 1);
}
