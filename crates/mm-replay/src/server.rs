//! ReplayShell: mirroring a recorded website.
//!
//! From the paper: "ReplayShell accurately emulates the multi-origin nature
//! of websites by spawning an Apache Web server for each distinct IP/port
//! pair seen while recording. To operate transparently, ReplayShell binds
//! its Apache Web servers to the same IP address and port number as their
//! recorded counterparts. [...] All browser requests are handled by one of
//! ReplayShell's servers, each of which can access the entire recorded
//! content for the site."
//!
//! The single-server ablation (§4, Table 2, Figure 3) is [`ReplayMode::SingleServer`]:
//! all recorded content is served from one host, and the address map —
//! the browser's stand-in for DNS — points every origin at it.
//!
//! Either way there is one [`Server`] per serving IP, and every request
//! it takes, over either protocol, lives through [`Server::serve`].

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::{Rc, Weak};

use mm_capture::{HttpEvent, HttpPhase, TapHandle, NO_RESOURCE};
use mm_http::{write_response_fields, Request, RequestParser, Response};
use mm_mux::{MuxConfig, MuxHandler, MuxResponder, MuxServerConn};
use mm_net::{
    Host, Listener, Namespace, Origin, PacketIdGen, SocketAddr, SocketApp, SocketEvent, TcpHandle,
    TcpState, WeakTcpHandle,
};
use mm_sim::{EventTarget, SimDuration, Simulator, Timestamp, UNTAGGED_EVENT};
use mm_trace::{Span, SpanHandle, SpanKind};

use crate::matcher::Matcher;
use crate::normalize::Replayed;
use crate::store_index::StoreIndex;
use mm_record::StoredSite;

/// Replay topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// One virtual server per recorded ip:port (the paper's design).
    #[default]
    MultiOrigin,
    /// Everything served from a single server (the ablation the paper
    /// evaluates to show why multi-origin preservation matters).
    SingleServer,
}

/// Application protocol the replay servers speak. Must match what the
/// browser speaks — the harness keeps the two in sync.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ServerProtocol {
    /// Plain HTTP/1.1, one request at a time per connection.
    #[default]
    Http1,
    /// The mm-mux multiplexed transport: one connection, many streams.
    Mux(MuxConfig),
}

/// ReplayShell configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    pub mode: ReplayMode,
    /// Per-request server processing time. Mahimahi's replay path forks a
    /// CGI process that scans the recording per request — a few
    /// milliseconds on 2014 hardware — and this cost is part of what
    /// Figure 3 measures (replay is slightly *slower* than the live CDN
    /// serving the same bytes).
    pub think_time: SimDuration,
    /// Wire protocol spoken on every listening port.
    pub protocol: ServerProtocol,
    /// Per-request observability tap: every server reports `ServerRecv`
    /// when a request parses and `ServerSent` when its response goes on
    /// the wire (after think time). `resource` is [`NO_RESOURCE`] — the
    /// server has no notion of the browser's resource indices; analyzers
    /// join on URL. Taps observe only. A harness world (`mahimahi`'s
    /// `World::build`) sets it from the world's observers.
    pub capture: Option<TapHandle>,
    /// Causal-span sink: every served request emits one `ServerThink`
    /// span covering request-parsed → response-written (the think-time
    /// window, including any CPU-serialization wait). `conn` is the
    /// *initiator's* address id — the same id the browser-side socket
    /// stamps — and `url` the request target, so `mmpath` splits the
    /// browser's request→first-byte interval at the server's actual
    /// service window. Sinks observe only. A harness world
    /// (`mahimahi`'s `World::build`) sets it from the world's observers.
    pub span: Option<SpanHandle>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            mode: ReplayMode::MultiOrigin,
            think_time: SimDuration::from_millis(25),
            protocol: ServerProtocol::Http1,
            capture: None,
            span: None,
        }
    }
}

/// A running ReplayShell: virtual servers bound to recorded addresses.
pub struct ReplayShell {
    /// The namespace the servers live in (ReplayShell is outermost).
    pub ns: Namespace,
    /// One host per distinct server IP, on the host default TCP
    /// configuration until its owner sets one.
    pub hosts: Vec<Host>,
    /// Origin → actual server address. Identity for multi-origin replay;
    /// all-to-one for single-server. This is the browser's "DNS".
    address_map: HashMap<Origin, SocketAddr>,
}

impl ReplayShell {
    /// Spawn replay servers for `site` inside `ns`.
    ///
    /// Panics if the recording is empty — replaying nothing is a harness
    /// bug, not a runtime condition.
    pub fn new(ns: &Namespace, site: &StoredSite, config: ReplayConfig, ids: &PacketIdGen) -> Self {
        assert!(!site.pairs.is_empty(), "cannot replay an empty recording");
        let matcher = Rc::new(Matcher::new(StoreIndex::build(site)));
        // Sorted by IP, then port: the origins one IP serves are adjacent,
        // and the first holds the lowest recorded IP.
        let origins = site.origins();
        let mut hosts: Vec<Host> = Vec::new();
        let mut address_map = HashMap::new();
        let mut serving: Option<(Host, Rc<Server>)> = None;
        for origin in &origins {
            // The single server answers at the lowest recorded IP (on
            // every corpus site, the root document's), on every recorded
            // port.
            let ip = match config.mode {
                ReplayMode::MultiOrigin => origin.ip,
                ReplayMode::SingleServer => origins[0].ip,
            };
            if serving.as_ref().is_none_or(|(host, _)| host.ip() != ip) {
                let host = Host::new_in(ip, ids.clone(), ns);
                hosts.push(host.clone());
                serving = Some((host, Server::new(&matcher, &config)));
            }
            let (host, server) = serving.as_ref().expect("a server for every serving IP");
            let addr = SocketAddr::new(ip, origin.port);
            // Every port is bound once, though the single server meets
            // one again on each origin that shares it.
            if !address_map.values().any(|bound| *bound == addr) {
                host.listen(origin.port, server.clone());
            }
            address_map.insert(*origin, addr);
        }

        ReplayShell {
            ns: ns.clone(),
            hosts,
            address_map,
        }
    }

    /// Resolve an origin to the address actually serving it.
    pub fn resolve(&self, origin: Origin) -> SocketAddr {
        *self.address_map.get(&origin).unwrap_or(&origin) // unseen origins fall through unchanged
    }

    /// Number of distinct server hosts spawned.
    pub fn server_count(&self) -> usize {
        self.hosts.len()
    }

    /// Route every server host's socket timers through a shared per-host
    /// [`mm_net::Host::enable_timer_mux`] mux. Population-scale worlds
    /// call this; single-load baselines leave the global timer heap.
    pub fn enable_timer_mux(&self) {
        for host in &self.hosts {
            host.enable_timer_mux();
        }
    }
}

/// One replay server: what every port of one serving IP, and every
/// connection those ports accept, share. The host holds it as each
/// port's listener; it does not hold the host back, or the two would
/// keep each other alive after the world's last handle drops.
struct Server {
    matcher: Rc<Matcher>,
    think_time: SimDuration,
    protocol: ServerProtocol,
    tap: Option<TapHandle>,
    span: Option<SpanHandle>,
    /// The server machine's CPU, busy until this instant: request
    /// matching (Apache + CGI in the real system) serializes per server.
    /// Under the single-server ablation every connection shares one —
    /// the contention this models is a large part of why consolidating
    /// origins hurts.
    cpu: Cell<Timestamp>,
    /// Requests waiting out the CPU, in the order their answers are due:
    /// each answer is due a think time after the one before, so this is
    /// also the order in which the server's events fire.
    waiting: RefCell<VecDeque<Waiting>>,
    /// This server, for the connections it accepts and the answers it
    /// schedules.
    me: Weak<Server>,
}

/// A request the server has read and not yet answered.
struct Waiting {
    req: Request,
    /// The span layer's id of the connection's initiator.
    conn: u64,
    recv_at: Timestamp,
    reply: Reply,
}

/// Where an answer goes.
enum Reply {
    /// Head and recorded body, as one write on an HTTP/1.1 connection.
    /// Held weakly: the connection holds the server, which holds what
    /// waits. A connection its host has let go of was closed, and would
    /// send nothing.
    Http1(Weak<Http1Conn>, WeakTcpHandle),
    /// A mux stream's response.
    Mux(MuxResponder),
}

impl Server {
    fn new(matcher: &Rc<Matcher>, config: &ReplayConfig) -> Rc<Server> {
        Rc::new_cyclic(|me| Server {
            matcher: matcher.clone(),
            think_time: config.think_time,
            protocol: config.protocol.clone(),
            tap: config.capture.clone(),
            span: config.span.clone(),
            cpu: Cell::new(Timestamp::ZERO),
            waiting: RefCell::new(VecDeque::new()),
            me: me.clone(),
        })
    }

    /// A request's whole life, for either transport: stamp `ServerRecv`;
    /// wait until the CPU has done its matching work, after that of
    /// every request before it on this server (at once without think
    /// time); look the request up; stamp `ServerSent` and the
    /// `ServerThink` span; hand the response, normalized for replay, to
    /// the transport (`reply`). `conn` is the span layer's id of the
    /// connection's initiator.
    fn serve(&self, sim: &mut Simulator, req: Request, conn: u64, reply: Reply) {
        let recv_at = sim.now();
        self.stamp_http(recv_at, HttpPhase::ServerRecv, &req.target, 0, 0);
        let waiting = Waiting {
            req,
            conn,
            recv_at,
            reply,
        };
        if self.think_time.is_zero() {
            return self.answer(sim, waiting);
        }
        let done = self.cpu.get().max(recv_at) + self.think_time;
        self.cpu.set(done);
        self.waiting.borrow_mut().push_back(waiting);
        let me: Rc<dyn EventTarget> = self.me.upgrade().expect("a serving server is alive");
        sim.schedule_target_at(UNTAGGED_EVENT, done, me, 0);
    }

    /// Answer `w` now.
    fn answer(&self, sim: &mut Simulator, w: Waiting) {
        // The recording's own response, looked up now: the recording
        // never changes, so this finds what a lookup on receipt would
        // have. Only a miss builds one.
        let not_found;
        let resp = match self.matcher.find(&w.req) {
            Some(stored) => stored,
            None => {
                not_found = Response::not_found();
                &not_found
            }
        };
        let now = sim.now();
        let bytes = resp.body.len() as u64;
        self.stamp_http(
            now,
            HttpPhase::ServerSent,
            &w.req.target,
            resp.status,
            bytes,
        );
        if let Some(sp) = &self.span {
            sp.record(Span {
                load: 0, // stamped by the recording buffer
                id: sp.next_id(),
                parent: 0,
                kind: SpanKind::ServerThink,
                t0_ns: w.recv_at.as_nanos(),
                t1_ns: now.as_nanos(),
                res: mm_trace::NO_RESOURCE,
                conn: w.conn,
                url: w.req.target.clone(),
                detail: String::new(),
            });
        }
        let resp = Replayed::new(resp);
        match w.reply {
            Reply::Http1(conn, h) => {
                let (Some(conn), Some(h)) = (conn.upgrade(), h.upgrade()) else {
                    return;
                };
                // Head and recorded body go out as one write; the body
                // is the store's buffer, never copied.
                h.send_vectored(sim, write_response_fields(resp.resp, resp.fields()));
                conn.unanswered.set(conn.unanswered.get() - 1);
                conn.close_when_answered(sim, &h);
            }
            Reply::Mux(responder) => responder.respond_with(sim, resp.resp, resp.fields()),
        }
    }

    /// Emit an [`HttpEvent`] if a tap is attached (server side: no
    /// resource index, the URL target is the join key).
    fn stamp_http(&self, now: Timestamp, phase: HttpPhase, url: &str, status: u16, bytes: u64) {
        if let Some(tap) = &self.tap {
            tap.on_http(&HttpEvent {
                t_ns: now.as_nanos(),
                phase,
                resource: NO_RESOURCE,
                url: url.to_string(),
                status,
                bytes,
            });
        }
    }
}

/// A think time has passed: the oldest waiting request is answered.
impl EventTarget for Server {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, _token: u64) {
        let next = self.waiting.borrow_mut().pop_front();
        self.answer(sim, next.expect("an answer is due"));
    }
}

impl Listener for Server {
    fn on_connection(&self, _sim: &mut Simulator, h: TcpHandle) -> Rc<dyn SocketApp> {
        let server = self.me.upgrade().expect("a listening server is alive");
        match &self.protocol {
            ServerProtocol::Http1 => Rc::new_cyclic(|me| Http1Conn {
                server,
                me: me.clone(),
                parser: RefCell::new(RequestParser::new()),
                unanswered: Cell::new(0),
            }),
            ServerProtocol::Mux(config) => Rc::new(MuxServerConn::new(h, config.clone(), server)),
        }
    }
}

impl MuxHandler for Server {
    fn handle(&self, sim: &mut Simulator, peer: SocketAddr, req: Request, responder: MuxResponder) {
        self.serve(sim, req, peer.conn_id(), Reply::Mux(responder));
    }
}

/// An HTTP/1.1 connection: its requests are served in the order they
/// parse, and the FIN follows the last answer.
struct Http1Conn {
    server: Rc<Server>,
    /// This connection, for the answers its requests schedule.
    me: Weak<Http1Conn>,
    parser: RefCell<RequestParser>,
    /// Requests read and not yet answered.
    unanswered: Cell<u32>,
}

impl Http1Conn {
    /// Close once the peer has closed and every request it sent before
    /// its FIN has been answered.
    fn close_when_answered(&self, sim: &mut Simulator, h: &TcpHandle) {
        if self.unanswered.get() == 0 && h.state() == TcpState::CloseWait {
            h.close(sim);
        }
    }
}

impl SocketApp for Http1Conn {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Data(bytes) => {
                let Ok(reqs) = self.parser.borrow_mut().feed(&bytes) else {
                    // Garbage on a replay connection: reset, like a real
                    // server would.
                    return h.abort(sim);
                };
                let conn = h.remote_addr().conn_id();
                for req in reqs {
                    self.unanswered.set(self.unanswered.get() + 1);
                    let reply = Reply::Http1(self.me.clone(), h.downgrade());
                    self.server.serve(sim, req, conn, reply);
                }
            }
            SocketEvent::PeerClosed => self.close_when_answered(sim, h),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mm_http::Request;
    use mm_net::IpAddr;
    use mm_record::{fetch_via, RequestResponsePair, Scheme};
    use mm_sim::Timestamp;

    fn site() -> StoredSite {
        let mut s = StoredSite::new("example.com", "http://10.0.0.1:80/");
        let mut add = |ip: [u8; 4], port: u16, host: &str, target: &str, body: &str| {
            s.push(RequestResponsePair {
                origin: SocketAddr::new(IpAddr::new(ip[0], ip[1], ip[2], ip[3]), port),
                scheme: Scheme::Http,
                request: Request::get(target, host),
                response: Response::ok(Bytes::copy_from_slice(body.as_bytes()), "text/html"),
            });
        };
        add([10, 0, 0, 1], 80, "example.com", "/", "<html>root</html>");
        add(
            [10, 0, 0, 2],
            80,
            "cdn.example.com",
            "/lib.js",
            "console.log(1)",
        );
        add(
            [10, 0, 0, 2],
            443,
            "cdn.example.com",
            "/secure.js",
            "console.log(2)",
        );
        add([10, 0, 0, 3], 80, "img.example.com", "/a.png", "PNGDATA");
        s
    }

    fn fetch_body(
        sim: &mut Simulator,
        client: &Host,
        addr: SocketAddr,
        req: Request,
    ) -> Rc<RefCell<Vec<u8>>> {
        fetch_via(sim, client, addr, req)
    }

    fn body_text(buf: &Rc<RefCell<Vec<u8>>>) -> String {
        let got = buf.borrow();
        let pos = got
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response head");
        String::from_utf8_lossy(&got[pos + 4..]).into_owned()
    }

    #[test]
    fn multi_origin_spawns_one_server_per_ip() {
        let ns = Namespace::root("replay");
        let ids = PacketIdGen::new();
        let shell = ReplayShell::new(&ns, &site(), ReplayConfig::default(), &ids);
        assert_eq!(shell.server_count(), 3, "3 distinct IPs");
        // 10.0.0.2 binds both :80 and :443.
        assert_eq!(
            shell.resolve(SocketAddr::new(IpAddr::new(10, 0, 0, 2), 443)),
            SocketAddr::new(IpAddr::new(10, 0, 0, 2), 443)
        );
    }

    #[test]
    fn replays_recorded_content_at_recorded_addresses() {
        let mut sim = Simulator::new();
        let ns = Namespace::root("replay");
        let ids = PacketIdGen::new();
        let _shell = ReplayShell::new(
            &ns,
            &site(),
            ReplayConfig {
                think_time: SimDuration::ZERO,
                ..ReplayConfig::default()
            },
            &ids,
        );
        let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &ns);
        let b = fetch_body(
            &mut sim,
            &client,
            SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80),
            Request::get("/", "example.com"),
        );
        let b2 = fetch_body(
            &mut sim,
            &client,
            SocketAddr::new(IpAddr::new(10, 0, 0, 2), 443),
            Request::get("/secure.js", "cdn.example.com"),
        );
        sim.run_until(Timestamp::from_secs(5));
        assert_eq!(body_text(&b), "<html>root</html>");
        assert_eq!(body_text(&b2), "console.log(2)");
    }

    #[test]
    fn unrecorded_request_gets_404() {
        let mut sim = Simulator::new();
        let ns = Namespace::root("replay");
        let ids = PacketIdGen::new();
        let _shell = ReplayShell::new(&ns, &site(), ReplayConfig::default(), &ids);
        let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &ns);
        let b = fetch_body(
            &mut sim,
            &client,
            SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80),
            Request::get("/nope", "example.com"),
        );
        sim.run_until(Timestamp::from_secs(5));
        let text = String::from_utf8_lossy(&b.borrow()).into_owned();
        assert!(text.starts_with("HTTP/1.1 404"), "got: {text}");
    }

    #[test]
    fn single_server_mode_maps_all_origins_to_one() {
        let ns = Namespace::root("replay");
        let ids = PacketIdGen::new();
        let shell = ReplayShell::new(
            &ns,
            &site(),
            ReplayConfig {
                mode: ReplayMode::SingleServer,
                ..ReplayConfig::default()
            },
            &ids,
        );
        assert_eq!(shell.server_count(), 1);
        let one_ip = shell.hosts[0].ip();
        for origin in site().origins() {
            assert_eq!(shell.resolve(origin).ip, one_ip);
            assert_eq!(shell.resolve(origin).port, origin.port);
        }
    }

    #[test]
    fn single_server_serves_other_origins_content() {
        let mut sim = Simulator::new();
        let ns = Namespace::root("replay");
        let ids = PacketIdGen::new();
        let shell = ReplayShell::new(
            &ns,
            &site(),
            ReplayConfig {
                mode: ReplayMode::SingleServer,
                think_time: SimDuration::ZERO,
                ..ReplayConfig::default()
            },
            &ids,
        );
        let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &ns);
        // Fetch img.example.com content through the single server.
        let addr = shell.resolve(SocketAddr::new(IpAddr::new(10, 0, 0, 3), 80));
        let b = fetch_body(
            &mut sim,
            &client,
            addr,
            Request::get("/a.png", "img.example.com"),
        );
        sim.run_until(Timestamp::from_secs(5));
        assert_eq!(body_text(&b), "PNGDATA");
    }

    #[test]
    fn think_time_delays_response() {
        let mut sim = Simulator::new();
        let ns = Namespace::root("replay");
        let ids = PacketIdGen::new();
        let _shell = ReplayShell::new(
            &ns,
            &site(),
            ReplayConfig {
                mode: ReplayMode::MultiOrigin,
                think_time: SimDuration::from_millis(50),
                ..ReplayConfig::default()
            },
            &ids,
        );
        let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &ns);
        let b = fetch_body(
            &mut sim,
            &client,
            SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80),
            Request::get("/", "example.com"),
        );
        sim.run_until(Timestamp::from_millis(40));
        assert!(b.borrow().is_empty(), "response gated by think time");
        sim.run_until(Timestamp::from_secs(5));
        assert_eq!(body_text(&b), "<html>root</html>");
    }

    #[test]
    #[should_panic(expected = "empty recording")]
    fn empty_recording_rejected() {
        let ns = Namespace::root("replay");
        let ids = PacketIdGen::new();
        let empty = StoredSite::new("empty", "http://10.0.0.1:80/");
        let _ = ReplayShell::new(&ns, &empty, ReplayConfig::default(), &ids);
    }
}
