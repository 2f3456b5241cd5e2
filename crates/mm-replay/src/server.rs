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

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use mm_capture::{HttpEvent, HttpPhase, TapHandle, NO_RESOURCE};
use mm_http::{write_response_parts, Request, RequestParser, Response};
use mm_mux::{MuxConfig, MuxHandler, MuxResponder, MuxServerConn};
use mm_net::{
    Host, Listener, Namespace, Origin, PacketIdGen, SocketAddr, SocketApp, SocketEvent, TcpHandle,
};
use mm_sim::{SimDuration, Simulator, Timestamp};
use mm_trace::{Span, SpanHandle, SpanKind};

use crate::matcher::Matcher;
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
    /// TCP configuration for every replay server host (`None` keeps the
    /// host default). The harness passes its per-load TCP knob — e.g.
    /// `TcpConfig::recovery` for the figcell/figrack experiments —
    /// through here so a replay world built outside the harness gets
    /// the same wiring.
    pub tcp: Option<mm_net::TcpConfig>,
    /// Per-request observability tap: every server reports `ServerRecv`
    /// when a request parses and `ServerSent` when its response goes on
    /// the wire (after think time). `resource` is [`NO_RESOURCE`] — the
    /// server has no notion of the browser's resource indices; analyzers
    /// join on URL. Taps observe only.
    pub capture: Option<TapHandle>,
    /// Causal-span sink: every served request emits one `ServerThink`
    /// span covering request-parsed → response-written (the think-time
    /// window, including any CPU-serialization wait). `conn` is the
    /// *initiator's* address id — the same id the browser-side socket
    /// stamps — and `url` the request target, so `mmpath` splits the
    /// browser's request→first-byte interval at the server's actual
    /// service window. Sinks observe only.
    pub span: Option<SpanHandle>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            mode: ReplayMode::MultiOrigin,
            think_time: SimDuration::from_millis(25),
            protocol: ServerProtocol::Http1,
            tcp: None,
            capture: None,
            span: None,
        }
    }
}

/// Emit an [`HttpEvent`] if a tap is attached (server side: no resource
/// index, the URL target is the join key).
fn tap_http(
    tap: &Option<TapHandle>,
    now: Timestamp,
    phase: HttpPhase,
    url: &str,
    status: u16,
    bytes: u64,
) {
    if let Some(tap) = tap {
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

/// The span layer's connection id for the peer at `addr` (the browser
/// side packs its *local* address the same way, which is the join).
fn span_conn_id(addr: SocketAddr) -> u64 {
    ((addr.ip.0 as u64) << 16) | addr.port as u64
}

/// Emit one `ServerThink` span if a sink is attached.
fn span_think(span: &Option<SpanHandle>, conn: u64, url: &str, t0: Timestamp, t1: Timestamp) {
    if let Some(sp) = span {
        let id = sp.next_id();
        sp.record(Span {
            load: 0, // stamped by the recording buffer
            id,
            parent: 0,
            kind: SpanKind::ServerThink,
            t0_ns: t0.as_nanos(),
            t1_ns: t1.as_nanos(),
            res: mm_trace::NO_RESOURCE,
            conn,
            url: url.to_string(),
            detail: String::new(),
        });
    }
}

/// A running ReplayShell: virtual servers bound to recorded addresses.
pub struct ReplayShell {
    /// The namespace the servers live in (ReplayShell is outermost).
    pub ns: Namespace,
    /// One host per distinct server IP.
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
        let apply_tcp = |host: &Host| {
            if let Some(tcp) = &config.tcp {
                host.set_tcp_config(tcp.clone());
            }
        };
        let origins = site.origins();

        let mut hosts: Vec<Host> = Vec::new();
        let mut by_ip: HashMap<mm_net::IpAddr, Host> = HashMap::new();
        let mut address_map = HashMap::new();

        match config.mode {
            ReplayMode::MultiOrigin => {
                let mut cpus: HashMap<mm_net::IpAddr, Rc<Cell<Timestamp>>> = HashMap::new();
                for origin in &origins {
                    let host = by_ip.entry(origin.ip).or_insert_with(|| {
                        let h = Host::new_in(origin.ip, ids.clone(), ns);
                        apply_tcp(&h);
                        hosts.push(h.clone());
                        h
                    });
                    let cpu = cpus
                        .entry(origin.ip)
                        .or_insert_with(|| Rc::new(Cell::new(Timestamp::ZERO)))
                        .clone();
                    host.listen(
                        origin.port,
                        Rc::new(ReplayListener {
                            matcher: matcher.clone(),
                            think_time: config.think_time,
                            protocol: config.protocol.clone(),
                            tap: config.capture.clone(),
                            span: config.span.clone(),
                            cpu,
                        }),
                    );
                    address_map.insert(*origin, *origin);
                }
            }
            ReplayMode::SingleServer => {
                // Serve everything from the root document's IP (or the
                // first origin if the root is alien), on every recorded
                // port.
                let the_ip = origins[0].ip;
                let host = Host::new_in(the_ip, ids.clone(), ns);
                apply_tcp(&host);
                hosts.push(host.clone());
                // One CPU shared by everything: the whole point of the
                // ablation is that a single machine serves the site.
                let cpu = Rc::new(Cell::new(Timestamp::ZERO));
                let mut ports_bound = std::collections::BTreeSet::new();
                for origin in &origins {
                    if ports_bound.insert(origin.port) {
                        host.listen(
                            origin.port,
                            Rc::new(ReplayListener {
                                matcher: matcher.clone(),
                                think_time: config.think_time,
                                protocol: config.protocol.clone(),
                                tap: config.capture.clone(),
                                span: config.span.clone(),
                                cpu: cpu.clone(),
                            }),
                        );
                    }
                    address_map.insert(*origin, SocketAddr::new(the_ip, origin.port));
                }
            }
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

struct ReplayListener {
    matcher: Rc<Matcher>,
    think_time: SimDuration,
    protocol: ServerProtocol,
    tap: Option<TapHandle>,
    span: Option<SpanHandle>,
    /// The server machine's CPU: request matching (Apache + CGI in the
    /// real system) serializes per host. Under the single-server ablation
    /// every connection shares one CPU — the contention this models is a
    /// large part of why consolidating origins hurts.
    cpu: Rc<Cell<Timestamp>>,
}

impl Listener for ReplayListener {
    fn on_connection(&self, _sim: &mut Simulator, h: TcpHandle) -> Rc<dyn SocketApp> {
        match &self.protocol {
            ServerProtocol::Http1 => Rc::new(ReplayConn {
                matcher: self.matcher.clone(),
                think_time: self.think_time,
                cpu: self.cpu.clone(),
                tap: self.tap.clone(),
                span: self.span.clone(),
                parser: RefCell::new(RequestParser::new()),
            }),
            ServerProtocol::Mux(config) => {
                let conn = span_conn_id(h.remote_addr());
                Rc::new(MuxServerConn::new(
                    h,
                    config.clone(),
                    Rc::new(MuxReplayHandler {
                        matcher: self.matcher.clone(),
                        think_time: self.think_time,
                        cpu: self.cpu.clone(),
                        tap: self.tap.clone(),
                        span: self.span.clone(),
                        conn,
                    }),
                ))
            }
        }
    }
}

/// Request handler behind a mux-speaking replay server: the same matcher
/// lookup and CPU-serialized think time as the HTTP/1.1 path, so a
/// protocol A/B study varies the wire protocol and nothing else.
#[derive(Clone)]
struct MuxReplayHandler {
    matcher: Rc<Matcher>,
    think_time: SimDuration,
    cpu: Rc<Cell<Timestamp>>,
    tap: Option<TapHandle>,
    span: Option<SpanHandle>,
    /// Span-layer id of this connection's initiator.
    conn: u64,
}

impl MuxHandler for MuxReplayHandler {
    fn handle(&self, sim: &mut Simulator, req: Request, responder: MuxResponder) {
        let recv_at = sim.now();
        tap_http(&self.tap, recv_at, HttpPhase::ServerRecv, &req.target, 0, 0);
        let me = self.clone();
        after_think(sim, self.think_time, &self.cpu, move |sim| {
            // The index's own response, looked up now: the index never
            // changes, so this finds what a lookup on receipt would have.
            // Only a miss builds one.
            let not_found;
            let resp = match me.matcher.lookup_ref(&req) {
                Some(stored) => stored,
                None => {
                    not_found = Response::not_found();
                    &not_found
                }
            };
            let bytes = resp.body.len() as u64;
            let now = sim.now();
            tap_http(
                &me.tap,
                now,
                HttpPhase::ServerSent,
                &req.target,
                resp.status,
                bytes,
            );
            span_think(&me.span, me.conn, &req.target, recv_at, now);
            responder.respond(sim, resp);
        });
    }
}

/// Run `send` once this server's CPU has done a request's matching work:
/// at once without think time, else after the work of every request
/// before it on this host.
fn after_think(
    sim: &mut Simulator,
    think_time: SimDuration,
    cpu: &Cell<Timestamp>,
    send: impl FnOnce(&mut Simulator) + 'static,
) {
    if think_time.is_zero() {
        return send(sim);
    }
    let done = cpu.get().max(sim.now()) + think_time;
    cpu.set(done);
    sim.schedule_at(done, send);
}

struct ReplayConn {
    matcher: Rc<Matcher>,
    think_time: SimDuration,
    cpu: Rc<Cell<Timestamp>>,
    tap: Option<TapHandle>,
    span: Option<SpanHandle>,
    parser: RefCell<RequestParser>,
}

impl SocketApp for ReplayConn {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Data(bytes) => {
                let reqs = match self.parser.borrow_mut().feed(&bytes) {
                    Ok(reqs) => reqs,
                    Err(_) => {
                        // Garbage on a replay connection: reset, like a
                        // real server would.
                        h.abort(sim);
                        return;
                    }
                };
                for req in reqs {
                    let recv_at = sim.now();
                    tap_http(&self.tap, recv_at, HttpPhase::ServerRecv, &req.target, 0, 0);
                    // The index's own response, serialised where it
                    // stands; only a miss builds one.
                    let not_found;
                    let resp = match self.matcher.lookup_ref(&req) {
                        Some(stored) => stored,
                        None => {
                            not_found = Response::not_found();
                            &not_found
                        }
                    };
                    let (status, bytes) = (resp.status, resp.body.len() as u64);
                    // Head and recorded body go out as one write; the body
                    // is the store's buffer, never copied.
                    let wire = write_response_parts(resp);
                    let conn = span_conn_id(h.remote_addr());
                    let (h, tap, span) = (h.clone(), self.tap.clone(), self.span.clone());
                    after_think(sim, self.think_time, &self.cpu, move |sim| {
                        let now = sim.now();
                        tap_http(&tap, now, HttpPhase::ServerSent, &req.target, status, bytes);
                        span_think(&span, conn, &req.target, recv_at, now);
                        h.send_vectored(sim, wire);
                    });
                }
            }
            SocketEvent::PeerClosed => h.close(sim),
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
