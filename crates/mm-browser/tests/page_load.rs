//! End-to-end page loads: browser → ReplayShell over the simulated network.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use mm_audit::Auditor;
use mm_browser::{Browser, BrowserConfig, MuxConfig, PageLoadResult, ProtocolMode};
use mm_capture::{Capture, FanoutTap, HttpPhase, TapHandle};
use mm_http::{Request, Response, Url};
use mm_net::{
    Host, IpAddr, Listener, Namespace, PacketIdGen, SocketAddr, SocketApp, SocketEvent, TcpHandle,
};
use mm_record::{RequestResponsePair, Scheme, StoredSite};
use mm_replay::{ReplayConfig, ReplayMode, ReplayShell, ServerProtocol};
use mm_sim::{SimDuration, Simulator};
use mm_trace::{FanoutSpan, SpanKind, TraceBuffer};

fn pair(ip: IpAddr, port: u16, target: &str, body: &str, ctype: &str) -> RequestResponsePair {
    RequestResponsePair {
        origin: SocketAddr::new(ip, port),
        scheme: Scheme::Http,
        request: Request::get(target, ip.to_string()),
        response: Response::ok(Bytes::copy_from_slice(body.as_bytes()), ctype),
    }
}

/// A three-origin site: root HTML referencing CSS + 2 images; the CSS
/// references a font on a third origin (depth-2 dependency).
fn test_site() -> StoredSite {
    let o1 = IpAddr::new(10, 0, 0, 1);
    let o2 = IpAddr::new(10, 0, 0, 2);
    let o3 = IpAddr::new(10, 0, 0, 3);
    let mut s = StoredSite::new("test-site", "http://10.0.0.1:80/");
    s.push(pair(
        o1,
        80,
        "/",
        "<html><link href=\"http://10.0.0.2/style.css\">\
         <img src=\"http://10.0.0.2/a.png\"><img src=\"http://10.0.0.3/b.png\"></html>",
        "text/html",
    ));
    s.push(pair(
        o2,
        80,
        "/style.css",
        "@font-face { src: url(http://10.0.0.3/font.woff) }",
        "text/css",
    ));
    s.push(pair(o2, 80, "/a.png", "AAAA", "image/png"));
    s.push(pair(o3, 80, "/b.png", "BBBB", "image/png"));
    s.push(pair(o3, 80, "/font.woff", "FONT", "font/woff"));
    s
}

struct World {
    sim: Simulator,
    browser: Browser,
    result: Rc<RefCell<Option<PageLoadResult>>>,
}

fn world(mode: ReplayMode) -> World {
    world_speaking(&test_site(), mode, ProtocolMode::default()).0
}

/// A world replaying `site`, plus handles of its own to the client host
/// and the servers (which the world reaches only through the browser).
/// Its resolver, like the harness's, knows IP literals only.
fn world_speaking(
    site: &StoredSite,
    mode: ReplayMode,
    protocol: ProtocolMode,
) -> (World, Host, Rc<ReplayShell>) {
    let sim = Simulator::new();
    let root = Namespace::root("world");
    let ids = PacketIdGen::new();
    let shell = ReplayShell::new(
        &root,
        site,
        ReplayConfig {
            mode,
            think_time: SimDuration::ZERO,
            protocol: match &protocol {
                ProtocolMode::Http1 { .. } => ServerProtocol::Http1,
                ProtocolMode::Mux(mux) => ServerProtocol::Mux(mux.clone()),
            },
            ..ReplayConfig::default()
        },
        &ids,
    );
    let shell = Rc::new(shell);
    let client_host = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &root);
    let resolver: mm_browser::Resolver = {
        let shell = shell.clone();
        Rc::new(move |url: &Url| {
            let origin = SocketAddr::new(url.host.parse().ok()?, url.port);
            Some(shell.resolve(origin))
        })
    };
    let browser = Browser::new(
        client_host.clone(),
        resolver,
        BrowserConfig {
            protocol,
            ..BrowserConfig::default()
        },
    );
    let world = World {
        sim,
        browser,
        result: Rc::new(RefCell::new(None)),
    };
    (world, client_host, shell)
}

fn run_load(w: &mut World) -> PageLoadResult {
    let slot = w.result.clone();
    w.browser
        .navigate(&mut w.sim, "http://10.0.0.1:80/", move |_sim, r| {
            *slot.borrow_mut() = Some(r);
        });
    w.sim.run();
    w.result.borrow_mut().take().expect("page load completed")
}

#[test]
fn loads_full_dependency_closure() {
    let mut w = world(ReplayMode::MultiOrigin);
    let r = run_load(&mut w);
    assert_eq!(r.resource_count(), 5, "root + css + 2 images + font");
    assert_eq!(r.failures, 0);
    assert!(r.plt > SimDuration::ZERO);
    // The font (depth 2) must have been fetched last or near-last.
    let font = r
        .resources
        .iter()
        .find(|t| t.url.contains("font.woff"))
        .unwrap();
    assert_eq!(font.status, 200);
    assert_eq!(font.body_bytes, 4);
}

/// The browser owns its sockets, not the other way round: once the caller
/// lets go of it mid-load, what its connections still receive has no one
/// to report to, and the load simply never completes.
#[test]
fn events_for_a_dropped_browser_are_ignored() {
    for mode in [
        ProtocolMode::default(),
        ProtocolMode::Mux(MuxConfig::default()),
    ] {
        let (world, client_host, servers) =
            world_speaking(&test_site(), ReplayMode::MultiOrigin, mode);
        let World {
            mut sim,
            browser,
            result,
        } = world;
        let slot = result.clone();
        browser.navigate(&mut sim, "http://10.0.0.1:80/", move |_sim, r| {
            *slot.borrow_mut() = Some(r);
        });
        // Far enough for the root document's connection to be up and its
        // request out, not far enough for the page to finish.
        for _ in 0..6 {
            assert!(sim.step());
        }
        assert!(client_host.socket_count() >= 1);
        let heard = client_host.stats().packets_in;
        drop(browser);
        assert_eq!(sim.run(), mm_sim::RunResult::QueueEmpty);
        assert!(result.borrow().is_none());
        // The servers did answer; nobody was listening.
        assert!(client_host.stats().packets_in > heard);
        assert_eq!(servers.server_count(), 3);
    }
}

#[test]
fn plt_covers_last_resource() {
    let mut w = world(ReplayMode::MultiOrigin);
    let r = run_load(&mut w);
    let last_finish = r.resources.iter().map(|t| t.finished_at).max().unwrap();
    // PLT includes the post-fetch parse delay of the last resource.
    assert!(r.plt >= last_finish.saturating_duration_since(mm_sim::Timestamp::ZERO));
}

#[test]
fn unrecorded_subresource_is_404_not_hang() {
    let o1 = IpAddr::new(10, 0, 0, 1);
    let mut site = StoredSite::new("s", "http://10.0.0.1:80/");
    site.push(pair(
        o1,
        80,
        "/",
        "<a href=\"http://10.0.0.1/missing.js\">",
        "text/html",
    ));
    let sim = Simulator::new();
    let root = Namespace::root("world");
    let ids = PacketIdGen::new();
    let shell = Rc::new(ReplayShell::new(
        &root,
        &site,
        ReplayConfig::default(),
        &ids,
    ));
    let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &root);
    let resolver: mm_browser::Resolver = {
        let shell = shell.clone();
        Rc::new(move |url: &Url| {
            Some(shell.resolve(SocketAddr::new(url.host.parse().unwrap(), url.port)))
        })
    };
    let browser = Browser::new(client, resolver, BrowserConfig::default());
    let mut w = World {
        sim,
        browser,
        result: Rc::new(RefCell::new(None)),
    };
    let r = run_load(&mut w);
    assert_eq!(r.resource_count(), 2);
    let missing = r
        .resources
        .iter()
        .find(|t| t.url.contains("missing"))
        .unwrap();
    assert_eq!(missing.status, 404);
}

#[test]
fn single_server_mode_loads_same_content() {
    let mut multi = world(ReplayMode::MultiOrigin);
    let rm = run_load(&mut multi);
    let mut single = world(ReplayMode::SingleServer);
    let rs = run_load(&mut single);
    assert_eq!(rm.resource_count(), rs.resource_count());
    assert_eq!(rm.total_body_bytes, rs.total_body_bytes);
    assert_eq!(rs.failures, 0);
}

#[test]
fn deterministic_plt_for_same_world() {
    let mut a = world(ReplayMode::MultiOrigin);
    let ra = run_load(&mut a);
    let mut b = world(ReplayMode::MultiOrigin);
    let rb = run_load(&mut b);
    assert_eq!(ra.plt, rb.plt, "identical worlds give identical PLT");
}

#[test]
fn connection_pool_respects_limit() {
    // A page with 30 images on one origin: at most 6 connections open.
    let o1 = IpAddr::new(10, 0, 0, 1);
    let mut body = String::from("<html>");
    for i in 0..30 {
        body.push_str(&format!("<img src=\"http://10.0.0.1/img{i}.png\">"));
    }
    body.push_str("</html>");
    let mut site = StoredSite::new("s", "http://10.0.0.1:80/");
    site.push(pair(o1, 80, "/", &body, "text/html"));
    for i in 0..30 {
        site.push(pair(o1, 80, &format!("/img{i}.png"), "IMG", "image/png"));
    }
    let sim = Simulator::new();
    let root = Namespace::root("world");
    let ids = PacketIdGen::new();
    let shell = Rc::new(ReplayShell::new(
        &root,
        &site,
        ReplayConfig::default(),
        &ids,
    ));
    let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &root);
    let resolver: mm_browser::Resolver = {
        let shell = shell.clone();
        Rc::new(move |url: &Url| {
            Some(shell.resolve(SocketAddr::new(url.host.parse().unwrap(), url.port)))
        })
    };
    let browser = Browser::new(client.clone(), resolver, BrowserConfig::default());
    let mut w = World {
        sim,
        browser,
        result: Rc::new(RefCell::new(None)),
    };
    let r = run_load(&mut w);
    assert_eq!(r.resource_count(), 31);
    // 1 connection for the root + at most 6 total on the single origin.
    assert!(
        client.stats().connections_initiated <= 6,
        "opened {} connections",
        client.stats().connections_initiated
    );
    // The replay server accepted the same number.
    assert_eq!(
        shell.hosts[0].stats().connections_accepted,
        client.stats().connections_initiated
    );
}

#[test]
fn more_origins_means_more_parallelism() {
    // Same 24 objects on 1 origin vs 4 origins: multi-origin should load
    // strictly faster because it gets 4x the connection parallelism. This
    // is the Table 2 mechanism in miniature.
    fn build(origins: usize) -> (StoredSite, String) {
        let mut body = String::from("<html>");
        for i in 0..24 {
            let ip = IpAddr::new(10, 0, 0, (1 + (i % origins)) as u8);
            body.push_str(&format!("<img src=\"http://{ip}/img{i}.png\">"));
        }
        body.push_str("</html>");
        let root_ip = IpAddr::new(10, 0, 0, 1);
        let mut site = StoredSite::new("s", "http://10.0.0.1:80/");
        site.push(pair(root_ip, 80, "/", &body, "text/html"));
        for i in 0..24 {
            let ip = IpAddr::new(10, 0, 0, (1 + (i % origins)) as u8);
            site.push(pair(
                ip,
                80,
                &format!("/img{i}.png"),
                &"X".repeat(30_000),
                "image/png",
            ));
        }
        (site, "http://10.0.0.1:80/".to_string())
    }
    let mut plts = Vec::new();
    for origins in [1usize, 4] {
        let (site, root_url) = build(origins);
        let sim = Simulator::new();
        let root = Namespace::root("world");
        let ids = PacketIdGen::new();
        let shell = Rc::new(ReplayShell::new(
            &root,
            &site,
            ReplayConfig::default(),
            &ids,
        ));
        // Put the browser behind a 30 ms delay shell so handshakes cost
        // something.
        let delay = mm_shells::delay_shell(&root, "d", SimDuration::from_millis(30));
        let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &delay.inner_ns);
        let resolver: mm_browser::Resolver = {
            let shell = shell.clone();
            Rc::new(move |url: &Url| {
                Some(shell.resolve(SocketAddr::new(url.host.parse().unwrap(), url.port)))
            })
        };
        // Minimal CPU model so the test isolates the *network* effect of
        // origin parallelism (the full experiments use realistic CPU).
        let light_cpu = BrowserConfig {
            parse_delay_base: SimDuration::from_micros(200),
            parse_delay_per_kb: SimDuration::ZERO,
            ..BrowserConfig::default()
        };
        let browser = Browser::new(client, resolver, light_cpu);
        let mut w = World {
            sim,
            browser,
            result: Rc::new(RefCell::new(None)),
        };
        let slot = w.result.clone();
        w.browser.navigate(&mut w.sim, &root_url, move |_s, r| {
            *slot.borrow_mut() = Some(r)
        });
        w.sim.run();
        let r = w.result.borrow_mut().take().unwrap();
        assert_eq!(r.resource_count(), 25);
        plts.push(r.plt);
    }
    assert!(
        plts[1] < plts[0],
        "4 origins ({}) should beat 1 origin ({})",
        plts[1],
        plts[0]
    );
}

#[test]
fn mux_load_uses_one_connection_per_origin() {
    use mm_browser::{MuxConfig, ProtocolMode};
    use mm_replay::ServerProtocol;

    let sim = Simulator::new();
    let root = Namespace::root("world");
    let ids = PacketIdGen::new();
    let shell = Rc::new(ReplayShell::new(
        &root,
        &test_site(),
        ReplayConfig {
            think_time: SimDuration::ZERO,
            protocol: ServerProtocol::Mux(MuxConfig::default()),
            ..ReplayConfig::default()
        },
        &ids,
    ));
    let client_host = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &root);
    let resolver: mm_browser::Resolver = {
        let shell = shell.clone();
        Rc::new(move |url: &Url| {
            Some(shell.resolve(SocketAddr::new(url.host.parse().unwrap(), url.port)))
        })
    };
    let browser = Browser::new(
        client_host.clone(),
        resolver,
        BrowserConfig {
            protocol: ProtocolMode::Mux(MuxConfig::default()),
            ..BrowserConfig::default()
        },
    );
    let mut w = World {
        sim,
        browser,
        result: Rc::new(RefCell::new(None)),
    };
    let r = run_load(&mut w);
    assert_eq!(r.resource_count(), 5, "full dependency closure over mux");
    assert_eq!(r.failures, 0);
    assert_eq!(r.total_body_bytes, {
        let mut multi = world(ReplayMode::MultiOrigin);
        run_load(&mut multi).total_body_bytes
    });
    // One multiplexed connection per distinct origin (3 origins here),
    // versus up to 6 each for HTTP/1.1.
    assert_eq!(client_host.stats().connections_initiated, 3);
}

/// What the server of the rogue origin (10.0.0.9) does once a request
/// arrives.
#[derive(Clone, Copy)]
enum Rogue {
    /// Abort the connection.
    Abort,
    /// Answer with bytes that are neither an HTTP/1.1 response nor mux
    /// frames.
    Garbage,
}

/// Neither an HTTP/1.1 status line nor a mux frame head.
const GARBAGE: &[u8] = b"NONSENSE\xff\xff\xff\xff\xff\xff\xff\xff\r\n\r\n";

const ROGUE: SocketAddr = SocketAddr {
    ip: IpAddr::new(10, 0, 0, 9),
    port: 80,
};

impl Listener for Rogue {
    fn on_connection(&self, _sim: &mut Simulator, _handle: TcpHandle) -> Rc<dyn SocketApp> {
        Rc::new(*self)
    }
}

impl SocketApp for Rogue {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        if let SocketEvent::Data(_) = ev {
            match self {
                Rogue::Abort => h.abort(sim),
                Rogue::Garbage => h.send(sim, Bytes::from_static(GARBAGE)),
            }
        }
    }
}

/// A load observed by a capture, a span buffer and an auditor, all
/// attached to the browser and the replay servers.
struct Observed {
    result: PageLoadResult,
    client: Host,
    capture: Capture,
    spans: Rc<TraceBuffer>,
    auditor: Auditor,
}

/// Load `root_url` in a world where [`ROGUE`] is served by `rogue` and
/// every other origin by a replay of `site`.
fn load_with_rogue(
    site: &StoredSite,
    root_url: &str,
    rogue: Rogue,
    protocol: ProtocolMode,
) -> Observed {
    let mut sim = Simulator::new();
    let root = Namespace::root("world");
    let ids = PacketIdGen::new();
    let capture = Capture::for_load(0);
    let spans = TraceBuffer::for_load(0);
    let auditor = Auditor::for_load(0);
    let tap = TapHandle::new(FanoutTap::new(vec![capture.handle(), auditor.tap_handle()]));
    let span = FanoutSpan::new(vec![spans.handle(), auditor.span_handle()]).handle();
    let shell = Rc::new(ReplayShell::new(
        &root,
        site,
        ReplayConfig {
            think_time: SimDuration::ZERO,
            protocol: match &protocol {
                ProtocolMode::Http1 { .. } => ServerProtocol::Http1,
                ProtocolMode::Mux(mux) => ServerProtocol::Mux(mux.clone()),
            },
            capture: Some(tap.clone()),
            span: Some(span.clone()),
            ..ReplayConfig::default()
        },
        &ids,
    ));
    let rogue_host = Host::new_in(ROGUE.ip, ids.clone(), &root);
    rogue_host.listen(ROGUE.port, Rc::new(rogue));
    let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &root);
    let resolver: mm_browser::Resolver = Rc::new(move |url: &Url| {
        let origin = SocketAddr::new(url.host.parse().unwrap(), url.port);
        if origin == ROGUE {
            Some(origin)
        } else {
            Some(shell.resolve(origin))
        }
    });
    let browser = Browser::new(
        client.clone(),
        resolver,
        BrowserConfig {
            protocol,
            capture: Some(tap),
            span: Some(span),
            ..BrowserConfig::default()
        },
    );
    let slot = Rc::new(RefCell::new(None));
    let out = slot.clone();
    browser.navigate(&mut sim, root_url, move |_sim, r| {
        *out.borrow_mut() = Some(r);
    });
    sim.run();
    let result = slot.borrow_mut().take().expect("page load completed");
    Observed {
        result,
        client,
        capture,
        spans,
        auditor,
    }
}

/// A resource whose every connection dies once its request is out is
/// retried once on a fresh connection, then given up; the rest of the
/// page loads, and every observer sees one well-formed failure.
#[test]
fn a_resource_whose_connections_die_is_retried_once_then_failed() {
    // test_site, its root also referencing a script on the rogue origin.
    let mut site = StoredSite::new("rogue-script", "http://10.0.0.1:80/");
    for mut pair in test_site().pairs.iter().cloned() {
        if pair.request.target == "/" {
            let html = String::from_utf8(pair.response.body.to_vec()).unwrap();
            let html = html.replace("</html>", "<script src=\"http://10.0.0.9/gone.js\"></html>");
            pair.response = Response::ok(Bytes::from(html), "text/html");
        }
        site.push(pair);
    }
    for protocol in [
        ProtocolMode::default(),
        ProtocolMode::Mux(MuxConfig::default()),
    ] {
        let o = load_with_rogue(&site, "http://10.0.0.1:80/", Rogue::Abort, protocol.clone());
        let r = &o.result;
        assert_eq!(r.resource_count(), 6, "{protocol:?}");
        assert_eq!(r.failures, 1, "{protocol:?}");
        let gone = r
            .resources
            .iter()
            .position(|t| t.url.contains("gone.js"))
            .expect("the rogue resource was fetched");
        assert!(r.resources[gone].failed);
        assert_eq!(r.resources[gone].status, 0);
        let events: Vec<(HttpPhase, u16)> = o
            .capture
            .data()
            .https
            .iter()
            .filter(|e| e.url.contains("gone.js"))
            .map(|e| (e.phase, e.status))
            .collect();
        assert_eq!(
            events,
            [
                (HttpPhase::Queued, 0),
                (HttpPhase::Sent, 0),
                (HttpPhase::Sent, 0),
                (HttpPhase::Failed, 0)
            ],
            "{protocol:?}"
        );
        let spans: Vec<_> = o
            .spans
            .spans()
            .into_iter()
            .filter(|s| s.res == gone as u32)
            .collect();
        assert_eq!(spans.len(), 2, "{protocol:?}: {spans:?}");
        assert_eq!(spans[0].kind, SpanKind::Resource);
        assert_eq!(spans[0].detail, "failed");
        assert_eq!(spans[1].kind, SpanKind::Failed);
        assert_eq!(spans[1].parent, spans[0].id);
        let report = o.auditor.finish();
        assert!(report.is_clean(), "{protocol:?}: {:?}", report.violations);
    }
}

/// A one-page site whose HTML links a host name, not an IP literal. The
/// recorded origins are addresses, so the name resolves to nothing: that
/// one image fails at once, as after an NXDOMAIN, and the page completes.
#[test]
fn a_link_to_an_unresolvable_host_name_fails_only_that_resource() {
    let mut site = StoredSite::new("named-link", "http://10.0.0.1:80/");
    site.push(pair(
        IpAddr::new(10, 0, 0, 1),
        80,
        "/",
        "<html><img src=\"http://cdn.example.com/a.png\">\
         <img src=\"http://10.0.0.1/b.png\"></html>",
        "text/html",
    ));
    site.push(pair(
        IpAddr::new(10, 0, 0, 1),
        80,
        "/b.png",
        "BBBB",
        "image/png",
    ));
    for protocol in [
        ProtocolMode::default(),
        ProtocolMode::Mux(MuxConfig::default()),
    ] {
        let (mut w, _client, _servers) =
            world_speaking(&site, ReplayMode::MultiOrigin, protocol.clone());
        let r = run_load(&mut w);
        assert_eq!(r.resource_count(), 3, "{protocol:?}");
        assert_eq!(r.failures, 1, "{protocol:?}");
        let named = r
            .resources
            .iter()
            .find(|t| t.url.contains("cdn.example.com"))
            .expect("the named image was queued");
        assert!(named.failed && named.status == 0, "{protocol:?}: {named:?}");
        assert_eq!(named.finished_at, named.queued_at, "failed at once");
        assert_eq!(r.total_body_bytes, r.resources[0].body_bytes + 4);
    }
}

/// A server that answers with garbage fails its transport, and a failed
/// transport aborts its socket: once the load is over, the browser's
/// host holds no socket. (A pool of one, because an HTTP/1.1 pool opens
/// every connection it may while a job waits, and the idle ones stay.)
#[test]
fn a_garbage_response_aborts_its_connection() {
    for protocol in [
        ProtocolMode::Http1 { pool_size: 1 },
        ProtocolMode::Mux(MuxConfig::default()),
    ] {
        let o = load_with_rogue(
            &test_site(),
            "http://10.0.0.9:80/",
            Rogue::Garbage,
            protocol.clone(),
        );
        assert_eq!(o.result.resource_count(), 1, "{protocol:?}");
        assert_eq!(o.result.failures, 1, "{protocol:?}");
        o.client.reap_closed();
        assert_eq!(o.client.socket_count(), 0, "{protocol:?}");
    }
}
