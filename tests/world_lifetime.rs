//! Worlds that end give their memory back (DESIGN.md §6).
//!
//! Every world the toolkit can build — a page load, a fleet, a soak, a
//! transfer assembled by hand from `Host`/`Namespace`/`ShellStack` — must
//! be freed by dropping the handles its builder holds, with no teardown
//! call. Measured exactly, with a counting allocator local to this test
//! binary: after one warm-up world, building and dropping the same world
//! eight more times must leave the thread's live heap bytes where they
//! were. And a world that keeps running must not accumulate what it is
//! done with: a ten-times-longer soak may not need much more memory at
//! its peak than a short one.
//!
//! The counters are per thread (cargo runs tests on parallel threads), so
//! each `#[test]` measures only itself.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use common::{site, Observers};
use mahimahi::fleet::{run_fleet, CcMix, FleetSpec};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mahimahi::soak::{run_soak, SoakSpec};
use mm_browser::{Browser, BrowserConfig, MuxConfig, ProtocolMode, Resolver};
use mm_http::{write_response, Request, Response, Url};
use mm_metrics::Registry;
use mm_net::{
    Host, IpAddr, Listener, Namespace, PacketIdGen, RecoveryTier, SocketAddr, SocketApp,
    SocketEvent, TcpConfig, TcpHandle,
};
use mm_record::{fetch_via, RecordShell, StoredSite};
use mm_replay::{ReplayConfig, ReplayShell, ServerProtocol};
use mm_shells::{DropTail, Qdisc, QueueLimit, ShellStack};
use mm_sim::{RngStream, SimDuration, Simulator, Timestamp};
use mm_trace::{cellular, constant_rate, CellularParams};

// ------------------------------------------------------------ allocator

thread_local! {
    // `const` initialisers on types without destructors: reading these
    // from inside the allocator can never allocate or register a dtor.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static HIGH: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn add(delta: i64) {
    // `try_with`: during thread teardown the slots may be gone.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = HIGH.try_with(|high| high.set(high.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integers and never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Most bytes live at once on this thread while `f` ran, above what was
/// live when it started.
fn high_water_of(f: impl FnOnce()) -> i64 {
    let base = live_bytes();
    HIGH.with(|h| h.set(base));
    f();
    HIGH.with(Cell::get) - base
}

/// Lazily grown statics (thread-local scratch, the observability
/// channel's slots) may settle a little after the warm-up world.
const SLACK_BYTES: i64 = 4096;
const REPEATS: usize = 8;

/// After one warm-up, `REPEATS` more builds-and-drops of the same world
/// must leave the live heap where it was.
fn assert_frees_its_worlds(what: &str, mut world: impl FnMut()) {
    world();
    let before = live_bytes();
    for _ in 0..REPEATS {
        world();
    }
    let grown = live_bytes() - before;
    assert!(
        grown.abs() <= SLACK_BYTES,
        "{what}: {REPEATS} worlds left {grown} bytes behind ({} per world)",
        grown / REPEATS as i64
    );
}

// --------------------------------------------------------------- inputs

fn wired_net() -> NetSpec {
    NetSpec {
        delay: Some(SimDuration::from_millis(40)),
        link: Some(LinkSpec {
            uplink: constant_rate(14.0, 1000),
            downlink: constant_rate(14.0, 1000),
            qdisc: QdiscKind::Infinite,
        }),
        ..NetSpec::default()
    }
}

// ----------------------------------------------------------- page loads

#[test]
fn http1_page_load_world_is_freed() {
    let site = site(13, 4, 14.0);
    assert_frees_its_worlds("run_page_load http/1.1", || {
        let mut spec = LoadSpec::new(&site);
        spec.net = wired_net();
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 0);
    });
}

#[test]
fn mux_cellular_codel_page_load_world_is_freed() {
    let site = site(13, 4, 14.0);
    let downlink = cellular(
        &CellularParams {
            mean_mbps: 6.0,
            volatility: 0.8,
            state_ms: 150,
            outage_prob: 0.05,
            period_ms: 60_000,
        },
        &mut RngStream::from_seed(5),
    );
    assert_frees_its_worlds("run_page_load mux + cellular + CoDel", || {
        let mut spec = LoadSpec::new(&site);
        spec.net = NetSpec {
            delay: Some(SimDuration::from_millis(40)),
            link: Some(LinkSpec {
                uplink: constant_rate(1.0, 1000),
                downlink: downlink.clone(),
                qdisc: QdiscKind::Codel,
            }),
            ..NetSpec::default()
        };
        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        spec.tcp = Some(TcpConfig::builder().recovery(RecoveryTier::RackTlp).build());
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 0);
    });
}

#[test]
fn observed_page_load_world_is_freed() {
    let site = site(13, 4, 14.0);
    assert_frees_its_worlds("run_page_load with all four observers", || {
        let mut spec = LoadSpec::new(&site);
        spec.net = wired_net();
        let observers = Observers::attach(&mut spec);
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 0);
        observers.check();
        assert!(observers.auditor.finish().is_clean());
    });
}

// ------------------------------------------------------- fleet and soak

#[test]
fn fleet_worlds_are_freed() {
    let site = site(13, 4, 14.0);
    for (mix, mux) in [(CcMix::BbrRenoSplit, false), (CcMix::AllReno, true)] {
        assert_frees_its_worlds(&format!("run_fleet {} mux={mux}", mix.label()), || {
            let mut load = LoadSpec::new(&site);
            load.net = NetSpec {
                delay: Some(SimDuration::from_millis(40)),
                link: Some(LinkSpec {
                    uplink: constant_rate(12.0, 1000),
                    downlink: constant_rate(40.0, 1000),
                    qdisc: QdiscKind::DropTailPackets(64),
                }),
                ..NetSpec::default()
            };
            if mux {
                load.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
            }
            let r = run_fleet(&FleetSpec {
                load,
                n_users: 8,
                cc_mix: mix,
                bulk_bytes: 200_000,
                arrival_window: SimDuration::from_millis(500),
            });
            assert_eq!(r.users.len(), 8);
            assert!(r.users.iter().all(|u| u.bulk_bytes == 200_000));
        });
    }
}

fn soak_spec(site: &StoredSite, seconds: u64) -> SoakSpec<'_> {
    let mut spec = SoakSpec::new(site);
    spec.delay = Some(SimDuration::from_millis(40));
    spec.link = Some(LinkSpec {
        uplink: constant_rate(12.0, 1000),
        downlink: constant_rate(40.0, 1000),
        qdisc: QdiscKind::DropTailPackets(256),
    });
    spec.arrival_mean = SimDuration::from_millis(500);
    spec.duration = SimDuration::from_secs(seconds);
    spec.max_live_sessions = 8;
    spec.seed = 3;
    spec
}

#[test]
fn soak_world_is_freed() {
    let site = site(13, 4, 14.0);
    assert_frees_its_worlds("run_soak", || {
        let r = run_soak(&soak_spec(&site, 10), &Registry::new());
        assert!(r.sessions_completed >= 5 && r.sessions_completed == r.sessions_started);
    });
}

/// The case the soak exists for: a world that keeps running lets go of
/// the sessions it has finished, so its peak does not grow with its age.
#[test]
fn a_longer_soak_needs_no_more_memory_at_its_peak() {
    let site = site(13, 4, 14.0);
    let run = |seconds: u64| {
        let mut sessions = 0;
        let high = high_water_of(|| {
            sessions = run_soak(&soak_spec(&site, seconds), &Registry::new()).sessions_completed;
        });
        (high, sessions)
    };
    run(20); // warm-up
    let (short, short_sessions) = run(20);
    let (long, long_sessions) = run(200);
    assert!(long_sessions >= 5 * short_sessions, "the long soak is long");
    assert!(
        long as f64 <= 1.5 * short as f64,
        "soak high-water grew with its length: {short} bytes for {short_sessions} sessions, \
         {long} bytes for {long_sessions}"
    );
}

// ------------------------------------------------ a world built by hand

/// Server side of a transfer: on the client's request, push the payload
/// and close. Keeps the accepted handle where the builder can read the
/// sender's statistics after the run.
struct PushOnRequest {
    payload: Bytes,
    sender: Rc<RefCell<Option<TcpHandle>>>,
}

impl Listener for PushOnRequest {
    fn on_connection(&self, _sim: &mut Simulator, handle: TcpHandle) -> Rc<dyn SocketApp> {
        struct Push(RefCell<Option<Bytes>>);
        impl SocketApp for Push {
            fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                if let SocketEvent::Data(_) = ev {
                    if let Some(data) = self.0.borrow_mut().take() {
                        h.send(sim, data);
                        h.close(sim);
                    }
                }
            }
        }
        *self.sender.borrow_mut() = Some(handle);
        Rc::new(Push(RefCell::new(Some(self.payload.clone()))))
    }
}

struct CountingReceiver {
    received: Cell<usize>,
}

impl SocketApp for CountingReceiver {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Connected => h.send(sim, Bytes::from_static(b"GET /bulk\r\n\r\n")),
            SocketEvent::Data(b) => self.received.set(self.received.get() + b.len()),
            SocketEvent::PeerClosed => h.close(sim),
            _ => {}
        }
    }
}

/// Written the way the benchmark's `run_transfer` is: the builder holds
/// the namespace, the stack, both hosts and the simulator, reads what it
/// wants after `run()`, and returns. No teardown call. With `stop_at`,
/// both hosts' timers share a `TimerMux` and the run ends there instead,
/// mid-transfer.
fn hand_built_transfer(payload: &Bytes, stop_at: Option<Timestamp>) -> (usize, u64) {
    const SERVER_IP: IpAddr = IpAddr::new(10, 0, 0, 2);
    const CLIENT_IP: IpAddr = IpAddr::new(10, 0, 0, 1);
    let mut sim = Simulator::new();
    let root = Namespace::root("w");
    let ids = PacketIdGen::new();
    let server = Host::new_in(SERVER_IP, ids.clone(), &root);
    let stack = ShellStack::new(&root)
        .delay(SimDuration::from_millis(20))
        .link(constant_rate(20.0, 1000), &|| {
            Box::new(DropTail::new(QueueLimit::Packets(64))) as Box<dyn Qdisc>
        })
        .loss(0.01, 0.01, &RngStream::from_seed(11).fork("loss"));
    let client = Host::new_in(CLIENT_IP, ids, &stack.innermost());
    if stop_at.is_some() {
        server.enable_timer_mux();
        client.enable_timer_mux();
    }
    let sender = Rc::new(RefCell::new(None));
    server.listen(
        80,
        Rc::new(PushOnRequest {
            payload: payload.clone(),
            sender: sender.clone(),
        }),
    );
    let receiver = Rc::new(CountingReceiver {
        received: Cell::new(0),
    });
    client.connect(&mut sim, SocketAddr::new(SERVER_IP, 80), receiver.clone());
    match stop_at {
        None => {
            sim.run();
        }
        Some(at) => {
            sim.run_until(at);
            let armed = |h: &Host| h.timer_mux().map_or(0, |m| m.pending_count());
            assert!(armed(&server) > 0 && sim.pending_events() > 0);
        }
    }
    let sent = sender
        .borrow()
        .as_ref()
        .map_or(0, |h| h.stats().segments_sent);
    (receiver.received.get(), sent)
}

#[test]
fn hand_built_transfer_world_is_freed() {
    let payload = Bytes::from(vec![7u8; 300_000]);
    assert_frees_its_worlds("two hosts through delay+link+loss", || {
        let (received, segments_sent) = hand_built_transfer(&payload, None);
        assert_eq!(received, payload.len());
        assert!(segments_sent > 200, "the sender's stats survive the run");
    });
}

/// Nothing has to finish for a world to be freed: stopped mid-transfer,
/// with packets in every queue and retransmission timers armed in the
/// hosts' shared muxes, it still goes when its builder returns.
#[test]
fn world_stopped_mid_transfer_is_freed() {
    let payload = Bytes::from(vec![7u8; 300_000]);
    assert_frees_its_worlds("two hosts, stopped at 100 ms", || {
        let (received, _) = hand_built_transfer(&payload, Some(Timestamp::from_millis(100)));
        assert!(received > 0 && received < payload.len());
    });
}

/// A world stopped while its replay server thinks: the request waiting
/// on the server's CPU goes with it, though the connection it waits to
/// answer holds the server.
#[test]
fn world_stopped_while_its_server_thinks_is_freed() {
    let site = site(13, 4, 14.0);
    assert_frees_its_worlds("replay server stopped mid-think", || {
        let mut sim = Simulator::new();
        let ns = Namespace::root("thinking");
        let ids = PacketIdGen::new();
        let config = ReplayConfig {
            think_time: SimDuration::from_millis(50),
            ..ReplayConfig::default()
        };
        let shell = ReplayShell::new(&ns, &site, config, &ids);
        let client = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &ns);
        let root = site.root_pair().expect("the site has a root");
        let addr = shell.resolve(root.origin);
        let reply = fetch_via(&mut sim, &client, addr, root.request.clone());
        sim.run_until(Timestamp::from_millis(30));
        assert!(reply.borrow().is_empty(), "the answer is still due");
    });
}

/// A mux page load stopped while its replay server thinks: the browser
/// holds its pool's mux client and the client its owner, which refers
/// back to the browser weakly, so dropping the browser frees the load.
#[test]
fn mux_page_load_stopped_mid_load_is_freed() {
    let site = site(13, 4, 14.0);
    assert_frees_its_worlds("mux page load stopped mid-load", || {
        let mut sim = Simulator::new();
        let ns = Namespace::root("mux-stopped");
        let ids = PacketIdGen::new();
        let mux = MuxConfig::default();
        let config = ReplayConfig {
            think_time: SimDuration::from_millis(50),
            protocol: ServerProtocol::Mux(mux.clone()),
            ..ReplayConfig::default()
        };
        let shell = Rc::new(ReplayShell::new(&ns, &site, config, &ids));
        let host = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &ns);
        let resolver: Resolver = Rc::new(move |url: &Url| {
            let ip: IpAddr = url.host().parse().ok()?;
            Some(shell.resolve(SocketAddr::new(ip, url.port())))
        });
        let browser = Browser::new(
            host,
            resolver,
            BrowserConfig {
                protocol: ProtocolMode::Mux(mux),
                ..BrowserConfig::default()
            },
        );
        let done = Rc::new(Cell::new(false));
        let flag = done.clone();
        browser.navigate(&mut sim, &site.root_url, move |_, _| flag.set(true));
        sim.run_until(Timestamp::from_millis(30));
        assert!(!done.get(), "the load is still running");
    });
}

// ----------------------------------------------------- a recording world

/// Answers every request chunk with the same page.
struct OneDocument;

impl Listener for OneDocument {
    fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
        struct Serve;
        impl SocketApp for Serve {
            fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                if let SocketEvent::Data(_) = ev {
                    let page = Response::ok(Bytes::from(vec![b'x'; 40_000]), "text/html");
                    h.send(sim, write_response(&page));
                }
            }
        }
        Rc::new(Serve)
    }
}

/// A RecordShell world stopped at a horizon with its three connections
/// (browser–proxy, proxy–origin) still established: nothing has to reach
/// `Closed` for a world to be freed.
#[test]
fn record_shell_world_is_freed_with_connections_still_open() {
    assert_frees_its_worlds("RecordShell fetch, stopped at a horizon", || {
        let mut sim = Simulator::new();
        let internet = Namespace::root("internet");
        let ids = PacketIdGen::new();
        let origin = Host::new_in(IpAddr::new(10, 1, 0, 1), ids.clone(), &internet);
        origin.listen(80, Rc::new(OneDocument));
        let shell = RecordShell::new(
            &internet,
            "recordshell",
            IpAddr::new(192, 168, 1, 10),
            ids.clone(),
            "site",
            "http://10.1.0.1:80/",
        );
        let browser = Host::new_in(IpAddr::new(100, 64, 0, 2), ids, &shell.inner_ns);
        let body = fetch_via(
            &mut sim,
            &browser,
            SocketAddr::new(origin.ip(), 80),
            Request::get("/", "site.example"),
        );
        sim.run_until(Timestamp::from_secs(5));
        assert_eq!(shell.pair_count(), 1);
        assert!(body.borrow().len() > 40_000);
        assert_eq!(browser.socket_count() + origin.socket_count(), 2);
    });
}
