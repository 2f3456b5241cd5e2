//! The packet path's allocator traffic, as exact counts (DESIGN.md §1–§2).
//!
//! A packet crossing a delay leg, a trace-driven link and a host's
//! dispatch, a socket timer being re-armed, an ack advancing the
//! retransmission queue: none of these carries simulated meaning in an
//! allocation, so in steady state none of them makes one; nor does a
//! socket need a block per timer or a message head a `String` per field
//! (DESIGN.md §1, §3, §4). Counted with an allocator local to this test binary —
//! calls, not bytes — so the numbers repeat exactly and a regression is a
//! failed assertion, not a slower benchmark.
//!
//! The counter is per thread (cargo runs tests on parallel threads), so
//! each `#[test]` measures only itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use mahimahi::corpus::{generate_plans, materialize, CorpusConfig};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mm_audit::Auditor;
use mm_browser::{MuxConfig, ProtocolMode};
use mm_capture::{
    Capture, Dir, PacketEvent, PacketEventKind, PacketTap, PointKind, TapHandle, TapPoint,
};
use mm_http::{Request, RequestParser, Response};
use mm_metrics::{FlowSample, FlowTracer, MetricsHandle, MetricsSink, Registry, RegistrySink};
use mm_net::{
    FnSink, Host, IpAddr, Listener, Namespace, Packet, PacketIdGen, RecoveryTier, SinkRef,
    SocketAddr, SocketApp, SocketEvent, TcpConfig, TcpFlags, TcpHandle, TcpSegment,
};
use mm_record::{RequestResponsePair, Scheme, StoredSite};
use mm_replay::{Matcher, StoreIndex};
use mm_shells::{DelayLink, DropTail, ObservedQdisc, Qdisc, ShellStack, TraceLink, TraceLinkSink};
use mm_sim::{RngStream, SimDuration, Simulator, Timer, TimerMux, Timestamp};
use mm_trace::{constant_rate, TraceBuffer};

// ------------------------------------------------------------ allocator

thread_local! {
    // A `const` initialiser on a type without a destructor: reading it
    // from inside the allocator can never allocate or register a dtor.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: during thread teardown the slot may be gone.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never influences the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) this thread made
/// while `f` ran.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

// ------------------------------------------------------- the whole load

/// `pageload_http1`'s world: 40 ms each way, 14 Mbit/s, infinite queue.
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

/// The default corpus's median-size site.
fn median_site() -> StoredSite {
    let mut plans = generate_plans(&CorpusConfig {
        n_sites: 500,
        seed: 2014,
        ..CorpusConfig::default()
    });
    plans.sort_by_key(|p| p.total_bytes());
    materialize(&plans[plans.len() / 2])
}

/// One load of the default corpus's median-size site made 22 121
/// allocator calls with a closure boxed per packet per hop and per timer
/// arm, a fresh out-buffer per wakeup and per segment, and a response
/// cloned per request; 7 392 with five timer blocks per socket and two
/// `String`s per header field; 4 935 while each connection that carried
/// a request grew a queue for it; 4 890 while the replay shell built two
/// maps and a listener per origin (15 here); 4 867 while every load's
/// replay index copied the recording (58 pairs) and each fetch split its
/// host into a `Vec`; 4 187 while each of its 90 connections boxed two
/// congestion controllers, two event queues, two send queues, an accept
/// placeholder and a copy of its origin's name; 3 572 while a fetch
/// made about 32 calls per resource (see the per-resource row below); it
/// makes 2 421 now. The budget is that plus ~10 %.
#[test]
fn a_page_load_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 2_660;
    let site = median_site();
    let load = || {
        let mut spec = LoadSpec::new(&site);
        spec.net = wired_net();
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 0);
        r.resource_count()
    };
    load(); // lazily grown statics settle
    let (allocs, resources) = allocs_of(load);
    println!("page load: {allocs} allocator calls, {resources} resources");
    assert!(resources > 20, "a mid-size page, not a stub: {resources}");
    assert!(
        allocs <= BUDGET,
        "one page load ({resources} resources) made {allocs} allocator calls, budget {BUDGET}"
    );
}

/// The same load with every observer on, wired as `pageload_observed`
/// wires them: a reused capture, a span recorder, the auditor, and a
/// `RegistrySink` feeding a `FlowTracer`. It made 11 013 allocator calls
/// while the auditor kept its packet ledgers in trees and copied a flow's
/// name into every sample, each span was copied once per sink, and a
/// flow's name regrew as it was formatted; 7 377 with that per-connection
/// queue and each resource span's URL copied twice; 7 274 with the replay
/// shell's two maps and listener per origin; 7 251 with the replay
/// index's copy of the recording and a `Vec` per resolved URL; 6 571
/// with those boxes and queues per connection; 5 956 with the fetch path
/// the page load's history describes; it makes 4 805 now. The budget is
/// that plus ~10 %.
#[test]
fn an_observed_page_load_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 5_290;
    let site = median_site();
    let capture = Capture::for_load(0);
    let load = || {
        let mut spec = LoadSpec::new(&site);
        spec.net = wired_net();
        capture.clear();
        spec.capture = Some(capture.handle());
        let spans = TraceBuffer::for_load(0);
        spec.span = Some(spans.handle());
        let auditor = Auditor::for_load(0);
        spec.audit = Some(auditor.clone());
        let tracer = FlowTracer::new();
        let metrics = RegistrySink::with_tracer(Registry::new(), tracer.clone());
        spec.tcp = Some(
            TcpConfig::builder()
                .metrics(MetricsHandle::new(metrics))
                .build(),
        );
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 0);
        let report = auditor.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.packets > 0 && report.samples > 0 && report.spans > 0);
        assert!(capture.packet_count() > 0 && tracer.sample_count() > 0);
        r.resource_count()
    };
    load(); // lazily grown statics and the reused capture settle
    let (allocs, resources) = allocs_of(load);
    println!("observed page load: {allocs} allocator calls, {resources} resources");
    assert!(
        allocs <= BUDGET,
        "one observed page load ({resources} resources) made {allocs} allocator calls, \
         budget {BUDGET}"
    );
}

/// The same load over mux, one connection per origin. It made 9 553
/// allocator calls while every frame was encoded into a growing buffer
/// and copied again, every decoded frame was copied out of the decoder
/// twice, every header field was two `String`s and every response was
/// cloned out of the index; 4 642 while each request's URL was formatted
/// for a tap none had attached; 4 410 with the replay shell's two maps
/// and listener per origin and a request handler per connection; 4 372
/// with the replay index's copy of the recording and a `Vec` per
/// resolved URL; 3 750 with a boxed congestion controller and a queue
/// per socket, and a copy of its origin's name per request; 3 600 while
/// a URL was three `String`s, each fetch formatted its key and its
/// pool's, built its request from copies of the URL's parts and
/// lower-cased its extension, each decoded head sized its spans for its
/// pseudo-fields too, and each parse delay was a boxed closure; 2 799
/// while each fetch built a `Request` and boxed a completion closure for
/// the client; it makes 2 582 now. The budget is that plus ~10 %.
#[test]
fn a_mux_page_load_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 2_840;
    let site = median_site();
    let load = || {
        let mut spec = LoadSpec::new(&site);
        spec.net = wired_net();
        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 0);
        r.resource_count()
    };
    load(); // lazily grown statics settle
    let (allocs, resources) = allocs_of(load);
    println!("mux page load: {allocs} allocator calls, {resources} resources");
    assert!(
        allocs <= BUDGET,
        "one mux page load ({resources} resources) made {allocs} allocator calls, \
         budget {BUDGET}"
    );
}

/// A site on one origin, 10.0.0.1:80: a root document linking `n`
/// 1 000-byte images.
fn one_origin(n: usize) -> StoredSite {
    let mut site = StoredSite::new("flat.example", "http://10.0.0.1:80/");
    let mut root = String::new();
    for i in 0..n {
        root.push_str(&format!("<img src=\"http://10.0.0.1:80/img/{i}.png\">\n"));
    }
    let mut add = |target: String, response: Response| {
        site.push(RequestResponsePair {
            origin: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80),
            scheme: Scheme::Http,
            request: Request::get(target, "10.0.0.1"),
            response,
        })
    };
    add("/".into(), Response::ok(Bytes::from(root), "text/html"));
    for i in 0..n {
        let image = Response::ok(Bytes::from(vec![b'x'; 1000]), "image/png");
        add(format!("/img/{i}.png"), image);
    }
    site
}

/// What one more fetched resource costs a page load: the same one-origin
/// site with 60 images, less it with 20, over 40. Both open the origin's
/// six connections, so their costs cancel. What is left is the URL (1),
/// its request written (2: the buffer and its freeze) and parsed (2: the
/// target and the header map), the response's head written (2) and
/// parsed (2: the reason and the header map), its body reserved and
/// frozen (2), the TCP segment that joins a head to its body (2), and
/// the growth of the load's tables. It was 33.75 while a URL was three
/// `String`s, each fetch formatted its key and its pool's, a request was
/// built before it was written, each parser staged every head and
/// returned a `Vec`, a header map kept its spans on the heap, and the
/// server's answer and the parse delay were boxed closures; it is 13.75
/// now. The budget is that plus ~9 %.
#[test]
fn a_fetched_resource_costs_a_constant_few_allocations() {
    const BUDGET: f64 = 15.0;
    let (per_resource, few, many) = cost_per_resource(ProtocolMode::default());
    println!(
        "per resource: {per_resource:.2} allocator calls ({few} for 21 resources, {many} for 61)"
    );
    assert!(
        per_resource <= BUDGET,
        "{per_resource:.2} allocator calls per fetched resource, budget {BUDGET}"
    );
}

/// The same over mux: the one-origin sites of 60 and 20 images, each
/// load on the origin's one connection. What is left is the URL (1), the
/// HEADERS frames written (4: the request and its answer), the request
/// and the response head parsed (4: the server's `to_request`, the
/// client's `to_response`), the frame decoders' buffers (3), a 9-byte
/// heap head per DATA frame (2), the TCP segments that join frames
/// across the send queue's chunks (2), the per-batch `Vec`s of both
/// ends' `on_data` and the server's `schedule_data` (3), the events filed
/// (1.25), and the growth of the load's tables. It was 27.27 while each
/// fetch built a `Request` (two `String`s and a header map) and boxed a
/// completion closure for the client; it is 23.27 now. The budget is
/// that plus ~10 %.
#[test]
fn a_mux_fetched_resource_costs_a_constant_few_allocations() {
    const BUDGET: f64 = 25.6;
    let mux = ProtocolMode::Mux(MuxConfig::default());
    let (per_resource, few, many) = cost_per_resource(mux);
    println!(
        "mux per resource: {per_resource:.2} allocator calls ({few} for 21 resources, {many} for 61)"
    );
    assert!(
        per_resource <= BUDGET,
        "{per_resource:.2} allocator calls per fetched resource over mux, budget {BUDGET}"
    );
}

/// One more fetched resource's cost over `protocol`: the one-origin site
/// with 60 images, less it with 20, over 40; and the two loads' counts.
fn cost_per_resource(protocol: ProtocolMode) -> (f64, u64, u64) {
    let cost = |n: usize| {
        let site = one_origin(n);
        let load = || {
            let mut spec = LoadSpec::new(&site);
            spec.net = wired_net();
            spec.browser.protocol = protocol.clone();
            let r = run_page_load(&spec);
            assert_eq!((r.failures, r.resource_count()), (0, n + 1));
        };
        load(); // lazily grown statics settle
        allocs_of(load).0
    };
    let (few, many) = (cost(20), cost(60));
    ((many - few) as f64 / 40.0, few, many)
}

/// A site of one `bytes`-byte document, served from 10.0.0.1.
fn one_document(bytes: usize) -> StoredSite {
    let mut site = StoredSite::new("one.example", "http://10.0.0.1:80/");
    site.push(RequestResponsePair {
        origin: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80),
        scheme: Scheme::Http,
        request: Request::get("/", "10.0.0.1"),
        response: Response::ok(Bytes::from(vec![b'x'; bytes]), "application/octet-stream"),
    });
    site
}

/// One 4 MiB response on one mux stream between two hosts, less the same
/// load with an empty body: what the 256 DATA frames cost, with their
/// TCP segments and window updates. That was 13.96 allocator calls per
/// frame while the server encoded each frame twice and the client copied
/// each out of its decoder twice into a body that grew by doubling; it
/// is 6.86 now, most of it the frame's 9-byte head and the TCP segments
/// that join a head to its body. The budget is that plus ~10 %.
#[test]
fn a_mux_response_allocates_little_per_data_frame() {
    const BODY: usize = 4 << 20;
    const FRAMES: u64 = (BODY / (16 << 10)) as u64;
    const BUDGET_PER_FRAME: f64 = 7.5;
    let load = |site: &StoredSite| {
        let mut spec = LoadSpec::new(site);
        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 0);
        r.total_body_bytes
    };
    let (large, empty) = (one_document(BODY), one_document(0));
    load(&large); // lazily grown statics settle
    let (with_body, bytes) = allocs_of(|| load(&large));
    assert_eq!(bytes, BODY as u64);
    let (without_body, _) = allocs_of(|| load(&empty));
    let per_frame = (with_body - without_body) as f64 / FRAMES as f64;
    println!(
        "mux response: {with_body} allocator calls with a 4 MiB body, {without_body} without: \
         {per_frame:.2} per DATA frame"
    );
    assert!(
        per_frame <= BUDGET_PER_FRAME,
        "{per_frame:.2} allocator calls per DATA frame, budget {BUDGET_PER_FRAME}"
    );
}

// ---------------------------------------------------- the bulk transfer

/// Server side: on the client's request, push the payload.
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
            _ => {}
        }
    }
}

/// 1 MB, clean, through delay + link: between the first and the last
/// quarter of the transfer — windows open, queues and buffers at their
/// working size — every data segment crosses two delay legs, two links
/// and two hosts, is acknowledged, advances the sender's retransmission
/// queue and re-arms its RTO. That used to cost 8.99 allocator calls per
/// data segment (3 588 for 399), then 0.27 (106, most of them the
/// retransmission queue's tree nodes); it costs 0.11 now (42 for 399).
#[test]
fn a_bulk_transfer_allocates_less_than_once_per_data_segment() {
    const SERVER_IP: IpAddr = IpAddr::new(10, 0, 0, 2);
    const CLIENT_IP: IpAddr = IpAddr::new(10, 0, 0, 1);
    let payload = Bytes::from(vec![7u8; 1_000_000]);
    let mut sim = Simulator::new();
    let root = Namespace::root("w");
    let ids = PacketIdGen::new();
    let server = Host::new_in(SERVER_IP, ids.clone(), &root);
    let stack = ShellStack::new(&root)
        .delay(SimDuration::from_millis(20))
        .link(constant_rate(20.0, 1000), &|| {
            Box::new(DropTail::infinite()) as Box<dyn Qdisc>
        });
    let client = Host::new_in(CLIENT_IP, ids, &stack.innermost());
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

    let run_to = |sim: &mut Simulator, bytes: usize| {
        while receiver.received.get() < bytes {
            assert!(
                sim.step(),
                "transfer stalled at {}",
                receiver.received.get()
            );
        }
    };
    let sent = || {
        sender
            .borrow()
            .as_ref()
            .map_or(0, |h| h.stats().segments_sent)
    };
    run_to(&mut sim, payload.len() / 4);
    let sent_before = sent();
    let (allocs, ()) = allocs_of(|| run_to(&mut sim, 3 * payload.len() / 4));
    let segments = sent() - sent_before;
    assert!(segments > 300, "half a megabyte is {segments} segments");
    let per_segment = allocs as f64 / segments as f64;
    println!("bulk transfer: {allocs} allocator calls, {segments} data segments");
    assert!(
        per_segment <= 1.0,
        "{allocs} allocator calls for {segments} data segments = {per_segment:.2} each"
    );
    sim.run();
    assert_eq!(receiver.received.get(), payload.len());
}

/// One 1 MB transfer at the SACK tier through delay + link + a seeded
/// `loss` each way, from the connect to the last event. Returns the
/// allocator calls and the segments the server retransmitted.
fn sack_transfer(loss: f64) -> (u64, u64) {
    const SERVER_IP: IpAddr = IpAddr::new(10, 0, 0, 2);
    const CLIENT_IP: IpAddr = IpAddr::new(10, 0, 0, 1);
    let config = TcpConfig::builder().recovery(RecoveryTier::Sack).build();
    let payload = Bytes::from(vec![7u8; 1_000_000]);
    let mut sim = Simulator::new();
    let root = Namespace::root("w");
    let ids = PacketIdGen::new();
    let server = Host::new_in(SERVER_IP, ids.clone(), &root);
    server.set_tcp_config(config.clone());
    let stack = ShellStack::new(&root)
        .delay(SimDuration::from_millis(20))
        .link(constant_rate(20.0, 1000), &|| {
            Box::new(DropTail::infinite()) as Box<dyn Qdisc>
        })
        .loss(loss, loss, &RngStream::from_seed(7).fork("loss"));
    let client = Host::new_in(CLIENT_IP, ids, &stack.innermost());
    client.set_tcp_config(config);
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
    let (allocs, ()) = allocs_of(|| {
        client.connect(&mut sim, SocketAddr::new(SERVER_IP, 80), receiver.clone());
        sim.run();
    });
    assert_eq!(receiver.received.get(), payload.len());
    let stats = sender.borrow().as_ref().expect("accepted").stats();
    assert_eq!(
        stats.sack_recoveries > 0,
        loss > 0.0,
        "loss is repaired by SACK"
    );
    (allocs, stats.retransmissions)
}

/// The same 1 MB at the SACK tier with 2 % loss each way, less the
/// lossless transfer: what loss recovery costs, per retransmitted
/// segment. That was 12.70 calls per retransmission (851 for 67) while
/// every ACK sent with a hole open built a `Vec` of SACK blocks and every
/// hole built reassembly-tree nodes, and 0.03 (2 for 67) while the
/// socket's small queues lived on the heap; it is 0.01 now (1 for 67).
/// The budget was set at 2 for 67 plus ~10 %: two calls more fail it.
#[test]
fn loss_recovery_allocates_little_per_retransmission() {
    const BUDGET_PER_RETRANSMISSION: f64 = 0.033;
    sack_transfer(0.02); // lazily grown statics settle
    let (clean, none) = sack_transfer(0.0);
    assert_eq!(none, 0);
    let (lossy, retransmissions) = sack_transfer(0.02);
    assert!(retransmissions >= 10, "{retransmissions} retransmissions");
    let per_retransmission = lossy.saturating_sub(clean) as f64 / retransmissions as f64;
    println!(
        "lossy SACK transfer: {lossy} allocator calls, {clean} lossless, {retransmissions} \
         retransmissions: {per_retransmission:.2} per retransmission"
    );
    assert!(
        per_retransmission <= BUDGET_PER_RETRANSMISSION,
        "{per_retransmission:.2} allocator calls per retransmission, budget \
         {BUDGET_PER_RETRANSMISSION}"
    );
}

// ------------------------------------------------------- one connection

/// Answers each request with a fixed reply and closes when the peer does.
struct EchoOnce;

impl Listener for EchoOnce {
    fn on_connection(&self, _sim: &mut Simulator, _handle: TcpHandle) -> Rc<dyn SocketApp> {
        struct Reply;
        impl SocketApp for Reply {
            fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
                match ev {
                    SocketEvent::Data(_) => h.send(sim, Bytes::from_static(b"pong")),
                    SocketEvent::PeerClosed => h.close(sim),
                    _ => {}
                }
            }
        }
        Rc::new(Reply)
    }
}

/// Sends one request, closes on the reply.
struct AskOnce;

impl SocketApp for AskOnce {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Connected => h.send(sim, Bytes::from_static(b"ping")),
            SocketEvent::Data(_) => h.close(sim),
            _ => {}
        }
    }
}

/// A connection opened, used for one request and one response, and closed
/// by both ends — two sockets, born and torn down — makes 10 allocator
/// calls: per socket the socket itself, its one block of timers
/// (DESIGN.md §1) and its retransmission ring (the SYN's entry), plus the
/// two applications and the two hosts' table entries. Its congestion
/// controller, event queue and send queue live inside the socket
/// (DESIGN.md §3), and an accepted socket takes its listener's app
/// directly. It made 27 with a block per timer and a deque per rate
/// filter, and 17 with a boxed controller, a heap event queue and a
/// placeholder app per accept. The budget is 10 plus one.
#[test]
fn a_connection_costs_one_timer_block_per_socket() {
    const BUDGET: u64 = 11;
    let mut sim = Simulator::new();
    let ns = Namespace::root("w");
    let ids = PacketIdGen::new();
    let server = Host::new_in(IpAddr::new(10, 0, 0, 2), ids.clone(), &ns);
    let client = Host::new_in(IpAddr::new(10, 0, 0, 1), ids, &ns);
    server.listen(80, Rc::new(EchoOnce));
    let connection = |sim: &mut Simulator| {
        let h = client.connect(sim, SocketAddr::new(server.ip(), 80), Rc::new(AskOnce));
        sim.run();
        assert_eq!(h.state(), mm_net::TcpState::Closed);
        assert_eq!(h.stats().bytes_received, 4);
    };
    connection(&mut sim); // tables, inboxes and out-buffers reach their size
    let (allocs, ()) = allocs_of(|| connection(&mut sim));
    println!("one connection: {allocs} allocator calls");
    assert!(
        allocs <= BUDGET,
        "one connection made {allocs} allocator calls, budget {BUDGET}"
    );
}

/// A site of `n` small pairs spread over four hosts.
fn many_pairs(n: usize) -> StoredSite {
    let mut site = StoredSite::new("many.example", "http://10.0.0.1:80/");
    for i in 0..n {
        let host = format!("10.0.0.{}", 1 + i % 4);
        site.push(RequestResponsePair {
            origin: SocketAddr::new(host.parse().expect("an address"), 80),
            scheme: Scheme::Http,
            request: Request::get(format!("/object/{i}?v={}", i % 3), host),
            response: Response::ok(Bytes::from_static(b"x"), "text/plain"),
        });
    }
    site
}

/// Indexing a recording for replay reads it where it lies: the index
/// shares the site's pairs and keeps one sorted key list, so it costs the
/// same allocator calls for 256 pairs as for 64. It was about ten per
/// pair while every load's index copied and normalized each pair and
/// keyed two levels of maps by owned strings.
#[test]
fn a_replay_index_allocates_the_same_for_four_times_the_pairs() {
    let cost = |n: usize| {
        let site = many_pairs(n);
        let (allocs, index) = allocs_of(|| StoreIndex::build(&site));
        let matcher = Matcher::new(index);
        let last = &site.pairs[n - 1].request;
        assert_eq!(
            matcher.lookup(last),
            Some(site.pairs[n - 1].response.clone())
        );
        allocs
    };
    let (n, four_n) = (cost(64), cost(256));
    println!("replay index: {n} allocator calls for 64 pairs, {four_n} for 256");
    assert_eq!(n, four_n);
    assert!(n <= 3, "{n}");
}

// ------------------------------------------------------ one message head

/// A request on the wire: `Host` plus `extra` more fields (short ones: a
/// serialiser starts with room for 256 bytes of head).
fn request_wire(extra: usize) -> String {
    let mut wire = String::from("GET /index.html?x=1 HTTP/1.1\r\nHost: example.com\r\n");
    for i in 0..extra {
        wire.push_str(&format!("X-{i}: v{i}\r\n"));
    }
    wire + "\r\n"
}

/// Parsing, copying and serialising a message head cost the same number
/// of allocator calls for twelve fields as for five, and one fewer to
/// parse and to copy for up to four fields, whose spans live inside the
/// header map. A parse is then two — the target and the header map's
/// buffer — and three past four fields, where the spans spill. It was
/// five for any head while the parser staged every head in a buffer and
/// returned a `Vec`, and 30 for twelve fields with a `String` per name
/// and per value and one for the request line.
#[test]
fn a_message_head_allocates_the_same_for_twelve_fields_as_for_five() {
    let costs = |extra: usize| {
        let wire = request_wire(extra);
        let mut parser = RequestParser::new();
        let (parse, requests) = allocs_of(|| parser.feed(wire.as_bytes()).expect("well-formed"));
        let request = &requests[0];
        assert_eq!(request.headers.len(), 1 + extra);
        let (copy, copied) = allocs_of(|| request.headers.clone());
        assert_eq!(copied, request.headers);
        let (write, bytes) = allocs_of(|| mm_http::write_request(request));
        assert_eq!(&bytes[..], wire.as_bytes());
        [parse, copy, write]
    };
    let (twelve, four) = (costs(11), costs(3));
    println!("12-field head: parse, copy, write = {twelve:?} allocator calls; 4-field: {four:?}");
    assert_eq!(twelve, costs(4));
    assert_eq!(four, costs(0));
    assert_eq!((twelve, four), ([3, 2, 2], [2, 1, 2]));
}

// ------------------------------------------------- the pieces, one each

/// "Nothing per packet": what a forwarding element may still allocate is
/// the engine's queue buckets reaching working size as the clock crosses
/// into them — 0 to 13 calls per run below, against one per packet or per
/// arm (800–805 for these 800 packets) when every event was a box.
fn assert_none_per_packet(what: &str, allocs: u64, packets: u64) {
    println!("{what}: {allocs} allocator calls, {packets} packets");
    assert!(
        allocs * 100 <= packets,
        "{what}: {allocs} allocator calls for {packets} packets"
    );
}

/// A 1 000-byte data packet from 1.1.1.1 to 2.2.2.2.
fn data_packet() -> Packet {
    Packet {
        id: 0,
        src: SocketAddr::new(IpAddr::new(1, 1, 1, 1), 1),
        dst: SocketAddr::new(IpAddr::new(2, 2, 2, 2), 2),
        segment: TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 0,
            window: 0,
            sack: Default::default(),
            payload: Bytes::from(vec![0u8; 1000]),
        },
        corrupted: false,
    }
}

/// Feed `sink` forty 20-packet bursts of `packet`, 5 ms apart, and run
/// the world dry — twice. Returns the allocator calls of the second
/// time, when every queue on the way has reached its working size.
fn steady_state_allocs(sim: &mut Simulator, sink: &SinkRef, packet: &Packet) -> u64 {
    let feed = |sim: &mut Simulator| {
        let start = sim.now();
        for round in 0..40 {
            sim.run_until(start + SimDuration::from_millis(5 * round));
            for _ in 0..20 {
                sink.deliver(sim, packet.clone());
            }
        }
        sim.run();
    };
    feed(sim);
    allocs_of(|| feed(sim)).0
}

/// A sink that counts what reaches it.
fn counting_sink() -> (Rc<Cell<u64>>, SinkRef) {
    let delivered = Rc::new(Cell::new(0u64));
    let d = delivered.clone();
    let sink = FnSink::new(move |_: &mut Simulator, _: Packet| d.set(d.get() + 1));
    (delivered, sink)
}

/// Once its queue has reached working size, a delay leg neither
/// allocates to take a packet in nor to release it.
#[test]
fn a_delay_leg_forwards_without_allocating() {
    let mut sim = Simulator::new();
    let (delivered, sink) = counting_sink();
    let leg: SinkRef = DelayLink::new(SimDuration::from_millis(12), sink);
    let allocs = steady_state_allocs(&mut sim, &leg, &data_packet());
    assert_eq!(delivered.get(), 1_600);
    assert_none_per_packet("delay leg", allocs, 800);
}

/// The same for a trace-driven link: enqueue, wakeup, hand-over.
#[test]
fn a_link_wakeup_forwards_without_allocating() {
    let mut sim = Simulator::new();
    let (delivered, sink) = counting_sink();
    let link = TraceLink::new(
        constant_rate(24.0, 1000),
        Box::new(DropTail::infinite()),
        sink,
    );
    let ingress: SinkRef = Rc::new(TraceLinkSink(link));
    let allocs = steady_state_allocs(&mut sim, &ingress, &data_packet());
    assert_eq!(delivered.get(), 1_600);
    assert_none_per_packet("link", allocs, 800);
}

/// A tap that counts the events it sees, by kind; clones share counts.
#[derive(Clone, Default)]
struct CountingTap {
    enqueued: Rc<Cell<u64>>,
    dequeued: Rc<Cell<u64>>,
}

impl PacketTap for CountingTap {
    fn on_packet(&self, ev: &PacketEvent) {
        let kind = match ev.kind {
            PacketEventKind::Enqueue => &self.enqueued,
            PacketEventKind::Dequeue => &self.dequeued,
            _ => return,
        };
        kind.set(kind.get() + 1);
    }
}

/// The same link with its queue observed as a world observes it: a tap
/// for the per-packet events and a registry for the queue's instruments.
#[test]
fn an_observed_link_forwards_without_allocating() {
    let mut sim = Simulator::new();
    let (delivered, sink) = counting_sink();
    let tap = CountingTap::default();
    let registry = Registry::new();
    let metrics = MetricsHandle::new(RegistrySink::new(registry.clone()));
    let point = TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    };
    let tap_handle = Some(TapHandle::new(tap.clone()));
    let queue = ObservedQdisc::new(
        Box::new(DropTail::infinite()),
        point,
        tap_handle,
        Some(metrics),
    );
    let link = TraceLink::new(constant_rate(24.0, 1000), Box::new(queue), sink);
    let ingress: SinkRef = Rc::new(TraceLinkSink(link));
    let allocs = steady_state_allocs(&mut sim, &ingress, &data_packet());
    assert_eq!(delivered.get(), 1_600);
    assert_eq!((tap.enqueued.get(), tap.dequeued.get()), (1_600, 1_600));
    assert!(registry
        .encode()
        .contains("qdisc_down_sojourn_seconds_count 1600"));
    assert_none_per_packet("observed link", allocs, 800);
}

/// A host takes packets into its inbox and dispatches them (here: to the
/// corrupted-packet counter, the one dispatch arm with no socket behind
/// it) without allocating.
#[test]
fn a_host_inbox_dispatches_without_allocating() {
    let mut sim = Simulator::new();
    let ns = Namespace::root("w");
    let host = Host::new_in(IpAddr::new(2, 2, 2, 2), PacketIdGen::new(), &ns);
    let corrupted = Packet {
        corrupted: true,
        ..data_packet()
    };
    let allocs = steady_state_allocs(&mut sim, &ns.router(), &corrupted);
    assert_eq!(host.stats().corrupted_dropped, 1_600);
    assert_none_per_packet("host inbox", allocs, 800);
}

/// Re-arming a bound timer — directly, or through a mux that already
/// holds its entry's node — files no allocation; arming by closure files
/// one box per arm, which is why sockets no longer do.
#[test]
fn a_bound_timer_rearms_without_allocating() {
    let rearm = |mux: Option<&TimerMux>| {
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(0u32));
        let f = fired.clone();
        let timer = Timer::bound(move |_: &mut Simulator| f.set(f.get() + 1), mux);
        let round = |sim: &mut Simulator| {
            let start = sim.now();
            for ms in 1..=200u64 {
                sim.run_until(start + SimDuration::from_millis(ms));
                for _ in 0..10 {
                    timer.rearm_at(sim, sim.now() + SimDuration::from_millis(30));
                }
            }
            sim.run();
        };
        round(&mut sim);
        let (allocs, ()) = allocs_of(|| round(&mut sim));
        assert_eq!(fired.get(), 2);
        allocs
    };
    assert_none_per_packet("timer rearm", rearm(None), 2_000);
    assert_none_per_packet("timer rearm in a mux", rearm(Some(&TimerMux::new())), 2_000);

    let mut sim = Simulator::new();
    let timer = Timer::new();
    timer.arm_at(&mut sim, Timestamp::from_millis(1), |_| {});
    sim.run();
    let (allocs, ()) = allocs_of(|| {
        for ms in 2..=101u64 {
            timer.arm_at(&mut sim, Timestamp::from_millis(ms), |_| {});
        }
    });
    assert!(
        allocs >= 100,
        "a closure per arm is a box per arm: {allocs}"
    );
}

// ------------------------------------------------ the auditor's hot paths

/// A link's packets, queued in bursts of 20, sent and delivered, across
/// eight flows: once the auditor's ledgers have reached working size,
/// checking and digesting them allocates nothing. With the ledgers kept
/// in trees, every burst built and freed their nodes.
#[test]
fn the_auditor_ledgers_a_conforming_packet_stream_without_allocating() {
    let auditor = Auditor::for_load(0);
    let point = TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    };
    let event = |kind, pkt_id: u64| PacketEvent {
        t_ns: pkt_id * 1_000,
        kind,
        point,
        pkt_id,
        size_bytes: 1_040,
        sojourn_ns: 0,
        flow: 1 + pkt_id % 8,
    };
    let bursts = |rounds: std::ops::Range<u64>| {
        for round in rounds {
            let ids = round * 20..(round + 1) * 20;
            for id in ids.clone() {
                auditor.on_packet(&event(PacketEventKind::Enqueue, id));
            }
            for id in ids {
                auditor.on_packet(&event(PacketEventKind::Dequeue, id));
                auditor.on_packet(&event(PacketEventKind::Deliver, id));
            }
        }
    };
    bursts(0..40);
    let (allocs, ()) = allocs_of(|| bursts(40..80));
    assert_none_per_packet("auditor packet events", allocs, 40 * 20 * 3);
    assert!(auditor.finish().is_clean());
}

/// A flow's transmit and SACK samples, all conforming: checking them
/// allocates nothing. Every sample used to copy the flow's name, and
/// every SACK sample its blocks.
#[test]
fn the_auditor_checks_conforming_flow_samples_without_allocating() {
    let auditor = Auditor::for_load(0);
    let flow = MetricsSink::flow_open(&auditor, "100.64.0.2:3300-10.0.0.1:80").unwrap();
    let samples: Vec<FlowSample> = (0..2_000u64)
        .map(|i| FlowSample {
            event: if i % 2 == 0 { "tx" } else { "sack" },
            snd_una: 1_000 + i,
            snd_nxt: 15_600 + i,
            cwnd: 14_600,
            bytes_in_flight: 14_600,
            rwnd: 65_535,
            mss: 1_460,
            rcv_nxt: 1_000,
            // Most recent first, as a receiver reports them.
            sack_blocks: vec![(4_000, 5_000), (2_000, 3_000)],
            ..FlowSample::default()
        })
        .collect();
    let (allocs, ()) = allocs_of(|| {
        for s in &samples {
            auditor.flow_sample(flow, s);
        }
    });
    assert_none_per_packet("auditor flow samples", allocs, samples.len() as u64);
    assert!(auditor.finish().is_clean());
}
