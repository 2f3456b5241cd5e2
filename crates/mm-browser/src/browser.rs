//! The browser page-load model.
//!
//! Loads a page the way an HTTP/1.1 browser of the paper's era does:
//! fetch the root document, scan it for subresources, fetch those over
//! per-origin connection pools (at most 6 persistent connections per
//! origin, one request at a time per connection, no pipelining), scanning
//! every textual body for further references until the dependency closure
//! is exhausted. Page load time is navigation start → last resource
//! complete, the paper's metric.
//!
//! Connection pools are keyed by *URL authority* (host:port), exactly as
//! real browsers key by origin. Under the single-server ablation the
//! resolver maps every authority to one server address: the browser still
//! opens up to 6 connections per origin name, but they all land on a
//! single machine, whose serialized request matching (one Apache + CGI)
//! becomes the bottleneck Table 2 and Figure 3 quantify.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};

use bytes::Bytes;
use mm_capture::{HttpEvent, HttpPhase, TapHandle};
use mm_http::{write_request, Request, Response, ResponseParser, Url};
use mm_mux::{
    MuxClient, MuxConfig, MuxError, StreamEvent, PRIORITY_BULK, PRIORITY_ROOT, PRIORITY_SUBRESOURCE,
};
use mm_net::{Host, SocketAddr, SocketApp, SocketEvent, TcpHandle};
use mm_sim::{SimDuration, Simulator, Timestamp};
use mm_trace::{Span, SpanHandle, SpanKind};

use crate::scan::{extract_urls, is_scannable};

/// The application protocol the browser speaks to every origin.
///
/// This is the knob the paper's SPDY case study turns: load the same
/// recorded page over HTTP/1.1 and over a multiplexed transport, under
/// identical emulated network conditions, and compare PLTs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolMode {
    /// HTTP/1.1: up to `pool_size` persistent connections per origin, one
    /// request in flight per connection, no pipelining (the 2014 browser
    /// default this crate originally modelled).
    Http1 { pool_size: usize },
    /// mm-mux: ONE connection per origin carrying every request as a
    /// concurrent stream, with the root document at higher priority.
    Mux(MuxConfig),
}

impl Default for ProtocolMode {
    fn default() -> Self {
        ProtocolMode::Http1 { pool_size: 6 }
    }
}

/// Browser configuration.
///
/// The parse/decode costs model the renderer's single main thread: each
/// fetched resource occupies the CPU for `parse_delay_base` plus
/// `parse_delay_per_kb` × size before its subresources are discovered.
/// Resources queue for the CPU serially, as on a real renderer — this is
/// what makes bare-ReplayShell page loads land at the multi-second scale
/// the paper's Figure 2 shows, with network emulation adding on top.
#[derive(Clone)]
pub struct BrowserConfig {
    /// Wire protocol and its concurrency shape (HTTP/1.1 with a 6-deep
    /// pool per origin by default, like Chrome/Firefox of the era).
    pub protocol: ProtocolMode,
    /// Fixed main-thread cost per resource (parse/decode/layout share).
    pub parse_delay_base: SimDuration,
    /// Additional main-thread cost per KiB of body.
    pub parse_delay_per_kb: SimDuration,
    /// TCP configuration for the browser's connections (`None` keeps the
    /// host default) — the client half of the harness's per-load TCP
    /// knob, e.g. `TcpConfig::recovery`.
    pub tcp: Option<mm_net::TcpConfig>,
    /// Per-request observability tap: reports `Queued`/`Sent`/`Done`/
    /// `Failed` [`HttpEvent`]s at the browser boundary, keyed by the
    /// resource's index in [`PageLoadResult::resources`]. `None` (the
    /// default) costs one branch per transition; taps observe only.
    pub capture: Option<TapHandle>,
    /// Causal-span sink: emits a `Page` span per load, a `Resource`
    /// span per fetch parented to the resource whose parse discovered
    /// it, and the contiguous per-resource phase chain (`Queued` →
    /// `ConnSetup` → `MuxWait` → `RequestTx` → `Transfer` →
    /// `RenderQueue` → `Parse`) that tiles queued → parse-complete —
    /// the exact-tiling property `mmpath`'s critical-path walk sums to
    /// PLT. `None` (the default) costs one branch per transition;
    /// sinks observe only.
    pub span: Option<SpanHandle>,
}

/// Cap on resources fetched per page (runaway guard; real pages in the
/// corpus stay far below it).
const MAX_RESOURCES: usize = 10_000;

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            protocol: ProtocolMode::default(),
            parse_delay_base: SimDuration::from_millis(18),
            parse_delay_per_kb: SimDuration::from_micros(150),
            tcp: None,
            capture: None,
            span: None,
        }
    }
}

/// The span layer's connection id: the browser-side (initiator) local
/// address packed as `ip << 16 | port` — the same id the socket layer
/// and the replay servers stamp.
fn span_conn_id(addr: SocketAddr) -> u64 {
    ((addr.ip.0 as u64) << 16) | addr.port as u64
}

/// Emit an [`HttpEvent`] if a tap is attached (browser side: `resource`
/// carries the timing index).
fn tap_http(
    tap: &Option<TapHandle>,
    now: Timestamp,
    phase: HttpPhase,
    resource: usize,
    url: &str,
    status: u16,
    bytes: u64,
) {
    if let Some(tap) = tap {
        tap.on_http(&HttpEvent {
            t_ns: now.as_nanos(),
            phase,
            resource: resource as u32,
            url: url.to_string(),
            status,
            bytes,
        });
    }
}

/// Maps a URL's origin to the address actually serving it (the browser's
/// stand-in for DNS). Identity in multi-origin replay; all-to-one in the
/// single-server ablation; arbitrary for live-web models.
pub type Resolver = Rc<dyn Fn(&Url) -> SocketAddr>;

/// Outcome of one resource fetch.
#[derive(Debug, Clone)]
pub struct ResourceTiming {
    pub url: String,
    /// When the fetch was queued.
    pub queued_at: Timestamp,
    /// When the response completed (or failed).
    pub finished_at: Timestamp,
    pub status: u16,
    pub body_bytes: u64,
    pub failed: bool,
}

/// Result of a complete page load.
#[derive(Debug, Clone)]
pub struct PageLoadResult {
    /// Navigation start → last resource complete.
    pub plt: SimDuration,
    pub resources: Vec<ResourceTiming>,
    pub total_body_bytes: u64,
    pub failures: u64,
}

impl PageLoadResult {
    /// Number of resources fetched.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }
}

/// The host header a URL implies (port elided when default).
fn host_header(url: &Url) -> String {
    let default =
        (url.scheme == "http" && url.port == 80) || (url.scheme == "https" && url.port == 443);
    if default {
        url.host.clone()
    } else {
        format!("{}:{}", url.host, url.port)
    }
}

struct FetchJob {
    url: Url,
    timing_idx: usize,
}

/// Per-resource span bookkeeping: ids allocated at fetch time plus the
/// phase-boundary stamps the emitters fill in along the way. Index-
/// parallel with `LoadState::timings`; inert (all zero) when no sink is
/// attached.
#[derive(Clone, Copy, Default)]
struct ResSpanRec {
    span_id: u64,
    /// Span id of the resource whose parse discovered this one (the
    /// `Page` span for the root document).
    parent_span: u64,
    conn: u64,
    /// HTTP/1.1: request written to the socket. Mux: stream submitted.
    sent_at: Option<Timestamp>,
    /// Connection-setup wait interval, when this resource paid one.
    setup_t0: Option<Timestamp>,
    setup_t1: Option<Timestamp>,
    /// Mux only: HEADERS actually sent (stream left the client's queue).
    opened_at: Option<Timestamp>,
    first_byte_at: Option<Timestamp>,
}

struct Conn {
    /// None only during the instant between allocation and `connect`.
    handle: Option<TcpHandle>,
    /// In-flight jobs in request order (HTTP/1.1: one at a time here).
    active: VecDeque<FetchJob>,
    connected: bool,
    dead: bool,
    /// When `connect` was issued (span layer: ConnSetup start).
    connect_started: Timestamp,
    /// When the handshake completed; a request written at exactly this
    /// instant waited on the handshake (span layer: ConnSetup end).
    connected_at: Option<Timestamp>,
}

type ConnRef = Rc<RefCell<Conn>>;

struct Pool {
    /// Where this origin's connections actually go (post-resolver).
    addr: SocketAddr,
    /// HTTP/1.1 connections (unused in mux mode).
    conns: Vec<ConnRef>,
    /// The origin's single multiplexed connection (mux mode only).
    mux: Option<MuxClient>,
    /// When the mux connection's handshake completed (span layer: a
    /// stream whose HEADERS left at exactly this instant waited on it).
    mux_ready_at: Option<Timestamp>,
    /// Jobs not yet handed to a connection.
    queue: VecDeque<FetchJob>,
}

/// Completion callback invoked when the page load settles.
type DoneCallback = Box<dyn FnOnce(&mut Simulator, PageLoadResult)>;

struct LoadState {
    started: Timestamp,
    seen: HashSet<String>,
    outstanding: usize,
    /// Pools keyed by URL authority (`host:port`).
    pools: HashMap<String, Pool>,
    timings: Vec<ResourceTiming>,
    /// Span id of this load's `Page` span (0 when no sink).
    page_span: u64,
    /// Index-parallel with `timings`.
    spans: Vec<ResSpanRec>,
    finished_at: Timestamp,
    /// The renderer main thread is busy until this instant; parse jobs
    /// serialize behind it.
    cpu_busy_until: Timestamp,
    done: Option<DoneCallback>,
}

struct BrowserInner {
    host: Host,
    resolver: Resolver,
    config: BrowserConfig,
    /// Per-resource CPU-cost jitter: (rng, lognormal sigma). Models run-to-
    /// run renderer variability (GC pauses, scheduler preemption) — the
    /// dominant source of PLT variance on a single machine (Table 1).
    cpu_jitter: Option<(mm_sim::RngStream, f64)>,
    load: Option<LoadState>,
}

/// A browser instance bound to a virtual host.
///
/// The browser owns its host handle, its connection pools and (through
/// the host) its sockets; the socket applications and mux callbacks it
/// installs refer back to it weakly. A load therefore runs for as long as
/// the caller holds the `Browser` (or a clone): events for a browser that
/// was dropped are ignored.
#[derive(Clone)]
pub struct Browser {
    inner: Rc<RefCell<BrowserInner>>,
}

/// What a callback owned by the browser's own sockets or mux clients
/// holds instead of a [`Browser`].
#[derive(Clone)]
struct WeakBrowser(Weak<RefCell<BrowserInner>>);

impl WeakBrowser {
    fn upgrade(&self) -> Option<Browser> {
        self.0.upgrade().map(|inner| Browser { inner })
    }
}

impl Browser {
    /// A browser on `host` resolving origins through `resolver`.
    pub fn new(host: Host, resolver: Resolver, config: BrowserConfig) -> Browser {
        if let Some(tcp) = &config.tcp {
            host.set_tcp_config(tcp.clone());
        }
        Browser {
            inner: Rc::new(RefCell::new(BrowserInner {
                host,
                resolver,
                config,
                cpu_jitter: None,
                load: None,
            })),
        }
    }

    fn downgrade(&self) -> WeakBrowser {
        WeakBrowser(Rc::downgrade(&self.inner))
    }

    /// Install per-resource CPU jitter: each resource's main-thread cost
    /// is multiplied by a mean-one lognormal factor with the given sigma.
    pub fn set_cpu_jitter(&self, rng: mm_sim::RngStream, sigma: f64) {
        assert!(sigma >= 0.0);
        self.inner.borrow_mut().cpu_jitter = Some((rng, sigma));
    }

    /// Begin loading `root_url`; `done` fires when the page is complete.
    /// Panics if a load is already in progress (one page at a time).
    pub fn navigate(
        &self,
        sim: &mut Simulator,
        root_url: &str,
        done: impl FnOnce(&mut Simulator, PageLoadResult) + 'static,
    ) {
        let url = Url::parse(root_url).expect("valid root URL");
        let page_span = {
            let mut inner = self.inner.borrow_mut();
            assert!(inner.load.is_none(), "navigation already in progress");
            let page_span = inner.config.span.as_ref().map_or(0, |s| s.next_id());
            inner.load = Some(LoadState {
                started: sim.now(),
                seen: HashSet::new(),
                outstanding: 0,
                pools: HashMap::new(),
                timings: Vec::new(),
                page_span,
                spans: Vec::new(),
                finished_at: sim.now(),
                cpu_busy_until: sim.now(),
                done: Some(Box::new(done)),
            });
            page_span
        };
        self.fetch(sim, url, page_span);
    }

    /// Queue a fetch for `url` (no-op if already seen this load).
    /// `parent_span` is the span id of whatever discovered this URL: the
    /// `Page` span for the root document, the discovering resource's
    /// span for everything else (0 when no sink is attached).
    fn fetch(&self, sim: &mut Simulator, url: Url, parent_span: u64) {
        let (authority, mux) = {
            let mut inner = self.inner.borrow_mut();
            let resolver = inner.resolver.clone();
            let mux = matches!(inner.config.protocol, ProtocolMode::Mux(_));
            let tap = inner.config.capture.clone();
            let span_id = inner.config.span.as_ref().map_or(0, |s| s.next_id());
            let Some(load) = inner.load.as_mut() else {
                return;
            };
            let key = url.to_string();
            if load.seen.contains(&key) || load.seen.len() >= MAX_RESOURCES {
                return;
            }
            load.seen.insert(key.clone());
            load.outstanding += 1;
            let authority = url.authority();
            let addr = resolver(&url);
            let timing_idx = load.timings.len();
            tap_http(&tap, sim.now(), HttpPhase::Queued, timing_idx, &key, 0, 0);
            load.timings.push(ResourceTiming {
                url: key,
                queued_at: sim.now(),
                finished_at: sim.now(),
                status: 0,
                body_bytes: 0,
                failed: false,
            });
            load.spans.push(ResSpanRec {
                span_id,
                parent_span,
                ..ResSpanRec::default()
            });
            let pool = load.pools.entry(authority.clone()).or_insert_with(|| Pool {
                addr,
                conns: Vec::new(),
                mux: None,
                mux_ready_at: None,
                queue: VecDeque::new(),
            });
            pool.queue.push_back(FetchJob { url, timing_idx });
            (authority, mux)
        };
        if mux {
            self.pump_mux(sim, &authority);
        } else {
            self.pump_pool(sim, &authority);
        }
    }

    /// Dispatch queued jobs in the pool for `authority`: reuse idle
    /// connections, open new ones up to the per-origin limit.
    fn pump_pool(&self, sim: &mut Simulator, authority: &str) {
        loop {
            // Find one assignment to perform, then do socket work outside
            // the borrow.
            enum Step {
                Send(TcpHandle, Bytes),
                Open(SocketAddr),
                Done,
            }
            let step = {
                let mut inner = self.inner.borrow_mut();
                let max_conns = match &inner.config.protocol {
                    ProtocolMode::Http1 { pool_size } => *pool_size,
                    ProtocolMode::Mux(_) => unreachable!("pump_pool is HTTP/1.1-only"),
                };
                let tap = inner.config.capture.clone();
                let span_on = inner.config.span.is_some();
                let Some(load) = inner.load.as_mut() else {
                    return;
                };
                let Some(pool) = load.pools.get_mut(authority) else {
                    return;
                };
                pool.conns.retain(|c| !c.borrow().dead);
                if pool.queue.is_empty() {
                    Step::Done
                } else if let Some(conn) = pool
                    .conns
                    .iter()
                    .find(|c| {
                        let c = c.borrow();
                        c.connected && c.active.is_empty()
                    })
                    .cloned()
                {
                    let job = pool.queue.pop_front().unwrap();
                    let req = Self::build_request(&job.url);
                    let wire = write_request(&req);
                    tap_http(
                        &tap,
                        sim.now(),
                        HttpPhase::Sent,
                        job.timing_idx,
                        &load.timings[job.timing_idx].url,
                        0,
                        0,
                    );
                    let mut c = conn.borrow_mut();
                    if span_on {
                        let now = sim.now();
                        let queued = load.timings[job.timing_idx].queued_at;
                        let rec = &mut load.spans[job.timing_idx];
                        rec.sent_at = Some(now);
                        if let Some(h) = &c.handle {
                            rec.conn = span_conn_id(h.local_addr());
                        }
                        // A request written at the very instant the
                        // handshake completed waited on that handshake.
                        if c.connected_at == Some(now) {
                            rec.setup_t0 = Some(c.connect_started.max(queued));
                            rec.setup_t1 = Some(now);
                        }
                    }
                    c.active.push_back(job);
                    let handle = c.handle.clone().expect("connected conn has a handle");
                    Step::Send(handle, wire)
                } else if pool.conns.len() < max_conns {
                    Step::Open(pool.addr)
                } else {
                    Step::Done // every conn busy or still connecting
                }
            };
            match step {
                Step::Done => return,
                Step::Send(handle, wire) => {
                    handle.send(sim, wire);
                }
                Step::Open(addr) => {
                    self.open_connection(sim, authority, addr);
                }
            }
        }
    }

    fn build_request(url: &Url) -> Request {
        let mut req = Request::get(url.target.clone(), host_header(url));
        req.headers.append("Accept", "*/*");
        req
    }

    /// Dispatch queued jobs for `authority` over its single multiplexed
    /// connection, opening it on first use. The client enforces the
    /// concurrent-stream cap internally, so every job is handed over at
    /// once and queues there in priority order.
    fn pump_mux(&self, sim: &mut Simulator, authority: &str) {
        loop {
            enum Step {
                Submit(MuxClient, FetchJob),
                Connect(SocketAddr, MuxConfig),
                Done,
            }
            let step = {
                let mut inner = self.inner.borrow_mut();
                let config = match &inner.config.protocol {
                    ProtocolMode::Mux(c) => c.clone(),
                    ProtocolMode::Http1 { .. } => unreachable!("pump_mux is mux-only"),
                };
                let Some(load) = inner.load.as_mut() else {
                    return;
                };
                let Some(pool) = load.pools.get_mut(authority) else {
                    return;
                };
                if pool.queue.is_empty() {
                    Step::Done
                } else {
                    match &pool.mux {
                        Some(client) if !client.is_dead() => {
                            Step::Submit(client.clone(), pool.queue.pop_front().unwrap())
                        }
                        _ => Step::Connect(pool.addr, config),
                    }
                }
            };
            match step {
                Step::Done => return,
                Step::Submit(client, job) => {
                    // The root document preempts everything; discovery-
                    // bearing subresources preempt leaf content.
                    let priority = if job.timing_idx == 0 {
                        PRIORITY_ROOT
                    } else if crate::scan::likely_scannable_url(&job.url) {
                        PRIORITY_SUBRESOURCE
                    } else {
                        PRIORITY_BULK
                    };
                    let req = Self::build_request(&job.url);
                    let tap = self.inner.borrow().config.capture.clone();
                    tap_http(
                        &tap,
                        sim.now(),
                        HttpPhase::Sent,
                        job.timing_idx,
                        &job.url.to_string(),
                        0,
                        0,
                    );
                    self.stamp_mux_submit(sim.now(), job.timing_idx, &client);
                    let me = self.downgrade();
                    let auth = authority.to_string();
                    let tag = job.timing_idx as u32;
                    client.request_tagged(sim, req, priority, tag, move |sim, result| {
                        if let Some(me) = me.upgrade() {
                            me.on_mux_result(sim, &auth, job, result);
                        }
                    });
                }
                Step::Connect(addr, config) => {
                    let host = self.inner.borrow().host.clone();
                    let client = MuxClient::connect(sim, &host, addr, config);
                    let mut inner = self.inner.borrow_mut();
                    if inner.config.span.is_some() {
                        let me = self.downgrade();
                        let auth = authority.to_string();
                        client.set_observer(Rc::new(move |tag, ev, t| {
                            if let Some(me) = me.upgrade() {
                                me.on_mux_stream_event(&auth, tag, ev, t);
                            }
                        }));
                    }
                    if let Some(load) = inner.load.as_mut() {
                        if let Some(pool) = load.pools.get_mut(authority) {
                            pool.mux = Some(client);
                            pool.mux_ready_at = None;
                        }
                    }
                }
            }
        }
    }

    /// A mux stream settled (response or connection failure).
    fn on_mux_result(
        &self,
        sim: &mut Simulator,
        authority: &str,
        job: FetchJob,
        result: Result<Response, MuxError>,
    ) {
        match result {
            Ok(resp) => self.complete_resource(sim, job.timing_idx, resp),
            Err(_) => {
                // One automatic retry per job on a fresh connection,
                // matching the HTTP/1.1 path's policy.
                let retry = {
                    let mut inner = self.inner.borrow_mut();
                    let tap = inner.config.capture.clone();
                    let span = inner.config.span.clone();
                    let Some(load) = inner.load.as_mut() else {
                        return;
                    };
                    if load.timings[job.timing_idx].failed {
                        load.timings[job.timing_idx].finished_at = sim.now();
                        load.outstanding -= 1;
                        let t = &load.timings[job.timing_idx];
                        tap_http(
                            &tap,
                            sim.now(),
                            HttpPhase::Failed,
                            job.timing_idx,
                            &t.url,
                            0,
                            0,
                        );
                        Self::span_failed(
                            &span,
                            &load.spans[job.timing_idx],
                            job.timing_idx,
                            t.queued_at,
                            &t.url,
                            sim.now(),
                        );
                        false
                    } else {
                        load.timings[job.timing_idx].failed = true;
                        // Reset the span stamps so the retry re-times its
                        // phases from a clean slate.
                        let rec = &mut load.spans[job.timing_idx];
                        *rec = ResSpanRec {
                            span_id: rec.span_id,
                            parent_span: rec.parent_span,
                            ..ResSpanRec::default()
                        };
                        match load.pools.get_mut(authority) {
                            Some(pool) => {
                                if pool.mux.as_ref().is_some_and(|c| c.is_dead()) {
                                    pool.mux = None;
                                }
                                pool.queue.push_back(job);
                                true
                            }
                            None => {
                                load.timings[job.timing_idx].finished_at = sim.now();
                                load.outstanding -= 1;
                                let t = &load.timings[job.timing_idx];
                                tap_http(
                                    &tap,
                                    sim.now(),
                                    HttpPhase::Failed,
                                    job.timing_idx,
                                    &t.url,
                                    0,
                                    0,
                                );
                                Self::span_failed(
                                    &span,
                                    &load.spans[job.timing_idx],
                                    job.timing_idx,
                                    t.queued_at,
                                    &t.url,
                                    sim.now(),
                                );
                                false
                            }
                        }
                    }
                };
                if retry {
                    self.pump_mux(sim, authority);
                }
                self.maybe_finish(sim);
            }
        }
    }

    fn open_connection(&self, sim: &mut Simulator, authority: &str, addr: SocketAddr) {
        let host = self.inner.borrow().host.clone();
        let conn: ConnRef = Rc::new(RefCell::new(Conn {
            handle: None,
            active: VecDeque::new(),
            connected: false,
            dead: false,
            connect_started: sim.now(),
            connected_at: None,
        }));
        let app = Rc::new(ConnApp {
            browser: self.downgrade(),
            conn: Rc::downgrade(&conn),
            authority: authority.to_string(),
            parser: RefCell::new(ResponseParser::new()),
        });
        let handle = host.connect(sim, addr, app);
        conn.borrow_mut().handle = Some(handle);
        if let Some(load) = self.inner.borrow_mut().load.as_mut() {
            if let Some(pool) = load.pools.get_mut(authority) {
                pool.conns.push(conn);
            }
        }
    }

    /// A connection finished its handshake.
    fn on_conn_ready(&self, sim: &mut Simulator, authority: &str, conn: &ConnRef) {
        {
            let mut c = conn.borrow_mut();
            c.connected = true;
            c.connected_at = Some(sim.now());
        }
        self.pump_pool(sim, authority);
    }

    /// A connection died (reset or closed by the server). Re-queue any
    /// in-flight jobs so they are retried on a fresh connection; if the
    /// job was already retried, fail it.
    fn on_conn_dead(&self, sim: &mut Simulator, authority: &str, conn: &ConnRef) {
        let jobs: Vec<FetchJob> = {
            let mut c = conn.borrow_mut();
            c.dead = true;
            c.connected = false;
            c.active.drain(..).collect()
        };
        {
            let mut inner = self.inner.borrow_mut();
            let tap = inner.config.capture.clone();
            let span = inner.config.span.clone();
            if let Some(load) = inner.load.as_mut() {
                if let Some(pool) = load.pools.get_mut(authority) {
                    for job in jobs {
                        // One automatic retry per job: track via timing
                        // status sentinel (status stays 0 until success).
                        if load.timings[job.timing_idx].failed {
                            // Second failure: give up below.
                            load.timings[job.timing_idx].finished_at = sim.now();
                            load.outstanding -= 1;
                            let t = &load.timings[job.timing_idx];
                            tap_http(
                                &tap,
                                sim.now(),
                                HttpPhase::Failed,
                                job.timing_idx,
                                &t.url,
                                0,
                                0,
                            );
                            Self::span_failed(
                                &span,
                                &load.spans[job.timing_idx],
                                job.timing_idx,
                                t.queued_at,
                                &t.url,
                                sim.now(),
                            );
                            continue;
                        }
                        load.timings[job.timing_idx].failed = true;
                        let rec = &mut load.spans[job.timing_idx];
                        *rec = ResSpanRec {
                            span_id: rec.span_id,
                            parent_span: rec.parent_span,
                            ..ResSpanRec::default()
                        };
                        pool.queue.push_back(job);
                    }
                }
            }
        }
        self.pump_pool(sim, authority);
        self.maybe_finish(sim);
    }

    /// A complete response arrived for the oldest in-flight job on `conn`.
    fn on_response(&self, sim: &mut Simulator, authority: &str, conn: &ConnRef, resp: Response) {
        let job = conn.borrow_mut().active.pop_front();
        let Some(job) = job else {
            return; // unsolicited response; ignore
        };
        // This connection is free again.
        self.pump_pool(sim, authority);
        self.complete_resource(sim, job.timing_idx, resp);
    }

    /// Record a fetched resource, charge its parse cost to the renderer
    /// main thread, and scan it for subresources once parsed. Shared by
    /// the HTTP/1.1 and mux paths.
    fn complete_resource(&self, sim: &mut Simulator, timing_idx: usize, resp: Response) {
        let span_sink = self.inner.borrow().config.span.clone();
        let (parse_done_at, parse_start, span_rec) = {
            let mut inner = self.inner.borrow_mut();
            let cfg_base = inner.config.parse_delay_base;
            let cfg_kb = inner.config.parse_delay_per_kb;
            let tap = inner.config.capture.clone();
            let Some(load) = inner.load.as_mut() else {
                return;
            };
            let t = &mut load.timings[timing_idx];
            t.finished_at = sim.now();
            t.status = resp.status;
            t.body_bytes = resp.body.len() as u64;
            t.failed = false;
            tap_http(
                &tap,
                sim.now(),
                HttpPhase::Done,
                timing_idx,
                &t.url,
                resp.status,
                resp.body.len() as u64,
            );
            let mut cost = cfg_base + cfg_kb.saturating_mul(resp.body.len() as u64 / 1024);
            if let Some((rng, sigma)) = inner.cpu_jitter.as_mut() {
                if *sigma > 0.0 {
                    // Mean-one lognormal factor (mu = -sigma^2/2).
                    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
                    let u2 = rng.next_f64();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    let factor = (*sigma * z - *sigma * *sigma / 2.0).exp();
                    cost = cost.mul_f64(factor);
                }
            }
            let load = inner.load.as_mut().unwrap();
            // Serialize on the renderer main thread.
            let start = load.cpu_busy_until.max(sim.now());
            load.cpu_busy_until = start + cost;
            let span_rec = span_sink.as_ref().map(|_| {
                let t = &load.timings[timing_idx];
                (load.spans[timing_idx], t.queued_at, t.url.clone())
            });
            (load.cpu_busy_until, start, span_rec)
        };
        let parent_span = if let (Some(sp), Some((rec, queued_at, url))) = (&span_sink, span_rec) {
            Self::emit_resource_chain(
                sp,
                &rec,
                timing_idx,
                queued_at,
                sim.now(),
                parse_start,
                parse_done_at,
                &url,
            );
            rec.span_id
        } else {
            0
        };
        // Parse for subresources once the main thread has processed this
        // resource, then retire it.
        let me = self.clone();
        let scannable = is_scannable(&resp) && resp.status == 200;
        let body = resp.body;
        sim.schedule_at(parse_done_at, move |sim| {
            if scannable {
                for url in extract_urls(&body) {
                    me.fetch(sim, url, parent_span);
                }
            }
            {
                let mut inner = me.inner.borrow_mut();
                if let Some(load) = inner.load.as_mut() {
                    load.outstanding -= 1;
                    load.finished_at = sim.now();
                }
            }
            me.maybe_finish(sim);
        });
    }

    /// Stamp a mux stream submission (span layer; no-op without a sink).
    fn stamp_mux_submit(&self, now: Timestamp, timing_idx: usize, client: &MuxClient) {
        let mut inner = self.inner.borrow_mut();
        if inner.config.span.is_none() {
            return;
        }
        let conn = client.local_addr().map_or(0, span_conn_id);
        let Some(load) = inner.load.as_mut() else {
            return;
        };
        let rec = &mut load.spans[timing_idx];
        rec.sent_at = Some(now);
        rec.conn = conn;
    }

    /// Mux stream milestone from the client's observer hook (span layer).
    ///
    /// `Opened` at the very instant the connection became ready means the
    /// stream waited on the handshake: that wait is `ConnSetup`, and the
    /// residual `MuxWait` collapses to zero. `Opened` later than both
    /// submit and ready is time spent queued behind the concurrent-stream
    /// cap — the HoL-style wait `mmpath` attributes to `MuxWait`.
    fn on_mux_stream_event(&self, authority: &str, tag: u32, ev: StreamEvent, t: Timestamp) {
        let mut inner = self.inner.borrow_mut();
        let Some(load) = inner.load.as_mut() else {
            return;
        };
        match ev {
            StreamEvent::ConnReady => {
                if let Some(pool) = load.pools.get_mut(authority) {
                    pool.mux_ready_at = Some(t);
                }
            }
            StreamEvent::Opened => {
                let ready = load.pools.get(authority).and_then(|p| p.mux_ready_at);
                if let Some(rec) = load.spans.get_mut(tag as usize) {
                    rec.opened_at = Some(t);
                    if ready == Some(t) {
                        if let Some(sent) = rec.sent_at {
                            if t > sent {
                                rec.setup_t0 = Some(sent);
                                rec.setup_t1 = Some(t);
                            }
                        }
                    }
                }
            }
            StreamEvent::FirstByte => {
                if let Some(rec) = load.spans.get_mut(tag as usize) {
                    if rec.first_byte_at.is_none() {
                        rec.first_byte_at = Some(t);
                    }
                }
            }
        }
    }

    /// First response bytes on an HTTP/1.1 connection: stamp the front
    /// in-flight job's first-byte instant (span layer; no-op without a
    /// sink). Safe to call per Data event: without pipelining the next
    /// request is only written after the previous response completes, so
    /// every Data event's bytes belong to the front job.
    fn on_first_bytes(&self, now: Timestamp, conn: &ConnRef) {
        let mut inner = self.inner.borrow_mut();
        if inner.config.span.is_none() {
            return;
        }
        let idx = match conn.borrow().active.front() {
            Some(job) => job.timing_idx,
            None => return,
        };
        let Some(load) = inner.load.as_mut() else {
            return;
        };
        let rec = &mut load.spans[idx];
        if rec.first_byte_at.is_none() && rec.sent_at.is_some() {
            rec.first_byte_at = Some(now);
        }
    }

    /// Record the span pair for a permanently failed resource: its
    /// `Resource` span plus one `Failed` phase covering queued → give-up.
    fn span_failed(
        span: &Option<SpanHandle>,
        rec: &ResSpanRec,
        timing_idx: usize,
        queued_at: Timestamp,
        url: &str,
        now: Timestamp,
    ) {
        let Some(sp) = span else { return };
        sp.record(Span {
            load: 0,
            id: rec.span_id,
            parent: rec.parent_span,
            kind: SpanKind::Resource,
            t0_ns: queued_at.as_nanos(),
            t1_ns: now.as_nanos(),
            res: timing_idx as u32,
            conn: rec.conn,
            url: url.to_string(),
            detail: "failed".to_string(),
        });
        sp.record(Span {
            load: 0,
            id: sp.next_id(),
            parent: rec.span_id,
            kind: SpanKind::Failed,
            t0_ns: queued_at.as_nanos(),
            t1_ns: now.as_nanos(),
            res: timing_idx as u32,
            conn: rec.conn,
            url: String::new(),
            detail: String::new(),
        });
    }

    /// Record a completed resource's `Resource` span and its phase chain.
    ///
    /// The phases tile `[queued_at, parse_end]` contiguously: each starts
    /// where the previous ended and zero-width phases are elided, so the
    /// phase durations of any one resource sum *exactly* to its span —
    /// the invariant `mmpath`'s critical-path walk relies on to
    /// reconstruct PLT without residue.
    #[allow(clippy::too_many_arguments)]
    fn emit_resource_chain(
        sp: &SpanHandle,
        rec: &ResSpanRec,
        timing_idx: usize,
        queued_at: Timestamp,
        done_at: Timestamp,
        parse_start: Timestamp,
        parse_end: Timestamp,
        url: &str,
    ) {
        let res = timing_idx as u32;
        sp.record(Span {
            load: 0,
            id: rec.span_id,
            parent: rec.parent_span,
            kind: SpanKind::Resource,
            t0_ns: queued_at.as_nanos(),
            t1_ns: parse_end.as_nanos(),
            res,
            conn: rec.conn,
            url: url.to_string(),
            detail: String::new(),
        });
        let mut phases: Vec<(SpanKind, Timestamp, Timestamp)> = Vec::with_capacity(7);
        let sent = rec.sent_at.unwrap_or(done_at).min(done_at).max(queued_at);
        let mut t = queued_at;
        match (rec.setup_t0, rec.setup_t1) {
            (Some(a), Some(b)) if b > a => {
                let a = a.max(queued_at);
                phases.push((SpanKind::Queued, t, a));
                phases.push((SpanKind::ConnSetup, a, b));
                t = b;
            }
            _ => {
                phases.push((SpanKind::Queued, t, sent));
                t = sent;
            }
        }
        if let Some(opened) = rec.opened_at {
            let opened = opened.max(t).min(done_at);
            phases.push((SpanKind::MuxWait, t, opened));
            t = opened;
        }
        let fb = rec.first_byte_at.unwrap_or(done_at).max(t).min(done_at);
        phases.push((SpanKind::RequestTx, t, fb));
        phases.push((SpanKind::Transfer, fb, done_at));
        phases.push((SpanKind::RenderQueue, done_at, parse_start));
        phases.push((SpanKind::Parse, parse_start, parse_end));
        for (kind, a, b) in phases {
            if b > a {
                sp.record(Span {
                    load: 0,
                    id: sp.next_id(),
                    parent: rec.span_id,
                    kind,
                    t0_ns: a.as_nanos(),
                    t1_ns: b.as_nanos(),
                    res,
                    conn: rec.conn,
                    url: String::new(),
                    detail: String::new(),
                });
            }
        }
    }

    fn maybe_finish(&self, sim: &mut Simulator) {
        let finished = {
            let mut inner = self.inner.borrow_mut();
            match inner.load.as_mut() {
                Some(load) if load.outstanding == 0 => {
                    let load = inner.load.take().unwrap();
                    Some(load)
                }
                _ => None,
            }
        };
        if let Some(load) = finished {
            {
                let inner = self.inner.borrow();
                if let Some(sp) = &inner.config.span {
                    let arm = match inner.config.protocol {
                        ProtocolMode::Http1 { .. } => "http1",
                        ProtocolMode::Mux(_) => "mux",
                    };
                    sp.record(Span {
                        load: 0,
                        id: load.page_span,
                        parent: 0,
                        kind: SpanKind::Page,
                        t0_ns: load.started.as_nanos(),
                        t1_ns: load.finished_at.as_nanos(),
                        res: mm_trace::NO_RESOURCE,
                        conn: 0,
                        url: load
                            .timings
                            .first()
                            .map(|t| t.url.clone())
                            .unwrap_or_default(),
                        detail: arm.to_string(),
                    });
                }
            }
            let total: u64 = load.timings.iter().map(|t| t.body_bytes).sum();
            let failures = load
                .timings
                .iter()
                .filter(|t| t.failed || (t.status == 0))
                .count() as u64;
            let result = PageLoadResult {
                plt: load.finished_at.saturating_duration_since(load.started),
                resources: load.timings,
                total_body_bytes: total,
                failures,
            };
            if let Some(done) = load.done {
                done(sim, result);
            }
        }
    }
}

/// The per-connection socket app. Owned by the socket, so it only
/// *refers* to the browser and to the pool's connection record (which
/// holds the socket): once the load has dropped the record, or the caller
/// the browser, further socket events have no one to report to.
struct ConnApp {
    browser: WeakBrowser,
    conn: Weak<RefCell<Conn>>,
    authority: String,
    parser: RefCell<ResponseParser>,
}

impl SocketApp for ConnApp {
    fn on_event(&self, sim: &mut Simulator, _h: &TcpHandle, ev: SocketEvent) {
        let (Some(browser), Some(conn)) = (self.browser.upgrade(), self.conn.upgrade()) else {
            return;
        };
        match ev {
            SocketEvent::Connected => {
                browser.on_conn_ready(sim, &self.authority, &conn);
            }
            SocketEvent::Data(bytes) => {
                browser.on_first_bytes(sim.now(), &conn);
                // The browser only issues GETs, and the parser defaults to
                // "not a HEAD response" when its queue is empty, so no
                // expect_head bookkeeping is required.
                let resps = self.parser.borrow_mut().feed(&bytes);
                match resps {
                    Ok(resps) => {
                        for resp in resps {
                            browser.on_response(sim, &self.authority, &conn, resp);
                        }
                    }
                    Err(_) => {
                        browser.on_conn_dead(sim, &self.authority, &conn);
                    }
                }
            }
            SocketEvent::PeerClosed | SocketEvent::Reset => {
                browser.on_conn_dead(sim, &self.authority, &conn);
            }
            // Requests are tiny; the browser never paces its writes.
            SocketEvent::SendQueueDrained => {}
        }
    }
}
