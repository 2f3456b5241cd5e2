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

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};

use mm_capture::{HttpEvent, HttpPhase, TapHandle};
use mm_http::{write_request, Request, Response, ResponseParser, Url};
use mm_mux::{
    MuxClient, MuxConfig, StreamEvent, PRIORITY_BULK, PRIORITY_ROOT, PRIORITY_SUBRESOURCE,
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
            capture: None,
            span: None,
        }
    }
}

/// Maps a URL's origin to the address actually serving it (the browser's
/// stand-in for DNS). Identity in multi-origin replay; all-to-one in the
/// single-server ablation; arbitrary for live-web models. `None` is an
/// NXDOMAIN: that resource fails at once, and the rest of the page loads.
pub type Resolver = Rc<dyn Fn(&Url) -> Option<SocketAddr>>;

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

/// The GET the browser sends for `url` (`Host` with the port elided
/// when default).
fn request_for(url: &Url) -> Request {
    let default =
        (url.scheme == "http" && url.port == 80) || (url.scheme == "https" && url.port == 443);
    let host = if default {
        url.host.clone()
    } else {
        format!("{}:{}", url.host, url.port)
    };
    let mut req = Request::get(url.target.clone(), host);
    req.headers.append("Accept", "*/*");
    req
}

struct FetchJob {
    url: Url,
    timing_idx: usize,
}

/// A fetch's lifecycle milestones. Each goes through [`Browser::stamp`],
/// which emits the capture event it maps to and marks the span record.
#[derive(Clone, Copy)]
enum Milestone {
    /// Discovered (capture `Queued`).
    Queued,
    /// Handed to the transport on connection `conn` (capture `Sent`):
    /// HTTP/1.1 wrote the request to a socket, mux submitted a stream.
    Sent { conn: u64 },
    /// The request waited on its connection's handshake, which completed
    /// now, from `since` (`None`: from when it was sent).
    HandshakeWait { since: Option<Timestamp> },
    /// Mux only: the stream left the client's queue (HEADERS sent).
    StreamOpened,
    /// First response bytes.
    FirstByte,
    /// Response complete (capture `Done`); its parse runs on the main
    /// thread over `parse`.
    Done { parse: (Timestamp, Timestamp) },
    /// Given up after its retry (capture `Failed`).
    Failed,
}

/// Per-resource span bookkeeping: ids allocated at fetch time plus the
/// milestone stamps. Index-parallel with `LoadState::timings`; inert (all
/// zero) when no sink is attached.
#[derive(Clone, Copy, Default)]
struct ResSpanRec {
    span_id: u64,
    /// Span id of the resource whose parse discovered this one (the
    /// `Page` span for the root document).
    parent_span: u64,
    conn: u64,
    sent_at: Option<Timestamp>,
    /// Connection-setup wait interval, when this resource paid one.
    setup: Option<(Timestamp, Timestamp)>,
    opened_at: Option<Timestamp>,
    first_byte_at: Option<Timestamp>,
}

/// One HTTP/1.1 connection, carrying one request at a time (no
/// pipelining).
struct Conn {
    handle: TcpHandle,
    job: Option<FetchJob>,
    connect_started: Timestamp,
    /// When the handshake completed.
    connected_at: Option<Timestamp>,
    dead: bool,
}

type ConnRef = Rc<RefCell<Conn>>;

/// How an origin's requests reach it.
enum Transport {
    /// Up to `pool_size` connections, opened while jobs wait.
    Http1 {
        conns: Vec<ConnRef>,
        pool_size: usize,
    },
    /// One multiplexed connection, opened on first use and replaced once
    /// dead; the client enforces the concurrent-stream cap and queues
    /// streams beyond it in priority order.
    Mux {
        client: Option<MuxClient>,
        config: MuxConfig,
    },
}

struct Pool {
    /// Where this origin's connections actually go (post-resolver).
    addr: SocketAddr,
    transport: Transport,
    /// Jobs not yet handed to the transport.
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
    /// A browser on `host` resolving origins through `resolver`. Its
    /// connections take the host's TCP configuration.
    pub fn new(host: Host, resolver: Resolver, config: BrowserConfig) -> Browser {
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
        // A root that does not resolve has already failed.
        self.maybe_finish(sim);
    }

    /// Queue a fetch for `url` (no-op if already seen this load), or
    /// fail it at once if its host does not resolve. `parent_span` is the
    /// span id of whatever discovered this URL: the `Page` span for the
    /// root document, the discovering resource's span for everything
    /// else (0 when no sink is attached).
    fn fetch(&self, sim: &mut Simulator, url: Url, parent_span: u64) {
        let now = sim.now();
        let (authority, idx, queued) = 'queue: {
            let mut inner = self.inner.borrow_mut();
            let BrowserInner {
                config,
                resolver,
                load,
                ..
            } = &mut *inner;
            let span_id = config.span.as_ref().map_or(0, |s| s.next_id());
            let Some(load) = load.as_mut() else {
                return;
            };
            let key = url.to_string();
            if load.seen.contains(&key) || load.seen.len() >= MAX_RESOURCES {
                return;
            }
            load.seen.insert(key.clone());
            let authority = url.authority();
            let addr = resolver(&url);
            let idx = load.timings.len();
            load.timings.push(ResourceTiming {
                url: key,
                queued_at: now,
                finished_at: now,
                status: 0,
                body_bytes: 0,
                failed: addr.is_none(),
            });
            load.spans.push(ResSpanRec {
                span_id,
                parent_span,
                ..ResSpanRec::default()
            });
            let Some(addr) = addr else {
                // Failed already: the load has nothing to wait for.
                break 'queue (authority, idx, false);
            };
            load.outstanding += 1;
            let pool = load.pools.entry(authority.clone()).or_insert_with(|| Pool {
                addr,
                transport: match &config.protocol {
                    ProtocolMode::Http1 { pool_size } => Transport::Http1 {
                        conns: Vec::new(),
                        pool_size: *pool_size,
                    },
                    ProtocolMode::Mux(mux) => Transport::Mux {
                        client: None,
                        config: mux.clone(),
                    },
                },
                queue: VecDeque::new(),
            });
            pool.queue.push_back(FetchJob {
                url,
                timing_idx: idx,
            });
            (authority, idx, true)
        };
        self.stamp(now, idx, Milestone::Queued);
        if queued {
            self.pump(sim, &authority);
        } else {
            self.stamp(now, idx, Milestone::Failed);
        }
    }

    /// Hand `authority`'s queued jobs to its transport. HTTP/1.1 writes
    /// each to an idle connection, and opens connections up to the pool
    /// size while none is idle; mux submits every job as a stream on the
    /// origin's one connection, (re)opening it when missing or dead.
    fn pump(&self, sim: &mut Simulator, authority: &str) {
        loop {
            // Find one step under the borrow; do socket work outside it.
            enum Step {
                Send(ConnRef, FetchJob),
                Submit(MuxClient, FetchJob),
                Open(SocketAddr),
                Connect(SocketAddr, MuxConfig),
            }
            let step = {
                let mut inner = self.inner.borrow_mut();
                let Some(pool) = inner.load.as_mut().and_then(|l| l.pools.get_mut(authority))
                else {
                    return;
                };
                let Pool {
                    addr,
                    transport,
                    queue,
                } = pool;
                match transport {
                    Transport::Http1 { conns, pool_size } => {
                        conns.retain(|c| !c.borrow().dead);
                        if queue.is_empty() {
                            return;
                        }
                        let idle = conns.iter().find(|c| {
                            let c = c.borrow();
                            c.connected_at.is_some() && c.job.is_none()
                        });
                        match idle {
                            Some(conn) => {
                                Step::Send(conn.clone(), queue.pop_front().expect("queued"))
                            }
                            None if conns.len() < *pool_size => Step::Open(*addr),
                            None => return, // every conn busy or still connecting
                        }
                    }
                    Transport::Mux { client, config } => {
                        if queue.is_empty() {
                            return;
                        }
                        match client {
                            Some(c) if !c.is_dead() => {
                                Step::Submit(c.clone(), queue.pop_front().expect("queued"))
                            }
                            _ => Step::Connect(*addr, config.clone()),
                        }
                    }
                }
            };
            let now = sim.now();
            match step {
                Step::Send(conn, job) => {
                    let (handle, connect_started, connected_at) = {
                        let c = conn.borrow();
                        (c.handle.clone(), c.connect_started, c.connected_at)
                    };
                    let idx = job.timing_idx;
                    let wire = write_request(&request_for(&job.url));
                    let conn_id = handle.local_addr().conn_id();
                    self.stamp(now, idx, Milestone::Sent { conn: conn_id });
                    // Written the instant the handshake completed: the
                    // request waited on it.
                    if connected_at == Some(now) {
                        let since = Some(connect_started);
                        self.stamp(now, idx, Milestone::HandshakeWait { since });
                    }
                    conn.borrow_mut().job = Some(job);
                    handle.send(sim, wire);
                }
                Step::Submit(client, job) => {
                    let conn_id = client.local_addr().map_or(0, SocketAddr::conn_id);
                    self.stamp(now, job.timing_idx, Milestone::Sent { conn: conn_id });
                    // The root document preempts everything; discovery-
                    // bearing subresources preempt leaf content.
                    let priority = if job.timing_idx == 0 {
                        PRIORITY_ROOT
                    } else if crate::scan::likely_scannable_url(&job.url) {
                        PRIORITY_SUBRESOURCE
                    } else {
                        PRIORITY_BULK
                    };
                    let req = request_for(&job.url);
                    let tag = job.timing_idx as u32;
                    let (me, auth) = (self.downgrade(), authority.to_string());
                    client.request(sim, req, priority, tag, move |sim, result| {
                        if let Some(me) = me.upgrade() {
                            me.settle(sim, &auth, job, result.ok());
                        }
                    });
                }
                Step::Open(addr) => self.open_connection(sim, authority, addr),
                Step::Connect(addr, config) => self.connect_mux(sim, authority, addr, config),
            }
        }
    }

    fn open_connection(&self, sim: &mut Simulator, authority: &str, addr: SocketAddr) {
        let host = self.inner.borrow().host.clone();
        let browser = self.downgrade();
        let conn: ConnRef = Rc::new_cyclic(|conn| {
            let app = Rc::new(ConnApp {
                browser,
                conn: conn.clone(),
                authority: authority.to_string(),
                parser: RefCell::new(ResponseParser::new()),
            });
            RefCell::new(Conn {
                handle: host.connect(sim, addr, app),
                job: None,
                connect_started: sim.now(),
                connected_at: None,
                dead: false,
            })
        });
        let mut inner = self.inner.borrow_mut();
        if let Some(Transport::Http1 { conns, .. }) = inner
            .load
            .as_mut()
            .and_then(|l| l.pools.get_mut(authority))
            .map(|p| &mut p.transport)
        {
            conns.push(conn);
        }
    }

    /// Open `authority`'s multiplexed connection. With a span sink, its
    /// observer stamps each stream's opening (and the handshake wait of
    /// a stream opened the instant the handshake completed) and first
    /// byte.
    fn connect_mux(
        &self,
        sim: &mut Simulator,
        authority: &str,
        addr: SocketAddr,
        config: MuxConfig,
    ) {
        let host = self.inner.borrow().host.clone();
        let client = MuxClient::connect(sim, &host, addr, config);
        let mut inner = self.inner.borrow_mut();
        if inner.config.span.is_some() {
            let (me, ready_at) = (self.downgrade(), Cell::new(None));
            client.set_observer(Rc::new(move |ev, t| {
                let Some(me) = me.upgrade() else {
                    return;
                };
                match ev {
                    StreamEvent::ConnReady => ready_at.set(Some(t)),
                    StreamEvent::Opened(tag) => {
                        me.stamp(t, tag as usize, Milestone::StreamOpened);
                        if ready_at.get() == Some(t) {
                            let wait = Milestone::HandshakeWait { since: None };
                            me.stamp(t, tag as usize, wait);
                        }
                    }
                    StreamEvent::FirstByte(tag) => me.stamp(t, tag as usize, Milestone::FirstByte),
                }
            }));
        }
        if let Some(Transport::Mux { client: slot, .. }) = inner
            .load
            .as_mut()
            .and_then(|l| l.pools.get_mut(authority))
            .map(|p| &mut p.transport)
        {
            *slot = Some(client);
        }
    }

    /// A response completed `job`, or (`None`) its transport lost the
    /// request: the connection died or the stream failed. A lost job is
    /// requeued once, for a fresh connection, and failed the second time.
    fn settle(
        &self,
        sim: &mut Simulator,
        authority: &str,
        job: FetchJob,
        response: Option<Response>,
    ) {
        let idx = job.timing_idx;
        if let Some(resp) = response {
            return self.complete_resource(sim, idx, resp);
        }
        let give_up = {
            let mut inner = self.inner.borrow_mut();
            let Some(load) = inner.load.as_mut() else {
                return;
            };
            let t = &mut load.timings[idx];
            if t.failed {
                t.finished_at = sim.now();
                load.outstanding -= 1;
                true
            } else {
                t.failed = true;
                // The retry re-times its phases from a clean slate.
                let rec = &mut load.spans[idx];
                *rec = ResSpanRec {
                    span_id: rec.span_id,
                    parent_span: rec.parent_span,
                    ..ResSpanRec::default()
                };
                let pool = load.pools.get_mut(authority).expect("the load's pool");
                pool.queue.push_back(job);
                false
            }
        };
        if give_up {
            self.stamp(sim.now(), idx, Milestone::Failed);
        }
        self.pump(sim, authority);
        self.maybe_finish(sim);
    }

    /// A complete response arrived on `conn`.
    fn on_response(&self, sim: &mut Simulator, authority: &str, conn: &ConnRef, resp: Response) {
        let Some(job) = conn.borrow_mut().job.take() else {
            return; // unsolicited response; ignore
        };
        // This connection is free again.
        self.pump(sim, authority);
        self.settle(sim, authority, job, Some(resp));
    }

    /// `conn` died (reset, closed by the server, or failed to parse).
    fn on_conn_dead(&self, sim: &mut Simulator, authority: &str, conn: &ConnRef) {
        let job = {
            let mut c = conn.borrow_mut();
            c.dead = true;
            c.job.take()
        };
        match job {
            Some(job) => self.settle(sim, authority, job, None),
            None => self.pump(sim, authority),
        }
    }

    /// Record a fetched resource, charge its parse cost to the renderer
    /// main thread, and scan it for subresources once parsed.
    fn complete_resource(&self, sim: &mut Simulator, idx: usize, resp: Response) {
        let now = sim.now();
        let (parse, parent_span) = {
            let mut inner = self.inner.borrow_mut();
            let BrowserInner {
                config,
                cpu_jitter,
                load: Some(load),
                ..
            } = &mut *inner
            else {
                return;
            };
            let t = &mut load.timings[idx];
            t.finished_at = now;
            t.status = resp.status;
            t.body_bytes = resp.body.len() as u64;
            t.failed = false;
            let mut cost = config.parse_delay_base
                + config
                    .parse_delay_per_kb
                    .saturating_mul(t.body_bytes / 1024);
            if let Some((rng, sigma)) = cpu_jitter {
                if *sigma > 0.0 {
                    // Mean-one lognormal factor (mu = -sigma^2/2).
                    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
                    let u2 = rng.next_f64();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    let factor = (*sigma * z - *sigma * *sigma / 2.0).exp();
                    cost = cost.mul_f64(factor);
                }
            }
            // Serialize on the renderer main thread.
            let start = load.cpu_busy_until.max(now);
            load.cpu_busy_until = start + cost;
            ((start, load.cpu_busy_until), load.spans[idx].span_id)
        };
        self.stamp(now, idx, Milestone::Done { parse });
        // Parse for subresources once the main thread has processed this
        // resource, then retire it.
        let me = self.clone();
        let scannable = is_scannable(&resp) && resp.status == 200;
        let body = resp.body;
        sim.schedule_at(parse.1, move |sim| {
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

    /// Stamp milestone `m` of resource `idx` at `now`: emit its capture
    /// event, if it maps to one and a tap is attached, and mark the span
    /// record, recording the resource's spans once it is done or failed.
    /// Without observers this costs a branch each.
    fn stamp(&self, now: Timestamp, idx: usize, m: Milestone) {
        let mut inner = self.inner.borrow_mut();
        let BrowserInner {
            config,
            load: Some(load),
            ..
        } = &mut *inner
        else {
            return;
        };
        let t = &load.timings[idx];
        let phase = match m {
            Milestone::Queued => Some(HttpPhase::Queued),
            Milestone::Sent { .. } => Some(HttpPhase::Sent),
            Milestone::Done { .. } => Some(HttpPhase::Done),
            Milestone::Failed => Some(HttpPhase::Failed),
            _ => None,
        };
        if let (Some(tap), Some(phase)) = (&config.capture, phase) {
            tap.on_http(&HttpEvent {
                t_ns: now.as_nanos(),
                phase,
                resource: idx as u32,
                url: t.url.clone(),
                status: t.status,
                bytes: t.body_bytes,
            });
        }
        let Some(sp) = &config.span else {
            return;
        };
        let rec = &mut load.spans[idx];
        match m {
            Milestone::Queued => {}
            Milestone::Sent { conn } => {
                rec.sent_at = Some(now);
                rec.conn = conn;
            }
            Milestone::HandshakeWait { since } => {
                if let Some(since) = since.or(rec.sent_at) {
                    rec.setup = Some((since.max(t.queued_at), now));
                }
            }
            Milestone::StreamOpened => rec.opened_at = Some(now),
            Milestone::FirstByte => {
                if rec.first_byte_at.is_none() && rec.sent_at.is_some() {
                    rec.first_byte_at = Some(now);
                }
            }
            Milestone::Done { parse } => {
                let phases = phase_chain(rec, t, now, parse);
                record_resource(sp, rec, idx, t, parse.1, "", &phases);
            }
            Milestone::Failed => {
                let phases = [(SpanKind::Failed, t.queued_at, now)];
                record_resource(sp, rec, idx, t, now, "failed", &phases);
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

/// A completed resource's phases. They tile `[queued_at, parse end]`
/// contiguously: each starts where the previous ended and zero-width
/// phases are elided, so the phase durations of any one resource sum
/// *exactly* to its span — the invariant `mmpath`'s critical-path walk
/// relies on to reconstruct PLT without residue.
fn phase_chain(
    rec: &ResSpanRec,
    timing: &ResourceTiming,
    done_at: Timestamp,
    (parse_start, parse_end): (Timestamp, Timestamp),
) -> Vec<(SpanKind, Timestamp, Timestamp)> {
    let queued_at = timing.queued_at;
    let mut phases = Vec::with_capacity(7);
    let sent = rec.sent_at.unwrap_or(done_at).min(done_at).max(queued_at);
    let mut t = queued_at;
    match rec.setup {
        Some((a, b)) if b > a => {
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
    phases.retain(|&(_, a, b)| b > a);
    phases
}

/// Record resource `idx`'s `Resource` span over `[queued_at, end]`, then
/// each of `phases` as its child.
fn record_resource(
    sp: &SpanHandle,
    rec: &ResSpanRec,
    idx: usize,
    timing: &ResourceTiming,
    end: Timestamp,
    detail: &str,
    phases: &[(SpanKind, Timestamp, Timestamp)],
) {
    let res = idx as u32;
    sp.record(Span {
        load: 0,
        id: rec.span_id,
        parent: rec.parent_span,
        kind: SpanKind::Resource,
        t0_ns: timing.queued_at.as_nanos(),
        t1_ns: end.as_nanos(),
        res,
        conn: rec.conn,
        url: timing.url.clone(),
        detail: detail.to_string(),
    });
    for &(kind, a, b) in phases {
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
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        let (Some(browser), Some(conn)) = (self.browser.upgrade(), self.conn.upgrade()) else {
            return;
        };
        match ev {
            SocketEvent::Connected => {
                conn.borrow_mut().connected_at = Some(sim.now());
                browser.pump(sim, &self.authority);
            }
            SocketEvent::Data(bytes) => {
                // Without pipelining, every byte belongs to the one
                // request in flight.
                let front = conn.borrow().job.as_ref().map(|j| j.timing_idx);
                if let Some(idx) = front {
                    browser.stamp(sim.now(), idx, Milestone::FirstByte);
                }
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
                    // A transport that fails aborts its socket, as the
                    // mux client does on a protocol error.
                    Err(_) => {
                        h.abort(sim);
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
