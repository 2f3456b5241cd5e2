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

use std::cell::{RefCell, RefMut};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::{Rc, Weak};

use bytes::Bytes;
use mm_capture::{HttpEvent, HttpPhase, TapHandle};
use mm_http::{write_request_fields, Method, Response, ResponseParser, Url, Version};
use mm_mux::{MuxClient, MuxConfig, MuxOwner, PRIORITY_BULK, PRIORITY_ROOT, PRIORITY_SUBRESOURCE};
use mm_net::{Host, SocketAddr, SocketApp, SocketEvent, TcpHandle};
use mm_sim::dist::{Distribution, LogNormal};
use mm_sim::{EventTarget, SimDuration, Simulator, Timestamp, UNTAGGED_EVENT};
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
    /// default) costs one branch per transition; taps observe only. A
    /// harness world (`mahimahi`'s `World::build`) sets it from the
    /// world's observers.
    pub capture: Option<TapHandle>,
    /// Causal-span sink: emits a `Page` span per load, a `Resource`
    /// span per fetch parented to the resource whose parse discovered
    /// it, and the contiguous per-resource phase chain (`Queued` →
    /// `ConnSetup` → `MuxWait` → `RequestTx` → `Transfer` →
    /// `RenderQueue` → `Parse`) that tiles queued → parse-complete —
    /// the exact-tiling property `mmpath`'s critical-path walk sums to
    /// PLT. `None` (the default) costs one branch per transition;
    /// sinks observe only. A harness world (`mahimahi`'s `World::build`)
    /// sets it from the world's observers.
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
    /// The URL's canonical text, shared with the load's seen-set.
    pub url: Rc<str>,
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

/// The HTTP/1.1 GET for `url`, written from the URL's own text and its
/// GET fields ([`Url::get_fields`], which mux HEADERS carry too): one
/// buffer, and no `Request`.
fn write_get(url: &Url) -> Bytes {
    let fields = url.get_fields().into_iter();
    write_request_fields(&Method::Get, url.target(), Version::Http11, fields, &[])
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
        /// When `client`'s handshake completed.
        connected_at: Option<Timestamp>,
        config: MuxConfig,
    },
}

struct Pool {
    /// The origin's authority, shared by its connections' apps.
    name: Rc<str>,
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
    /// The canonical text of every URL fetched, shared with `timings`.
    seen: HashSet<Rc<str>>,
    outstanding: usize,
    /// Pools keyed by URL authority (`host:port`), each key its pool's
    /// `name`.
    pools: HashMap<Rc<str>, Pool>,
    timings: Vec<ResourceTiming>,
    /// Span id of this load's `Page` span (0 when no sink).
    page_span: u64,
    /// Index-parallel with `timings`.
    spans: Vec<ResSpanRec>,
    finished_at: Timestamp,
    /// The renderer main thread is busy until this instant; parse jobs
    /// serialize behind it.
    cpu_busy_until: Timestamp,
    /// Resources on the main thread, in the order their parses end:
    /// each ends no earlier than the one before, so this is also the
    /// order in which the browser's events fire.
    parsing: VecDeque<Parsing>,
    done: Option<DoneCallback>,
}

/// A fetched resource whose parse has not ended.
struct Parsing {
    /// The body to scan for subresources, when it can reference any.
    scan: Option<Bytes>,
    /// Span id of the resource, parent of what its scan discovers.
    span: u64,
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
/// the host) its sockets; the socket applications and mux owners it
/// installs refer back to it weakly. A load therefore runs for as long as
/// the caller holds the `Browser` (or a clone): events for a browser that
/// was dropped are ignored.
#[derive(Clone)]
pub struct Browser {
    inner: Rc<Shared>,
}

/// The state a browser's handles share; the target of the events that
/// end its parses.
struct Shared(RefCell<BrowserInner>);

impl std::ops::Deref for Shared {
    type Target = RefCell<BrowserInner>;

    fn deref(&self) -> &RefCell<BrowserInner> {
        &self.0
    }
}

/// A parse has ended on the main thread.
impl EventTarget for Shared {
    fn on_event(self: Rc<Self>, sim: &mut Simulator, _token: u64) {
        Browser { inner: self }.parse_ended(sim);
    }
}

/// What a callback owned by the browser's own sockets or mux clients
/// holds instead of a [`Browser`].
#[derive(Clone)]
struct WeakBrowser(Weak<Shared>);

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
            inner: Rc::new(Shared(RefCell::new(BrowserInner {
                host,
                resolver,
                config,
                cpu_jitter: None,
                load: None,
            }))),
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
                parsing: VecDeque::new(),
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
        let (idx, pool) = 'queue: {
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
            let key = url.shared();
            if load.seen.contains(key) || load.seen.len() >= MAX_RESOURCES {
                return;
            }
            load.seen.insert(key.clone());
            let addr = resolver(&url);
            let idx = load.timings.len();
            load.timings.push(ResourceTiming {
                url: key.clone(),
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
                break 'queue (idx, None);
            };
            load.outstanding += 1;
            if !load.pools.contains_key(url.authority()) {
                let name: Rc<str> = Rc::from(url.authority());
                let pool = Pool {
                    name: name.clone(),
                    addr,
                    transport: match &config.protocol {
                        ProtocolMode::Http1 { pool_size } => Transport::Http1 {
                            conns: Vec::new(),
                            pool_size: *pool_size,
                        },
                        ProtocolMode::Mux(mux) => Transport::Mux {
                            client: None,
                            connected_at: None,
                            config: mux.clone(),
                        },
                    },
                    queue: VecDeque::new(),
                };
                load.pools.insert(name, pool);
            }
            let pool = load.pools.get_mut(url.authority()).expect("inserted");
            pool.queue.push_back(FetchJob {
                url,
                timing_idx: idx,
            });
            (idx, Some(pool.name.clone()))
        };
        self.stamp(now, idx, Milestone::Queued);
        match pool {
            Some(authority) => self.pump(sim, &authority),
            None => self.stamp(now, idx, Milestone::Failed),
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
                Open(Rc<str>, SocketAddr),
                Connect(Rc<str>, SocketAddr, MuxConfig),
            }
            let step = {
                let mut inner = self.inner.borrow_mut();
                let Some(pool) = inner.load.as_mut().and_then(|l| l.pools.get_mut(authority))
                else {
                    return;
                };
                let Pool {
                    name,
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
                            None if conns.len() < *pool_size => Step::Open(name.clone(), *addr),
                            None => return, // every conn busy or still connecting
                        }
                    }
                    Transport::Mux { client, config, .. } => {
                        if queue.is_empty() {
                            return;
                        }
                        match client {
                            Some(c) if !c.is_dead() => {
                                let job = queue.pop_front().expect("queued");
                                Step::Submit(c.clone(), job)
                            }
                            _ => Step::Connect(name.clone(), *addr, config.clone()),
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
                    let wire = write_get(&job.url);
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
                    client.request(sim, job.url, priority, job.timing_idx as u32);
                }
                Step::Open(name, addr) => self.open_connection(sim, name, addr),
                Step::Connect(name, addr, config) => self.connect_mux(sim, name, addr, config),
            }
        }
    }

    fn open_connection(&self, sim: &mut Simulator, authority: Rc<str>, addr: SocketAddr) {
        let host = self.inner.borrow().host.clone();
        let browser = self.downgrade();
        let conn: ConnRef = Rc::new_cyclic(|conn| {
            let app = Rc::new(ConnApp {
                browser,
                conn: conn.clone(),
                authority: authority.clone(),
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
        if let Some(Transport::Http1 { conns, .. }) = self.transport(&authority).as_deref_mut() {
            conns.push(conn);
        }
    }

    /// Open `authority`'s multiplexed connection, reporting to a
    /// [`MuxApp`].
    fn connect_mux(
        &self,
        sim: &mut Simulator,
        authority: Rc<str>,
        addr: SocketAddr,
        config: MuxConfig,
    ) {
        let host = self.inner.borrow().host.clone();
        let owner = MuxApp {
            browser: self.downgrade(),
            authority: authority.clone(),
        };
        let client = MuxClient::connect(sim, &host, addr, config, owner);
        if let Some(Transport::Mux {
            client: slot,
            connected_at,
            ..
        }) = self.transport(&authority).as_deref_mut()
        {
            *slot = Some(client);
            *connected_at = None;
        }
    }

    /// `authority`'s transport, while the load holds its pool.
    fn transport(&self, authority: &str) -> Option<RefMut<'_, Transport>> {
        RefMut::filter_map(self.inner.borrow_mut(), |inner| {
            let pool = inner.load.as_mut()?.pools.get_mut(authority)?;
            Some(&mut pool.transport)
        })
        .ok()
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
        let parse = {
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
                    cost = cost.mul_f64(LogNormal::mean_one(*sigma).sample(rng));
                }
            }
            // Serialize on the renderer main thread.
            let start = load.cpu_busy_until.max(now);
            load.cpu_busy_until = start + cost;
            let scannable = is_scannable(&resp) && resp.status == 200;
            load.parsing.push_back(Parsing {
                scan: scannable.then_some(resp.body),
                span: load.spans[idx].span_id,
            });
            (start, load.cpu_busy_until)
        };
        self.stamp(now, idx, Milestone::Done { parse });
        // Parse for subresources once the main thread has processed this
        // resource (`parse_ended`), then retire it.
        let me: Rc<dyn EventTarget> = self.inner.clone();
        sim.schedule_target_at(UNTAGGED_EVENT, parse.1, me, 0);
    }

    /// The oldest parse on the main thread has ended: fetch what its
    /// body references, and retire its resource.
    fn parse_ended(&self, sim: &mut Simulator) {
        let parsed = {
            let mut inner = self.inner.borrow_mut();
            let Some(load) = inner.load.as_mut() else {
                return;
            };
            load.parsing.pop_front().expect("a parse has ended")
        };
        if let Some(body) = parsed.scan {
            for url in extract_urls(&body) {
                self.fetch(sim, url, parsed.span);
            }
        }
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(load) = inner.load.as_mut() {
                load.outstanding -= 1;
                load.finished_at = sim.now();
            }
        }
        self.maybe_finish(sim);
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
                url: t.url.to_string(),
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
                            .map(|t| t.url.to_string())
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
        url: timing.url.to_string(),
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
    authority: Rc<str>,
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
                let resps = self.parser.borrow_mut().feed_bytes(&bytes);
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
            SocketEvent::PeerClosed => {
                // The close ends a response framed by neither a length
                // nor chunked coding (RFC 9112 §6.3). It completes on a
                // connection the pump no longer offers.
                let last = self.parser.borrow_mut().finish();
                if let Ok(Some(resp)) = last {
                    conn.borrow_mut().dead = true;
                    browser.on_response(sim, &self.authority, &conn, resp);
                }
                browser.on_conn_dead(sim, &self.authority, &conn);
            }
            SocketEvent::Reset => browser.on_conn_dead(sim, &self.authority, &conn),
            // Requests are tiny; the browser never paces its writes.
            SocketEvent::SendQueueDrained => {}
        }
    }
}

/// The per-connection mux owner, the twin of [`ConnApp`]: owned by the
/// client, so it only *refers* to the browser, and reports each of the
/// client's milestones to the same [`Browser::stamp`] and
/// [`Browser::settle`] that HTTP/1.1 connections report to.
struct MuxApp {
    browser: WeakBrowser,
    authority: Rc<str>,
}

impl MuxOwner for MuxApp {
    fn connected(&self, sim: &mut Simulator) {
        let Some(browser) = self.browser.upgrade() else {
            return;
        };
        let mut transport = browser.transport(&self.authority);
        if let Some(Transport::Mux { connected_at, .. }) = transport.as_deref_mut() {
            *connected_at = Some(sim.now());
        }
    }

    fn opened(&self, sim: &mut Simulator, tag: u32) {
        let Some(browser) = self.browser.upgrade() else {
            return;
        };
        let (now, idx) = (sim.now(), tag as usize);
        browser.stamp(now, idx, Milestone::StreamOpened);
        // Opened the instant the handshake completed: the request waited
        // on it.
        let connected_at = match browser.transport(&self.authority).as_deref() {
            Some(Transport::Mux { connected_at, .. }) => *connected_at,
            _ => None,
        };
        if connected_at == Some(now) {
            browser.stamp(now, idx, Milestone::HandshakeWait { since: None });
        }
    }

    fn first_byte(&self, sim: &mut Simulator, tag: u32) {
        if let Some(browser) = self.browser.upgrade() {
            browser.stamp(sim.now(), tag as usize, Milestone::FirstByte);
        }
    }

    fn settled(&self, sim: &mut Simulator, url: Url, tag: u32, response: Option<Response>) {
        if let Some(browser) = self.browser.upgrade() {
            let job = FetchJob {
                url,
                timing_idx: tag as usize,
            };
            browser.settle(sim, &self.authority, job, response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_http::{write_request, Request};
    use proptest::prelude::*;

    /// The request this module built before it wrote GETs from the URL's
    /// text: a `Request` from copies of the URL's parts, serialised.
    fn oracle_get(url: &Url) -> Bytes {
        let (scheme, host, port) = (url.scheme(), url.host(), url.port());
        let default = (scheme == "http" && port == 80) || (scheme == "https" && port == 443);
        let host = if default {
            host.to_string()
        } else {
            format!("{host}:{port}")
        };
        let mut req = Request::get(url.target().to_string(), host);
        req.headers.append("Accept", "*/*");
        write_request(&req)
    }

    proptest! {
        #[test]
        fn a_get_written_from_a_url_is_the_request_it_replaces(
            https in any::<bool>(),
            port in prop_oneof![
                Just(None),
                Just(Some(80u16)),
                Just(Some(443u16)),
                (1u16..=u16::MAX).prop_map(Some),
            ],
            host in "[a-z0-9]{1,8}(\\.[a-z0-9]{1,8}){0,3}",
            path in "(/[a-zA-Z0-9._]{0,8}){0,4}",
            query in (any::<bool>(), "[a-z0-9=&%._]{0,16}"),
        ) {
            let scheme = if https { "https" } else { "http" };
            let port = port.map(|p| format!(":{p}")).unwrap_or_default();
            let query = if query.0 { format!("?{}", query.1) } else { String::new() };
            let url = Url::parse(&format!("{scheme}://{host}{port}{path}{query}")).unwrap();
            prop_assert_eq!(write_get(&url), oracle_get(&url));
        }
    }
}
