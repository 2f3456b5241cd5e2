//! The adapter: the ONLY file of the benchmark that names an item of the
//! repository. Everything else in `perf/` is benchmark machinery and
//! speaks the types defined here.
//!
//! A refactor that keeps every signature this file uses compiles `perf/`
//! unchanged and can be measured parent-vs-change with identical
//! benchmark code. A refactor that must break one of them is preceded by
//! a benchmark issue that ports this file and re-measures the baseline.
//! The surface is listed in `perf/README.md`.
//!
//! Sections: inputs · the seven workloads · layer probes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use mahimahi::fleet::{run_fleet, CcMix, FleetSpec};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mahimahi::soak::{run_soak, SoakSpec};
use mm_audit::{fnv1a64, Auditor};
use mm_browser::{extract_urls, MuxConfig, ProtocolMode};
use mm_capture::{Capture, Dir, PacketEvent, PacketEventKind, PointKind, TapHandle, TapPoint};
use mm_corpus::{generate_plans, materialize, CorpusConfig, SitePlan};
use mm_http::{write_request, write_response, Request, RequestParser, Response, ResponseParser};
use mm_metrics::{FlowSample, FlowTracer, MetricsHandle, MetricsSink, Registry, RegistrySink};
use mm_mux::{Frame, FrameDecoder};
use mm_net::{
    CcAlgorithm, ConnTable, Host, IpAddr, Listener, Namespace, Packet, PacketIdGen, RecoveryTier,
    SocketAddr, SocketApp, SocketEvent, TcpConfig, TcpFlags, TcpHandle, TcpSegment, MSS,
};
use mm_record::{RequestResponsePair, Scheme, StoredSite};
use mm_replay::{Matcher, StoreIndex};
use mm_shells::{
    CoDel, DropTail, InstrumentedQdisc, Pie, Qdisc, QueueLimit, ShellLayer, ShellStack, TappedQdisc,
};
use mm_sim::{RngStream, SimDuration, Simulator, Timer, TimerMux, Timestamp};
use mm_trace::{cellular, constant_rate, CellularParams, Span, SpanKind, Trace, TraceBuffer};

use crate::alloc;
use crate::probe::ProbeCtx;

/// The repo's FNV-1a over the words' little-endian bytes; every digest
/// the benchmark prints is one of these.
pub fn digest_u64s(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

// -------------------------------------------------------------- inputs

/// Every input below is a function of `--seed` and of nothing else; the
/// program under test receives only what is generated here.
///
/// The benchmark's driver compares runs *across* seeds, so the inputs
/// are drawn in ways that keep a pass's total work steady from seed to
/// seed while every individual input changes: sites are taken at evenly
/// spaced ranks of the corpus's weight distribution (not at random),
/// each cellular load gets its own trace realization (trace luck
/// averages over the pass instead of hitting every load at once), and
/// each lossy transfer gets its own loss streams.
const CORPUS_SITES: usize = 500;

/// The 500-site corpus, cheapest load first.
///
/// The corpus itself is the repo's default one, not a function of
/// `--seed`: the seed chooses *which* of its sites a run loads.
fn corpus_by_cost() -> Vec<SitePlan> {
    let mut full = generate_plans(&CorpusConfig {
        n_sites: CORPUS_SITES,
        seed: 2014,
        ..CorpusConfig::default()
    });
    full.sort_by_key(load_cost);
    full
}

/// What loading a site costs the simulator, in packet-equivalents: a
/// least-squares fit of allocations per HTTP/1.1 load over 100 sites
/// gave 20 per full-size packet, 110 per object and 380 per origin
/// (residual 5 % of the mean; bytes alone leave 19 %). Only used to put
/// like beside like before sampling, so the fit need not be exact.
fn load_cost(plan: &SitePlan) -> u64 {
    plan.total_bytes() / MSS as u64 + 5 * plan.objects.len() as u64 + 19 * plan.origins.len() as u64
}

/// `n` sites, one drawn by `seed` from each of `n` equal strata of the
/// cost-ordered corpus: every seed loads different sites, small and
/// large alike, while a pass's total work barely moves. (A plain random
/// or strided subset of this heavy-tailed corpus moves it by +-8 %.)
fn corpus_subset(seed: u64, n: usize) -> Vec<SitePlan> {
    let full = corpus_by_cost();
    let stride = (full.len() / n).max(1);
    let mut rng = RngStream::from_seed(seed).fork("sites");
    full.chunks(stride)
        .take(n)
        .map(|stratum| rng.choose(stratum).clone())
        .collect()
}

/// The site every fleet user and every soak session loads: the
/// median-cost site of the corpus. One site is no sample, so it is the
/// same on every seed; the seed drives those worlds' arrivals instead.
fn typical_site() -> StoredSite {
    let full = corpus_by_cost();
    materialize(&full[full.len() / 2])
}

/// The loaded-LTE regime of the repo's cellular sweep: moderate rate,
/// strong variation, real outages. Parameters copied, not imported.
fn lte_variable() -> CellularParams {
    CellularParams {
        mean_mbps: 6.0,
        volatility: 0.8,
        state_ms: 150,
        outage_prob: 0.05,
        period_ms: 60_000,
    }
}

/// Realization `index` of the cellular downlink under `seed`.
fn cellular_downlink(seed: u64, index: usize) -> Trace {
    let mut rng = RngStream::from_seed(seed).fork_indexed("lte-variable", index as u64);
    cellular(&lte_variable(), &mut rng)
}

fn seeded_order(n: usize, seed: u64, label: &str) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    RngStream::from_seed(seed).fork(label).shuffle(&mut order);
    order
}

fn seeded_payload(len: usize, seed: u64) -> Bytes {
    let mut rng = RngStream::from_seed(seed).fork("payload");
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        v.extend_from_slice(&rng.gen_range_inclusive(0, u64::MAX).to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

// ------------------------------------------------------------ outcomes

/// Exact unit counts read from the repo's own observers and counters.
/// A field stays 0 where the workload gives no way to read it from
/// outside.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Units {
    pub events: u64,
    pub heap_high_water: u64,
    pub packets: u64,
    pub drops: u64,
    pub http_messages: u64,
    pub body_bytes: u64,
    pub spans: u64,
    pub flow_samples: u64,
    pub capture_events: u64,
    pub retransmits: u64,
    pub rtos: u64,
    pub tlps: u64,
    pub violations: u64,
}

impl Units {
    pub fn add(&mut self, o: &Units) {
        // A high-water mark is a maximum, not a sum.
        let high = self.heap_high_water.max(o.heap_high_water);
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(o.fields()) {
            *mine += theirs;
        }
        self.heap_high_water = high;
    }

    pub fn fields(&self) -> [(&'static str, u64); 13] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 13] {
        [
            ("events", &mut self.events),
            ("heap_high_water", &mut self.heap_high_water),
            ("packets", &mut self.packets),
            ("drops", &mut self.drops),
            ("http_messages", &mut self.http_messages),
            ("body_bytes", &mut self.body_bytes),
            ("spans", &mut self.spans),
            ("flow_samples", &mut self.flow_samples),
            ("capture_events", &mut self.capture_events),
            ("retransmits", &mut self.retransmits),
            ("rtos", &mut self.rtos),
            ("tlps", &mut self.tlps),
            ("violations", &mut self.violations),
        ]
    }
}

/// What one timed call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Ops this call attempted and how many of them failed a check.
    pub ops: u64,
    pub failed: u64,
    /// Simulated nanoseconds the call advanced.
    pub sim_ns: u64,
    /// fnv1a64 over the call's simulated outputs (and the audit
    /// digests where an auditor rode along).
    pub digest: u64,
    pub units: Units,
}

/// A workload: `calls()` distinct timed calls per pass, run in index
/// order. `observe` attaches the repo's observers to read unit counts
/// (the traced pass); the simulated result must not change.
pub trait Workload {
    fn calls(&self) -> usize;
    fn run(&mut self, call: usize, observe: bool) -> Outcome;
}

// ---------------------------------------------------------- page loads

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// HTTP/1.1 pool, 40 ms delay + 14 Mbit/s link, infinite droptail,
    /// default Reno, observers off.
    Http1,
    /// Mux protocol over the `lte-variable` cellular downlink, 1 Mbit/s
    /// uplink, droptail32 on even sites / CoDel on odd, RACK-TLP.
    MuxCell,
    /// `Http1` byte for byte, with all four observers attached.
    Observed,
}

/// Which observers ride along on a load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observers {
    pub capture: bool,
    pub spans: bool,
    pub audit: bool,
    pub metrics: bool,
}

impl Observers {
    pub const ALL: Observers = Observers {
        capture: true,
        spans: true,
        audit: true,
        metrics: true,
    };
}

pub struct PageLoads {
    kind: PageKind,
    seed: u64,
    sites: Vec<StoredSite>,
    /// Pass order: call `c` loads `sites[order[c]]`.
    order: Vec<usize>,
    uplink: Trace,
    /// One for every site (the constant-rate link), or one realization
    /// per site (the cellular link).
    downlinks: Vec<Trace>,
    /// Long-lived, `clear()`ed between loads: rebuilding it per load
    /// would time the allocator faulting in a fresh event buffer.
    capture: Capture,
}

impl PageLoads {
    pub fn build(kind: PageKind, seed: u64, n_sites: usize) -> PageLoads {
        let sites: Vec<StoredSite> = corpus_subset(seed, n_sites)
            .iter()
            .map(materialize)
            .collect();
        let (uplink, downlinks) = match kind {
            PageKind::Http1 | PageKind::Observed => {
                (constant_rate(14.0, 1000), vec![constant_rate(14.0, 1000)])
            }
            PageKind::MuxCell => (
                constant_rate(1.0, 1000),
                (0..sites.len())
                    .map(|i| cellular_downlink(seed, i))
                    .collect(),
            ),
        };
        PageLoads {
            kind,
            seed,
            order: seeded_order(sites.len(), seed, "page-order"),
            sites,
            uplink,
            downlinks,
            capture: Capture::for_load(0),
        }
    }

    /// Run the load behind call `call` with the given observers.
    /// `count` additionally walks the capture for packet and drop counts
    /// (the traced pass; too slow to ride inside a timed op).
    pub fn load(&self, call: usize, obs: Observers, count: bool) -> Outcome {
        let site_idx = self.order[call];
        let mut spec = LoadSpec::new(&self.sites[site_idx]);
        let qdisc = match self.kind {
            PageKind::Http1 | PageKind::Observed => QdiscKind::Infinite,
            PageKind::MuxCell if site_idx.is_multiple_of(2) => QdiscKind::DropTailPackets(32),
            PageKind::MuxCell => QdiscKind::Codel,
        };
        spec.net = NetSpec {
            delay: Some(SimDuration::from_millis(40)),
            link: Some(LinkSpec {
                uplink: self.uplink.clone(),
                downlink: self.downlinks[site_idx % self.downlinks.len()].clone(),
                qdisc,
            }),
            ..NetSpec::default()
        };
        let mut tcp = TcpConfig::builder();
        if self.kind == PageKind::MuxCell {
            spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
            tcp = tcp.recovery(RecoveryTier::RackTlp);
        }
        spec.seed = self.seed.wrapping_add(site_idx as u64);

        if obs.capture {
            self.capture.clear();
            spec.capture = Some(self.capture.handle());
        }
        let spans = obs.spans.then(|| TraceBuffer::for_load(call as u64));
        spec.span = spans.as_ref().map(TraceBuffer::handle);
        let auditor = obs.audit.then(|| Auditor::for_load(call as u64));
        spec.audit = auditor.clone();
        let metrics = obs.metrics.then(|| (Registry::new(), FlowTracer::new()));
        if let Some((registry, tracer)) = &metrics {
            tcp = tcp.metrics(MetricsHandle::new(RegistrySink::with_tracer(
                registry.clone(),
                tracer.clone(),
            )));
        }
        spec.tcp = Some(tcp.build());

        let r = run_page_load(&spec);
        let report = auditor.map(|a| a.finish());

        let mut words = vec![
            r.plt.as_nanos(),
            r.total_body_bytes,
            r.resource_count() as u64,
            r.failures,
        ];
        let mut units = Units {
            http_messages: 2 * r.resource_count() as u64,
            body_bytes: r.total_body_bytes,
            ..Units::default()
        };
        let mut clean = true;
        if let Some(report) = &report {
            clean = report.is_clean();
            words.extend(report.digests.values());
            units.violations = report.violations.len() as u64 + report.dropped_violations;
            units.flow_samples = report.samples;
        }
        if obs.capture {
            units.capture_events = (self.capture.packet_count() + self.capture.http_count()) as u64;
            if count {
                let packets = self.capture.data().packets;
                let of = |kind| packets.iter().filter(|p| p.kind == kind).count() as u64;
                units.packets = of(PacketEventKind::Enqueue);
                units.drops = of(PacketEventKind::Drop);
            }
        }
        if let (Some(buf), true) = (&spans, count) {
            units.spans = buf.spans().len() as u64 + buf.dropped();
        }
        if let Some((registry, tracer)) = &metrics {
            units.retransmits = registry.counter("tcp_retransmits_total", "").get();
            units.rtos = registry.counter("tcp_rto_total", "").get();
            units.tlps = registry.counter("tcp_tlp_fires_total", "").get();
            if units.flow_samples == 0 {
                units.flow_samples = tracer.sample_count() as u64 + tracer.dropped();
            }
        }
        let ok = r.failures == 0 && r.resource_count() >= 1 && clean;
        Outcome {
            ops: 1,
            failed: u64::from(!ok),
            sim_ns: r.plt.as_nanos(),
            digest: digest_u64s(&words),
            units,
        }
    }
}

impl Workload for PageLoads {
    fn calls(&self) -> usize {
        self.sites.len()
    }

    fn run(&mut self, call: usize, observe: bool) -> Outcome {
        let obs = if observe || self.kind == PageKind::Observed {
            Observers::ALL
        } else {
            Observers::default()
        };
        self.load(call, obs, observe)
    }
}

// ----------------------------------------------------------- transfers

#[derive(Debug, Clone, Copy)]
struct TransferCase {
    /// Payload bytes: the leading `len` of the shared random buffer.
    len: usize,
    cc: CcAlgorithm,
    recovery: RecoveryTier,
    mbps: f64,
    /// droptail64 + 1 % LossShell each way, seeded with this; `None` =
    /// infinite droptail, no loss.
    loss_seed: Option<u64>,
}

pub struct Transfers {
    /// In pass order (shuffled by `--seed`).
    cases: Vec<TransferCase>,
    /// Random bytes, as long as the longest payload.
    source: Bytes,
}

const TRANSFER_SIZES: [usize; 3] = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];
const TRANSFER_MBPS: [f64; 3] = [5.0, 20.0, 100.0];

/// Lossy transfers per grid cell, each with its own loss streams. Where
/// the losses fall decides how many RTOs a transfer sits through: with
/// one stream per cell (36 transfers) `ops_per_s` moved by 10 % between
/// seeds.
const LOSS_REALIZATIONS: usize = 3;

impl Transfers {
    /// sizes {256 KB, 1 MB, 4 MB} × links {5, 20, 100 Mbit/s} × senders:
    /// clean — {Reno, Cubic, BBR} over infinite droptail; lossy — the
    /// four recovery arms over droptail64 with 1 % loss each way, three
    /// loss realizations of each.
    pub fn build(lossy: bool, seed: u64) -> Transfers {
        let senders: Vec<(CcAlgorithm, RecoveryTier)> = if lossy {
            vec![
                (CcAlgorithm::Reno, RecoveryTier::Reno),
                (CcAlgorithm::Reno, RecoveryTier::Sack),
                (CcAlgorithm::Cubic, RecoveryTier::RackTlp),
                (CcAlgorithm::Bbr, RecoveryTier::RackTlp),
            ]
        } else {
            vec![
                (CcAlgorithm::Reno, RecoveryTier::Reno),
                (CcAlgorithm::Cubic, RecoveryTier::Reno),
                (CcAlgorithm::Bbr, RecoveryTier::Reno),
            ]
        };
        let repeats = if lossy { LOSS_REALIZATIONS } else { 1 };
        let rng = RngStream::from_seed(seed);
        let mut cases = Vec::new();
        for (size_idx, &nominal) in TRANSFER_SIZES.iter().enumerate() {
            // Lengths evenly spaced within +-10 % of the nominal size,
            // dealt to this size's transfers by the seed: every seed
            // moves the same total bytes, no two seeds the same transfer.
            let n = senders.len() * TRANSFER_MBPS.len() * repeats;
            let mut lens: Vec<usize> = (0..n)
                .map(|j| (nominal as f64 * (0.9 + 0.2 * (j as f64 + 0.5) / n as f64)) as usize)
                .collect();
            rng.fork_indexed("transfer-len", size_idx as u64)
                .shuffle(&mut lens);
            let mut lens = lens.into_iter();
            for &(cc, recovery) in &senders {
                for &mbps in &TRANSFER_MBPS {
                    for _ in 0..repeats {
                        cases.push(TransferCase {
                            len: lens.next().expect("one length per transfer"),
                            cc,
                            recovery,
                            mbps,
                            loss_seed: lossy.then(|| {
                                rng.fork_indexed("transfer-loss", cases.len() as u64).seed()
                            }),
                        });
                    }
                }
            }
        }
        let order = seeded_order(cases.len(), seed, "transfer-order");
        let longest = cases.iter().map(|c| c.len).max().expect("a grid of cases");
        Transfers {
            cases: order.into_iter().map(|i| cases[i]).collect(),
            source: seeded_payload(longest, seed),
        }
    }
}

/// Server side of a transfer: on the client's request, push the payload
/// and close.
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

/// The client's one-segment request. The client must speak first: an
/// initiator that stays silent after the handshake never re-ACKs a
/// retransmitted SYN-ACK, so a lost third handshake packet deadlocks
/// the connection until the acceptor gives up (README, findings).
const REQUEST: &[u8] = b"GET /bulk HTTP/1.1\r\nHost: 10.0.0.2\r\n\r\n";

/// Client side: checks every delivered byte against the payload.
struct CheckingReceiver {
    expected: Bytes,
    received: Cell<usize>,
    intact: Cell<bool>,
    /// When the last byte so far arrived. The engine's own clock runs
    /// on past this (superseded timers still pop, as no-ops, at their
    /// old deadlines), so it is no measure of the transfer.
    last_data_at: Cell<Timestamp>,
}

impl CheckingReceiver {
    fn new(expected: &Bytes) -> Rc<CheckingReceiver> {
        Rc::new(CheckingReceiver {
            expected: expected.clone(),
            received: Cell::new(0),
            intact: Cell::new(true),
            last_data_at: Cell::new(Timestamp::ZERO),
        })
    }

    fn got_exactly_the_payload(&self) -> bool {
        self.intact.get() && self.received.get() == self.expected.len()
    }
}

impl SocketApp for CheckingReceiver {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        match ev {
            SocketEvent::Connected => h.send(sim, Bytes::from_static(REQUEST)),
            SocketEvent::Data(b) => {
                let at = self.received.get();
                let want = self.expected.get(at..at + b.len());
                if want != Some(&b[..]) {
                    self.intact.set(false);
                }
                self.received.set(at + b.len());
                self.last_data_at.set(sim.now());
            }
            SocketEvent::PeerClosed => h.close(sim),
            // A reset can only cut the stream short, which the byte
            // count catches; one that arrives during teardown (a lost
            // FIN retransmitted at a peer that has already gone) is not
            // a transfer failure.
            _ => {}
        }
    }
}

const SERVER_IP: IpAddr = IpAddr::new(10, 0, 0, 2);
const CLIENT_IP: IpAddr = IpAddr::new(10, 0, 0, 1);

/// The shells between the two hosts of a transfer world, outermost
/// first; the default is none (client in the server's namespace).
#[derive(Default)]
struct Path {
    delay_ms: Option<u64>,
    /// Link rate in Mbit/s and its droptail limit.
    link: Option<(f64, QueueLimit)>,
    /// Loss probability each way and the seed of its streams.
    loss: Option<(f64, u64)>,
}

struct TransferRun {
    intact: bool,
    events: u64,
    heap_high_water: u64,
    sim_ns: u64,
    sender: mm_net::TcpStats,
    packets: u64,
    drops: u64,
}

/// One one-way bulk transfer in a world the benchmark builds itself, so
/// it owns the `Simulator` and can read its event count.
fn run_transfer(config: &TcpConfig, path: &Path, payload: &Bytes, profile: bool) -> TransferRun {
    let mut sim = Simulator::new();
    if profile {
        sim.enable_profiler();
    }
    let root = Namespace::root("w");
    let ids = PacketIdGen::new();
    let server = Host::new_in(SERVER_IP, ids.clone(), &root);
    server.set_tcp_config(config.clone());
    let mut stack = ShellStack::new(&root);
    if let Some(ms) = path.delay_ms {
        stack = stack.delay(SimDuration::from_millis(ms));
    }
    if let Some((mbps, queue)) = path.link {
        stack = stack.link(constant_rate(mbps, 1000), &move || {
            Box::new(DropTail::new(queue)) as Box<dyn Qdisc>
        });
    }
    if let Some((p, seed)) = path.loss {
        stack = stack.loss(p, p, &RngStream::from_seed(seed).fork("loss"));
    }
    let client = Host::new_in(CLIENT_IP, ids, &stack.innermost());
    client.set_tcp_config(config.clone());
    let sender = Rc::new(RefCell::new(None));
    server.listen(
        80,
        Rc::new(PushOnRequest {
            payload: payload.clone(),
            sender: sender.clone(),
        }),
    );
    let receiver = CheckingReceiver::new(payload);
    client.connect(&mut sim, SocketAddr::new(SERVER_IP, 80), receiver.clone());
    sim.run();

    let (mut packets, mut drops) = (0, 0);
    for layer in stack.layers() {
        match layer {
            ShellLayer::Link(l) => {
                for q in [l.uplink.qdisc_stats(), l.downlink.qdisc_stats()] {
                    packets += q.enqueued;
                    drops += q.dropped;
                }
            }
            ShellLayer::Loss(l) => drops += l.uplink.stats().dropped + l.downlink.stats().dropped,
            ShellLayer::Delay(_) => {}
        }
    }
    let sender_stats = sender
        .borrow()
        .as_ref()
        .map(TcpHandle::stats)
        .unwrap_or_default();
    TransferRun {
        intact: receiver.got_exactly_the_payload(),
        events: sim.events_executed(),
        heap_high_water: sim.profile().map_or(0, |p| p.heap_high_water() as u64),
        sim_ns: receiver.last_data_at.get().as_nanos(),
        sender: sender_stats,
        packets,
        drops,
    }
}

impl Workload for Transfers {
    fn calls(&self) -> usize {
        self.cases.len()
    }

    fn run(&mut self, call: usize, observe: bool) -> Outcome {
        let case = self.cases[call];
        let config = TcpConfig::builder()
            .cc(case.cc)
            .recovery(case.recovery)
            .build();
        let queue = match case.loss_seed {
            Some(_) => QueueLimit::Packets(64),
            None => QueueLimit::Infinite,
        };
        let path = Path {
            delay_ms: Some(20),
            link: Some((case.mbps, queue)),
            loss: case.loss_seed.map(|seed| (0.01, seed)),
        };
        let r = run_transfer(&config, &path, &self.source.slice(..case.len), observe);
        Outcome {
            ops: 1,
            failed: u64::from(!r.intact),
            sim_ns: r.sim_ns,
            digest: digest_u64s(&[
                r.sim_ns,
                r.events,
                r.sender.segments_sent,
                r.sender.retransmissions,
                r.drops,
            ]),
            units: Units {
                events: r.events,
                heap_high_water: r.heap_high_water,
                packets: r.packets,
                drops: r.drops,
                retransmits: r.sender.retransmissions,
                rtos: r.sender.timeouts,
                tlps: r.sender.tlp_probes,
                ..Units::default()
            },
        }
    }
}

// --------------------------------------------------------------- fleet

/// Two 64-user contention worlds per pass: droptail256 + 50/50
/// BBR/Reno + HTTP/1.1, and CoDel + all-Reno + mux.
///
/// The same two worlds on every seed: `run_fleet` draws nothing at
/// random unless the world has a LossShell, and these have none. (Packing
/// the arrivals by the seed, 1.5-2.5 s, was tried: work and allocations
/// held to 0.2 %, but when the last straggler's RTO chain ends is
/// chaotic in any input, and `sim_x_realtime` moved by 17 % between
/// seeds.)
pub struct Fleet {
    seed: u64,
    site: StoredSite,
}

const FLEET_USERS: usize = 64;
const FLEET_BULK_BYTES: u64 = 2_000_000;

impl Fleet {
    pub fn build(seed: u64) -> Fleet {
        Fleet {
            seed,
            site: typical_site(),
        }
    }
}

/// The 40/12 Mbit/s, 80 ms RTT bottleneck of the repo's population and
/// soak experiments.
fn shared_bottleneck(qdisc: QdiscKind) -> LinkSpec {
    LinkSpec {
        uplink: constant_rate(12.0, 1000),
        downlink: constant_rate(40.0, 1000),
        qdisc,
    }
}

impl Workload for Fleet {
    fn calls(&self) -> usize {
        2
    }

    fn run(&mut self, call: usize, observe: bool) -> Outcome {
        let (qdisc, mix, mux) = match call {
            0 => (QdiscKind::DropTailPackets(256), CcMix::BbrRenoSplit, false),
            _ => (QdiscKind::Codel, CcMix::AllReno, true),
        };
        let mut load = LoadSpec::new(&self.site);
        load.net = NetSpec {
            delay: Some(SimDuration::from_millis(40)),
            link: Some(shared_bottleneck(qdisc)),
            ..NetSpec::default()
        };
        if mux {
            load.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        }
        load.seed = self.seed;
        let registry = Registry::new();
        if observe {
            load.tcp = Some(
                TcpConfig::builder()
                    .metrics(MetricsHandle::new(RegistrySink::new(registry.clone())))
                    .build(),
            );
        }
        let r = run_fleet(&FleetSpec {
            load,
            n_users: FLEET_USERS,
            cc_mix: mix,
            bulk_bytes: FLEET_BULK_BYTES,
            arrival_window: SimDuration::from_millis(2_000),
        });
        let ok = r.users.len() == FLEET_USERS
            && r.users
                .iter()
                .all(|u| u.bulk_bytes == FLEET_BULK_BYTES && u.plt_ms.is_finite());
        let mut words = vec![
            r.completed_at.as_nanos(),
            r.max_downlink_queue_packets as u64,
            r.max_uplink_queue_packets as u64,
        ];
        for u in &r.users {
            words.extend([u.plt_ms.to_bits(), u.goodput_bps.to_bits(), u.bulk_bytes]);
        }
        Outcome {
            ops: 1,
            failed: u64::from(!ok),
            sim_ns: r.completed_at.as_nanos(),
            digest: digest_u64s(&words),
            units: Units {
                retransmits: registry.counter("tcp_retransmits_total", "").get(),
                rtos: registry.counter("tcp_rto_total", "").get(),
                tlps: registry.counter("tcp_tlp_fires_total", "").get(),
                ..Units::default()
            },
        }
    }
}

// ---------------------------------------------------------------- soak

/// One long-lived world: open loop, Poisson arrivals at one session per
/// simulated second into 32 slots for six simulated minutes, then the
/// drain. An op is one completed session.
pub struct Soak {
    seed: u64,
    site: StoredSite,
}

impl Soak {
    pub fn build(seed: u64) -> Soak {
        Soak {
            seed,
            site: typical_site(),
        }
    }
}

/// Sum of the values of every series of `text` (Prometheus exposition)
/// whose name satisfies `pick`.
fn prom_sum(text: &str, pick: impl Fn(&str) -> bool) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| pick(series.split('{').next().unwrap_or(series)))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

impl Workload for Soak {
    fn calls(&self) -> usize {
        1
    }

    fn run(&mut self, _call: usize, _observe: bool) -> Outcome {
        let registry = Registry::new();
        let mut spec = SoakSpec::new(&self.site);
        spec.delay = Some(SimDuration::from_millis(40));
        spec.link = Some(shared_bottleneck(QdiscKind::DropTailPackets(256)));
        spec.arrival_mean = SimDuration::from_millis(1_000);
        spec.duration = SimDuration::from_secs(6 * 60);
        spec.max_live_sessions = 32;
        spec.seed = self.seed;
        let r = run_soak(&spec, &registry);

        let ok = r.sessions_completed == r.sessions_started
            && r.sessions_shed == 0
            && r.failures == 0
            && r.server_conns_final == 0
            && r.client_sockets_final == 0;
        // The soak's own registry is the only window into its engine.
        let text = registry.encode();
        let events = prom_sum(&text, |n| {
            n.starts_with("sim_events_") && n.ends_with("_total")
        });
        let count = |name: &str| prom_sum(&text, |n| n == name) as u64;
        let ops = r.sessions_completed.max(1);
        Outcome {
            ops,
            // A broken drain or a shed arrival fails the whole world.
            failed: if ok { 0 } else { ops },
            sim_ns: r.completed_at.as_nanos(),
            digest: digest_u64s(&[
                r.sessions_started,
                r.sessions_completed,
                r.resources_fetched,
                r.completed_at.as_nanos(),
                r.plt_p50_ms.to_bits(),
                r.plt_p99_ms.to_bits(),
                r.server_conn_high_water as u64,
                events as u64,
            ]),
            units: Units {
                events: events as u64,
                heap_high_water: count("sim_heap_high_water_events"),
                packets: count("qdisc_up_enqueues_total") + count("qdisc_down_enqueues_total"),
                drops: count("qdisc_up_drops_total") + count("qdisc_down_drops_total"),
                http_messages: 2 * r.resources_fetched,
                retransmits: count("tcp_retransmits_total"),
                rtos: count("tcp_rto_total"),
                tlps: count("tcp_tlp_fires_total"),
                ..Units::default()
            },
        }
    }
}

// -------------------------------------------------------- layer probes

fn data_packet(id: u64) -> Packet {
    Packet {
        id,
        src: SocketAddr::new(IpAddr::new(1, 1, 1, 1), 1),
        dst: SocketAddr::new(IpAddr::new(2, 2, 2, 2), 2),
        segment: TcpSegment {
            flags: TcpFlags::ACK,
            seq: 0,
            ack: 0,
            window: 0,
            sack: Default::default(),
            payload: Bytes::from(vec![0u8; MSS]),
        },
        corrupted: false,
    }
}

/// Enqueue/dequeue cycles through a qdisc holding a short standing
/// queue, clock advancing 100 µs per packet.
fn qdisc_cycles(q: &mut dyn Qdisc, pkt: &Packet, n: u64) {
    for i in 0..8 {
        q.enqueue(Timestamp::from_nanos(i), pkt.clone());
    }
    for i in 0..n {
        let now = Timestamp::from_nanos(i * 100_000);
        q.enqueue(now, pkt.clone());
        std::hint::black_box(q.dequeue(now));
    }
}

struct ConnectAndClose;
impl SocketApp for ConnectAndClose {
    fn on_event(&self, sim: &mut Simulator, h: &TcpHandle, ev: SocketEvent) {
        if matches!(ev, SocketEvent::Connected | SocketEvent::PeerClosed) {
            h.close(sim);
        }
    }
}
struct CloseBack;
impl Listener for CloseBack {
    fn on_connection(&self, _sim: &mut Simulator, _h: TcpHandle) -> Rc<dyn SocketApp> {
        Rc::new(ConnectAndClose)
    }
}

/// Two directly attached hosts; returns (client, server).
fn host_pair() -> (Host, Host) {
    let ns = Namespace::root("w");
    let ids = PacketIdGen::new();
    let client = Host::new_in(CLIENT_IP, ids.clone(), &ns);
    let server = Host::new_in(SERVER_IP, ids, &ns);
    (client, server)
}

/// A site with one small resource: a load of it is almost pure world
/// construction and teardown.
fn one_resource_site() -> StoredSite {
    let origin = SocketAddr::new(IpAddr::new(23, 0, 0, 1), 80);
    let mut site = StoredSite::new("one-resource", "http://23.0.0.1:80/");
    site.push(RequestResponsePair {
        origin,
        scheme: Scheme::Http,
        request: Request::get("/", "23.0.0.1"),
        response: Response::ok(
            Bytes::from_static(b"<html><body>one</body></html>"),
            "text/html",
        ),
    });
    site
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// Every probe that is a timed call into one crate's public functions.
/// Each pushes its metric into `ctx` and records a span.
pub fn layer_probes(ctx: &mut ProbeCtx, seed: u64) {
    probe_sim(ctx);
    probe_net(ctx, seed);
    probe_shells(ctx, seed);
    probe_trace(ctx, seed);
    probe_http_mux(ctx, seed);
    probe_replay_browser_corpus(ctx, seed);
    probe_observers(ctx);
    probe_core(ctx, seed);
    probe_parallel_map(ctx);
}

fn probe_sim(ctx: &mut ProbeCtx) {
    const N: u64 = 100_000;
    let hits = Rc::new(Cell::new(0u64));
    let h = hits.clone();
    ctx.time_per_unit("mm-sim.dispatch_ns_per_event", "ns", 1.0, N, move || {
        let mut sim = Simulator::new();
        for i in 0..N {
            let h = h.clone();
            // Scattered deadlines: the heap sifts on every push and pop.
            let at = Timestamp::from_nanos(1 + (i * 7_919) % 1_000_003);
            sim.schedule_at(at, move |_| h.set(h.get() + 1));
        }
        sim.run();
    });
    let h = hits.clone();
    ctx.time_per_unit(
        "mm-sim.same_ts_dispatch_ns_per_event",
        "ns",
        1.0,
        N,
        move || {
            let mut sim = Simulator::new();
            for _ in 0..N {
                let h = h.clone();
                sim.schedule_at(Timestamp::from_millis(1), move |_| h.set(h.get() + 1));
            }
            sim.run();
        },
    );
    assert_eq!(hits.get() % N, 0, "every scheduled event must run");

    // The RTO pattern: re-armed on every ack to a slightly later
    // deadline, fires almost never. Each re-arm supersedes the last;
    // the superseded entries drain at the end.
    let rearm = |timer: Timer| {
        let mut sim = Simulator::new();
        for i in 0..N {
            timer.arm_at(
                &mut sim,
                Timestamp::from_nanos(200_000_000 + i * 1_000),
                |_| {},
            );
        }
        sim.run();
    };
    ctx.time_per_unit(
        "mm-sim.timer_rearm_ns",
        "ns",
        1.0,
        N,
        || rearm(Timer::new()),
    );
    ctx.time_per_unit("mm-sim.timermux_rearm_ns", "ns", 1.0, N, || {
        rearm(TimerMux::new().timer())
    });
    ctx.time_per_unit("mm-sim.timer_fire_ns", "ns", 1.0, N, || {
        let mut sim = Simulator::new();
        let timer = Timer::new();
        for _ in 0..N {
            timer.arm(&mut sim, SimDuration::from_micros(10), |_| {});
            sim.run();
        }
    });
}

fn probe_net(ctx: &mut ProbeCtx, seed: u64) {
    let payload = seeded_payload(1 << 20, seed);
    let segments = (payload.len() as u64).div_ceil(MSS as u64);
    let reno = TcpConfig::default();
    let bare =
        |cfg: &TcpConfig| assert!(run_transfer(cfg, &Path::default(), &payload, false).intact);

    let before = alloc::snapshot();
    bare(&reno);
    let a = before.elapsed();
    ctx.push(
        "mm-net.allocs_per_segment",
        a.calls as f64 / segments as f64,
        "count",
    );
    ctx.push(
        "mm-net.alloc_bytes_per_payload_byte",
        a.bytes as f64 / payload.len() as f64,
        "ratio",
    );
    ctx.time_per_unit(
        "mm-net.bare_transfer_ns_per_segment",
        "ns",
        1.0,
        segments,
        || bare(&reno),
    );

    ctx.time_per_unit("mm-net.clean_reno_ms", "ms", 1e-6, 1, || bare(&reno));
    let bbr = TcpConfig::builder().cc(CcAlgorithm::Bbr).build();
    ctx.time_per_unit("mm-net.clean_bbr_ms", "ms", 1e-6, 1, || bare(&bbr));

    // The lossy arms: the same transfer through a 1 % LossShell each
    // way (no link, no delay), one per recovery tier.
    let lossy_path = Path {
        loss: Some((0.01, seed)),
        ..Path::default()
    };
    let lossy = |cfg: &TcpConfig| assert!(run_transfer(cfg, &lossy_path, &payload, false).intact);
    for (name, cc, tier) in [
        (
            "mm-net.lossy_newreno_ms",
            CcAlgorithm::Reno,
            RecoveryTier::Reno,
        ),
        (
            "mm-net.lossy_sack_ms",
            CcAlgorithm::Reno,
            RecoveryTier::Sack,
        ),
        (
            "mm-net.lossy_racktlp_ms",
            CcAlgorithm::Reno,
            RecoveryTier::RackTlp,
        ),
        (
            "mm-net.lossy_bbr_ms",
            CcAlgorithm::Bbr,
            RecoveryTier::RackTlp,
        ),
    ] {
        let cfg = TcpConfig::builder().cc(cc).recovery(tier).build();
        ctx.time_per_unit(name, "ms", 1e-6, 1, || lossy(&cfg));
    }

    const CONNS: u64 = 200;
    ctx.time_per_unit("mm-net.conn_setup_us", "us", 1e-3, CONNS, || {
        let mut sim = Simulator::new();
        let (client, server) = host_pair();
        server.listen(80, Rc::new(CloseBack));
        for _ in 0..CONNS {
            client.connect(
                &mut sim,
                SocketAddr::new(SERVER_IP, 80),
                Rc::new(ConnectAndClose),
            );
            sim.run();
            client.reap_closed();
            server.reap_closed();
        }
    });

    // ConnTable: insert, lookup by address, get by id, remove — over a
    // table the size of one HTTP/1.1 page load's connection set.
    let handles: Vec<(SocketAddr, TcpHandle)> = {
        let mut sim = Simulator::new();
        let (client, server) = host_pair();
        server.listen(80, Rc::new(CloseBack));
        (0..180)
            .map(|_| {
                let h = client.connect(&mut sim, SocketAddr::new(SERVER_IP, 80), Rc::new(Idle));
                (h.local_addr(), h)
            })
            .collect()
    };
    let remote = SocketAddr::new(SERVER_IP, 80);
    let ops = handles.len() as u64 * 4;
    ctx.time_per_unit("mm-net.conntable_op_ns", "ns", 1.0, ops * 50, || {
        for _ in 0..50 {
            let mut table = ConnTable::new();
            let ids: Vec<_> = handles
                .iter()
                .map(|(local, h)| table.insert((*local, remote), h.clone()))
                .collect();
            for (local, _) in &handles {
                std::hint::black_box(table.lookup(&(*local, remote)));
            }
            for id in &ids {
                std::hint::black_box(table.get(*id));
            }
            for id in ids {
                std::hint::black_box(table.remove(id));
            }
        }
    });
}

struct Idle;
impl SocketApp for Idle {
    fn on_event(&self, _sim: &mut Simulator, _h: &TcpHandle, _ev: SocketEvent) {}
}

fn probe_shells(ctx: &mut ProbeCtx, seed: u64) {
    const N: u64 = 100_000;
    let pkt = data_packet(0);
    let droptail = ctx.time_per_unit("mm-shells.droptail_ns_per_packet", "ns", 1.0, N, || {
        qdisc_cycles(&mut DropTail::infinite(), &pkt, N)
    });
    ctx.time_per_unit("mm-shells.codel_ns_per_packet", "ns", 1.0, N, || {
        qdisc_cycles(&mut CoDel::default_params(), &pkt, N)
    });
    ctx.time_per_unit("mm-shells.pie_ns_per_packet", "ns", 1.0, N, || {
        qdisc_cycles(&mut Pie::default_params(14e6 / 8.0), &pkt, N)
    });
    let registry = Registry::new();
    let instrumented = ctx.time_quiet("mm-shells.instrumented_overhead_ns_per_packet", N, || {
        let sink = MetricsHandle::new(RegistrySink::new(registry.clone()));
        let mut q = InstrumentedQdisc::new(Box::new(DropTail::infinite()), sink, "down");
        qdisc_cycles(&mut q, &pkt, N)
    });
    ctx.push(
        "mm-shells.instrumented_overhead_ns_per_packet",
        instrumented - droptail,
        "ns",
    );
    let capture = Capture::for_load(0);
    let point = TapPoint {
        kind: PointKind::Link,
        index: 1,
        dir: Dir::Down,
    };
    let tapped = ctx.time_quiet("mm-shells.tapped_overhead_ns_per_packet", N, || {
        capture.clear();
        let mut q = TappedQdisc::new(Box::new(DropTail::infinite()), capture.handle(), point);
        qdisc_cycles(&mut q, &pkt, N)
    });
    ctx.push(
        "mm-shells.tapped_overhead_ns_per_packet",
        tapped - droptail,
        "ns",
    );

    // One LinkShell's forwarding cost: the same 1 MB transfer with and
    // without a 50 Mbit/s link in the path, per packet through it.
    let payload = seeded_payload(1 << 20, seed);
    let cfg = TcpConfig::default();
    let shelled_path = Path {
        link: Some((50.0, QueueLimit::Infinite)),
        ..Path::default()
    };
    let packets = run_transfer(&cfg, &shelled_path, &payload, false).packets;
    let shelled = ctx.time_quiet("mm-shells.link_forward_ns_per_packet", 1, || {
        std::hint::black_box(run_transfer(&cfg, &shelled_path, &payload, false));
    });
    let bare = ctx.time_quiet("mm-shells.link_forward_ns_per_packet", 1, || {
        std::hint::black_box(run_transfer(&cfg, &Path::default(), &payload, false));
    });
    ctx.push(
        "mm-shells.link_forward_ns_per_packet",
        (shelled - bare) / packets as f64,
        "ns",
    );
}

fn probe_trace(ctx: &mut ProbeCtx, seed: u64) {
    let trace = constant_rate(100.0, 10_000);
    let text = trace.to_file_format();
    let ns = ctx.time_quiet("mm-trace.parse_mb_per_s", 1, || {
        std::hint::black_box(Trace::parse(&text).expect("own output parses"));
    });
    ctx.push("mm-trace.parse_mb_per_s", mb_per_s(text.len(), ns), "MB/s");
    let cell = cellular_downlink(seed, 0);
    const N: u64 = 1_000_000;
    ctx.time_per_unit("mm-trace.opportunity_search_ns", "ns", 1.0, N, || {
        let mut q = 0u64;
        for _ in 0..N {
            q = (q + 7_919) % 1_000_000;
            std::hint::black_box(cell.first_opportunity_at_or_after(q));
        }
    });
    ctx.time_per_unit("mm-trace.cellular_generate_ms", "ms", 1e-6, 1, || {
        std::hint::black_box(cellular_downlink(seed, 0));
    });
    const SPANS: u64 = 50_000;
    ctx.time_per_unit("mm-trace.span_emit_ns", "ns", 1.0, SPANS, || {
        let buf = TraceBuffer::for_load(0);
        let sink = buf.handle();
        for i in 0..SPANS {
            sink.record(Span {
                load: 0,
                id: sink.next_id(),
                parent: 0,
                kind: SpanKind::Transfer,
                t0_ns: i,
                t1_ns: i + 1_000,
                res: i as u32,
                conn: i,
                url: String::new(),
                detail: String::new(),
            });
        }
    });
}

fn probe_http_mux(ctx: &mut ProbeCtx, seed: u64) {
    let req_wire = write_request(&Request::get("/a/b/c?x=1&y=2", "example.com"));
    const N: u64 = 20_000;
    ctx.time_per_unit("mm-http.parse_request_ns", "ns", 1.0, N, || {
        for _ in 0..N {
            let mut p = RequestParser::new();
            std::hint::black_box(p.feed(&req_wire).expect("well-formed request"));
        }
    });
    let body = seeded_payload(64 * 1024, seed);
    let resp = Response::ok(body.clone(), "image/jpeg");
    let resp_wire = write_response(&resp);
    const R: u64 = 200;
    let ns = ctx.time_quiet("mm-http.parse_response_mb_per_s", R, || {
        for _ in 0..R {
            let mut p = ResponseParser::new();
            p.expect_head(false);
            std::hint::black_box(p.feed(&resp_wire).expect("well-formed response"));
        }
    });
    ctx.push(
        "mm-http.parse_response_mb_per_s",
        mb_per_s(resp_wire.len(), ns),
        "MB/s",
    );
    let ns = ctx.time_quiet("mm-http.serialize_response_mb_per_s", R, || {
        for _ in 0..R {
            std::hint::black_box(write_response(&resp));
        }
    });
    ctx.push(
        "mm-http.serialize_response_mb_per_s",
        mb_per_s(resp_wire.len(), ns),
        "MB/s",
    );

    // One response as the mux carries it: a HEADERS frame plus 16 KB
    // DATA frames.
    let frames: Vec<Frame> = std::iter::once(Frame::Headers {
        stream: 1,
        end_stream: false,
        priority: 1,
        fields: vec![
            (":status".into(), "200".into()),
            ("content-type".into(), "image/jpeg".into()),
        ],
    })
    .chain(
        body.chunks(16 * 1024)
            .enumerate()
            .map(|(i, c)| Frame::Data {
                stream: 1,
                end_stream: i == 3,
                payload: body.slice(i * 16 * 1024..i * 16 * 1024 + c.len()),
            }),
    )
    .collect();
    let wire: Vec<Bytes> = frames.iter().map(Frame::encode).collect();
    let wire_len: usize = wire.iter().map(Bytes::len).sum();
    let ns = ctx.time_quiet("mm-mux.frame_encode_mb_per_s", R, || {
        for _ in 0..R {
            for f in &frames {
                std::hint::black_box(f.encode());
            }
        }
    });
    ctx.push(
        "mm-mux.frame_encode_mb_per_s",
        mb_per_s(wire_len, ns),
        "MB/s",
    );
    let ns = ctx.time_quiet("mm-mux.frame_decode_mb_per_s", R, || {
        for _ in 0..R {
            let mut d = FrameDecoder::new();
            for w in &wire {
                std::hint::black_box(d.feed(w).expect("own frames decode"));
            }
        }
    });
    ctx.push(
        "mm-mux.frame_decode_mb_per_s",
        mb_per_s(wire_len, ns),
        "MB/s",
    );
}

fn probe_replay_browser_corpus(ctx: &mut ProbeCtx, seed: u64) {
    ctx.time_per_unit("mm-corpus.generate_plans_ms", "ms", 1e-6, 1, || {
        std::hint::black_box(corpus_subset(seed, CORPUS_SITES));
    });
    let plans = corpus_subset(seed, 10);
    ctx.time_per_unit(
        "mm-corpus.materialize_ms_per_site",
        "ms",
        1e-6,
        plans.len() as u64,
        || {
            for p in &plans {
                std::hint::black_box(materialize(p));
            }
        },
    );
    let sites: Vec<StoredSite> = plans.iter().map(materialize).collect();
    ctx.time_per_unit(
        "mm-replay.index_build_us_per_site",
        "us",
        1e-3,
        sites.len() as u64,
        || {
            for s in &sites {
                std::hint::black_box(StoreIndex::build(s));
            }
        },
    );

    // Lookups against the largest of the ten sites: its own recorded
    // requests (exact) and the same with the query perturbed (prefix).
    let site = sites
        .iter()
        .max_by_key(|s| s.pairs.len())
        .expect("ten sites");
    let matcher = Matcher::new(StoreIndex::build(site));
    let exact: Vec<Request> = site.pairs.iter().map(|p| p.request.clone()).collect();
    let prefix: Vec<Request> = exact
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.target = if r.target.contains('?') {
                format!("{}&cb=1", r.target)
            } else {
                format!("{}?cb=1", r.target)
            };
            r
        })
        .collect();
    const ROUNDS: u64 = 20;
    for (name, reqs) in [
        ("mm-replay.match_exact_ns", &exact),
        ("mm-replay.match_prefix_ns", &prefix),
    ] {
        ctx.time_per_unit(name, "ns", 1.0, ROUNDS * reqs.len() as u64, || {
            for _ in 0..ROUNDS {
                for r in reqs.iter() {
                    std::hint::black_box(matcher.lookup(r).expect("recorded request matches"));
                }
            }
        });
    }

    let html = &site.root_pair().expect("site has a root").response.body;
    assert!(
        !extract_urls(html).is_empty(),
        "root document links its resources"
    );
    const SCANS: u64 = 40;
    let ns = ctx.time_quiet("mm-browser.extract_urls_mb_per_s", SCANS, || {
        for _ in 0..SCANS {
            std::hint::black_box(extract_urls(html));
        }
    });
    ctx.push(
        "mm-browser.extract_urls_mb_per_s",
        mb_per_s(html.len(), ns),
        "MB/s",
    );
}

fn packet_event(i: u64, kind: PacketEventKind) -> PacketEvent {
    PacketEvent {
        t_ns: i * 1_000,
        kind,
        point: TapPoint {
            kind: PointKind::Link,
            index: 1,
            dir: Dir::Down,
        },
        pkt_id: i,
        size_bytes: 1500,
        sojourn_ns: 0,
        flow: 7,
    }
}

fn probe_observers(ctx: &mut ProbeCtx) {
    const N: u64 = 100_000;
    let capture = Capture::for_load(0);
    let tap: TapHandle = capture.handle();
    ctx.time_per_unit("mm-capture.tap_event_ns", "ns", 1.0, N, || {
        capture.clear();
        for i in 0..N {
            tap.on_packet(&packet_event(i, PacketEventKind::Deliver));
        }
    });
    let ns = ctx.time_quiet("mm-capture.jsonl_encode_mb_per_s", 1, || {
        std::hint::black_box(capture.to_jsonl());
    });
    ctx.push(
        "mm-capture.jsonl_encode_mb_per_s",
        mb_per_s(capture.to_jsonl().len(), ns),
        "MB/s",
    );

    let registry = Registry::new();
    let tracer = FlowTracer::new();
    let sink = RegistrySink::with_tracer(registry.clone(), tracer);
    ctx.time_per_unit("mm-metrics.counter_add_ns", "ns", 1.0, N, || {
        for _ in 0..N {
            sink.counter_add("tcp_retransmits_total", 1);
        }
    });
    let sample = |i: u64| FlowSample {
        t_s: i as f64 * 1e-3,
        cwnd: 14_600 + i,
        bytes_in_flight: 1_460,
        mss: 1_460,
        state: "open",
        ..FlowSample::default()
    };
    let flow = sink.flow_open("probe").expect("tracer attached");
    ctx.time_per_unit("mm-metrics.flow_sample_ns", "ns", 1.0, N, || {
        for i in 0..N {
            sink.flow_sample(flow, &sample(i));
        }
    });
    for i in 0..64 {
        registry
            .counter_with("probe_total", "", &[("i", &i.to_string())])
            .inc();
    }
    ctx.time_per_unit("mm-metrics.encode_us", "us", 1e-3, 1, || {
        std::hint::black_box(registry.encode());
    });

    // The auditor's two hot entry points, fed a conforming stream (an
    // enqueue/dequeue pair per packet; in-window flow samples).
    ctx.time_per_unit("mm-audit.packet_event_ns", "ns", 1.0, N, || {
        let a = Auditor::for_load(0);
        let tap = a.tap_handle();
        for i in 0..N / 2 {
            tap.on_packet(&packet_event(i, PacketEventKind::Enqueue));
            tap.on_packet(&packet_event(i, PacketEventKind::Dequeue));
        }
        assert!(a.finish().is_clean());
    });
    ctx.time_per_unit("mm-audit.flow_sample_ns", "ns", 1.0, N, || {
        let a = Auditor::for_load(0);
        let m = a.metrics_handle();
        let flow = m.flow_open("probe").expect("auditor traces flows");
        for i in 0..N {
            m.flow_sample(flow, &sample(i));
        }
        assert!(a.finish().is_clean());
    });
}

fn probe_core(ctx: &mut ProbeCtx, seed: u64) {
    let tiny = one_resource_site();
    const LOADS: u64 = 50;
    ctx.time_per_unit("core.min_load_ms", "ms", 1e-6, LOADS, || {
        for _ in 0..LOADS {
            let r = run_page_load(&LoadSpec::new(&tiny));
            assert!(r.failures == 0 && r.resource_count() >= 1);
        }
    });

    // Resident-set growth per load: the same 16 sites loaded four
    // times over, RSS read before and after.
    let pages = PageLoads::build(PageKind::Http1, seed, 16);
    for c in 0..pages.calls() {
        pages.load(c, Observers::default(), false);
    }
    let (rss_before, live_before) = (crate::run::proc_status_kb("VmRSS:"), alloc::live_bytes());
    const ROUNDS: usize = 4;
    for _ in 0..ROUNDS {
        for c in 0..pages.calls() {
            pages.load(c, Observers::default(), false);
        }
    }
    let loads = (ROUNDS * pages.calls()) as f64;
    ctx.push(
        "core.rss_growth_kb_per_load",
        (crate::run::proc_status_kb("VmRSS:") - rss_before) / loads,
        "kB",
    );
    // The same growth as the allocator saw it: bytes allocated during
    // the loads and never freed. Exact, so a leak fix shows to the byte.
    ctx.push(
        "core.live_heap_growth_kb_per_load",
        (alloc::live_bytes() - live_before) as f64 / 1024.0 / loads,
        "kB",
    );

    // Observer on/off ratios: the 16 sites, each arm interleaved with
    // the bare arm pass by pass so drift hits both alike.
    let arms = [
        ("core.observers_on_off_ratio", Observers::ALL),
        (
            "core.capture_on_off_ratio",
            Observers {
                capture: true,
                ..Observers::default()
            },
        ),
        (
            "core.spans_on_off_ratio",
            Observers {
                spans: true,
                ..Observers::default()
            },
        ),
        (
            "core.audit_on_off_ratio",
            Observers {
                audit: true,
                ..Observers::default()
            },
        ),
        (
            "core.metrics_on_off_ratio",
            Observers {
                metrics: true,
                ..Observers::default()
            },
        ),
    ];
    let pass = |obs: Observers| {
        let t = Instant::now();
        for c in 0..pages.calls() {
            assert_eq!(pages.load(c, obs, false).failed, 0);
        }
        t.elapsed().as_nanos() as f64
    };
    for (name, obs) in arms {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        ctx.span(name, |_| {
            for _ in 0..3 {
                off.push(pass(Observers::default()));
                on.push(pass(obs));
            }
        });
        ctx.push(
            name,
            crate::stats::lower_quartile(&on) / crate::stats::lower_quartile(&off),
            "ratio",
        );
    }
}

/// `bench::parallel_map` over cost-skewed items: serial wall ÷ (2-thread
/// wall × threads). 1.0 = perfect balance. The only multi-threaded code
/// in the benchmark.
fn probe_parallel_map(ctx: &mut ProbeCtx) {
    // Item cost grows with the index, as corpus sites do with size.
    let items: Vec<u64> = (0..32).map(|i| 2_000 * (1 + i % 8) * (1 + i / 8)).collect();
    let work = |_: usize, n: &u64| {
        let mut sim = Simulator::new();
        for i in 0..*n {
            sim.schedule_at(Timestamp::from_nanos(i % 997), |_| {});
        }
        sim.run();
        sim.events_executed()
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let serial = ctx.time_quiet("bench.parallel_map_efficiency", 1, || {
        let out: Vec<u64> = items.iter().enumerate().map(|(i, n)| work(i, n)).collect();
        std::hint::black_box(out);
    });
    let sharded = ctx.time_quiet("bench.parallel_map_efficiency", 1, || {
        std::hint::black_box(bench::parallel_map(&items, work));
    });
    ctx.push(
        "bench.parallel_map_efficiency",
        serial / (sharded * threads as f64),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_sites_and_another_seed_picks_others() {
        let names = |seed| -> Vec<String> {
            corpus_subset(seed, 100)
                .iter()
                .map(|p| p.name.clone())
                .collect()
        };
        assert_eq!(names(7), names(7));
        let (a, b) = (names(7), names(8));
        assert_eq!((a.len(), b.len()), (100, 100));
        let shared = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        // One of five per stratum: about a fifth coincide by chance.
        assert!(shared < 50, "{shared} of 100 sites shared between seeds");
    }

    #[test]
    fn every_seed_transfers_the_same_total_over_different_streams() {
        let total = |t: &Transfers| t.cases.iter().map(|c| c.len).sum::<usize>();
        let loss_seeds = |t: &Transfers| {
            let mut v: Vec<u64> = t.cases.iter().filter_map(|c| c.loss_seed).collect();
            v.sort_unstable();
            v
        };
        let (a, b) = (Transfers::build(true, 7), Transfers::build(true, 8));
        assert_eq!(a.cases.len(), 36 * LOSS_REALIZATIONS);
        assert_eq!(total(&a), total(&b));
        assert_ne!(loss_seeds(&a), loss_seeds(&b));
        assert_eq!(loss_seeds(&a), loss_seeds(&Transfers::build(true, 7)));
        let clean = Transfers::build(false, 7);
        assert_eq!(clean.cases.len(), 27);
        assert!(clean.cases.iter().all(|c| c.loss_seed.is_none()));
        assert!(clean.source.len() >= clean.cases.iter().map(|c| c.len).max().unwrap());
    }

    #[test]
    fn cellular_realizations_differ_by_seed_and_by_load() {
        let ms = |t: &Trace| t.to_file_format();
        assert_eq!(ms(&cellular_downlink(7, 0)), ms(&cellular_downlink(7, 0)));
        assert_ne!(ms(&cellular_downlink(7, 0)), ms(&cellular_downlink(7, 1)));
        assert_ne!(ms(&cellular_downlink(7, 0)), ms(&cellular_downlink(8, 0)));
    }
}
