//! Long-lived serving soak: one replay world, open-loop session arrivals.
//!
//! Where [`crate::harness::run_page_load`] measures a single pristine
//! load and [`crate::fleet::run_fleet`] a fixed population, [`run_soak`]
//! keeps ONE multi-origin replay world serving for simulated hours:
//! browser sessions arrive open-loop (Poisson), load the page, tear
//! their connections down, and leave. The point is production posture,
//! not a figure — the harness reports throughput (requests/sec), tail
//! latency, and the resource high-water marks that would betray a leak
//! in a real deployment: server connection-table occupancy, client
//! socket counts, retransmission-queue and SACK-scoreboard sizes.
//!
//! Clients come from a fixed slot pool of `max_live_sessions` hosts
//! (reused across sessions, like a load balancer's port pool); arrivals
//! that find the pool exhausted are shed and counted. A periodic
//! maintenance pass samples occupancy, folds per-socket [`TcpStats`]
//! high-water marks, and reaps closed connections on every host —
//! so a world that fails to release connections shows up as a
//! monotonically climbing high-water mark instead of an OOM.
//!
//! Everything observable lands in the caller's [`Registry`]: session
//! counters, occupancy gauges, a PLT histogram, per-direction qdisc
//! instruments when a link shell is configured, and the full
//! `tcp_*` counter set (a [`RegistrySink`] is installed into the
//! world's TCP configs unless the caller supplied an explicit sink).
//! The registry's sinks are members of the world's observer fan-outs
//! like any other (`world.rs`), so the process-global trace, capture,
//! span and audit channels reach a soak as they reach a page load.
//!
//! [`TcpStats`]: mm_net::TcpStats

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use mm_browser::{Browser, BrowserConfig, PageLoadResult};
use mm_metrics::{Counter, MetricsHandle, Registry, RegistrySink, LATENCY_BUCKETS_S};
use mm_net::{Host, IpAddr, TcpConfig};
use mm_record::StoredSite;
use mm_replay::ReplayConfig;
use mm_sim::dist::{Distribution, Exponential};
use mm_sim::{RngStream, SimDuration, Simulator, Summary, Timestamp};

use crate::harness::{LinkSpec, LoadSpec, NetSpec};
use crate::world::{Runner, World};

/// How long after the arrival window closes the maintenance loop keeps
/// running, waiting for in-flight sessions to drain. Bounds simulated
/// time even if a session wedges.
const DRAIN_GRACE: SimDuration = SimDuration::from_secs(300);

/// Everything that defines one soak run.
pub struct SoakSpec<'a> {
    /// The recorded site the world serves.
    pub(crate) site: &'a StoredSite,
    /// Replay topology and server think time.
    pub replay: ReplayConfig,
    /// Browser parameters for every session.
    pub browser: BrowserConfig,
    /// TCP configuration for every host (None = defaults). A metrics
    /// sink already present here wins over the soak's own registry sink.
    pub(crate) tcp: Option<TcpConfig>,
    /// Fixed one-way propagation delay (None = none).
    pub delay: Option<SimDuration>,
    /// Trace-driven bottleneck link (None = unconstrained). Its qdiscs
    /// are instrumented ([`mm_shells::ShellStack::observed`]), so
    /// backlog/sojourn/drop metrics land in the registry.
    pub link: Option<LinkSpec>,
    /// Mean of the exponential inter-arrival time between sessions.
    pub arrival_mean: SimDuration,
    /// Length of the arrival window in simulated time. Sessions in
    /// flight at the end are given `DRAIN_GRACE` to finish.
    pub duration: SimDuration,
    /// Cadence of the maintenance pass (occupancy sampling + reaping).
    pub(crate) reap_interval: SimDuration,
    /// Client slot-pool size: the admission limit on concurrent
    /// sessions. Arrivals beyond it are shed, not queued (open loop).
    pub max_live_sessions: usize,
    /// Seed for the arrival process (and anything stochastic below).
    pub seed: u64,
}

impl<'a> SoakSpec<'a> {
    /// A soak with conservative defaults: 10-minute window, one
    /// session every 2 s on average, 20 ms delay shell, 64 slots.
    pub fn new(site: &'a StoredSite) -> SoakSpec<'a> {
        SoakSpec {
            site,
            replay: ReplayConfig::default(),
            browser: BrowserConfig::default(),
            tcp: None,
            delay: Some(SimDuration::from_millis(20)),
            link: None,
            arrival_mean: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(600),
            reap_interval: SimDuration::from_secs(5),
            max_live_sessions: 64,
            seed: 0,
        }
    }
}

/// Everything measured from one soak run.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Sessions admitted into the world.
    pub sessions_started: u64,
    /// Sessions whose page load completed.
    pub sessions_completed: u64,
    /// Arrivals shed because the slot pool was exhausted.
    pub sessions_shed: u64,
    /// Resources fetched across all completed sessions.
    pub resources_fetched: u64,
    /// Failed fetches across all completed sessions.
    pub failures: u64,
    /// Resources fetched per simulated second (over the whole run).
    pub requests_per_sec: f64,
    /// Session page-load-time percentiles, milliseconds.
    pub plt_p50_ms: f64,
    pub plt_p95_ms: f64,
    pub plt_p99_ms: f64,
    /// High-water mark of total server-side connection-table occupancy,
    /// sampled every `reap_interval`.
    pub server_conn_high_water: usize,
    /// Server-side connections still tabled when the world drained.
    pub server_conns_final: usize,
    /// High-water mark of total client-pool socket occupancy.
    pub client_socket_high_water: usize,
    /// Client-pool sockets still tabled when the world drained.
    pub client_sockets_final: usize,
    /// Largest retransmission queue any socket ever held (entries).
    pub max_retx_queue: u64,
    /// Largest SACK scoreboard any socket ever held (ranges).
    pub max_scoreboard_ranges: u64,
    /// Virtual time at which the last event ran.
    pub completed_at: SimDuration,
    /// Per-origin request breakdown, sorted by origin. An origin is the
    /// authority of a resource URL (`10.0.0.3:8080`), i.e. one replay
    /// server — so a single hot or slow origin stands out instead of
    /// hiding inside the world-wide aggregates.
    pub per_origin: Vec<OriginBreakdown>,
}

/// One origin's share of a soak: request counts and the service-time
/// distribution (queued→finished per resource) of its successful
/// fetches.
#[derive(Debug, Clone)]
pub struct OriginBreakdown {
    /// URL authority (`host[:port]`) of the origin.
    pub origin: String,
    /// Resources requested from this origin (including failures).
    pub requests: u64,
    /// Requests that failed.
    pub failures: u64,
    /// Body bytes served by this origin.
    pub body_bytes: u64,
    /// Service-time percentiles (ms) over successful requests.
    pub svc_p50_ms: f64,
    pub svc_p95_ms: f64,
    pub svc_p99_ms: f64,
}

/// `http://10.0.0.3:8080/x/y` → `10.0.0.3:8080`.
fn origin_of(url: &str) -> &str {
    let rest = url.split_once("://").map_or(url, |(_, rest)| rest);
    rest.split('/').next().unwrap_or(rest)
}

/// Per-origin accumulator folded across sessions.
#[derive(Default)]
struct OriginAcc {
    requests: u64,
    failures: u64,
    body_bytes: u64,
    svc_ms: Vec<f64>,
}

/// Client host address for pool slot `i` (100.66/16 — clear of the
/// harness's 100.64.0/24 browser and the fleet's 100.64/16 plan).
fn slot_ip(i: usize) -> IpAddr {
    assert!(i < 200 * 200, "soak pool larger than the address plan");
    IpAddr::new(100, 66, (i / 200) as u8, (2 + i % 200) as u8)
}

/// Session counters registered up front so the exported snapshot shows
/// every series even when its count is zero.
struct SoakCounters {
    started: Counter,
    completed: Counter,
    shed: Counter,
    resources: Counter,
    failures: Counter,
}

/// The shared world: everything a session start/finish or maintenance
/// pass needs, behind one `Rc` threaded through simulator callbacks.
struct SoakWorld {
    world: World,
    root_url: String,
    /// End of the arrival window.
    end: Timestamp,
    /// Hard stop for the maintenance loop (`end + DRAIN_GRACE`).
    horizon: Timestamp,
    arrival: Exponential,
    rng: RefCell<RngStream>,
    reap_interval: SimDuration,
    registry: Registry,
    counters: SoakCounters,
    /// Pool slots not currently running a session.
    free_slots: RefCell<Vec<usize>>,
    /// Per-slot client hosts, created lazily and reused across sessions.
    client_hosts: RefCell<Vec<Option<Host>>>,
    /// Per-slot browser of the session in flight; dropped, pools and
    /// parsers with it, when the session finishes.
    browsers: RefCell<Vec<Option<Browser>>>,
    live: Cell<usize>,
    plts_ms: RefCell<Vec<f64>>,
    per_origin: RefCell<BTreeMap<String, OriginAcc>>,
    server_conn_high: Cell<usize>,
    client_socket_high: Cell<usize>,
    max_retx_queue: Cell<u64>,
    max_scoreboard_ranges: Cell<u64>,
}

impl SoakWorld {
    /// Admit one session if a pool slot is free; shed it otherwise.
    fn start_session(self: &Rc<Self>, sim: &mut Simulator) {
        let Some(slot) = self.free_slots.borrow_mut().pop() else {
            self.counters.shed.inc();
            return;
        };
        self.counters.started.inc();
        self.live.set(self.live.get() + 1);

        let host = {
            let mut hosts = self.client_hosts.borrow_mut();
            match &hosts[slot] {
                Some(h) => {
                    // Reused slot: drop the previous session's dead
                    // connections before piling new ones on.
                    h.reap_closed();
                    h.clone()
                }
                None => {
                    let h = self
                        .world
                        .host(&self.world.stack.innermost(), slot_ip(slot));
                    hosts[slot] = Some(h.clone());
                    h
                }
            }
        };

        let browser = Browser::new(
            host,
            self.world.resolver.clone(),
            self.world.browser.clone(),
        );
        self.browsers.borrow_mut()[slot] = Some(browser.clone());
        // The world owns the browser, so its completion callback only
        // refers back.
        let world = Rc::downgrade(self);
        browser.navigate(sim, &self.root_url, move |sim, r| {
            if let Some(world) = world.upgrade() {
                world.finish_session(sim, slot, r);
            }
        });
    }

    /// Session epilogue: account the load, close every client-side
    /// connection (driving the servers' FIN path so both ends reach
    /// `Closed` and become reapable), and free the slot.
    fn finish_session(self: &Rc<Self>, sim: &mut Simulator, slot: usize, r: PageLoadResult) {
        self.counters.completed.inc();
        self.counters.resources.add(r.resource_count() as u64);
        self.counters.failures.add(r.failures);
        self.registry
            .histogram(
                "soak_plt_seconds",
                "Session page-load-time distribution.",
                &LATENCY_BUCKETS_S,
            )
            .observe(r.plt.as_secs_f64());
        self.plts_ms.borrow_mut().push(r.plt.as_millis_f64());

        let mut per_origin = self.per_origin.borrow_mut();
        for timing in &r.resources {
            let origin = origin_of(&timing.url);
            if !per_origin.contains_key(origin) {
                per_origin.insert(origin.to_string(), OriginAcc::default());
            }
            let acc = per_origin.get_mut(origin).expect("just inserted");
            acc.requests += 1;
            if timing.failed {
                acc.failures += 1;
            } else {
                acc.body_bytes += timing.body_bytes;
                acc.svc_ms.push(
                    timing
                        .finished_at
                        .saturating_duration_since(timing.queued_at)
                        .as_millis_f64(),
                );
            }
        }
        drop(per_origin);

        let host = self.client_hosts.borrow()[slot]
            .clone()
            .expect("finished session must have a host");
        for id in host.socket_ids() {
            if let Some(h) = host.socket(id) {
                self.fold_socket_stats(&h);
                h.close(sim);
            }
        }

        self.browsers.borrow_mut()[slot] = None;
        self.live.set(self.live.get() - 1);
        self.free_slots.borrow_mut().push(slot);
    }

    /// Schedule the next Poisson arrival; the process stops once an
    /// arrival would land past the window.
    fn schedule_next_arrival(self: &Rc<Self>, sim: &mut Simulator) {
        let dt =
            SimDuration::from_secs_f64(self.arrival.sample(&mut self.rng.borrow_mut()).max(1e-6));
        let at = sim.now() + dt;
        if at >= self.end {
            return;
        }
        let world = self.clone();
        sim.schedule_at(at, move |sim| {
            world.start_session(sim);
            world.schedule_next_arrival(sim);
        });
    }

    /// Maintenance pass: sample occupancy into the high-water marks and
    /// gauges, fold per-socket stats, then reap closed connections on
    /// every host. Runs every `reap_interval` until the world drains
    /// (or the drain grace expires).
    fn maintain(self: &Rc<Self>, sim: &mut Simulator) {
        self.scan_and_reap();
        let now = sim.now();
        if now < self.horizon && (now < self.end || self.live.get() > 0) {
            let world = self.clone();
            sim.schedule_in(self.reap_interval, move |sim| world.maintain(sim));
        }
    }

    /// One occupancy sample + reap over the whole world. Closed sockets
    /// are scanned before removal, so lifetime stats are never lost.
    fn scan_and_reap(&self) {
        let mut server_conns = 0;
        for host in &self.world.shell.hosts {
            server_conns += host.socket_count();
            self.fold_host_stats(host);
            host.reap_closed();
        }
        let mut client_sockets = 0;
        for host in self.client_hosts.borrow().iter().flatten() {
            client_sockets += host.socket_count();
            self.fold_host_stats(host);
            host.reap_closed();
        }
        self.server_conn_high
            .set(self.server_conn_high.get().max(server_conns));
        self.client_socket_high
            .set(self.client_socket_high.get().max(client_sockets));
        self.registry
            .gauge(
                "soak_server_conns",
                "Server-side connection-table occupancy (sampled).",
            )
            .set(server_conns as f64);
        self.registry
            .gauge(
                "soak_client_sockets",
                "Client-pool socket occupancy (sampled).",
            )
            .set(client_sockets as f64);
        self.registry
            .gauge("soak_live_sessions", "Sessions currently in flight.")
            .set(self.live.get() as f64);
    }

    fn fold_host_stats(&self, host: &Host) {
        for id in host.socket_ids() {
            if let Some(h) = host.socket(id) {
                self.fold_socket_stats(&h);
            }
        }
    }

    fn fold_socket_stats(&self, h: &mm_net::TcpHandle) {
        let stats = h.stats();
        self.max_retx_queue
            .set(self.max_retx_queue.get().max(stats.max_retx_queue));
        self.max_scoreboard_ranges.set(
            self.max_scoreboard_ranges
                .get()
                .max(stats.max_scoreboard_ranges),
        );
    }

    /// Final server-side occupancy (post-drain, post-reap).
    fn server_conns_final(&self) -> usize {
        let hosts = &self.world.shell.hosts;
        hosts.iter().map(|h| h.socket_count()).sum()
    }

    /// Final client-pool occupancy (post-drain, post-reap).
    fn client_sockets_final(&self) -> usize {
        self.client_hosts
            .borrow()
            .iter()
            .flatten()
            .map(|h| h.socket_count())
            .sum()
    }
}

/// Run one soak world to completion, exporting everything observable
/// into `registry`.
pub fn run_soak(spec: &SoakSpec<'_>, registry: &Registry) -> SoakResult {
    assert!(
        spec.max_live_sessions >= 1,
        "a soak needs at least one slot"
    );
    assert!(
        spec.arrival_mean > SimDuration::ZERO,
        "arrival mean must be positive"
    );
    let mut sim = Simulator::new();
    // Event-loop profile: per-component dispatch counts and timer-heap
    // high-water, exported into the registry after the run. Profiling
    // only observes dispatch, so the soak is byte-identical either way.
    sim.enable_profiler();

    // The soak's registry joins the world's observer fan-outs: unless
    // the caller brought an explicit sink, every host's TCP stack
    // reports into it, and so do the link's qdiscs (sinks only observe,
    // so this changes nothing but the exported metrics). Per-phase
    // duration histograms (`soak_phase_*_seconds`): every session's
    // span stream feeds the registry instead of a buffer, so the soak's
    // Prometheus snapshot shows which phase's tail grows as offered
    // load approaches the knee.
    let world = World::build(
        &LoadSpec {
            replay: spec.replay.clone(),
            browser: spec.browser.clone(),
            tcp: spec.tcp.clone(),
            net: NetSpec {
                delay: spec.delay,
                link: spec.link.clone(),
                ..NetSpec::default()
            },
            seed: spec.seed,
            ..LoadSpec::new(spec.site)
        },
        Runner {
            timer_mux: true,
            metrics: Some(MetricsHandle::new(RegistrySink::new(registry.clone()))),
            span: Some(mm_trace::SpanHandle::new(Rc::new(
                crate::obs::PhaseSink::new(registry.clone(), "soak"),
            ))),
        },
    );

    // Pre-register the TCP counter families the sockets report into,
    // so the exported snapshot carries every series at zero instead of
    // omitting whichever events never fired during the run.
    for (name, help) in [
        ("tcp_retransmits_total", "Segments retransmitted."),
        ("tcp_fast_retransmits_total", "Fast-retransmit entries."),
        ("tcp_rto_total", "Retransmission timeouts fired."),
        ("tcp_tlp_fires_total", "Tail loss probes fired."),
        (
            "tcp_spurious_rto_undo_total",
            "Spurious timeouts detected and undone.",
        ),
    ] {
        registry.counter(name, help);
    }

    let counters = SoakCounters {
        started: registry.counter("soak_sessions_started_total", "Sessions admitted."),
        completed: registry.counter("soak_sessions_completed_total", "Sessions completed."),
        shed: registry.counter(
            "soak_sessions_shed_total",
            "Arrivals shed because the slot pool was exhausted.",
        ),
        resources: registry.counter("soak_resources_total", "Resources fetched."),
        failures: registry.counter("soak_failures_total", "Failed fetches."),
    };

    let end = Timestamp::ZERO + spec.duration;
    let world = Rc::new(SoakWorld {
        root_url: spec.site.root_url.clone(),
        end,
        horizon: end + DRAIN_GRACE,
        arrival: Exponential::with_mean(spec.arrival_mean.as_secs_f64()),
        rng: RefCell::new(world.rng.fork("soak-arrivals")),
        reap_interval: spec.reap_interval,
        registry: registry.clone(),
        counters,
        free_slots: RefCell::new((0..spec.max_live_sessions).rev().collect()),
        client_hosts: RefCell::new(vec![None; spec.max_live_sessions]),
        browsers: RefCell::new(vec![None; spec.max_live_sessions]),
        live: Cell::new(0),
        plts_ms: RefCell::new(Vec::new()),
        per_origin: RefCell::new(BTreeMap::new()),
        server_conn_high: Cell::new(0),
        client_socket_high: Cell::new(0),
        max_retx_queue: Cell::new(0),
        max_scoreboard_ranges: Cell::new(0),
        world,
    });

    // First session at t=0, then open-loop Poisson; maintenance on its
    // own clock.
    {
        let w = world.clone();
        sim.schedule_at(Timestamp::ZERO, move |sim| {
            w.start_session(sim);
            w.schedule_next_arrival(sim);
        });
        let w = world.clone();
        sim.schedule_in(spec.reap_interval, move |sim| w.maintain(sim));
    }
    sim.run();

    // Final sweep: catch anything that closed after the last pass.
    world.scan_and_reap();
    world.world.finish();

    if let Some(profile) = sim.profile() {
        profile.export(&RegistrySink::new(registry.clone()));
    }

    let per_origin: Vec<OriginBreakdown> = world
        .per_origin
        .borrow()
        .iter()
        .map(|(origin, acc)| {
            let mut svc = Summary::from_samples(acc.svc_ms.clone());
            let pct = |s: &mut Summary, p: f64| {
                if acc.svc_ms.is_empty() {
                    0.0
                } else {
                    s.percentile_interpolated(p)
                }
            };
            OriginBreakdown {
                origin: origin.clone(),
                requests: acc.requests,
                failures: acc.failures,
                body_bytes: acc.body_bytes,
                svc_p50_ms: pct(&mut svc, 50.0),
                svc_p95_ms: pct(&mut svc, 95.0),
                svc_p99_ms: pct(&mut svc, 99.0),
            }
        })
        .collect();
    for o in &per_origin {
        registry
            .gauge_with(
                "soak_origin_requests",
                "Resources requested from one origin.",
                &[("origin", &o.origin)],
            )
            .set(o.requests as f64);
        registry
            .gauge_with(
                "soak_origin_svc_p95_ms",
                "p95 service time (queued to finished) of one origin's requests.",
                &[("origin", &o.origin)],
            )
            .set(o.svc_p95_ms);
    }

    let mut plts = Summary::from_samples(world.plts_ms.borrow().clone());
    let pct = |s: &mut Summary, p: f64| {
        if world.plts_ms.borrow().is_empty() {
            0.0
        } else {
            s.percentile_interpolated(p)
        }
    };
    let completed_at = sim.now() - Timestamp::ZERO;
    let resources = world.counters.resources.get();
    let result = SoakResult {
        sessions_started: world.counters.started.get(),
        sessions_completed: world.counters.completed.get(),
        sessions_shed: world.counters.shed.get(),
        resources_fetched: resources,
        failures: world.counters.failures.get(),
        requests_per_sec: if completed_at > SimDuration::ZERO {
            resources as f64 / completed_at.as_secs_f64()
        } else {
            0.0
        },
        plt_p50_ms: pct(&mut plts, 50.0),
        plt_p95_ms: pct(&mut plts, 95.0),
        plt_p99_ms: pct(&mut plts, 99.0),
        server_conn_high_water: world.server_conn_high.get(),
        server_conns_final: world.server_conns_final(),
        client_socket_high_water: world.client_socket_high.get(),
        client_sockets_final: world.client_sockets_final(),
        max_retx_queue: world.max_retx_queue.get(),
        max_scoreboard_ranges: world.max_scoreboard_ranges.get(),
        completed_at,
        per_origin,
    };
    registry
        .gauge(
            "soak_server_conns_high_water",
            "High-water server connection-table occupancy.",
        )
        .set(result.server_conn_high_water as f64);
    registry
        .gauge(
            "soak_client_sockets_high_water",
            "High-water client-pool socket occupancy.",
        )
        .set(result.client_socket_high_water as f64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_corpus::{materialize, plan_site, SiteParams};

    fn small_site() -> StoredSite {
        let params = SiteParams {
            servers: Some(4),
            median_objects: 8.0,
            ..SiteParams::default()
        };
        let plan = plan_site(970, &params, &mut RngStream::from_seed(23));
        materialize(&plan)
    }

    fn short_spec(site: &StoredSite) -> SoakSpec<'_> {
        let mut spec = SoakSpec::new(site);
        spec.duration = SimDuration::from_secs(30);
        spec.arrival_mean = SimDuration::from_secs(2);
        spec.reap_interval = SimDuration::from_secs(5);
        spec.max_live_sessions = 8;
        spec.seed = 77;
        spec
    }

    #[test]
    fn soak_completes_and_drains() {
        let site = small_site();
        let registry = Registry::new();
        let r = run_soak(&short_spec(&site), &registry);
        assert!(r.sessions_started >= 5, "started {}", r.sessions_started);
        assert_eq!(r.sessions_started, r.sessions_completed);
        assert_eq!(r.failures, 0);
        assert!(r.resources_fetched > 0);
        assert!(r.plt_p50_ms > 0.0);
        assert!(r.server_conn_high_water > 0);
        // The leak check: once sessions drain and the reaper runs, the
        // connection tables must be empty again.
        assert_eq!(r.server_conns_final, 0, "server conns leaked");
        assert_eq!(r.client_sockets_final, 0, "client sockets leaked");
        // And the world must not have needed the drain grace.
        assert!(r.completed_at < SimDuration::from_secs(30) + DRAIN_GRACE);
        // Per-origin breakdown: every request lands in exactly one
        // origin bucket, each with a positive service-time tail.
        assert!(!r.per_origin.is_empty());
        let origin_requests: u64 = r.per_origin.iter().map(|o| o.requests).sum();
        assert_eq!(origin_requests, r.resources_fetched);
        for o in &r.per_origin {
            assert!(o.origin.contains('.'), "authority-shaped: {}", o.origin);
            assert!(o.svc_p95_ms >= o.svc_p50_ms);
            assert!(o.svc_p50_ms > 0.0);
        }
        let text = registry.encode();
        assert!(mm_metrics::validate_text(&text).is_ok());
        assert!(text.contains("soak_sessions_started_total"));
        assert!(text.contains("soak_plt_seconds_bucket"));
        assert!(text.contains("tcp_retransmits_total"));
        // Event-loop profile: per-component dispatch counters plus the
        // timer-heap high-water gauge.
        // (TCP timers route through the mux here — enable_timer_mux —
        // so the mux dispatcher tag is the one that fires.)
        assert!(text.contains("sim_events_timer_mux_total"));
        assert!(text.contains("sim_events_host_total"));
        assert!(text.contains("sim_events_delay_total"));
        assert!(text.contains("sim_heap_high_water_events"));
        assert!(text.contains("soak_origin_requests"));
        // Span layer → PhaseSink: per-phase duration histograms land in
        // the same registry, so the snapshot attributes where session
        // time goes (transfer vs queueing vs parse).
        assert!(text.contains("soak_phase_transfer_seconds_bucket"));
        assert!(text.contains("soak_phase_conn_setup_seconds_bucket"));
        assert!(text.contains("soak_phase_parse_seconds_bucket"));
    }

    #[test]
    fn origin_of_strips_scheme_and_path() {
        assert_eq!(origin_of("http://10.0.0.3:8080/x/y"), "10.0.0.3:8080");
        assert_eq!(origin_of("http://10.0.0.1/"), "10.0.0.1");
        assert_eq!(origin_of("10.0.0.1/x"), "10.0.0.1");
    }

    #[test]
    fn soak_is_deterministic() {
        let site = small_site();
        let a = run_soak(&short_spec(&site), &Registry::new());
        let b = run_soak(&short_spec(&site), &Registry::new());
        assert_eq!(a.sessions_started, b.sessions_started);
        assert_eq!(a.resources_fetched, b.resources_fetched);
        assert_eq!(a.plt_p50_ms, b.plt_p50_ms);
        assert_eq!(a.server_conn_high_water, b.server_conn_high_water);
    }

    #[test]
    fn overloaded_pool_sheds_arrivals() {
        let site = small_site();
        let mut spec = short_spec(&site);
        spec.duration = SimDuration::from_secs(5);
        spec.arrival_mean = SimDuration::from_millis(20);
        spec.max_live_sessions = 1;
        let r = run_soak(&spec, &Registry::new());
        assert!(r.sessions_shed > 0, "no shedding under 50/s on one slot");
        // Shed arrivals never entered the world.
        assert_eq!(r.sessions_started, r.sessions_completed);
    }
}
