//! Whole-world digests: each row runs one world with the conformance
//! auditor attached and folds the auditor's order-insensitive per-link
//! and per-connection digests, its event counts and the run's result
//! struct into one fnv1a64 `u64`, pinned to a recorded constant. A change
//! that moves one packet, one timestamp or one byte anywhere in the stack
//! (engine, shells, TCP, mux, replay, browser) splits the row naming the
//! world, in tier-1. `crates/mm-net/tests/wire_digest.rs` is the same
//! oracle for the TCP layer alone.
//!
//! The observed rows run their bare world with all four observers
//! attached (flow trace, capture, spans, audit) and must equal the bare
//! row's constant: observers only observe. One row folds the observer
//! artefacts themselves — capture, span and flow-trace JSONL — so what
//! the observers write is pinned byte for byte as well. The soak row also folds the
//! registry's Prometheus text, which pins the qdisc instruments' backlog
//! and sojourn histograms byte for byte.
//!
//! On a mismatch the assertion prints the value the row now reads. Only
//! a declared behaviour change re-records a constant, and says so.

use mahimahi::corpus;
use mahimahi::fleet::{run_fleet, CcMix, FleetResult, FleetSpec};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mahimahi::obs::Artefact;
use mahimahi::soak::{run_soak, SoakResult, SoakSpec};
use mm_audit::{parse_audit_jsonl, AuditReport, Auditor};
use mm_browser::{MuxConfig, PageLoadResult, ProtocolMode};
use mm_capture::{Capture, PacketEventKind};
use mm_metrics::{FlowTracer, MetricsHandle, Registry, RegistrySink};
use mm_net::TcpConfig;
use mm_record::StoredSite;
use mm_replay::ReplayMode;
use mm_sim::{RngStream, SimDuration};
use mm_trace::{cellular, constant_rate, CellularParams, TraceBuffer};
use mm_web::{live_think_time, HostProfile, LiveWebConfig};
use std::sync::{Mutex, MutexGuard};

const HTTP1_PAGE_LOAD: u64 = 0x69c6_2fa0_7c85_a266;
const MUX_CELLULAR_CODEL: u64 = 0x1469_574c_ff61_fd7a;
const FLEET_8_USERS: u64 = 0xebbe_9966_de7a_1b48;
const MUX_FLEET_8_USERS: u64 = 0x9ee1_4fa6_6bfa_6ba4;
const MUX_NO_THINK_TIME: u64 = 0x5f6a_8e30_60bb_c71e;
const DROPHEAD_PAGE_LOAD: u64 = 0x5bcf_82c9_4f8c_a1d0;
const PIE_PAGE_LOAD: u64 = 0x50bf_e238_fd37_029c;
const SOAK_DROPTAIL: u64 = 0xbd29_7d7f_4137_02c9;
const OBSERVER_ARTEFACTS: u64 = 0xad66_43af_a766_b01a;
const REPLAY_TOPOLOGIES: u64 = 0xccbc_5730_92ea_0157;
const TABLE1: u64 = 0x61e0_5cfa_4acb_d873;

/// Held by the rows that build worlds without an explicit auditor (the
/// soak and Table 1). The soak row's process-global audit channel is on
/// from its `enable` until its `take` ends the recording; rows run at
/// the same time, so without this lock a Table 1 world built inside that
/// window would report into the soak's audit.
static GLOBAL_CHANNELS: Mutex<()> = Mutex::new(());

/// Take [`GLOBAL_CHANNELS`], whether or not a row panicked holding it.
fn global_channels() -> MutexGuard<'static, ()> {
    GLOBAL_CHANNELS.lock().unwrap_or_else(|e| e.into_inner())
}

/// fnv1a64 over the little-endian bytes of everything folded in.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fold {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fold {
        self.bytes(&v.to_le_bytes())
    }

    fn str(&mut self, s: &str) -> &mut Fold {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Every scope digest and event count; the load id is claim-order
    /// dependent and left out, as the auditor's own digests leave it out.
    fn report(&mut self, report: &AuditReport) -> &mut Fold {
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.digests.keys().any(|k| k.starts_with("conn:")));
        for (scope, digest) in &report.digests {
            self.str(scope).u64(*digest);
        }
        self.u64(report.packets)
            .u64(report.samples)
            .u64(report.spans)
    }

    fn page(&mut self, r: &PageLoadResult) -> &mut Fold {
        self.u64(r.plt.as_nanos())
            .u64(r.total_body_bytes)
            .u64(r.failures);
        for t in &r.resources {
            self.str(&t.url)
                .u64(t.queued_at.as_nanos())
                .u64(t.finished_at.as_nanos())
                .u64(t.status as u64)
                .u64(t.body_bytes)
                .u64(t.failed as u64);
        }
        self
    }

    fn fleet(&mut self, r: &FleetResult) -> &mut Fold {
        for u in &r.users {
            self.str(&format!("{:?}", u.cc))
                .u64(u.plt_ms.to_bits())
                .u64(u.goodput_bps.to_bits())
                .u64(u.bulk_bytes);
        }
        self.u64(r.max_downlink_queue_packets as u64)
            .u64(r.max_uplink_queue_packets as u64)
            .u64(r.completed_at.as_nanos())
    }

    fn soak(&mut self, r: &SoakResult) -> &mut Fold {
        self.u64(r.sessions_started)
            .u64(r.sessions_completed)
            .u64(r.sessions_shed)
            .u64(r.resources_fetched)
            .u64(r.failures)
            .u64(r.requests_per_sec.to_bits())
            .u64(r.plt_p50_ms.to_bits())
            .u64(r.plt_p95_ms.to_bits())
            .u64(r.plt_p99_ms.to_bits())
            .u64(r.server_conn_high_water as u64)
            .u64(r.server_conns_final as u64)
            .u64(r.client_socket_high_water as u64)
            .u64(r.client_sockets_final as u64)
            .u64(r.max_retx_queue)
            .u64(r.max_scoreboard_ranges)
            .u64(r.completed_at.as_nanos());
        for o in &r.per_origin {
            self.str(&o.origin)
                .u64(o.requests)
                .u64(o.failures)
                .u64(o.body_bytes)
                .u64(o.svc_p50_ms.to_bits())
                .u64(o.svc_p95_ms.to_bits())
                .u64(o.svc_p99_ms.to_bits());
        }
        self
    }
}

/// The observer channels besides the auditor, attached to one load.
struct Observers {
    tracer: FlowTracer,
    capture: Capture,
    spans: std::rc::Rc<TraceBuffer>,
}

impl Observers {
    fn attach(spec: &mut LoadSpec<'_>) -> Observers {
        let tracer = FlowTracer::new();
        let sink = RegistrySink::with_tracer(Registry::new(), tracer.clone());
        spec.tcp = Some(
            TcpConfig::builder()
                .metrics(MetricsHandle::new(sink))
                .build(),
        );
        let capture = Capture::for_load(0);
        let spans = TraceBuffer::for_load(0);
        spec.capture = Some(capture.handle());
        spec.span = Some(spans.handle());
        Observers {
            tracer,
            capture,
            spans,
        }
    }

    /// Every channel saw the run.
    fn check(&self) {
        assert!(
            !self.tracer.take_jsonl().is_empty(),
            "flow trace saw nothing"
        );
        assert!(self.capture.packet_count() > 0, "capture saw nothing");
        assert!(!self.spans.spans().is_empty(), "span buffer saw nothing");
    }

    /// Fold the artefacts themselves: the capture's, the span buffer's
    /// and the flow trace's JSONL, each of which saw the run.
    fn fold_artefacts(&self, fold: &mut Fold) {
        let artefacts = [
            ("capture", self.capture.take_jsonl()),
            ("span buffer", self.spans.to_jsonl()),
            ("flow trace", self.tracer.take_jsonl()),
        ];
        for (channel, jsonl) in artefacts {
            assert!(!jsonl.is_empty(), "{channel} saw nothing");
            fold.str(&jsonl);
        }
    }
}

fn site(seed: u64) -> StoredSite {
    let params = corpus::SiteParams {
        servers: Some(3),
        median_objects: 12.0,
        ..corpus::SiteParams::default()
    };
    corpus::materialize(&corpus::plan_site(
        seed as usize,
        &params,
        &mut RngStream::from_seed(seed),
    ))
}

fn check(row: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{row}: digest now reads {got:#018x}");
}

/// The paper's measurement: HTTP/1.1 over a delay shell and a link shell,
/// here with a 24-packet droptail so loss recovery runs too. With
/// `observed`, every observer channel is attached as well, and returned.
fn http1_world(observed: bool) -> (u64, Option<Observers>) {
    let site = site(41);
    let auditor = Auditor::for_load(0);
    let mut spec = LoadSpec::new(&site);
    spec.net = NetSpec {
        delay: Some(SimDuration::from_millis(40)),
        link: Some(LinkSpec {
            uplink: constant_rate(4.0, 1_000),
            downlink: constant_rate(12.0, 1_000),
            qdisc: QdiscKind::DropTailPackets(24),
        }),
        ..NetSpec::default()
    };
    spec.seed = 9;
    spec.audit = Some(auditor.clone());
    let observers = observed.then(|| Observers::attach(&mut spec));
    let result = run_page_load(&spec);
    let digest = Fold::new().page(&result).report(&auditor.finish()).0;
    (digest, observers)
}

#[test]
fn http1_page_load() {
    check("http1_page_load", http1_world(false).0, HTTP1_PAGE_LOAD);
}

/// One mux connection per origin over a cellular trace with CoDel; with
/// `observed`, every observer channel is attached as well, and returned.
/// The replay servers think for `think_time` before each response.
fn mux_cellular_codel(observed: bool, think_time: SimDuration) -> (u64, Option<Observers>) {
    let site = site(23);
    let mut rng = RngStream::from_seed(2014);
    let params = CellularParams {
        mean_mbps: 6.0,
        ..CellularParams::default()
    };
    let auditor = Auditor::for_load(0);
    let mut spec = LoadSpec::new(&site);
    spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
    spec.replay.think_time = think_time;
    spec.net = NetSpec {
        delay: Some(SimDuration::from_millis(30)),
        link: Some(LinkSpec {
            uplink: cellular(&params, &mut rng),
            downlink: cellular(&params, &mut rng),
            qdisc: QdiscKind::Codel,
        }),
        ..NetSpec::default()
    };
    spec.seed = 5;
    spec.audit = Some(auditor.clone());
    let observers = observed.then(|| Observers::attach(&mut spec));
    let result = run_page_load(&spec);
    let digest = Fold::new().page(&result).report(&auditor.finish()).0;
    (digest, observers)
}

/// The replay servers' default think time.
const THINK_TIME: SimDuration = SimDuration::from_millis(25);

#[test]
fn mux_over_cellular_with_codel() {
    check(
        "mux_over_cellular_with_codel",
        mux_cellular_codel(false, THINK_TIME).0,
        MUX_CELLULAR_CODEL,
    );
}

#[test]
fn mux_over_cellular_with_codel_observed() {
    let (digest, observers) = mux_cellular_codel(true, THINK_TIME);
    observers.expect("observed").check();
    check(
        "mux_over_cellular_with_codel_observed",
        digest,
        MUX_CELLULAR_CODEL,
    );
}

/// The same world with servers that answer at once: the replay handler's
/// branch that responds inside the request's own event.
#[test]
fn mux_over_cellular_without_think_time() {
    check(
        "mux_over_cellular_without_think_time",
        mux_cellular_codel(false, SimDuration::ZERO).0,
        MUX_NO_THINK_TIME,
    );
}

/// The observer artefacts byte for byte: the HTTP/1.1 world and the mux
/// cellular CoDel world, each observed, fold their capture, span and
/// flow-trace JSONL. Each world's own digest must still equal its bare
/// row's constant.
#[test]
fn observer_artefacts() {
    let mut fold = Fold::new();
    let worlds = [
        ("http1_page_load", http1_world(true), HTTP1_PAGE_LOAD),
        (
            "mux_over_cellular_with_codel",
            mux_cellular_codel(true, THINK_TIME),
            MUX_CELLULAR_CODEL,
        ),
    ];
    for (row, (digest, observers), want) in worlds {
        check(row, digest, want);
        observers.expect("observed").fold_artefacts(&mut fold);
    }
    check("observer_artefacts", fold.0, OBSERVER_ARTEFACTS);
}

/// The replay topologies besides plain multi-origin, each audited: the
/// single-server ablation (Table 2, Figure 3) over HTTP/1.1 and over mux,
/// Figure 3's live-web arm, whose noise forks by server host index, and
/// Table 1's host profile, whose noise is labelled by it. One row folds
/// all four loads.
#[test]
fn replay_topologies() {
    // Three servers on ports 80, 443 and 80: the single server binds two.
    let site = site(33);
    let ports = |port| site.origins().iter().filter(|o| o.port == port).count();
    assert_eq!((ports(80), ports(443)), (2, 1));
    let delay_and_link = NetSpec {
        delay: Some(SimDuration::from_millis(30)),
        link: Some(LinkSpec {
            uplink: constant_rate(4.0, 1_000),
            downlink: constant_rate(12.0, 1_000),
            qdisc: QdiscKind::DropTailPackets(32),
        }),
        ..NetSpec::default()
    };
    let single_server = |protocol: ProtocolMode| {
        let mut spec = LoadSpec::new(&site);
        spec.replay.mode = ReplayMode::SingleServer;
        spec.browser.protocol = protocol;
        spec.net = delay_and_link.clone();
        spec
    };
    let live_web = {
        let mut spec = LoadSpec::new(&site);
        spec.live_web = Some(LiveWebConfig::default());
        spec.replay.think_time = live_think_time(&LiveWebConfig::default());
        spec.net = NetSpec::delay_ms(30);
        spec
    };
    let host_profile = {
        let mut spec = LoadSpec::new(&site);
        spec.host_profile = Some(HostProfile::machine_1());
        spec.net = NetSpec::delay_ms(30);
        spec
    };
    let loads = [
        single_server(ProtocolMode::default()),
        single_server(ProtocolMode::Mux(MuxConfig::default())),
        live_web,
        host_profile,
    ];
    let mut fold = Fold::new();
    for (seed, mut spec) in (0..).zip(loads) {
        let auditor = Auditor::for_load(0);
        spec.seed = 13 + seed;
        spec.audit = Some(auditor.clone());
        let result = run_page_load(&spec);
        assert_eq!(result.failures, 0);
        fold.page(&result).report(&auditor.finish());
    }
    check("replay_topologies", fold.0, REPLAY_TOPOLOGIES);
}

/// A loss shell that drops nothing is the same world as no loss shell:
/// over a delay shell and a 32-packet droptail link, each of four sites
/// loads to an equal result, and the auditor gives every connection the
/// same digest, with no violation on either side. Only the connection
/// digests are compared: the tap-point ones name the shells.
#[test]
fn lossless_loss_shell_is_no_loss_shell() {
    for seed in [7, 29, 101, 2014] {
        let stored = site(seed);
        let run = |loss: Option<(f64, f64)>| {
            let auditor = Auditor::for_load(0);
            let mut spec = LoadSpec::new(&stored);
            spec.net = NetSpec {
                delay: Some(SimDuration::from_millis(30)),
                link: Some(LinkSpec {
                    uplink: constant_rate(4.0, 1_000),
                    downlink: constant_rate(12.0, 1_000),
                    qdisc: QdiscKind::DropTailPackets(32),
                }),
                loss,
            };
            spec.seed = seed;
            spec.audit = Some(auditor.clone());
            let result = run_page_load(&spec);
            let report = auditor.finish();
            assert!(
                report.is_clean(),
                "site {seed}, loss {loss:?}: {:?}",
                report.violations
            );
            let conns: Vec<(String, u64)> = report
                .digests
                .into_iter()
                .filter(|(scope, _)| scope.starts_with("conn:"))
                .collect();
            assert!(!conns.is_empty(), "site {seed}: no connection digests");
            (format!("{result:?}"), conns)
        };
        let (bare, bare_conns) = run(None);
        let (lossless, lossless_conns) = run(Some((0.0, 0.0)));
        assert_eq!(bare, lossless, "site {seed}: the page load moved");
        assert_eq!(
            bare_conns, lossless_conns,
            "site {seed}: a connection moved"
        );
    }
}

/// Table 1 as its bin computes it, at 2 loads per (site, machine) cell:
/// each cell's site, machine and PLT samples, in load order. Its loads
/// take no explicit auditor, so they run under [`GLOBAL_CHANNELS`]: the
/// soak row's global audit must not see them.
#[test]
fn table1() {
    let _channels = global_channels();
    let result = bench::table1(2, 2014);
    assert_eq!(result.cells.len(), 4);
    let mut fold = Fold::new();
    for (site, machine, plts) in &result.cells {
        fold.str(site).str(machine);
        assert_eq!(plts.samples().len(), 2);
        for plt in plts.samples() {
            fold.u64(plt.to_bits());
        }
    }
    check("table1", fold.0, TABLE1);
}

/// Eight users sharing one bottleneck, each loading the page (over
/// HTTP/1.1, or one mux connection per origin with `mux`) beside a bulk
/// download: the multi-flow world with per-host timer muxes.
fn fleet_of_eight(qdisc: QdiscKind, cc_mix: CcMix, mux: bool) -> u64 {
    let site = site(17);
    let auditor = Auditor::for_load(0);
    let mut load = LoadSpec::new(&site);
    if mux {
        load.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
    }
    load.net = NetSpec {
        delay: Some(SimDuration::from_millis(20)),
        link: Some(LinkSpec {
            uplink: constant_rate(6.0, 1_000),
            downlink: constant_rate(20.0, 1_000),
            qdisc,
        }),
        ..NetSpec::default()
    };
    load.seed = 2014;
    load.audit = Some(auditor.clone());
    let result = run_fleet(&FleetSpec {
        load,
        n_users: 8,
        cc_mix,
        bulk_bytes: 200_000,
        arrival_window: SimDuration::from_millis(500),
    });
    Fold::new().fleet(&result).report(&auditor.finish()).0
}

/// Half BBR and half Reno bulk senders over droptail.
#[test]
fn fleet_of_eight_users() {
    let digest = fleet_of_eight(QdiscKind::DropTailPackets(32), CcMix::BbrRenoSplit, false);
    check("fleet_of_eight_users", digest, FLEET_8_USERS);
}

/// `fleet_64`'s second world scaled down: all-Reno users over CoDel, each
/// page loaded over mux.
#[test]
fn mux_fleet_of_eight_users() {
    let digest = fleet_of_eight(QdiscKind::Codel, CcMix::AllReno, true);
    check("mux_fleet_of_eight_users", digest, MUX_FLEET_8_USERS);
}

/// HTTP/1.1 through a queue that drops — drop-head evictions or PIE's
/// early drops — on a link tight enough that it must; with `observed`,
/// every observer channel is attached as well.
fn dropping_page_load(qdisc: QdiscKind, observed: bool) -> u64 {
    let site = site(31);
    let auditor = Auditor::for_load(0);
    let mut spec = LoadSpec::new(&site);
    spec.net = NetSpec {
        delay: Some(SimDuration::from_millis(20)),
        link: Some(LinkSpec {
            uplink: constant_rate(1.0, 1_000),
            downlink: constant_rate(3.0, 1_000),
            qdisc,
        }),
        ..NetSpec::default()
    };
    spec.seed = 11;
    spec.audit = Some(auditor.clone());
    let observers = observed.then(|| Observers::attach(&mut spec));
    let result = run_page_load(&spec);
    if let Some(observers) = observers {
        observers.check();
        let drops = observers
            .capture
            .data()
            .packets
            .iter()
            .any(|e| e.kind == PacketEventKind::Drop);
        assert!(drops, "{qdisc:?} dropped nothing");
    }
    Fold::new().page(&result).report(&auditor.finish()).0
}

#[test]
fn drophead_page_load() {
    let digest = dropping_page_load(QdiscKind::DropHeadPackets(8), false);
    check("drophead_page_load", digest, DROPHEAD_PAGE_LOAD);
}

#[test]
fn drophead_page_load_observed() {
    let digest = dropping_page_load(QdiscKind::DropHeadPackets(8), true);
    check("drophead_page_load_observed", digest, DROPHEAD_PAGE_LOAD);
}

#[test]
fn pie_page_load() {
    check(
        "pie_page_load",
        dropping_page_load(QdiscKind::Pie(3.0), false),
        PIE_PAGE_LOAD,
    );
}

#[test]
fn pie_page_load_observed() {
    let digest = dropping_page_load(QdiscKind::Pie(3.0), true);
    check("pie_page_load_observed", digest, PIE_PAGE_LOAD);
}

/// A soak world over a bounded droptail link, whose qdiscs report into
/// the soak's registry. It runs twice: bare, so the queue carries the
/// instruments alone, then audited through the process-global channel
/// (a soak has no explicit auditor). Both runs must read the same result
/// and the same registry text; the row folds the audited run's result,
/// its audit report and that text.
#[test]
fn soak_over_droptail() {
    let site = site(29);
    let spec = || {
        let mut spec = SoakSpec::new(&site);
        spec.link = Some(LinkSpec {
            uplink: constant_rate(2.0, 1_000),
            downlink: constant_rate(6.0, 1_000),
            qdisc: QdiscKind::DropTailPackets(16),
        });
        spec.arrival_mean = SimDuration::from_secs(1);
        spec.duration = SimDuration::from_secs(30);
        spec.max_live_sessions = 4;
        spec.seed = 3;
        spec
    };
    let bare = Registry::new();
    let bare_result = run_soak(&spec(), &bare);
    let _channels = global_channels();
    Artefact::Audit.enable();
    let registry = Registry::new();
    let result = run_soak(&spec(), &registry);
    let audit = parse_audit_jsonl(&Artefact::Audit.take()).expect("the auditor's own JSONL");
    let text = registry.encode();
    assert_eq!(bare.encode(), text, "the auditor moved the registry");
    let fold_result = |r: &SoakResult| Fold::new().soak(r).0;
    assert_eq!(fold_result(&bare_result), fold_result(&result));
    assert!(text.contains("qdisc_down_sojourn_seconds_count"));
    assert!(
        text.contains("qdisc_down_drops_total"),
        "the soak dropped nothing"
    );
    assert!(result.sessions_completed > 10, "{result:?}");
    assert_eq!(audit.loads, 1);
    assert!(
        audit.violations.is_empty(),
        "violations: {:?}",
        audit.violations
    );
    assert_eq!(audit.dropped_violations, 0);
    let mut fold = Fold::new();
    fold.soak(&result).str(&text);
    for (scope, digest) in &audit.digests {
        fold.str(scope).u64(*digest);
    }
    fold.u64(audit.packets).u64(audit.samples).u64(audit.spans);
    check("soak_over_droptail", fold.0, SOAK_DROPTAIL);
}
