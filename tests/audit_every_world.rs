//! Every world the repo can build is reachable by every observer, and
//! audits clean (DESIGN.md §6).
//!
//! `run_page_load`, `run_fleet` and `run_soak` build their worlds with
//! one builder, so the explicit observer handles on a spec and the
//! process-global channels behind `--trace-out`/`--capture-out`/
//! `--span-out`/`--audit-out` must reach a fleet and a soak exactly as
//! they reach a page load — and must only observe.
//!
//! The channels are process-global and stay on from `enable` until
//! `take`, so this file is a test binary of its own with ONE `#[test]`
//! that runs its stages in a fixed order: everything that needs the
//! channels off first, then the stages that turn them on.

use mahimahi::corpus;
use mahimahi::fleet::{run_fleet, CcMix, FleetSpec};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mahimahi::obs::Artefact;
use mahimahi::soak::{run_soak, SoakSpec};
use mm_audit::{parse_audit_jsonl, Auditor};
use mm_browser::{MuxConfig, ProtocolMode};
use mm_capture::Capture;
use mm_metrics::{FlowTracer, MetricsHandle, Registry, RegistrySink};
use mm_net::TcpConfig;
use mm_record::StoredSite;
use mm_sim::{RngStream, SimDuration};
use mm_trace::{constant_rate, SpanKind, TraceBuffer};

const ALL: [Artefact; 4] = [
    Artefact::Trace,
    Artefact::Capture,
    Artefact::Span,
    Artefact::Audit,
];

fn small_site() -> StoredSite {
    let params = corpus::SiteParams {
        servers: Some(4),
        median_objects: 10.0,
        ..corpus::SiteParams::default()
    };
    corpus::materialize(&corpus::plan_site(
        960,
        &params,
        &mut RngStream::from_seed(17),
    ))
}

fn bottleneck() -> LinkSpec {
    LinkSpec {
        uplink: constant_rate(6.0, 1_000),
        downlink: constant_rate(20.0, 1_000),
        qdisc: QdiscKind::DropTailPackets(32),
    }
}

fn fleet_spec(site: &StoredSite) -> FleetSpec<'_> {
    let mut load = LoadSpec::new(site);
    load.net = NetSpec {
        delay: Some(SimDuration::from_millis(20)),
        link: Some(bottleneck()),
        ..NetSpec::default()
    };
    load.seed = 2014;
    FleetSpec {
        load,
        n_users: 8,
        cc_mix: CcMix::BbrRenoSplit,
        bulk_bytes: 200_000,
        arrival_window: SimDuration::from_millis(500),
    }
}

fn soak_spec(site: &StoredSite) -> SoakSpec<'_> {
    let mut spec = SoakSpec::new(site);
    spec.link = Some(bottleneck());
    spec.duration = SimDuration::from_secs(20);
    spec.arrival_mean = SimDuration::from_secs(2);
    spec.max_live_sessions = 8;
    spec.seed = 77;
    spec
}

/// (a) The observers on a fleet's embedded `LoadSpec` see the whole
/// shared world, perturb nothing, and the world audits clean — including
/// span tiling across users whose resource indices alias.
fn fleet_honours_the_observers_on_its_load_spec(site: &StoredSite) {
    let bare = run_fleet(&fleet_spec(site));

    let auditor = Auditor::for_load(0);
    let capture = Capture::for_load(0);
    let spans = TraceBuffer::for_load(0);
    let mut spec = fleet_spec(site);
    spec.load.audit = Some(auditor.clone());
    spec.load.capture = Some(capture.handle());
    spec.load.span = Some(spans.handle());
    let observed = run_fleet(&spec);

    assert_eq!(
        format!("{bare:?}"),
        format!("{observed:?}"),
        "observers perturbed the fleet"
    );
    let report = auditor.finish();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(report.samples > 0, "auditor saw no TCP samples");
    for dir in ["-up", "-down"] {
        assert!(
            report
                .digests
                .keys()
                .any(|k| k.starts_with("link") && k.ends_with(dir)),
            "no bottleneck digest for {dir}: {:?}",
            report.digests.keys()
        );
    }
    assert!(capture.packet_count() > 0, "capture saw no packets");
    assert!(capture.http_count() > 0, "capture saw no requests");
    let pages = spans
        .spans()
        .into_iter()
        .filter(|s| s.kind == SpanKind::Page);
    assert_eq!(pages.count(), 8, "one page span per user");
}

/// (c) A mux soak's servers carry the mux deployment's initial window,
/// as a mux page load's and a mux fleet's do: the default world differs
/// from one on stock TCP. (Which hosts carry it is `world.rs`'s unit
/// test.)
fn mux_soak_servers_carry_the_mux_initial_window(site: &StoredSite) {
    let soak = |mux: MuxConfig| {
        let mut spec = soak_spec(site);
        spec.browser.protocol = ProtocolMode::Mux(mux);
        format!("{:?}", run_soak(&spec, &Registry::new()))
    };
    let stock = MuxConfig {
        server_initial_cwnd_segments: None,
        ..MuxConfig::default()
    };
    assert_ne!(
        soak(MuxConfig::default()),
        soak(stock),
        "IW is invisible on this site"
    );
}

/// (b) The global audit and span channels reach a soak, change nothing
/// it measures or exports, and its one report is clean with all three
/// event streams present.
fn global_channels_reach_a_soak(site: &StoredSite) {
    let run = || {
        let registry = Registry::new();
        let result = run_soak(&soak_spec(site), &registry);
        (format!("{result:?}"), registry.encode())
    };
    let off = run();
    Artefact::Audit.enable();
    Artefact::Span.enable();
    let on = run();
    assert_eq!(off.0, on.0, "channels perturbed the soak");
    assert_eq!(off.1, on.1, "channels changed the soak's own snapshot");

    let audit = parse_audit_jsonl(&Artefact::Audit.take()).expect("audit JSONL parses");
    assert_eq!(audit.loads, 1, "one world, one report");
    assert!(audit.violations.is_empty(), "{:?}", audit.violations);
    assert_eq!(audit.dropped_violations, 0);
    assert!(audit.packets > 0 && audit.samples > 0 && audit.spans > 0);
    let spans = Artefact::Span.take();
    assert!(spans.contains("\"kind\":\"page\""), "no browser spans");
    assert!(spans.contains("\"kind\":\"conn\""), "no TCP spans");
}

/// (d) A page load under each of the four global channels writes what
/// an explicit recorder with the same id holds. Taking a channel ends
/// its recording: a load after the takes leaves every channel empty.
/// And explicit handles win: with the channels on again, a load whose
/// spec carries all four leaves them untouched.
fn page_load_writes_every_global_channel(site: &StoredSite) {
    let spec = |site| {
        let mut spec = LoadSpec::new(site);
        spec.net = NetSpec {
            delay: Some(SimDuration::from_millis(20)),
            link: Some(bottleneck()),
            loss: Some((0.01, 0.01)),
        };
        spec.seed = 42;
        spec
    };
    // (b)'s takes turned Audit and Span off again.
    ALL.iter().for_each(|a| a.enable());
    let global = run_page_load(&spec(site));
    let written = ALL.map(Artefact::take);
    run_page_load(&spec(site));
    for artefact in ALL {
        assert!(
            artefact.take().is_empty(),
            "{artefact:?}: recorded after its take"
        );
    }
    assert!(written[0].contains("\"cwnd\""), "no flow samples");
    for ev in ["link", "pkt", "http"] {
        assert!(written[1].contains(&format!("\"ev\":\"{ev}\"")), "no {ev}");
    }

    // The ids the global claims handed out: the first capture, and the
    // second span buffer and auditor (the soak above took the first).
    let tracer = FlowTracer::new();
    let sink = RegistrySink::with_tracer(Registry::new(), tracer.clone());
    let capture = Capture::for_load(0);
    let spans = TraceBuffer::for_load(1);
    let auditor = Auditor::for_load(1);
    let mut explicit = spec(site);
    explicit.tcp = Some(
        TcpConfig::builder()
            .metrics(MetricsHandle::new(sink))
            .build(),
    );
    explicit.capture = Some(capture.handle());
    explicit.span = Some(spans.handle());
    explicit.audit = Some(auditor.clone());
    ALL.iter().for_each(|a| a.enable());
    let local = run_page_load(&explicit);

    assert_eq!(global.plt, local.plt);
    let held = [
        tracer.take_jsonl(),
        capture.take_jsonl(),
        spans.to_jsonl(),
        auditor.finish().to_jsonl(),
    ];
    for (artefact, (written, held)) in ALL.iter().zip(written.iter().zip(&held)) {
        assert!(!held.is_empty(), "{artefact:?}: explicit recorder is empty");
        assert!(written == held, "{artefact:?}: global output differs");
        assert!(
            artefact.take().is_empty(),
            "{artefact:?}: explicit must win"
        );
    }
    assert!(parse_audit_jsonl(&held[3]).unwrap().violations.is_empty());
}

#[test]
fn every_world_is_observable_and_audits_clean() {
    let site = small_site();
    fleet_honours_the_observers_on_its_load_spec(&site);
    mux_soak_servers_carry_the_mux_initial_window(&site);
    global_channels_reach_a_soak(&site);
    page_load_writes_every_global_channel(&site);
}
