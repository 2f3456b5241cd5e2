//! Every world the repo can build is reachable by every observer, and
//! audits clean (DESIGN.md §6).
//!
//! `run_page_load`, `run_fleet` and `run_soak` build their worlds with
//! one builder, so the explicit observer handles on a spec and the
//! [`Recording`] behind `--trace-out`/`--capture-out`/`--span-out`/
//! `--audit-out` must reach a fleet and a soak exactly as they reach a
//! page load — and must only observe. Each test records into a
//! recording of its own, so they run at the same time, and two
//! recordings filled at once must each read as if filled alone.

mod common;

use common::{site, Observers, ALL};
use mahimahi::fleet::{run_fleet, CcMix, FleetSpec};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mahimahi::obs::{Artefact, Recording};
use mahimahi::soak::{run_soak, SoakSpec};
use mm_audit::{parse_audit_jsonl, Auditor};
use mm_browser::{MuxConfig, ProtocolMode};
use mm_capture::Capture;
use mm_metrics::Registry;
use mm_record::StoredSite;
use mm_sim::SimDuration;
use mm_trace::{constant_rate, SpanKind, TraceBuffer};

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

/// A page load through loss and a bottleneck, recording into
/// `recording`.
fn lossy_load<'a>(
    site: &'a StoredSite,
    seed: u64,
    recording: Option<&'a Recording>,
) -> LoadSpec<'a> {
    let mut spec = LoadSpec::new(site);
    spec.net = NetSpec {
        delay: Some(SimDuration::from_millis(20)),
        link: Some(bottleneck()),
        loss: Some((0.01, 0.01)),
    };
    spec.seed = seed;
    spec.recording = recording;
    spec
}

/// The observers on a fleet's embedded `LoadSpec` see the whole shared
/// world, perturb nothing, and the world audits clean — including span
/// tiling across users whose resource indices alias.
#[test]
fn fleet_honours_the_observers_on_its_load_spec() {
    let site = &site(17, 4, 10.0);
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

/// A mux soak's servers carry the mux deployment's initial window, as a
/// mux page load's and a mux fleet's do: the default world differs from
/// one on stock TCP. (Which hosts carry it is `world.rs`'s unit test.)
#[test]
fn mux_soak_servers_carry_the_mux_initial_window() {
    let site = &site(17, 4, 10.0);
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

/// A recording's audit and spans reach a soak, change nothing it
/// measures or exports, and its one report is clean with all three event
/// streams present.
#[test]
fn a_recording_reaches_a_soak() {
    let site = &site(17, 4, 10.0);
    let run = |recording| {
        let registry = Registry::new();
        let mut spec = soak_spec(site);
        spec.recording = recording;
        let result = run_soak(&spec, &registry);
        (format!("{result:?}"), registry.encode())
    };
    let off = run(None);
    let recording = Recording::of(&[Artefact::Audit, Artefact::Span]);
    let on = run(Some(&recording));
    assert_eq!(off.0, on.0, "the recording perturbed the soak");
    assert_eq!(off.1, on.1, "the recording changed the soak's own snapshot");

    let [trace, capture, spans, audit] = recording.into_jsonl();
    assert!(
        trace.is_empty() && capture.is_empty(),
        "not in the recording"
    );
    let audit = parse_audit_jsonl(&audit).expect("audit JSONL parses");
    assert_eq!(audit.loads, 1, "one world, one report");
    assert!(audit.violations.is_empty(), "{:?}", audit.violations);
    assert_eq!(audit.dropped_violations, 0);
    assert!(audit.packets > 0 && audit.samples > 0 && audit.spans > 0);
    assert!(spans.contains("\"kind\":\"page\""), "no browser spans");
    assert!(spans.contains("\"kind\":\"conn\""), "no TCP spans");
}

/// A page load writes into each of its recording's four artefacts what
/// an explicit recorder with the same id holds. And explicit handles
/// win: a load whose spec carries all four leaves its recording empty.
#[test]
fn a_page_load_writes_every_artefact_of_its_recording() {
    let site = &site(17, 4, 10.0);
    let recording = Recording::of(&ALL);
    let recorded = run_page_load(&lossy_load(site, 42, Some(&recording)));
    let written = recording.into_jsonl();
    assert!(written[0].contains("\"cwnd\""), "no flow samples");
    for ev in ["link", "pkt", "http"] {
        assert!(written[1].contains(&format!("\"ev\":\"{ev}\"")), "no {ev}");
    }

    // A fresh recording's first claim is id 0.
    let unused = Recording::of(&ALL);
    let mut explicit = lossy_load(site, 42, Some(&unused));
    let observers = Observers::attach(&mut explicit);
    let local = run_page_load(&explicit);

    assert_eq!(recorded.plt, local.plt);
    let held = [
        observers.tracer.take_jsonl(),
        observers.capture.take_jsonl(),
        observers.spans.to_jsonl(),
        observers.auditor.finish().to_jsonl(),
    ];
    let untouched = unused.into_jsonl();
    for (i, artefact) in ALL.iter().enumerate() {
        assert!(
            !held[i].is_empty(),
            "{artefact:?}: explicit recorder is empty"
        );
        assert!(
            written[i] == held[i],
            "{artefact:?}: recorded output differs"
        );
        assert!(untouched[i].is_empty(), "{artefact:?}: explicit must win");
    }
    assert!(parse_audit_jsonl(&held[3]).unwrap().violations.is_empty());
}

/// Three recorded page loads through loss and a bottleneck, one after
/// another, into a recording of their own: its four JSONL texts.
fn three_recorded_loads(site: &StoredSite, seed: u64) -> [String; 4] {
    let recording = Recording::of(&ALL);
    for i in 0..3 {
        run_page_load(&lossy_load(site, seed + i, Some(&recording)));
    }
    recording.into_jsonl()
}

/// Measurement is isolated (the paper's namespaces are "separate from
/// ... every other namespace"): two threads filling their own
/// recordings at the same time each write exactly what the same thread
/// writes alone.
#[test]
fn two_recordings_filled_at_once_are_isolated() {
    let site = &site(17, 4, 10.0);
    let alone = [7, 70].map(|seed| three_recorded_loads(site, seed));
    let together = std::thread::scope(|s| {
        [7, 70]
            .map(|seed| s.spawn(move || three_recorded_loads(site, seed)))
            .map(|thread| thread.join().expect("recording thread panicked"))
    });
    for (alone, together) in alone.iter().zip(&together) {
        for (i, artefact) in ALL.iter().enumerate() {
            assert!(!alone[i].is_empty(), "{artefact:?}: nothing recorded");
            assert!(alone[i] == together[i], "{artefact:?}: recordings mixed");
        }
    }
    assert!(alone[0] != alone[1], "the two threads load alike");
}
