//! Whole-world digests: each row runs one world with the conformance
//! auditor attached and folds the auditor's order-insensitive per-link
//! and per-connection digests, its event counts and the run's result
//! struct into one fnv1a64 `u64`, pinned to a recorded constant. A change
//! that moves one packet, one timestamp or one byte anywhere in the stack
//! (engine, shells, TCP, mux, replay, browser) splits the row naming the
//! world, in tier-1. `crates/mm-net/tests/wire_digest.rs` is the same
//! oracle for the TCP layer alone.
//!
//! The observed mux row runs the bare mux world with all four observers
//! attached (flow trace, capture, spans, audit) and must equal the bare
//! row's constant: observers only observe.
//!
//! On a mismatch the assertion prints the value the row now reads. Only
//! a declared behaviour change re-records a constant, and says so.

use mahimahi::corpus;
use mahimahi::fleet::{run_fleet, CcMix, FleetResult, FleetSpec};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mm_audit::{AuditReport, Auditor};
use mm_browser::{MuxConfig, PageLoadResult, ProtocolMode};
use mm_capture::Capture;
use mm_metrics::{FlowTracer, MetricsHandle, Registry, RegistrySink};
use mm_net::TcpConfig;
use mm_record::StoredSite;
use mm_sim::{RngStream, SimDuration};
use mm_trace::{cellular, constant_rate, CellularParams, TraceBuffer};

const HTTP1_PAGE_LOAD: u64 = 0x69c6_2fa0_7c85_a266;
const MUX_CELLULAR_CODEL: u64 = 0x1469_574c_ff61_fd7a;
const FLEET_8_USERS: u64 = 0xebbe_9966_de7a_1b48;

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
/// here with a 24-packet droptail so loss recovery runs too.
#[test]
fn http1_page_load() {
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
    let result = run_page_load(&spec);
    let digest = Fold::new().page(&result).report(&auditor.finish()).0;
    check("http1_page_load", digest, HTTP1_PAGE_LOAD);
}

/// One mux connection per origin over a cellular trace with CoDel; with
/// `observed`, every observer channel is attached as well.
fn mux_cellular_codel(observed: bool) -> u64 {
    let site = site(23);
    let mut rng = RngStream::from_seed(2014);
    let params = CellularParams {
        mean_mbps: 6.0,
        ..CellularParams::default()
    };
    let auditor = Auditor::for_load(0);
    let mut spec = LoadSpec::new(&site);
    spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
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
    let observers = observed.then(|| {
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
        (tracer, capture, spans)
    });
    let result = run_page_load(&spec);
    if let Some((tracer, capture, spans)) = observers {
        assert!(!tracer.take_jsonl().is_empty(), "flow trace saw nothing");
        assert!(capture.packet_count() > 0, "capture saw nothing");
        assert!(!spans.spans().is_empty(), "span buffer saw nothing");
    }
    Fold::new().page(&result).report(&auditor.finish()).0
}

#[test]
fn mux_over_cellular_with_codel() {
    check(
        "mux_over_cellular_with_codel",
        mux_cellular_codel(false),
        MUX_CELLULAR_CODEL,
    );
}

#[test]
fn mux_over_cellular_with_codel_observed() {
    check(
        "mux_over_cellular_with_codel_observed",
        mux_cellular_codel(true),
        MUX_CELLULAR_CODEL,
    );
}

/// Eight users, half BBR and half Reno bulk senders, sharing one
/// bottleneck: the multi-flow world with per-host timer muxes.
#[test]
fn fleet_of_eight_users() {
    let site = site(17);
    let auditor = Auditor::for_load(0);
    let mut load = LoadSpec::new(&site);
    load.net = NetSpec {
        delay: Some(SimDuration::from_millis(20)),
        link: Some(LinkSpec {
            uplink: constant_rate(6.0, 1_000),
            downlink: constant_rate(20.0, 1_000),
            qdisc: QdiscKind::DropTailPackets(32),
        }),
        ..NetSpec::default()
    };
    load.seed = 2014;
    load.audit = Some(auditor.clone());
    let result = run_fleet(&FleetSpec {
        load,
        n_users: 8,
        cc_mix: CcMix::BbrRenoSplit,
        bulk_bytes: 200_000,
        arrival_window: SimDuration::from_millis(500),
    });
    let digest = Fold::new().fleet(&result).report(&auditor.finish()).0;
    check("fleet_of_eight_users", digest, FLEET_8_USERS);
}
