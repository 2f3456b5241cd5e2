//! End-to-end guarantees of the conformance auditor through the full
//! harness stack (shells, qdiscs, sockets, mux, replay servers,
//! browser):
//!
//! - the auditor only observes: PLT and the fetch ledger are identical
//!   with auditing on and off, and unchanged when the auditor shares
//!   its hooks with a live capture and span trace (the fanout path);
//! - a real page load over loss — both protocols — satisfies every
//!   online invariant: conservation ledgers, qdisc cross-checks, TCP
//!   sender checks, HTTP byte accounting, span tiling;
//! - the equivalence digests are a fingerprint of simulated behavior:
//!   identical runs agree scope-for-scope, a perturbed run does not.

mod common;

use common::{lossy_net, site};
use mahimahi::harness::{run_page_load, LoadSpec, NetSpec};
use mm_audit::{AuditReport, Auditor};
use mm_browser::{MuxConfig, ProtocolMode};

/// Run one audited load and return (result, finished report).
fn audited_load(
    site: &mahimahi::record::StoredSite,
    net: NetSpec,
    mux: bool,
    seed: u64,
) -> (mm_browser::PageLoadResult, AuditReport) {
    let auditor = Auditor::for_load(seed);
    let mut spec = LoadSpec::new(site);
    spec.net = net;
    spec.seed = seed;
    spec.audit = Some(auditor.clone());
    if mux {
        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
    }
    let r = run_page_load(&spec);
    (r, auditor.finish())
}

/// The auditor must only observe, and a correct stack must audit
/// clean: same PLT with auditing on and off, zero violations, and
/// digests covering both link directions and at least one connection.
#[test]
fn audited_load_is_byte_identical_and_clean() {
    let site = site(41, 3, 12.0);
    for mux in [false, true] {
        let mut plain = LoadSpec::new(&site);
        plain.net = lossy_net(0.02);
        plain.seed = 9;
        if mux {
            plain.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        }
        let off = run_page_load(&plain);
        let (on, report) = audited_load(&site, lossy_net(0.02), mux, 9);
        assert_eq!(off.plt, on.plt, "auditor perturbed the load (mux={mux})");
        assert_eq!(off.resource_count(), on.resource_count());
        assert_eq!(off.total_body_bytes, on.total_body_bytes);
        assert!(
            report.is_clean(),
            "violations (mux={mux}): {:?}",
            report.violations
        );
        assert!(report.packets > 0, "auditor saw no packet events");
        assert!(report.samples > 0, "auditor saw no TCP samples");
        assert!(report.spans > 0, "auditor saw no spans");
        assert!(report.digests.keys().any(|k| k.ends_with("-up")));
        assert!(report.digests.keys().any(|k| k.ends_with("-down")));
        assert!(report.digests.keys().any(|k| k.starts_with("conn:")));
    }
}

/// Digests are an order-insensitive fingerprint of simulated behavior:
/// two identical runs agree on every scope; changing the seed changes
/// them.
#[test]
fn equivalence_digests_match_identical_runs_and_split_different_ones() {
    let site = site(17, 3, 12.0);
    let (_, a) = audited_load(&site, lossy_net(0.03), true, 5);
    let (_, b) = audited_load(&site, lossy_net(0.03), true, 5);
    assert!(a.is_clean() && b.is_clean());
    assert!(!a.digests.is_empty());
    assert_eq!(a.digests, b.digests, "identical runs must agree");
    let (_, c) = audited_load(&site, lossy_net(0.03), true, 6);
    assert_ne!(a.digests, c.digests, "a different seed must not collide");
}

/// The fanout path: the auditor rides the same hooks as a live capture
/// and span trace without displacing either — all three observers see
/// their streams, and the load is still byte-identical.
#[test]
fn auditor_composes_with_capture_and_trace() {
    let site = site(23, 3, 12.0);
    let mut plain = LoadSpec::new(&site);
    plain.net = lossy_net(0.02);
    plain.seed = 3;
    let off = run_page_load(&plain);

    let auditor = Auditor::for_load(3);
    let cap = mm_capture::Capture::new();
    let buf = mm_trace::TraceBuffer::for_load(1);
    let mut spec = LoadSpec::new(&site);
    spec.net = lossy_net(0.02);
    spec.seed = 3;
    spec.capture = Some(cap.handle());
    spec.span = Some(buf.handle());
    spec.audit = Some(auditor.clone());
    let on = run_page_load(&spec);

    assert_eq!(off.plt, on.plt, "observer stack perturbed the load");
    let report = auditor.finish();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    let data = cap.data();
    assert!(!data.packets.is_empty(), "capture lost its packet stream");
    assert!(!buf.spans().is_empty(), "trace buffer lost its spans");
    // Both observers counted the same packet stream.
    assert_eq!(report.packets, data.packets.len() as u64);
}
