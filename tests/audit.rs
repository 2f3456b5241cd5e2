//! End-to-end guarantees of the conformance auditor through the full
//! harness stack (shells, qdiscs, sockets, mux, replay servers,
//! browser):
//!
//! - a real page load over loss — both protocols — satisfies every
//!   online invariant: conservation ledgers, qdisc cross-checks, TCP
//!   sender checks, HTTP byte accounting, span tiling;
//! - the equivalence digests are a fingerprint of simulated behavior:
//!   identical runs agree scope-for-scope, a perturbed run does not.
//!
//! That the auditor only observes, alone or beside a capture and a span
//! trace, is `world_digest`'s: its rows run with the auditor attached
//! against constants, the observed rows must equal them, and
//! `Observers::check` holds the auditor to the capture's packet count.

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
