//! End-to-end guarantees of the causal span layer through the full
//! harness stack (shells, sockets, mux, replay servers, browser):
//!
//! - the recorded span tree is well-formed (no orphan parents, phases
//!   tile each resource exactly, HTTP/1.1 transfers never overlap on
//!   one connection) and its critical path sums *exactly* to the
//!   measured PLT — under arbitrary loss, both protocols (proptest);
//! - mux loads over a lossy link record transport `hol_wait` spans
//!   (receive-side reassembly stalls — the HoL cost the paper's SPDY
//!   comparison is about), while a clean in-order link records none.
//!
//! That the sink only observes is `world_digest`'s observed rows.

mod common;

use common::{lossy_net, site};
use mahimahi::harness::{run_page_load, LoadSpec, NetSpec};
use mm_browser::{MuxConfig, ProtocolMode};
use mm_graph::{build_pages, critical_path, validate};
use mm_trace::{SpanKind, TraceBuffer};
use proptest::prelude::*;

/// Run one traced load and return (result, recorded spans).
fn traced_load(
    site: &mahimahi::record::StoredSite,
    net: NetSpec,
    mux: bool,
    seed: u64,
) -> (mm_browser::PageLoadResult, Vec<mm_trace::Span>) {
    let buf = TraceBuffer::for_load(1);
    let mut spec = LoadSpec::new(site);
    spec.net = net;
    spec.seed = seed;
    spec.span = Some(buf.handle());
    if mux {
        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
    }
    let r = run_page_load(&spec);
    assert_eq!(buf.dropped(), 0, "trace buffer overflowed");
    (r, buf.spans())
}

/// The tentpole invariant, checked for one traced load: well-formed
/// tree, and critical-path durations summing exactly (nanosecond-exact,
/// no epsilon) to the PLT the harness measured.
fn assert_path_sums_to_plt(result: &mm_browser::PageLoadResult, spans: &[mm_trace::Span]) {
    let pages = build_pages(spans);
    assert_eq!(pages.len(), 1, "one load must yield one page tree");
    let tree = &pages[0];
    let errs = validate(tree);
    assert!(errs.is_empty(), "malformed span tree: {errs:?}");
    assert_eq!(
        tree.plt_ns(),
        result.plt.as_nanos(),
        "page span duration must equal measured PLT"
    );
    let path = critical_path(tree);
    assert!(!path.is_empty());
    let sum: u64 = path.iter().map(|s| s.dur_ns()).sum();
    assert_eq!(
        sum,
        result.plt.as_nanos(),
        "critical path must sum exactly to PLT"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under arbitrary i.i.d. loss, with either protocol, the span
    /// tree stays well-formed and the critical path reproduces PLT
    /// exactly from spans alone.
    #[test]
    fn critical_path_sums_to_plt_under_loss(
        loss in prop_oneof![Just(0.0), 0.001f64..0.06],
        mux in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let site = site(17, 3, 12.0);
        let (result, spans) = traced_load(&site, lossy_net(loss), mux, seed);
        prop_assert_eq!(result.failures, 0);
        assert_path_sums_to_plt(&result, &spans);
    }
}

/// HTTP/1.1 well-formedness, explicitly: on any one connection the
/// transfer phases of distinct resources never overlap (the protocol
/// serializes request/response exchanges), which is exactly the
/// property mux trades away for fewer connections.
#[test]
fn http1_transfers_never_overlap_per_connection() {
    let site = site(23, 3, 12.0);
    let (result, spans) = traced_load(&site, lossy_net(0.03), false, 5);
    assert_path_sums_to_plt(&result, &spans);
    let mut per_conn: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in &spans {
        if s.kind == SpanKind::Transfer && s.conn != 0 {
            per_conn.entry(s.conn).or_default().push((s.t0_ns, s.t1_ns));
        }
    }
    assert!(!per_conn.is_empty());
    for (conn, mut windows) in per_conn {
        windows.sort_unstable();
        for pair in windows.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "conn {conn}: transfers {:?} and {:?} overlap",
                pair[0],
                pair[1]
            );
        }
    }
}

/// The mux head-of-line signal: over a lossy link the receive side
/// stalls on reassembly gaps and the socket records `hol_wait` spans;
/// over a clean in-order link the same load records none.
#[test]
fn mux_records_hol_wait_under_loss_but_not_clean() {
    let site = site(31, 3, 12.0);

    let (clean_result, clean_spans) = traced_load(&site, lossy_net(0.0), true, 3);
    assert_eq!(clean_result.failures, 0);
    let clean_hol = clean_spans
        .iter()
        .filter(|s| s.kind == SpanKind::HolWait)
        .count();
    assert_eq!(clean_hol, 0, "clean in-order link must have no HoL waits");

    let (lossy_result, lossy_spans) = traced_load(&site, lossy_net(0.05), true, 3);
    assert_eq!(lossy_result.failures, 0);
    let lossy_hol = lossy_spans
        .iter()
        .filter(|s| s.kind == SpanKind::HolWait)
        .count();
    assert!(
        lossy_hol > 0,
        "5% loss on a mux load must stall reassembly at least once"
    );
    // And those stalls are real time on the shared connection.
    assert!(lossy_spans
        .iter()
        .filter(|s| s.kind == SpanKind::HolWait)
        .all(|s| s.t1_ns > s.t0_ns && s.conn != 0));
}
