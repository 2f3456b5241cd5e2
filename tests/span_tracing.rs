//! End-to-end guarantees of the causal span layer through the full
//! harness stack (shells, sockets, mux, replay servers, browser):
//!
//! - the sink only observes: PLT is identical with a live `TraceBuffer`
//!   attached and with tracing off entirely;
//! - the recorded span tree is well-formed (no orphan parents, phases
//!   tile each resource exactly, HTTP/1.1 transfers never overlap on
//!   one connection) and its critical path sums *exactly* to the
//!   measured PLT — under arbitrary loss, both protocols (proptest);
//! - mux loads over a lossy link record transport `hol_wait` spans
//!   (receive-side reassembly stalls — the HoL cost the paper's SPDY
//!   comparison is about), while a clean in-order link records none.

use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec};
use mahimahi::{corpus, trace};
use mm_browser::{MuxConfig, ProtocolMode};
use mm_path::{build_pages, critical_path, validate};
use mm_sim::{RngStream, SimDuration};
use mm_trace::{SpanKind, TraceBuffer};
use proptest::prelude::*;

fn small_site(seed: u64) -> mahimahi::record::StoredSite {
    let params = corpus::SiteParams {
        servers: Some(3),
        median_objects: 12.0,
        ..corpus::SiteParams::default()
    };
    let plan = corpus::plan_site(seed as usize, &params, &mut RngStream::from_seed(seed));
    corpus::materialize(&plan)
}

fn lossy_net(loss: f64) -> NetSpec {
    NetSpec {
        delay: Some(SimDuration::from_millis(40)),
        link: Some(LinkSpec::symmetric(trace::constant_rate(12.0, 1_500))),
        loss: if loss > 0.0 { Some((loss, loss)) } else { None },
    }
}

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

/// The sink must only observe: attaching a live buffer cannot move a
/// single simulated event, so PLT and the fetch ledger are identical
/// with tracing on and off.
#[test]
fn traced_load_is_byte_identical_to_untraced() {
    let site = small_site(41);
    for mux in [false, true] {
        let mut plain = LoadSpec::new(&site);
        plain.net = lossy_net(0.02);
        plain.seed = 9;
        if mux {
            plain.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        }
        let off = run_page_load(&plain);
        let (on, spans) = traced_load(&site, lossy_net(0.02), mux, 9);
        assert_eq!(off.plt, on.plt, "span sink perturbed the load (mux={mux})");
        assert_eq!(off.resource_count(), on.resource_count());
        assert_eq!(off.total_body_bytes, on.total_body_bytes);
        assert!(!spans.is_empty());
    }
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
        let site = small_site(17);
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
    let site = small_site(23);
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
    let site = small_site(31);

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
