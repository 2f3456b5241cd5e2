//! The protocol-comparison workload end to end: HTTP/1.1 vs the mm-mux
//! multiplexed transport through the full harness, checking the paper's
//! qualitative SPDY claim — multiplexing wins where round trips
//! dominate — plus determinism and the sharded-experiment equivalence.

use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec};
use mahimahi::{corpus, trace};
use mm_browser::{MuxConfig, ProtocolMode};
use mm_sim::{RngStream, SimDuration};

/// A high-RTT, many-small-objects site on few origins: the workload
/// where HTTP/1.1's one-request-per-connection rounds dominate PLT.
fn many_small_objects_site() -> mahimahi::record::StoredSite {
    let params = corpus::SiteParams {
        servers: Some(4),
        median_objects: 60.0,
        ..corpus::SiteParams::default()
    };
    let plan = corpus::plan_site(77, &params, &mut RngStream::from_seed(77));
    corpus::materialize(&plan)
}

fn high_rtt_net() -> NetSpec {
    NetSpec {
        delay: Some(SimDuration::from_millis(200)), // 400 ms RTT
        link: Some(LinkSpec::symmetric(trace::constant_rate(14.0, 2_000))),
        ..NetSpec::default()
    }
}

#[test]
fn mux_beats_http1_on_high_rtt_many_small_objects() {
    let site = many_small_objects_site();
    let mut h1 = LoadSpec::new(&site);
    h1.net = high_rtt_net();
    h1.seed = 7;
    let http1 = run_page_load(&h1);

    let mut mx = LoadSpec::new(&site);
    mx.net = high_rtt_net();
    mx.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
    mx.seed = 7;
    let mux = run_page_load(&mx);

    assert_eq!(http1.failures, 0);
    assert_eq!(mux.failures, 0);
    assert_eq!(
        http1.resource_count(),
        mux.resource_count(),
        "both protocols must fetch the same dependency closure"
    );
    assert_eq!(http1.total_body_bytes, mux.total_body_bytes);
    assert!(
        mux.plt < http1.plt,
        "mux {} must beat HTTP/1.1 {} when request rounds dominate",
        mux.plt,
        http1.plt
    );
}

#[test]
fn mux_load_is_deterministic() {
    let site = many_small_objects_site();
    let run = || {
        let mut spec = LoadSpec::new(&site);
        spec.net = high_rtt_net();
        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        spec.seed = 11;
        run_page_load(&spec).plt
    };
    assert_eq!(run(), run());
}

#[test]
fn mux_stock_tcp_ablation_still_completes() {
    // With the SPDY-era server IW raise disabled, the comparison runs on
    // stock TCP both sides and still completes cleanly.
    let site = many_small_objects_site();
    let mut spec = LoadSpec::new(&site);
    spec.net = high_rtt_net();
    spec.browser.protocol = ProtocolMode::Mux(MuxConfig {
        server_initial_cwnd_segments: None,
        ..MuxConfig::default()
    });
    spec.seed = 7;
    let r = run_page_load(&spec);
    assert_eq!(r.failures, 0);
}

/// The sharded fig2 must produce exactly the samples a serial loop
/// produces: same per-site seeds, same order (ROADMAP "shard multi-site
/// corpus runs" with serial-identical results).
#[test]
fn sharded_fig2_matches_serial_run() {
    let n_sites = 4;
    let seed = 2014;
    let mut sharded = bench::fig2(n_sites, seed);

    // The serial reference: the same per-site computation, in a plain
    // loop on this thread.
    let plans = bench::corpus_subset(n_sites, seed);
    let trace_1000 = trace::constant_rate(1000.0, 1000);
    let mut replay = Vec::new();
    let mut delay0 = Vec::new();
    let mut link1000 = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let site = corpus::materialize(plan);
        let mut spec = LoadSpec::new(&site);
        spec.seed = seed.wrapping_add(i as u64);
        replay.push(run_page_load(&spec).plt.as_millis_f64());
        spec.net = NetSpec::delay_ms(0);
        delay0.push(run_page_load(&spec).plt.as_millis_f64());
        spec.net = NetSpec {
            link: Some(LinkSpec::symmetric(trace_1000.clone())),
            ..NetSpec::default()
        };
        link1000.push(run_page_load(&spec).plt.as_millis_f64());
    }
    assert_eq!(sharded.replay.samples(), &replay[..]);
    assert_eq!(sharded.delay0.samples(), &delay0[..]);
    assert_eq!(sharded.link1000.samples(), &link1000[..]);
    // And byte-identical summary statistics follow.
    assert_eq!(
        sharded.replay.median(),
        mm_sim::Summary::from_samples(replay).median()
    );
}

/// A recorded response with a 70 000-byte `Set-Cookie` — longer than a
/// two-byte field length can say — replays over mux as over HTTP/1.1,
/// instead of aborting its origin's connection.
#[test]
fn a_header_field_past_64_kib_replays_over_mux() {
    let mut site = many_small_objects_site();
    // The corpus writes the root document first.
    site.pairs_mut()[0]
        .response
        .headers
        .append("Set-Cookie", "c".repeat(70_000));
    let load = |protocol| {
        let mut spec = LoadSpec::new(&site);
        spec.browser.protocol = protocol;
        spec.seed = 7;
        run_page_load(&spec)
    };
    let http1 = load(ProtocolMode::Http1 { pool_size: 6 });
    let mux = load(ProtocolMode::Mux(MuxConfig::default()));
    assert_eq!(http1.failures, 0);
    assert_eq!(mux.failures, 0);
    assert!(mux.resource_count() > 1, "the root was parsed");
    assert_eq!(mux.total_body_bytes, http1.total_body_bytes);
}
