//! Smoke test of the paper's central quantitative claims, at reduced
//! scale so it runs in CI time: Table 2's bandwidth trend and Figure 3's
//! ordering.

use bench::{fig3, TABLE2};

#[test]
fn table2_bandwidth_trend() {
    let metrics = TABLE2.metrics(&TABLE2.run(6, 2014, None));
    let median_diff_pct = |cell: &str| {
        let key = format!("median_diff_pct_{cell}");
        metrics.iter().find(|(k, _)| *k == key).unwrap().1
    };
    // "Although the page load times are comparable over a 1 Mbit/s link,
    // not capturing the multi-origin nature yields significantly worse
    // performance at higher link speeds."
    let low_bw = median_diff_pct("1mbps_30ms");
    let high_bw = median_diff_pct("25mbps_30ms");
    assert!(
        low_bw.abs() < 10.0,
        "1 Mbit/s diff should be small: {low_bw}"
    );
    assert!(high_bw > 8.0, "25 Mbit/s diff should be large: {high_bw}");
    // The difference shrinks as RTT grows (the paper's row trend).
    let at_300 = median_diff_pct("25mbps_300ms");
    assert!(
        high_bw > at_300,
        "diff at 30ms ({high_bw}) should exceed diff at 300ms ({at_300})"
    );
}

#[test]
fn fig3_ordering() {
    let mut r = fig3(8, 2014, None);
    let web = r.web.median();
    let multi = r.multi.median();
    let single = r.single.median();
    // Multi-origin replay tracks the web; single-server is far off.
    assert!(multi < single, "multi {multi} must beat single {single}");
    let multi_gap = (multi - web).abs() / web;
    let single_gap = (single - web).abs() / web;
    assert!(
        multi_gap < single_gap,
        "multi gap {multi_gap} must be smaller than single gap {single_gap}"
    );
}
