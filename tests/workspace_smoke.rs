//! Workspace smoke test: the documented quickstart path, end to end.
//!
//! This is the CI gate that proves the whole stack is wired together —
//! corpus synthesis (`plan_site` → `materialize`), ReplayShell serving the
//! recorded site, the browser model loading it through a DelayShell, and
//! PLT measurement — not just that every crate compiles. It follows the
//! crate-root example in `crates/core/src/lib.rs`.

mod common;

use common::site;
use mahimahi::harness::{run_page_load, LoadSpec, NetSpec};

#[test]
fn quickstart_page_load_takes_at_least_one_rtt() {
    // Build a small synthetic recorded site...
    let site = site(1, 4, 10.0);
    assert!(
        !site.pairs.is_empty(),
        "materialized site should contain recorded pairs"
    );

    // ...and load it through a 30 ms one-way DelayShell.
    let mut spec = LoadSpec::new(&site);
    spec.net = NetSpec::delay_ms(30);
    let result = run_page_load(&spec);

    // The page cannot finish faster than one round trip (2 × 30 ms), and
    // a handful of objects over a delay-only path must finish well under
    // simulated minutes.
    assert!(
        result.plt.as_millis() > 60,
        "PLT {:?} is below one RTT",
        result.plt
    );
    assert!(
        result.plt.as_millis() < 60_000,
        "PLT {:?} absurdly slow for a delay-only path",
        result.plt
    );
    assert!(
        !result.resources.is_empty(),
        "page load should fetch at least the root document"
    );
}
