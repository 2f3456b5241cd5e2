//! Reproducibility guarantees at workspace level: seeds vary
//! measurements only through modelled noise, and the corpus regenerates
//! identically. That identical specs yield identical measurements is
//! `tests/world_digest.rs`'s job: every row is a world run again.

mod common;

use common::site;
use mahimahi::corpus;
use mahimahi::harness::{run_loads, LoadSpec, NetSpec};
use mm_web::HostProfile;

#[test]
fn different_machines_statistically_equal() {
    let s = site(5, 10, 30.0);
    let mut m1 = LoadSpec::new(&s);
    m1.net = NetSpec::delay_ms(30);
    m1.host_profile = Some(HostProfile::machine_1());
    m1.seed = 1;
    let mut m2 = LoadSpec::new(&s);
    m2.net = NetSpec::delay_ms(30);
    m2.host_profile = Some(HostProfile::machine_2());
    m2.seed = 2;
    let p1 = run_loads(&m1, 25);
    let p2 = run_loads(&m2, 25);
    let mean1: f64 = p1.iter().sum::<f64>() / p1.len() as f64;
    let mean2: f64 = p2.iter().sum::<f64>() / p2.len() as f64;
    // Table 1's invariant at test scale: means within 1%.
    assert!(
        (mean1 - mean2).abs() / mean1.min(mean2) < 0.01,
        "means {mean1} vs {mean2}"
    );
    assert_ne!(p1, p2, "realizations must differ");
}

#[test]
fn corpus_regeneration_stable() {
    let a = corpus::generate_plans(&corpus::CorpusConfig {
        n_sites: 40,
        ..Default::default()
    });
    let b = corpus::generate_plans(&corpus::CorpusConfig {
        n_sites: 40,
        ..Default::default()
    });
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.total_bytes(), y.total_bytes());
        assert_eq!(x.objects.len(), y.objects.len());
    }
}
