//! figmux — the protocol-comparison experiment (the paper's §5 SPDY case
//! study, reproduced with mm-mux): PLT of HTTP/1.1 (6 connections per
//! origin) vs one multiplexed connection per origin, swept over link
//! rate × RTT over the corpus, under otherwise-identical emulated
//! conditions and seeds.
//!
//! The paper's qualitative result: multiplexing wins where round trips
//! dominate (high RTT, many small objects) and loses its edge where
//! bandwidth dominates. Writes `BENCH_figmux.json` with per-cell medians
//! and p95s for the perf trajectory.

use bench::cli::ExperimentSpec;
use bench::FIGMUX;

fn main() {
    ExperimentSpec {
        name: "figmux",
        default_sites: 40,
        word: None,
        title: |n| FIGMUX.title(n),
        run: |n_sites, _, seed, recording| Some(FIGMUX.report(n_sites, seed, recording)),
    }
    .main()
}
