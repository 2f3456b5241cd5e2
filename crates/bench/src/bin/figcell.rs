//! figcell — the cellular workload: page loads over synthesized cellular
//! traces (Markov-modulated rate, outages — stand-ins for the paper's
//! Verizon/AT&T LTE recordings), swept over cellular regime × queue
//! discipline × protocol × loss recovery (NewReno vs SACK).
//!
//! The question figcell answers: multiplexing concentrates a page onto
//! one connection, so one loss event stalls everything — does modern
//! (SACK) loss recovery restore the multiplexing win under lossy
//! bounded-buffer cellular conditions? Writes `BENCH_figcell.json`.

use bench::cli::ExperimentSpec;
use bench::FIGCELL;

fn main() {
    ExperimentSpec {
        name: "figcell",
        default_sites: 24,
        title: |n| FIGCELL.title(n),
        run: |n_sites, seed| Some(FIGCELL.report(n_sites, seed)),
    }
    .main()
}
