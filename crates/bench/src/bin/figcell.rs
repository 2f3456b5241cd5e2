//! figcell — the cellular workload: page loads over synthesized cellular
//! traces (Markov-modulated rate, outages — stand-ins for the paper's
//! Verizon/AT&T LTE recordings), swept over cellular regime × queue
//! discipline {infinite DropTail, DropTail-32, CoDel, DropTail-256} ×
//! protocol × congestion control {NewReno, CUBIC, BBR} × loss recovery
//! {NewReno, SACK, RACK-TLP + F-RTO}, each (cell, arm) loaded once.
//!
//! One table, three questions (`bench::FIGCELL` holds the arms and
//! columns): does SACK restore the multiplexing win under lossy
//! bounded-buffer cellular conditions; does RACK-TLP fix the CoDel
//! cells, where SACK did not pay; and how do CUBIC and a paced,
//! model-based sender (BBR) fare against Reno as the buffer deepens?
//! Every arm without an `http1` prefix runs mux. Writes
//! `BENCH_figcell.json`.

use bench::cli::ExperimentSpec;
use bench::FIGCELL;

fn main() {
    ExperimentSpec {
        name: "figcell",
        default_sites: 24,
        word: None,
        title: |n| FIGCELL.title(n),
        run: |n_sites, _, seed, recording| Some(FIGCELL.report(n_sites, seed, recording)),
    }
    .main()
}
