//! figbbr — the buffer sweep for model-based congestion control: page
//! loads over the figcell cellular regimes × {DropTail-32, DropTail-256,
//! CoDel} × CC {NewReno, CUBIC, BBR} × the full recovery-tier ladder,
//! under the mux protocol, with figcell/figrack's exact traces, seeds
//! and per-site pairing.
//!
//! Two ROADMAP questions at once: how CUBIC (the era's Linux default,
//! previously unswept) interacts with the recovery tiers, and whether a
//! delivery-rate-model + pacing sender (BBR) beats loss-based CC in the
//! deep-buffer bufferbloat regime without giving up the AQM column.
//! The (Reno CC, racktlp) column over droptail32/CoDel reproduces
//! figrack's racktlp column cell-for-cell. Writes `BENCH_figbbr.json`.

use bench::cli::ExperimentSpec;
use bench::FIGBBR;

fn main() {
    ExperimentSpec {
        name: "figbbr",
        default_sites: 24,
        title: |n| FIGBBR.title(n),
        run: |n_sites, seed| Some(FIGBBR.report(n_sites, seed)),
    }
    .main()
}
