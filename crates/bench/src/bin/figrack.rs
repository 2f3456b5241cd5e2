//! figrack — the loss-recovery-tier sweep: page loads over the figcell
//! cellular regimes × loss-producing queue disciplines (DropTail-32,
//! CoDel), under the mux protocol, with `TcpConfig::recovery` as the
//! swept axis: NewReno vs SACK vs RACK-TLP + F-RTO — plus a CUBIC-CC
//! arm at the RackTlp tier, so CUBIC's spurious-timeout undo path runs
//! in an experiment and not just unit tests.
//!
//! The question figrack answers: figcell left the CoDel column mixed —
//! under AQM, SACK's recovery speed buys little and the unrecoverable
//! RTO backoff can make multiplexed chains slower. Does time-based loss
//! detection (tail loss probes instead of RTOs, spurious-timeout undo)
//! flip those cells non-negative? Writes `BENCH_figrack.json`.

use bench::cli::ExperimentSpec;
use bench::FIGRACK;

fn main() {
    ExperimentSpec {
        name: "figrack",
        default_sites: 24,
        title: |n| FIGRACK.title(n),
        run: |n_sites, seed| Some(FIGRACK.report(n_sites, seed)),
    }
    .main()
}
