//! Table 2 / §4: {50th, 95th} percentile page-load-time difference when
//! the multi-origin nature of sites is *not* preserved (single-server
//! replay), across 9 network configurations. Prints the paper's cells
//! under the measured ones.

use bench::cli::ExperimentSpec;
use bench::TABLE2;

/// The paper's Table 2, in the layout of the measured one.
const PAPER: &str = "\
paper: median%, p95%       30ms           120ms          300ms
  1mbps                    1.6%, 27.6%    1.7%, 10.8%    2.1%, 9.7%
  14mbps                   19.3%, 127.3%  6.2%, 42.4%    3.3%, 20.3%
  25mbps                   21.4%, 111.6%  6.3%, 51.8%    2.6%, 15.0%";

fn main() {
    ExperimentSpec {
        name: "table2",
        default_sites: 60,
        word: None,
        title: |n| TABLE2.title(n),
        run: |n_sites, _, seed, recording| {
            let metrics = TABLE2.report(n_sites, seed, recording);
            println!();
            for line in PAPER.lines() {
                println!("  {line}");
            }
            Some(metrics)
        },
    }
    .main()
}
