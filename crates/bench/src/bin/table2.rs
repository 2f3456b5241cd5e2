//! Table 2 / §4: {50th, 95th} percentile page-load-time difference when
//! the multi-origin nature of sites is *not* preserved (single-server
//! replay), across 9 network configurations.
//!
//! Paper (each cell "median%, p95%"):
//!              30 ms          120 ms        300 ms
//!   1 Mbit/s   1.6%, 27.6%    1.7%, 10.8%   2.1%, 9.7%
//!   14 Mbit/s  19.3%, 127.3%  6.2%, 42.4%   3.3%, 20.3%
//!   25 Mbit/s  21.4%, 111.6%  6.3%, 51.8%   2.6%, 15.0%

use bench::cli::ExperimentSpec;
use bench::{table2, FIGMUX_DELAYS_MS};

const PAPER: [[(f64, f64); 3]; 3] = [
    [(1.6, 27.6), (1.7, 10.8), (2.1, 9.7)],
    [(19.3, 127.3), (6.2, 42.4), (3.3, 20.3)],
    [(21.4, 111.6), (6.3, 51.8), (2.6, 15.0)],
];

fn print_row(head: &str, cols: impl Iterator<Item = String>) {
    let cols: String = cols.map(|c| format!(" {c:>24}")).collect();
    println!("  {head:<11}{cols}");
}

fn main() {
    ExperimentSpec {
        name: "table2",
        default_sites: 60,
        title: |n| format!("Table 2 — PLT inflation without multi-origin preservation ({n} sites)"),
        run: |n_sites, seed| {
            let r = table2(n_sites, seed);
            let delays = FIGMUX_DELAYS_MS.iter().map(|d| format!("{d} ms"));
            print_row("", delays);
            // `table2` returns the grid rate-major: one row per rate.
            for (row, cells) in r.cells.chunks(FIGMUX_DELAYS_MS.len()).enumerate() {
                let measured = cells.iter().zip(PAPER[row]).map(|(cell, (pm, pp))| {
                    format!(
                        "{:.1}%,{:.1}% (p:{pm},{pp})",
                        cell.median_diff_pct, cell.p95_diff_pct
                    )
                });
                print_row(&format!("{} Mbit/s", cells[0].mbps), measured);
            }
            println!("\n  each cell: measured median%,p95% (p: paper values)");
            let mut metrics = Vec::new();
            for cell in &r.cells {
                let prefix = format!("{:.0}mbps_{}ms", cell.mbps, cell.delay_ms);
                metrics.push((format!("median_diff_pct_{prefix}"), cell.median_diff_pct));
                metrics.push((format!("p95_diff_pct_{prefix}"), cell.p95_diff_pct));
            }
            Some(metrics)
        },
    }
    .main()
}
