//! Figure 3 / §4: CDF of page load time for an nytimes-like page loaded
//! on the "actual web" versus inside ReplayShell with and without
//! multi-origin preservation.
//!
//! Paper: multi-origin replay's median PLT is 7.9% above the web;
//! single-server replay's is 29.6% above.

use bench::cli::ExperimentSpec;
use bench::fig3;
use bench::report::{ms, paper_vs_measured, pct, plot_cdfs, summary_metrics};

fn main() {
    ExperimentSpec {
        name: "fig3",
        default_sites: 100,
        word: None,
        title: |n| format!("Figure 3 — multi-origin preservation vs the real web ({n} loads/arm)"),
        run: |loads, _, seed, recording| {
            let mut r = fig3(loads, seed, recording);
            println!("  actual web:             median {}", ms(r.web.median()));
            println!("  replay multi-origin:    median {}", ms(r.multi.median()));
            println!("  replay single-server:   median {}", ms(r.single.median()));
            println!();
            paper_vs_measured(
                "multi-origin replay vs web at median",
                "+7.9%",
                &pct(r.multi_gap_pct()),
            );
            paper_vs_measured(
                "single-server replay vs web at median",
                "+29.6%",
                &pct(r.single_gap_pct()),
            );
            println!();
            let mut metrics = Vec::new();
            metrics.push(("multi_gap_pct".to_string(), r.multi_gap_pct()));
            metrics.push(("single_gap_pct".to_string(), r.single_gap_pct()));
            let (mut w, mut m, mut s) = (r.web, r.multi, r.single);
            metrics.extend(summary_metrics("web", &mut w));
            metrics.extend(summary_metrics("multi", &mut m));
            metrics.extend(summary_metrics("single", &mut s));
            plot_cdfs(&mut [
                ("Actual Web", &mut w),
                ("Replay Multi-origin", &mut m),
                ("Replay Single Server", &mut s),
            ]);
            Some(metrics)
        },
    }
    .main()
}
