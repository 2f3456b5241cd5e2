//! Figure 2 / §3 "Low overhead": CDF of page load time for bare
//! ReplayShell vs nested DelayShell-0ms vs nested LinkShell-1000Mbit/s
//! over the synthetic Alexa-like corpus.
//!
//! Paper: DelayShell 0 ms adds 0.15% to median PLT; LinkShell at
//! 1000 Mbit/s adds 1.5%.

use bench::cli::ExperimentSpec;
use bench::fig2;
use bench::report::{ms, paper_vs_measured, pct, plot_cdfs, summary_metrics};

fn main() {
    ExperimentSpec {
        name: "fig2",
        default_sites: 500,
        word: None,
        title: |n| format!("Figure 2 — shell overhead on page load time ({n} sites)"),
        run: |n_sites, _, seed, recording| {
            let mut r = fig2(n_sites, seed, recording);
            println!("  bare ReplayShell:       median {}", ms(r.replay.median()));
            println!("  + DelayShell 0 ms:      median {}", ms(r.delay0.median()));
            println!(
                "  + LinkShell 1000 Mbps:  median {}",
                ms(r.link1000.median())
            );
            println!();
            paper_vs_measured(
                "DelayShell 0 ms overhead at median",
                "+0.15%",
                &pct(r.delay0_overhead_pct()),
            );
            paper_vs_measured(
                "LinkShell 1000 Mbit/s overhead at median",
                "+1.5%",
                &pct(r.link1000_overhead_pct()),
            );
            println!();
            let mut metrics = Vec::new();
            metrics.push(("delay0_overhead_pct".to_string(), r.delay0_overhead_pct()));
            metrics.push((
                "link1000_overhead_pct".to_string(),
                r.link1000_overhead_pct(),
            ));
            let (mut a, mut b, mut c) = (r.replay, r.delay0, r.link1000);
            metrics.extend(summary_metrics("replay", &mut a));
            metrics.extend(summary_metrics("delay0", &mut b));
            metrics.extend(summary_metrics("link1000", &mut c));
            plot_cdfs(&mut [
                ("ReplayShell", &mut a),
                ("DelayShell 0 ms", &mut b),
                ("LinkShell 1000 Mbits/s", &mut c),
            ]);
            Some(metrics)
        },
    }
    .main()
}
