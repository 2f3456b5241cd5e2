//! §4 corpus statistic: the distribution of physical servers per website
//! across the (synthetic) Alexa US Top 500.
//!
//! Paper: median 20 servers, 95th percentile 51, only 9 single-server
//! pages.

use bench::cli::ExperimentSpec;
use bench::corpus_stats;
use bench::report::paper_vs_measured;

fn main() {
    ExperimentSpec {
        name: "corpus_stats",
        default_sites: 500,
        word: None,
        title: |n| format!("§4 corpus statistics ({n} sites)"),
        run: |n_sites, _, seed, _| {
            let d = corpus_stats(n_sites, seed);
            paper_vs_measured("median servers per site", "20", &d.median.to_string());
            paper_vs_measured("95th percentile servers", "51", &d.p95.to_string());
            paper_vs_measured(
                "single-server pages",
                "9",
                &d.single_server_sites.to_string(),
            );
            println!("  max servers on one site: {}", d.max);
            // Histogram.
            let mut hist = [0usize; 13];
            for &c in &d.counts {
                hist[(c / 10).min(12)] += 1;
            }
            println!("\n  servers/site histogram (10-wide bins):");
            for (i, &n) in hist.iter().enumerate() {
                if n > 0 {
                    println!(
                        "  {:>3}-{:<3} {}",
                        i * 10,
                        i * 10 + 9,
                        "#".repeat(n / 2 + 1)
                    );
                }
            }
            // No BENCH JSON: corpus_stats is a corpus descriptor, not a
            // perf-trajectory bench.
            None
        },
    }
    .main()
}
