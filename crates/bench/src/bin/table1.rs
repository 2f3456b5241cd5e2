//! Table 1 / §3 "Reproducibility": mean ± σ page load time for
//! CNBC-like and wikiHow-like pages, 100 loads each on two machines.
//!
//! Paper: means within 0.5% across machines; σ within 1.6% of the mean.

use bench::cli::ExperimentSpec;
use bench::report::paper_vs_measured;
use bench::table1;

fn main() {
    ExperimentSpec {
        name: "table1",
        default_sites: 100,
        word: None,
        title: |n| format!("Table 1 — reproducibility across host machines ({n} loads/cell)"),
        run: |loads, _, seed, recording| {
            let r = table1(loads, seed, recording);
            println!("  {:<18} {:>14} {:>14}", "", "Machine 1", "Machine 2");
            for site in ["www.cnbc.com", "www.wikihow.com"] {
                let row: Vec<String> = r
                    .cells
                    .iter()
                    .filter(|(s, _, _)| s == site)
                    .map(|(_, _, sum)| format!("{:.0}±{:.0} ms", sum.mean(), sum.std_dev()))
                    .collect();
                println!("  {:<18} {:>14} {:>14}", site, row[0], row[1]);
            }
            println!();
            paper_vs_measured(
                "worst cross-machine mean difference",
                "< 0.5%",
                &format!("{:.3}%", r.worst_cross_machine_mean_diff() * 100.0),
            );
            paper_vs_measured(
                "worst σ / mean",
                "≤ 1.6%",
                &format!("{:.3}%", r.worst_cv() * 100.0),
            );
            let mut metrics = vec![
                (
                    "worst_cross_machine_mean_diff_pct".to_string(),
                    r.worst_cross_machine_mean_diff() * 100.0,
                ),
                ("worst_cv_pct".to_string(), r.worst_cv() * 100.0),
            ];
            for (site, machine, summary) in &r.cells {
                let key = format!(
                    "{}_{}",
                    site.replace(['.', '-'], "_"),
                    machine.to_lowercase().replace(' ', "_")
                );
                metrics.push((format!("{key}_mean_ms"), summary.mean()));
                metrics.push((format!("{key}_std_ms"), summary.std_dev()));
            }
            Some(metrics)
        },
    }
    .main()
}
