//! Shared terminal reporting for the experiment binaries: paper-vs-measured
//! tables, ASCII CDF plots, and machine-readable `BENCH_<name>.json`
//! result files for tracking the perf trajectory across commits.

use mm_sim::stats::ascii_cdf_plot;
use mm_sim::Summary;

/// Print a section header.
pub(crate) fn header(title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("{title}");
    println!("{}", "=".repeat(74));
}

/// Print a paper-vs-measured row.
pub fn paper_vs_measured(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<14} measured: {measured}");
}

/// Print CDF curves for several summaries.
pub fn plot_cdfs(series: &mut [(&str, &mut Summary)]) {
    let curves: Vec<(&str, Vec<(f64, f64)>)> = series
        .iter_mut()
        .map(|(name, s)| (*name, s.cdf(40)))
        .collect();
    println!("{}", ascii_cdf_plot(&curves, 64, 16));
}

/// Format milliseconds compactly.
pub fn ms(v: f64) -> String {
    format!("{v:.0} ms")
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Write `BENCH_<name>.json` to the current directory: run metadata plus
/// a flat map of metric name → value, so CI can archive every run and the
/// perf trajectory accumulates in a machine-readable form. Metric names
/// are code-controlled identifiers (no escaping needed); non-finite
/// values serialize as `null`. Returns the path written.
pub(crate) fn write_bench_json(
    name: &str,
    seed: u64,
    sites: usize,
    metrics: &[(String, f64)],
) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"{name}\",\n  \"seed\": {seed},\n  \"sites\": {sites}"
    ));
    for (key, value) in metrics {
        debug_assert!(
            key.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric keys must not need JSON escaping: {key:?}"
        );
        if value.is_finite() {
            out.push_str(&format!(",\n  \"{key}\": {value:.3}"));
        } else {
            out.push_str(&format!(",\n  \"{key}\": null"));
        }
    }
    out.push_str("\n}\n");
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// A JSON-safe metric-key fragment: sweep axis labels use '-' for
/// readability ("lte-good", "droptail-32"), metric keys use '_'.
pub fn key_fragment(label: &str) -> String {
    label.replace('-', "_")
}

/// Metric rows for one PLT summary: `<prefix>_median_ms` and
/// `<prefix>_p95_ms`.
pub fn summary_metrics(prefix: &str, s: &mut Summary) -> Vec<(String, f64)> {
    vec![
        (format!("{prefix}_median_ms"), s.median()),
        (format!("{prefix}_p95_ms"), s.percentile(95.0)),
    ]
}
