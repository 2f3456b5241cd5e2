//! `benchdiff` — guard the BENCH trajectory.
//!
//! ```text
//! benchdiff <baseline-dir> <candidate-dir>
//! ```
//!
//! Compares every `BENCH_*.json` in the baseline directory against the
//! same-named file in the candidate directory and exits nonzero on:
//!
//! - a baseline bench file with no candidate counterpart,
//! - a baseline metric key that disappeared from the candidate
//!   (renames must update the committed baseline in the same change),
//! - a paired-median regression: a `*_median_ms` key whose candidate
//!   value exceeds baseline by more than 25% (`THRESHOLD_PCT`), or is
//!   `null` (a NaN or infinite median) where the baseline's is finite —
//!   checked only when `seed` and `sites` match, since medians from
//!   different scales are not comparable.
//!
//! New candidate keys and improvements are reported but never fail the
//! run; the gate is one-sided by design.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// How far, in percent, a candidate median may exceed its baseline.
const THRESHOLD_PCT: f64 = 25.0;

/// One parsed BENCH file: flat key → numeric value (null → NaN,
/// strings only for the `bench` name which we keep separately).
struct BenchFile {
    seed: Option<f64>,
    sites: Option<f64>,
    metrics: BTreeMap<String, f64>,
}

/// Parse the restricted JSON `write_bench_json` emits: one flat object,
/// string or numeric or null values, one `"key": value` pair per line.
fn parse_bench(text: &str) -> BenchFile {
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\":") else {
            continue;
        };
        let value = value.trim();
        let num = if value == "null" {
            f64::NAN
        } else if let Ok(v) = value.parse::<f64>() {
            v
        } else {
            continue; // string field (the bench name)
        };
        metrics.insert(key.to_string(), num);
    }
    BenchFile {
        seed: metrics.remove("seed"),
        sites: metrics.remove("sites"),
        metrics,
    }
}

/// Compare one baseline BENCH file's text with its candidate's: the
/// report lines, and whether the file fails the gate.
fn compare(name: &str, base: &str, cand: &str) -> (Vec<String>, bool) {
    let (base, cand) = (parse_bench(base), parse_bench(cand));
    let mut lines = Vec::new();
    let mut failed = false;
    for key in base.metrics.keys() {
        if !cand.metrics.contains_key(key) {
            lines.push(format!("FAIL {name}: key {key:?} disappeared"));
            failed = true;
        }
    }
    if base.seed != cand.seed || base.sites != cand.sites {
        lines.push(format!(
            "skip {name}: medians not compared (seed/sites differ: \
             baseline {:?}/{:?}, candidate {:?}/{:?})",
            base.seed, base.sites, cand.seed, cand.sites
        ));
    } else {
        for (key, bval) in &base.metrics {
            if !key.ends_with("_median_ms") || !bval.is_finite() || *bval <= 0.0 {
                continue;
            }
            let Some(&cval) = cand.metrics.get(key) else {
                continue;
            };
            // `write_bench_json` writes a NaN or infinite value as null.
            if !cval.is_finite() {
                lines.push(format!(
                    "FAIL {name}: {key} became null ({bval:.1} ms -> {cval})"
                ));
                failed = true;
                continue;
            }
            let pct = (cval - bval) / bval * 100.0;
            if pct > THRESHOLD_PCT {
                lines.push(format!(
                    "FAIL {name}: {key} regressed {pct:+.1}% \
                     ({bval:.1} ms -> {cval:.1} ms, threshold {THRESHOLD_PCT}%)"
                ));
                failed = true;
            } else if pct < -THRESHOLD_PCT {
                lines.push(format!(
                    "note {name}: {key} improved {pct:+.1}% \
                     ({bval:.1} ms -> {cval:.1} ms)"
                ));
            }
        }
    }
    if !failed {
        lines.push(format!("ok   {name}"));
    }
    (lines, failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_dir, candidate_dir] = args.as_slice() else {
        eprintln!("usage: benchdiff <baseline-dir> <candidate-dir>");
        return ExitCode::from(2);
    };

    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read baseline dir {baseline_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("no BENCH_*.json baselines in {baseline_dir}");
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    for name in &names {
        // A listed file can still fail to read (permissions, races);
        // name it instead of panicking.
        let base_path = Path::new(baseline_dir).join(name);
        let Ok(base) = std::fs::read_to_string(&base_path) else {
            println!("FAIL {name}: cannot read baseline {}", base_path.display());
            failures += 1;
            continue;
        };
        let Ok(cand) = std::fs::read_to_string(Path::new(candidate_dir).join(name)) else {
            println!("FAIL {name}: candidate file missing");
            failures += 1;
            continue;
        };
        let (lines, failed) = compare(name, &base, &cand);
        for line in lines {
            println!("{line}");
        }
        failures += usize::from(failed);
    }
    if failures > 0 {
        println!("benchdiff: {failures}/{} bench file(s) failed", names.len());
        ExitCode::FAILURE
    } else {
        println!("benchdiff: all {} bench file(s) within bounds", names.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::compare;

    /// A BENCH file as `write_bench_json` writes it, at `sites` sites.
    fn bench(sites: u32, metrics: &[(&str, &str)]) -> String {
        let mut out = format!("{{\n  \"bench\": \"x\",\n  \"seed\": 2014,\n  \"sites\": {sites}");
        for (key, value) in metrics {
            out.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        out + "\n}\n"
    }

    const BASE: &[(&str, &str)] = &[("a_median_ms", "100.000"), ("a_p95_ms", "200.000")];

    #[test]
    fn an_unchanged_file_passes() {
        let (lines, failed) = compare("f", &bench(2, BASE), &bench(2, BASE));
        assert!(!failed);
        assert_eq!(lines, ["ok   f"]);
    }

    #[test]
    fn a_vanished_key_fails() {
        let cand = bench(2, &[("a_median_ms", "100.000")]);
        let (lines, failed) = compare("f", &bench(2, BASE), &cand);
        assert!(failed);
        assert_eq!(lines, ["FAIL f: key \"a_p95_ms\" disappeared"]);
    }

    #[test]
    fn a_median_that_became_null_fails() {
        let cand = bench(2, &[("a_median_ms", "null"), ("a_p95_ms", "200.000")]);
        let (lines, failed) = compare("f", &bench(2, BASE), &cand);
        assert!(failed);
        assert_eq!(lines, ["FAIL f: a_median_ms became null (100.0 ms -> NaN)"]);
    }

    #[test]
    fn a_regression_over_the_threshold_fails() {
        let cand = bench(2, &[("a_median_ms", "125.100"), ("a_p95_ms", "200.000")]);
        let (lines, failed) = compare("f", &bench(2, BASE), &cand);
        assert!(failed);
        assert_eq!(
            lines,
            ["FAIL f: a_median_ms regressed +25.1% (100.0 ms -> 125.1 ms, threshold 25%)"]
        );
        let cand = bench(2, &[("a_median_ms", "125.000"), ("a_p95_ms", "200.000")]);
        assert!(!compare("f", &bench(2, BASE), &cand).1);
    }

    #[test]
    fn an_improvement_is_noted_and_passes() {
        let cand = bench(2, &[("a_median_ms", "50.000"), ("a_p95_ms", "200.000")]);
        let (lines, failed) = compare("f", &bench(2, BASE), &cand);
        assert!(!failed);
        assert_eq!(
            lines,
            [
                "note f: a_median_ms improved -50.0% (100.0 ms -> 50.0 ms)",
                "ok   f"
            ]
        );
    }

    #[test]
    fn medians_at_another_scale_are_not_compared() {
        let cand = bench(4, &[("a_median_ms", "null"), ("a_p95_ms", "200.000")]);
        let (lines, failed) = compare("f", &bench(2, BASE), &cand);
        assert!(!failed);
        assert_eq!(
            lines,
            [
                "skip f: medians not compared (seed/sites differ: \
                 baseline Some(2014.0)/Some(2.0), candidate Some(2014.0)/Some(4.0))",
                "ok   f"
            ]
        );
    }
}
