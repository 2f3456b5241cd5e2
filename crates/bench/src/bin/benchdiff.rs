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
//!   value exceeds baseline by more than 25% (`THRESHOLD_PCT`),
//!   checked only when `seed` and `sites` match — medians from
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

fn load(path: &Path) -> Option<BenchFile> {
    std::fs::read_to_string(path).ok().map(|t| parse_bench(&t))
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
        let Some(base) = load(&base_path) else {
            println!("FAIL {name}: cannot read baseline {}", base_path.display());
            failures += 1;
            continue;
        };
        let Some(cand) = load(&Path::new(candidate_dir).join(name)) else {
            println!("FAIL {name}: candidate file missing");
            failures += 1;
            continue;
        };
        let mut file_fail = false;
        for key in base.metrics.keys() {
            if !cand.metrics.contains_key(key) {
                println!("FAIL {name}: key {key:?} disappeared");
                file_fail = true;
            }
        }
        let comparable = base.seed == cand.seed && base.sites == cand.sites;
        if !comparable {
            println!(
                "skip {name}: medians not compared (seed/sites differ: \
                 baseline {:?}/{:?}, candidate {:?}/{:?})",
                base.seed, base.sites, cand.seed, cand.sites
            );
        } else {
            for (key, bval) in &base.metrics {
                if !key.ends_with("_median_ms") || !bval.is_finite() || *bval <= 0.0 {
                    continue;
                }
                let Some(cval) = cand.metrics.get(key).filter(|v| v.is_finite()) else {
                    continue;
                };
                let pct = (cval - bval) / bval * 100.0;
                if pct > THRESHOLD_PCT {
                    println!(
                        "FAIL {name}: {key} regressed {pct:+.1}% \
                         ({bval:.1} ms -> {cval:.1} ms, threshold {THRESHOLD_PCT}%)"
                    );
                    file_fail = true;
                } else if pct < -THRESHOLD_PCT {
                    println!(
                        "note {name}: {key} improved {pct:+.1}% \
                         ({bval:.1} ms -> {cval:.1} ms)"
                    );
                }
            }
        }
        if file_fail {
            failures += 1;
        } else {
            println!("ok   {name}");
        }
    }
    if failures > 0 {
        println!("benchdiff: {failures}/{} bench file(s) failed", names.len());
        ExitCode::FAILURE
    } else {
        println!("benchdiff: all {} bench file(s) within bounds", names.len());
        ExitCode::SUCCESS
    }
}
