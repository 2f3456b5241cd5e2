//! `perf agree A.json B.json`: is result set B no worse than A?
//!
//! Compares two `results.json` files of the same seed workload by
//! workload, metric by metric, against the bounds of the catalogue. B
//! breaches when a metric is worse than A's by more than its bound, when
//! an exact count differs at all, when a `sim_digest` differs, when a
//! metric is n/a on one side only, or when either set has a failed op.
//! Later PRs use it for parent-vs-change (A = parent); for the
//! repeatability of one commit run it both ways round.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// Exact counts may differ in the seventh digit: the soak's allocation
/// count moves by a handful in 13 million from run to run, a transfer
/// pass's by one in half a million.
const EXACT_TOLERANCE: f64 = crate::run::ALLOC_JITTER;

#[derive(Debug, PartialEq)]
pub struct Breach {
    pub workload: String,
    pub what: String,
}

/// By how much of `a` is `b` worse? Negative = better.
pub fn worsening(def: &EndToEnd, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    json::as_f64(json::get(
        json::get(json::get(run, "metrics")?, name)?,
        "value",
    )?)
}

/// Every breach of B against A, and one printable line per comparison.
pub fn compare(a: &Value, b: &Value) -> (Vec<Breach>, Vec<String>) {
    let mut breaches = Vec::new();
    let mut lines = Vec::new();
    let empty = Vec::new();
    let runs_a = match json::get(a, "workloads") {
        Some(Value::Map(m)) => m,
        _ => &empty,
    };
    if runs_a.is_empty() {
        breaches.push(Breach {
            workload: "-".into(),
            what: "A holds no workloads".into(),
        });
    }
    for (name, run_a) in runs_a {
        let mut breach = |what: String| {
            breaches.push(Breach {
                workload: name.clone(),
                what,
            })
        };
        let Some(run_b) = json::get(b, "workloads").and_then(|w| json::get(w, name)) else {
            breach("missing from B".into());
            continue;
        };
        let digest = |run| {
            json::get(run, "sim_digest")
                .and_then(json::as_str)
                .map(str::to_string)
        };
        if digest(run_a).is_none() || digest(run_a) != digest(run_b) {
            breach(format!(
                "sim_digest {:?} != {:?}",
                digest(run_a),
                digest(run_b)
            ));
        }
        for def in &END_TO_END {
            let (va, vb) = match (metric(run_a, def.name), metric(run_b, def.name)) {
                (Some(va), Some(vb)) => (va, vb),
                // Not applicable to this workload (the run says why).
                (None, None) => {
                    lines.push(format!("{name} {} n/a in both", def.name));
                    continue;
                }
                _ => {
                    breach(format!("{} reported by one set only", def.name));
                    continue;
                }
            };
            // A bound of 0 is absolute: the metric must be 0 on both
            // sides. Otherwise it is a share of A's value.
            let (worse, limit, out) = if def.bound == 0.0 {
                (vb - va, 0.0, va > 0.0 || vb > 0.0)
            } else if def.exact {
                let worse = worsening(def, va, vb);
                (worse, EXACT_TOLERANCE, worse.abs() > EXACT_TOLERANCE)
            } else {
                let worse = worsening(def, va, vb);
                (worse, def.bound, worse > def.bound)
            };
            lines.push(format!(
                "{name} {} {va} -> {vb} {} ({:+.2}% worse, limit {}{:.3}%){}",
                def.name,
                def.unit,
                worse * 100.0,
                if def.exact { "+-" } else { "" },
                limit * 100.0,
                if out { "  BREACH" } else { "" },
            ));
            if out {
                breach(format!(
                    "{} {va} -> {vb}: {:+.2}% worse",
                    def.name,
                    worse * 100.0
                ));
            }
        }
    }
    (breaches, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transfer-like set: no `op_ms_p90` (too few distinct ops).
    fn result_set(ops_per_s: f64, allocs: f64, digest: &str) -> Value {
        with_extra(ops_per_s, allocs, digest, &[])
    }

    fn with_extra(ops_per_s: f64, allocs: f64, digest: &str, extra: &[(&str, f64)]) -> Value {
        let m = |v: f64, unit: &str| {
            json::obj(vec![
                ("value", Value::Float(v)),
                ("unit", Value::Str(unit.into())),
            ])
        };
        let mut metrics = vec![
            ("setup_s", m(0.05, "s")),
            ("ops_per_s", m(ops_per_s, "op/s")),
            ("op_ms_p50", m(8.0, "ms")),
            ("sim_x_realtime", m(200.0, "ratio")),
            ("allocs_per_op", m(allocs, "count")),
            ("peak_rss_mb", m(600.0, "MB")),
            ("failed_share", m(0.0, "ratio")),
        ];
        for (name, v) in extra {
            metrics.retain(|(n, _)| n != name);
            metrics.push((name, m(*v, "x")));
        }
        let run = json::obj(vec![
            ("sim_digest", Value::Str(digest.into())),
            ("metrics", json::obj(metrics)),
        ]);
        json::obj(vec![(
            "workloads",
            json::obj(vec![("transfer_clean", run)]),
        )])
    }

    #[test]
    fn a_set_agrees_with_itself() {
        let a = result_set(100.0, 34_169.65, "00c6");
        let (breaches, lines) = compare(&a, &a);
        assert_eq!(breaches, []);
        assert_eq!(lines.len(), END_TO_END.len());
        assert!(lines.iter().any(|l| l.ends_with("op_ms_p90 n/a in both")));
    }

    #[test]
    fn a_metric_on_one_side_only_breaches() {
        let a = result_set(100.0, 34_169.65, "00c6");
        let b = with_extra(100.0, 34_169.65, "00c6", &[("op_ms_p90", 14.0)]);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let (breaches, _) = compare(x, y);
            assert_eq!(breaches.len(), 1);
            assert_eq!(breaches[0].what, "op_ms_p90 reported by one set only");
        }
    }

    #[test]
    fn any_failed_op_on_either_side_breaches() {
        let a = result_set(100.0, 34_169.65, "00c6");
        let b = with_extra(100.0, 34_169.65, "00c6", &[("failed_share", 0.001)]);
        for (x, y) in [(&a, &b), (&b, &a), (&b, &b)] {
            let (breaches, _) = compare(x, y);
            assert_eq!(breaches.len(), 1, "{breaches:?}");
            assert!(breaches[0].what.starts_with("failed_share"));
        }
    }

    #[test]
    fn within_bound_passes_beyond_bound_breaches() {
        let a = result_set(100.0, 34_169.65, "00c6");
        let bound = crate::metrics::end_to_end("ops_per_s").unwrap().bound * 100.0;
        // Slower by less than the bound passes; faster is never a breach.
        assert_eq!(
            compare(&a, &result_set(100.0 - bound + 1.0, 34_169.65, "00c6")).0,
            []
        );
        assert_eq!(compare(&a, &result_set(150.0, 34_169.65, "00c6")).0, []);
        let (breaches, _) = compare(&a, &result_set(100.0 - bound - 1.0, 34_169.65, "00c6"));
        assert_eq!(breaches.len(), 1);
        assert!(breaches[0].what.starts_with("ops_per_s"), "{breaches:?}");
    }

    #[test]
    fn exact_counts_and_digests_must_be_equal() {
        let a = result_set(100.0, 34_169.65, "00c6");
        // 0.5 % more allocations: inside the bound, still a breach — and
        // so is 0.5 % fewer, which means the work changed.
        assert_eq!(compare(&a, &result_set(100.0, 34_340.0, "00c6")).0.len(), 1);
        assert_eq!(compare(&a, &result_set(100.0, 34_000.0, "00c6")).0.len(), 1);
        let (breaches, _) = compare(&a, &result_set(100.0, 34_169.65, "beef"));
        assert!(breaches[0].what.starts_with("sim_digest"));
    }

    #[test]
    fn missing_workload_breaches() {
        let a = result_set(100.0, 34_169.65, "00c6");
        let empty = json::obj(vec![("workloads", json::obj(vec![]))]);
        assert_eq!(compare(&a, &empty).0[0].what, "missing from B");
        assert!(!compare(&empty, &a).0.is_empty());
    }
}
