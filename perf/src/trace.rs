//! The traced run: per-layer numbers, the span file and the ledger.
//!
//! End-to-end numbers always come from the untraced passes (`run.rs`).
//! The traced run is separate: the layer probes time calls into each
//! crate's public functions; one pass of the workload runs with the
//! repo's observers attached to read exact unit counts (packets, drops,
//! HTTP messages, spans, flow samples, retransmits, events); every probe
//! call and every workload op is wrapped in a span. Probes and the
//! traced pass each run in a child process of their own (memory: see
//! `run.rs`), and the parent merges their spans into one file.

use std::time::Instant;

use crate::api::{self, Units};
use crate::json::{self, Value};
use crate::metrics::{Metric, PER_LAYER};
use crate::probe::ProbeCtx;
use crate::run::{self, RunResult, WorkloadDef};
use crate::spans::Recorder;

/// What a `tracechild` process hands back.
pub struct ChildTrace {
    pub metrics: Vec<Metric>,
    pub units: Units,
    pub ops: u64,
    pub failed: u64,
    /// Wall of the untraced pass the child ran first, and of the traced
    /// pass after it.
    pub untraced_pass_ns: f64,
    pub traced_pass_ns: f64,
    pub traced_allocs: u64,
    /// Span objects as the child's recorder wrote them.
    pub spans: Vec<Value>,
}

impl ChildTrace {
    fn empty(rec: &Recorder) -> ChildTrace {
        ChildTrace {
            metrics: Vec::new(),
            units: Units::default(),
            ops: 0,
            failed: 0,
            untraced_pass_ns: 0.0,
            traced_pass_ns: 0.0,
            traced_allocs: 0,
            spans: rec.to_values(),
        }
    }

    pub fn to_value(&self) -> Value {
        let units = self.units.fields();
        json::obj(vec![
            ("metrics", run::metrics_value(&self.metrics)),
            (
                "units",
                Value::Map(
                    units
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Int(*v as i64)))
                        .collect(),
                ),
            ),
            ("ops", Value::Int(self.ops as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("untraced_pass_ns", Value::Float(self.untraced_pass_ns)),
            ("traced_pass_ns", Value::Float(self.traced_pass_ns)),
            ("traced_allocs", Value::Int(self.traced_allocs as i64)),
            ("spans", Value::Seq(self.spans.clone())),
        ])
    }

    fn from_value(v: &Value) -> Option<ChildTrace> {
        let num = |key: &str| json::get(v, key).and_then(json::as_f64);
        let Value::Map(ms) = json::get(v, "metrics")? else {
            return None;
        };
        let metrics = ms
            .iter()
            .filter_map(|(name, m)| {
                // Names come back as the catalogue's own statics.
                let def = PER_LAYER.iter().find(|d| d.name == name)?;
                Some(Metric {
                    name: def.name,
                    value: json::as_f64(json::get(m, "value")?)?,
                    unit: def.unit,
                })
            })
            .collect();
        let mut units = Units::default();
        let unit_values = json::get(v, "units")?;
        for (name, slot) in units.fields_mut() {
            *slot = json::get(unit_values, name).and_then(json::as_f64)? as u64;
        }
        let Value::Seq(spans) = json::get(v, "spans")? else {
            return None;
        };
        Some(ChildTrace {
            metrics,
            units,
            ops: num("ops")? as u64,
            failed: num("failed")? as u64,
            untraced_pass_ns: num("untraced_pass_ns")?,
            traced_pass_ns: num("traced_pass_ns")?,
            traced_allocs: num("traced_allocs")? as u64,
            spans: spans.clone(),
        })
    }
}

/// Body of `tracechild --probes`.
pub fn child_probes(seed: u64) -> ChildTrace {
    run::prewarm();
    let mut rec = Recorder::new();
    rec.set_workload("probes");
    let mut ctx = ProbeCtx::new(rec);
    api::layer_probes(&mut ctx, seed);
    ChildTrace {
        metrics: ctx.metrics,
        ..ChildTrace::empty(&ctx.rec)
    }
}

/// Body of `tracechild --pass`: one untraced pass (the reference, and
/// the warm-up), then the traced pass.
pub fn child_pass(def: &WorkloadDef, seed: u64) -> ChildTrace {
    run::prewarm();
    let mut rec = Recorder::new();
    rec.set_workload(def.name);
    let mut w = (def.build)(seed);
    let t = Instant::now();
    let (reference, _) = run::pass(w.as_mut(), false);
    let untraced_pass_ns = t.elapsed().as_nanos() as f64;

    let mut units = Units::default();
    let (mut ops, mut failed) = (0, 0);
    let before = crate::alloc::snapshot();
    let t = Instant::now();
    rec.span("pass", "core", |rec| {
        for (call, untraced) in reference.iter().enumerate() {
            let out = rec.span(&format!("op{call}"), "core", |_| w.run(call, true));
            units.add(&out.units);
            ops += out.ops;
            // Observers only observe: simulated time and op count must
            // match the untraced pass (the digest may differ — it folds
            // in the audit digests when an auditor rides along).
            let same = out.sim_ns == untraced.sim_ns && out.ops == untraced.ops;
            failed += if same { out.failed } else { out.ops };
        }
    });
    ChildTrace {
        units,
        ops,
        failed,
        untraced_pass_ns,
        traced_pass_ns: t.elapsed().as_nanos() as f64,
        traced_allocs: before.elapsed().calls,
        ..ChildTrace::empty(&rec)
    }
}

/// Collects the spans of successive children into one id space and one
/// clock (nanoseconds since this collector was made).
pub struct SpanFile {
    epoch: Instant,
    lines: Vec<String>,
}

impl SpanFile {
    pub fn new() -> SpanFile {
        SpanFile {
            epoch: Instant::now(),
            lines: Vec::new(),
        }
    }

    /// Spawn a `tracechild` and adopt its spans.
    fn spawn(&mut self, args: Vec<String>) -> Result<ChildTrace, String> {
        let started_ns = self.epoch.elapsed().as_nanos() as i64;
        let child = ChildTrace::from_value(&run::spawn_self(&args)?)
            .ok_or("malformed tracechild result")?;
        let base = self.lines.len() as i64;
        for span in &child.spans {
            let Value::Map(fields) = span else { continue };
            let shifted = fields
                .iter()
                .map(|(k, v)| {
                    let v = match (k.as_str(), v) {
                        ("id" | "parent", Value::Int(i)) => Value::Int(i + base),
                        ("start_ns" | "end_ns", Value::Int(t)) => Value::Int(t + started_ns),
                        _ => v.clone(),
                    };
                    (k.clone(), v)
                })
                .collect();
            self.lines.push(json::to_string(&Value::Map(shifted)));
        }
        Ok(child)
    }

    pub fn probes(&mut self, seed: u64) -> Result<ChildTrace, String> {
        self.spawn(vec![
            "tracechild".into(),
            "--probes".into(),
            "--seed".into(),
            seed.to_string(),
        ])
    }

    pub fn pass(&mut self, def: &WorkloadDef, seed: u64) -> Result<ChildTrace, String> {
        self.spawn(vec![
            "tracechild".into(),
            "--pass".into(),
            "--workload".into(),
            def.name.into(),
            "--seed".into(),
            seed.to_string(),
        ])
    }

    pub fn span_count(&self) -> usize {
        self.lines.len()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

/// Every per-layer metric for one workload: the probes' numbers, the
/// traced pass's unit counts per op, and the two run-level ratios.
pub fn per_layer(probes: &ChildTrace, pass: &ChildTrace, untraced: &RunResult) -> Vec<Metric> {
    let ops = pass.ops.max(1) as f64;
    let u = &pass.units;
    let pass_s = untraced.get("ops_per_s").map_or(0.0, |r| ops / r);
    let per_op = |n: u64| n as f64 / ops;
    let counted = [
        ("mm-sim.events_per_op", per_op(u.events)),
        (
            "mm-sim.ns_per_event",
            if u.events > 0 {
                pass_s * 1e9 / u.events as f64
            } else {
                0.0
            },
        ),
        ("mm-sim.heap_high_water", u.heap_high_water as f64),
        ("mm-net.retransmits_per_op", per_op(u.retransmits)),
        ("mm-net.rto_per_op", per_op(u.rtos)),
        ("mm-net.tlp_per_op", per_op(u.tlps)),
        ("mm-shells.packets_per_load", per_op(u.packets)),
        ("mm-shells.drops_per_load", per_op(u.drops)),
        ("mm-trace.spans_per_load", per_op(u.spans)),
        ("mm-http.messages_per_load", per_op(u.http_messages)),
        ("mm-capture.events_per_load", per_op(u.capture_events)),
        ("mm-metrics.flow_samples_per_load", per_op(u.flow_samples)),
        ("mm-audit.violations", u.violations as f64),
        (
            "core.tracing_overhead_ratio",
            pass.traced_pass_ns / pass.untraced_pass_ns,
        ),
        ("core.pass_spread", untraced.pass_spread),
    ];
    // Catalogue order, so every run prints the same list.
    PER_LAYER
        .iter()
        .map(|def| {
            let value = counted
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(_, v)| *v)
                .or_else(|| {
                    probes
                        .metrics
                        .iter()
                        .find(|m| m.name == def.name)
                        .map(|m| m.value)
                })
                .unwrap_or_else(|| panic!("no value for per-layer metric {}", def.name));
            Metric {
                name: def.name,
                value,
                unit: def.unit,
            }
        })
        .collect()
}

/// The ledger for one workload: `unit_cost × units_per_op = est_ms_per_op`
/// per layer, beside the measured op time, so the unexplained remainder
/// is visible. A coarse attribution from outside — rows marked
/// `"summed": false` overlap a summed row and are shown for scale only.
pub fn ledger(
    def: &WorkloadDef,
    layer: &[Metric],
    pass: &ChildTrace,
    untraced: &RunResult,
) -> Value {
    let get = |name: &str| {
        layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let ops = pass.ops.max(1) as f64;
    let u = &pass.units;
    let packets = get("mm-shells.packets_per_load");
    let requests = get("mm-http.messages_per_load") / 2.0;
    let body_mb = u.body_bytes as f64 / ops / 1e6;
    let mb_ms = |rate: f64| {
        if rate > 0.0 {
            body_mb / rate * 1e3
        } else {
            0.0
        }
    };
    let observed = def.name == "pageload_observed";
    let page = def.name.starts_with("pageload_");
    let mux = def.name == "pageload_mux_cell";
    let on = |flag: bool, v: f64| if flag { v } else { 0.0 };

    // (layer, what, unit cost in ns, units per op, summed)
    let rows: Vec<(&str, &str, f64, f64, bool)> = vec![
        (
            "mm-sim",
            "dispatch_ns_per_event x events_per_op",
            get("mm-sim.dispatch_ns_per_event"),
            get("mm-sim.events_per_op"),
            false,
        ),
        (
            "mm-net",
            "bare_transfer_ns_per_segment x packets/2 (a data segment and its ack)",
            get("mm-net.bare_transfer_ns_per_segment"),
            packets / 2.0,
            true,
        ),
        (
            "mm-shells",
            "link_forward_ns_per_packet x packets",
            get("mm-shells.link_forward_ns_per_packet"),
            packets,
            true,
        ),
        (
            "mm-shells",
            "(instrumented + tapped overhead) x packets",
            get("mm-shells.instrumented_overhead_ns_per_packet")
                + get("mm-shells.tapped_overhead_ns_per_packet"),
            on(observed, packets),
            true,
        ),
        (
            "mm-http",
            "parse_request_ns x requests",
            get("mm-http.parse_request_ns"),
            on(page && !mux, requests),
            true,
        ),
        (
            "mm-http",
            "body MB / parse_response + body MB / serialize_response",
            (mb_ms(get("mm-http.parse_response_mb_per_s"))
                + mb_ms(get("mm-http.serialize_response_mb_per_s")))
                * 1e6,
            on(page && !mux, 1.0),
            true,
        ),
        (
            "mm-mux",
            "body MB / frame_encode + body MB / frame_decode",
            (mb_ms(get("mm-mux.frame_encode_mb_per_s"))
                + mb_ms(get("mm-mux.frame_decode_mb_per_s")))
                * 1e6,
            on(mux, 1.0),
            true,
        ),
        (
            "mm-replay",
            "match_exact_ns x requests",
            get("mm-replay.match_exact_ns"),
            on(page, requests),
            true,
        ),
        (
            "mm-replay",
            "index_build_us_per_site x 1",
            get("mm-replay.index_build_us_per_site") * 1e3,
            on(page, 1.0),
            true,
        ),
        (
            "core",
            "min_load_ms x 1 (world build and teardown)",
            get("core.min_load_ms") * 1e6,
            on(page, 1.0),
            true,
        ),
        (
            "mm-capture",
            "tap_event_ns x capture events",
            get("mm-capture.tap_event_ns"),
            on(observed, get("mm-capture.events_per_load")),
            true,
        ),
        (
            "mm-trace",
            "span_emit_ns x spans",
            get("mm-trace.span_emit_ns"),
            on(observed, get("mm-trace.spans_per_load")),
            true,
        ),
        (
            "mm-metrics",
            "flow_sample_ns x flow samples",
            get("mm-metrics.flow_sample_ns"),
            on(observed, get("mm-metrics.flow_samples_per_load")),
            true,
        ),
        (
            "mm-audit",
            "packet_event_ns x capture events",
            get("mm-audit.packet_event_ns"),
            on(observed, get("mm-capture.events_per_load")),
            true,
        ),
        (
            "mm-audit",
            "flow_sample_ns x flow samples",
            get("mm-audit.flow_sample_ns"),
            on(observed, get("mm-metrics.flow_samples_per_load")),
            true,
        ),
    ];
    let measured_ms = untraced.get("ops_per_s").map_or(0.0, |r| 1e3 / r);
    let mut explained_ms = 0.0;
    let rows: Vec<Value> = rows
        .into_iter()
        .filter(|(_, _, _, units, _)| *units > 0.0)
        .map(|(layer, what, cost_ns, units, summed)| {
            let est_ms = cost_ns * units / 1e6;
            if summed {
                explained_ms += est_ms;
            }
            json::obj(vec![
                ("layer", Value::Str(layer.into())),
                ("what", Value::Str(what.into())),
                ("unit_cost_ns", Value::Float(cost_ns)),
                ("units_per_op", Value::Float(units)),
                ("est_ms_per_op", Value::Float(est_ms)),
                ("summed", Value::Bool(summed)),
            ])
        })
        .collect();
    json::obj(vec![
        ("workload", Value::Str(def.name.into())),
        ("measured_ms_per_op", Value::Float(measured_ms)),
        ("explained_ms_per_op", Value::Float(explained_ms)),
        (
            "unexplained_ms_per_op",
            Value::Float(measured_ms - explained_ms),
        ),
        (
            "traced_ms_per_op",
            Value::Float(pass.traced_pass_ns / 1e6 / ops),
        ),
        (
            "traced_allocs_per_op",
            Value::Float(pass.traced_allocs as f64 / ops),
        ),
        ("rows", Value::Seq(rows)),
    ])
}

/// `layers.json`: the predictions written down before measuring (which
/// end-to-end metric, on which workload, each layer metric should move)
/// and one ledger per traced workload.
pub fn layers_file(ledgers: Vec<(&str, Value)>) -> String {
    let predictions = PER_LAYER
        .iter()
        .map(|m| {
            json::obj(vec![
                ("metric", Value::Str(m.name.into())),
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.as_str().into())),
                ("should_move", Value::Str(m.moves.into())),
            ])
        })
        .collect();
    json::to_string(&json::obj(vec![
        ("predictions", Value::Seq(predictions)),
        ("ledgers", json::obj(ledgers)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_result_round_trips() {
        let mut rec = Recorder::new();
        rec.set_workload("w");
        rec.span("pass", "core", |rec| rec.span("op0", "core", |_| ()));
        let child = ChildTrace {
            metrics: vec![Metric {
                name: "core.min_load_ms",
                value: 0.5,
                unit: "ms",
            }],
            units: Units {
                packets: 7,
                heap_high_water: 3,
                ..Units::default()
            },
            ops: 2,
            traced_allocs: 99,
            ..ChildTrace::empty(&rec)
        };
        let text = json::to_string(&child.to_value());
        let back = ChildTrace::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.units, child.units);
        assert_eq!(back.metrics, child.metrics);
        assert_eq!((back.ops, back.traced_allocs), (2, 99));
        assert_eq!(back.spans.len(), 2);
        assert_eq!(json::get(&back.spans[1], "parent"), Some(&Value::Int(0)));
    }
}
