//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound. The same
//! table is written into `/BENCHMARK.json`; a unit test keeps the two in
//! step.

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; 0
    /// means any value above 0 is a breach.
    pub bound: f64,
    /// Exact counts must be *equal* between two runs of one commit on
    /// one seed, not merely within `bound` (see `agree`).
    pub exact: bool,
    /// Listed in `/BENCHMARK.json` and printed on the result line. The
    /// benchmark contract wants every listed metric from every workload
    /// and never 0, so the per-op times (not observable on every
    /// workload) and `failed_share` (0 on a healthy run) are reported,
    /// and gated by `agree`, outside it.
    pub contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
        contract,
    }
}

/// The same eight names on every workload.
///
/// Every bound covers the metric's spread *across seeds* (the driver
/// compares runs on different seeds), which for the counts is far wider
/// than their spread on one seed, where they repeat exactly: hence
/// `exact`.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("ops_per_s", "op/s", Better::Higher, 0.25, true),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25, false),
    e2e("op_ms_p90", "ms", Better::Lower, 0.25, false),
    e2e("sim_x_realtime", "ratio", Better::Higher, 0.25, true),
    EndToEnd {
        exact: true,
        ..e2e("allocs_per_op", "count", Better::Lower, 0.10, true)
    },
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, true),
    e2e("failed_share", "ratio", Better::Lower, 0.0, false),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this layer metric should move
    /// (the prediction written down before measuring).
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const OBS: &str = "ops_per_s on pageload_observed only";
const PAGES: &str = "ops_per_s on every pageload_*";
const SETUP: &str = "setup_s on every pageload_*";

/// Layer = crate. The prefix before the first `.` names the crate.
pub const PER_LAYER: [PerLayer; 68] = [
    pl(
        "mm-sim.dispatch_ns_per_event",
        "ns",
        L,
        "ops_per_s on transfer_clean and fleet_64 most, all others a little",
    ),
    pl(
        "mm-sim.same_ts_dispatch_ns_per_event",
        "ns",
        L,
        "ops_per_s on transfer_clean and fleet_64",
    ),
    pl(
        "mm-sim.timer_rearm_ns",
        "ns",
        L,
        "ops_per_s on transfer_* (RTO re-arm per ack)",
    ),
    pl(
        "mm-sim.timer_fire_ns",
        "ns",
        L,
        "ops_per_s on transfer_lossy (pacing, TLP fires)",
    ),
    pl(
        "mm-sim.timermux_rearm_ns",
        "ns",
        L,
        "ops_per_s on fleet_64 and soak_open_loop only",
    ),
    pl(
        "mm-sim.events_per_op",
        "count",
        L,
        "ops_per_s on the traced workload (0 = not observable from outside)",
    ),
    pl(
        "mm-sim.ns_per_event",
        "ns",
        L,
        "ops_per_s on transfer_* and soak_open_loop (0 = not observable)",
    ),
    pl(
        "mm-sim.heap_high_water",
        "count",
        L,
        "peak_rss_mb on fleet_64 (0 = not observable)",
    ),
    pl(
        "mm-net.bare_transfer_ns_per_segment",
        "ns",
        L,
        "ops_per_s on transfer_clean",
    ),
    pl(
        "mm-net.allocs_per_segment",
        "count",
        L,
        "allocs_per_op everywhere",
    ),
    pl(
        "mm-net.alloc_bytes_per_payload_byte",
        "ratio",
        L,
        "allocs_per_op and peak_rss_mb on transfer_*",
    ),
    pl(
        "mm-net.conn_setup_us",
        "us",
        L,
        "ops_per_s on pageload_http1 and soak_open_loop",
    ),
    pl(
        "mm-net.conntable_op_ns",
        "ns",
        L,
        "ops_per_s on pageload_http1 and soak_open_loop",
    ),
    pl(
        "mm-net.clean_reno_ms",
        "ms",
        L,
        "ops_per_s on transfer_clean",
    ),
    pl(
        "mm-net.clean_bbr_ms",
        "ms",
        L,
        "ops_per_s on transfer_clean",
    ),
    pl(
        "mm-net.lossy_newreno_ms",
        "ms",
        L,
        "ops_per_s on transfer_lossy; none on transfer_clean",
    ),
    pl(
        "mm-net.lossy_sack_ms",
        "ms",
        L,
        "ops_per_s on transfer_lossy; none on transfer_clean",
    ),
    pl(
        "mm-net.lossy_racktlp_ms",
        "ms",
        L,
        "ops_per_s on transfer_lossy and pageload_mux_cell; none on transfer_clean",
    ),
    pl(
        "mm-net.lossy_bbr_ms",
        "ms",
        L,
        "ops_per_s on transfer_lossy; none on transfer_clean",
    ),
    pl(
        "mm-net.retransmits_per_op",
        "count",
        L,
        "ops_per_s on the traced workload",
    ),
    pl(
        "mm-net.rto_per_op",
        "count",
        L,
        "sim_x_realtime on the traced workload",
    ),
    pl(
        "mm-net.tlp_per_op",
        "count",
        L,
        "ops_per_s on transfer_lossy and pageload_mux_cell",
    ),
    pl(
        "mm-shells.droptail_ns_per_packet",
        "ns",
        L,
        "ops_per_s on transfer_* and pageload_http1",
    ),
    pl(
        "mm-shells.codel_ns_per_packet",
        "ns",
        L,
        "ops_per_s on pageload_mux_cell and fleet_64",
    ),
    pl(
        "mm-shells.pie_ns_per_packet",
        "ns",
        L,
        "none on any workload (no workload runs PIE)",
    ),
    pl(
        "mm-shells.instrumented_overhead_ns_per_packet",
        "ns",
        L,
        "ops_per_s on pageload_observed and soak_open_loop",
    ),
    pl("mm-shells.tapped_overhead_ns_per_packet", "ns", L, OBS),
    pl(
        "mm-shells.link_forward_ns_per_packet",
        "ns",
        L,
        "ops_per_s on pageload_mux_cell and transfer_*",
    ),
    pl(
        "mm-shells.packets_per_load",
        "count",
        L,
        "ops_per_s on the traced workload (0 = not observable)",
    ),
    pl(
        "mm-shells.drops_per_load",
        "count",
        L,
        "ops_per_s on the traced workload via retransmissions",
    ),
    pl(
        "mm-trace.parse_mb_per_s",
        "MB/s",
        H,
        "setup_s of a run that reads trace files",
    ),
    pl(
        "mm-trace.opportunity_search_ns",
        "ns",
        L,
        "ops_per_s on pageload_mux_cell",
    ),
    pl(
        "mm-trace.cellular_generate_ms",
        "ms",
        L,
        "setup_s on pageload_mux_cell",
    ),
    pl("mm-trace.span_emit_ns", "ns", L, OBS),
    pl("mm-trace.spans_per_load", "count", L, OBS),
    pl(
        "mm-http.parse_request_ns",
        "ns",
        L,
        "ops_per_s on pageload_http1 and soak_open_loop; none on transfer_*",
    ),
    pl(
        "mm-http.parse_response_mb_per_s",
        "MB/s",
        H,
        "ops_per_s on pageload_http1 and soak_open_loop",
    ),
    pl(
        "mm-http.serialize_response_mb_per_s",
        "MB/s",
        H,
        "ops_per_s on pageload_http1 and soak_open_loop",
    ),
    pl(
        "mm-http.messages_per_load",
        "count",
        L,
        "ops_per_s on the traced workload (0 = not observable)",
    ),
    pl(
        "mm-mux.frame_encode_mb_per_s",
        "MB/s",
        H,
        "ops_per_s on pageload_mux_cell; none on pageload_http1",
    ),
    pl(
        "mm-mux.frame_decode_mb_per_s",
        "MB/s",
        H,
        "ops_per_s on pageload_mux_cell; none on pageload_http1",
    ),
    pl("mm-replay.match_exact_ns", "ns", L, PAGES),
    pl("mm-replay.match_prefix_ns", "ns", L, PAGES),
    pl(
        "mm-replay.index_build_us_per_site",
        "us",
        L,
        "ops_per_s on every pageload_* (paid per load today)",
    ),
    pl("mm-browser.extract_urls_mb_per_s", "MB/s", H, PAGES),
    pl("mm-corpus.generate_plans_ms", "ms", L, SETUP),
    pl("mm-corpus.materialize_ms_per_site", "ms", L, SETUP),
    pl("mm-capture.tap_event_ns", "ns", L, OBS),
    pl(
        "mm-capture.jsonl_encode_mb_per_s",
        "MB/s",
        H,
        "none on any workload (artefacts are not encoded in timed passes)",
    ),
    pl("mm-capture.events_per_load", "count", L, OBS),
    pl(
        "mm-metrics.counter_add_ns",
        "ns",
        L,
        "ops_per_s on pageload_observed and soak_open_loop",
    ),
    pl("mm-metrics.flow_sample_ns", "ns", L, OBS),
    pl(
        "mm-metrics.encode_us",
        "us",
        L,
        "none on any workload (snapshots are not encoded in timed passes)",
    ),
    pl("mm-metrics.flow_samples_per_load", "count", L, OBS),
    pl("mm-audit.packet_event_ns", "ns", L, OBS),
    pl("mm-audit.flow_sample_ns", "ns", L, OBS),
    pl(
        "mm-audit.violations",
        "count",
        L,
        "must be 0: a violation fails the run",
    ),
    pl(
        "core.min_load_ms",
        "ms",
        L,
        "ops_per_s on every pageload_* (world build and teardown)",
    ),
    pl(
        "core.rss_growth_kb_per_load",
        "kB",
        L,
        "peak_rss_mb on every pageload_*",
    ),
    pl(
        "core.live_heap_growth_kb_per_load",
        "kB",
        L,
        "peak_rss_mb on every pageload_*: heap never freed, exact",
    ),
    pl(
        "core.observers_on_off_ratio",
        "ratio",
        L,
        "ops_per_s pageload_http1 / pageload_observed",
    ),
    pl("core.capture_on_off_ratio", "ratio", L, OBS),
    pl("core.spans_on_off_ratio", "ratio", L, OBS),
    pl("core.audit_on_off_ratio", "ratio", L, OBS),
    pl("core.metrics_on_off_ratio", "ratio", L, OBS),
    pl(
        "core.tracing_overhead_ratio",
        "ratio",
        L,
        "none: traced pass / untraced pass of the traced workload",
    ),
    pl(
        "core.pass_spread",
        "ratio",
        L,
        "none: the run's own noise reading",
    ),
    pl(
        "bench.parallel_map_efficiency",
        "ratio",
        H,
        "sweep bins only; none on any workload (all single-threaded)",
    ),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `/BENCHMARK.json` as the catalogue defines it, one entry per line:
/// what `perf catalogue` prints. The file at the root of the repo is
/// this text; a unit test fails when the two drift apart.
pub fn benchmark_json() -> String {
    use crate::json::{self, Value};
    let s = |x: &str| Value::Str(x.to_string());
    let lines = |items: Vec<Value>| -> String {
        let body: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", json::to_string(v)))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = crate::run::WORKLOADS
        .iter()
        .map(|w| json::obj(vec![("name", s(w.name)), ("why", s(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.contract)
        .map(|m| {
            json::obj(vec![
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.as_str())),
                ("bound", Value::Float(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            json::obj(vec![
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\",\"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        crate::DEFAULT_SECONDS,
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, name_ok, unit_ok};

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let expected = benchmark_json();
        json::parse(&expected).expect("generated BENCHMARK.json is valid JSON");
        assert!(expected.len() < 64 * 1024);
        let on_disk =
            std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repo root");
        assert_eq!(
            on_disk, expected,
            "BENCHMARK.json is stale: rewrite it with `perf/run.sh catalogue > BENCHMARK.json`"
        );
    }

    #[test]
    fn every_predicted_move_names_something() {
        assert!(PER_LAYER.iter().all(|m| !m.moves.is_empty()));
    }

    #[test]
    fn catalogue_names_and_units_are_legal_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "{u}");
        }
        let contract: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.contract).collect();
        assert!(contract.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert!(
            setup.contract && contract.iter().all(|m| m.bound <= setup.bound),
            "setup_s is in the contract and has the largest bound"
        );
    }
}
