//! `perf` — the host-time benchmark of the simulator, measured from
//! outside through public functions. See `perf/README.md`.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run (the benchmark contract)
//! perf [all] [--seed N] [--seconds S]                  all seven workloads, then the traced run
//! perf agree A.json B.json                             is result set B no worse than A?
//! perf catalogue                                        print /BENCHMARK.json
//! ```
//! `chunk` and `tracechild` are the child processes the above spawn.

mod agree;
mod alloc;
mod api;
mod json;
mod metrics;
mod probe;
mod run;
mod spans;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use json::Value;
use metrics::Metric;
use run::{RunResult, WorkloadDef, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 2014;
/// `run_seconds` of `/BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;
const OUT_DIR: &str = "perf/out";

struct Args {
    command: String,
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

/// `[command] (--flag [value] | positional)*`. A flag followed by
/// another flag, or by nothing, is a bare switch.
fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        command: String::new(),
        flags: BTreeMap::new(),
        positional: Vec::new(),
    };
    let mut it = raw.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(flag) => {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                    _ => String::new(),
                };
                args.flags.insert(flag.to_string(), value);
            }
            None => args.positional.push(a.clone()),
        }
    }
    if args.command.is_empty() {
        args.command = if args.flags.contains_key("workload") {
            "run"
        } else {
            "all"
        }
        .to_string();
    }
    args
}

impl Args {
    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag} {v:?} is not a whole number")),
        }
    }

    fn workload(&self) -> Result<&'static WorkloadDef, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        run::workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))
}

/// `workload metric value unit`, one line per metric.
fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

fn print_run(r: &RunResult) {
    print_metrics(r.workload, &r.metrics);
    let w = r.workload;
    for (name, why) in &r.omitted {
        println!("{w} {name} n/a {why}");
    }
    println!(
        "{w} sim_digest {:016x}  timed passes {}  distinct calls {}  pass_spread {:.3}  allocs_stable {}  alloc_kb_per_op {:.1}",
        r.sim_digest, r.passes, r.distinct_calls, r.pass_spread, r.allocs_stable, r.alloc_kb_per_op
    );
}

/// The end-to-end metrics `/BENCHMARK.json` lists, for the result line.
fn contract_metrics(r: &RunResult) -> Vec<Metric> {
    metrics::END_TO_END
        .iter()
        .filter(|def| def.contract)
        .map(|def| Metric {
            name: def.name,
            value: r
                .get(def.name)
                .expect("every workload reports every contract metric"),
            unit: def.unit,
        })
        .collect()
}

/// The contract command: one workload, traced or not, result line last.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let def = args.workload()?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    if args.number("trace", 0)? == 0 {
        let r = run::run_untraced(def, seed, seconds)?;
        print_run(&r);
        println!(
            "{}",
            run::contract_line(r.correct(), r.attempted, r.failed, &contract_metrics(&r))
        );
        return Ok(r.correct());
    }
    // Traced: a short untraced reference, then probes and the traced
    // pass, each in its own process.
    let passes = def.chunk_passes.min(3);
    let reference = run::fold(def, seed, &[run::spawn_chunk(def, seed, passes, 1)?]);
    let mut spans = trace::SpanFile::new();
    let probes = spans.probes(seed)?;
    let pass = spans.pass(def, seed)?;
    let layer = trace::per_layer(&probes, &pass, &reference);
    print_metrics(def.name, &layer);
    write_out("trace.jsonl", &spans.to_jsonl())?;
    let ledger = trace::ledger(def, &layer, &pass, &reference);
    write_out("layers.json", &trace::layers_file(vec![(def.name, ledger)]))?;
    let violations = pass.units.violations;
    let failed = pass.failed + reference.failed;
    let correct = failed == 0 && violations == 0;
    println!(
        "{}",
        run::contract_line(correct, pass.ops + reference.attempted, failed, &layer)
    );
    Ok(correct)
}

/// Every workload untraced, then the traced run over all of them;
/// prints every metric and writes `results.json`, `trace.jsonl` and
/// `layers.json` under `perf/out/`.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let mut ok = true;
    let mut runs = Vec::new();
    for def in &WORKLOADS {
        println!(
            "# {} ({} passes): {}",
            def.name,
            run::passes_for(def, seconds),
            def.why
        );
        let r = run::run_untraced(def, seed, seconds)?;
        print_run(&r);
        ok &= r.correct();
        runs.push(r);
    }
    println!("# traced run");
    let mut spans = trace::SpanFile::new();
    let probes = spans.probes(seed)?;
    let mut ledgers = Vec::new();
    let mut results = Vec::new();
    for (def, r) in WORKLOADS.iter().zip(&runs) {
        let pass = spans.pass(def, seed)?;
        let layer = trace::per_layer(&probes, &pass, r);
        print_metrics(def.name, &layer);
        ok &= pass.failed == 0 && pass.units.violations == 0;
        ledgers.push((def.name, trace::ledger(def, &layer, &pass, r)));
        let Value::Map(mut fields) = r.to_value() else {
            unreachable!("to_value builds an object")
        };
        fields.push(("per_layer".to_string(), run::metrics_value(&layer)));
        results.push((def.name, Value::Map(fields)));
    }
    let ops_per_s = |name: &str| runs.iter().find(|r| r.workload == name)?.get("ops_per_s");
    let ratio = ops_per_s("pageload_http1")
        .zip(ops_per_s("pageload_observed"))
        .map(|(off, on)| off / on);
    if let Some(ratio) = ratio {
        println!("all observers_on_off_ratio_full_run {ratio} ratio (ops_per_s pageload_http1 / pageload_observed)");
    }
    write_out("trace.jsonl", &spans.to_jsonl())?;
    write_out("layers.json", &trace::layers_file(ledgers))?;
    let summary = json::obj(vec![
        ("seed", Value::Int(seed as i64)),
        ("seconds", Value::Int(seconds as i64)),
        ("spans", Value::Int(spans.span_count() as i64)),
        ("correct", Value::Bool(ok)),
        ("workloads", json::obj(results)),
        ("claim", Value::Null),
    ]);
    write_out("results.json", &json::to_string(&summary))?;
    println!(
        "# wrote {OUT_DIR}/results.json, trace.jsonl, layers.json; correct: {ok}; \"claim\": null"
    );
    Ok(ok)
}

fn cmd_agree(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: perf agree A.json B.json".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (breaches, lines) = agree::compare(&load(a)?, &load(b)?);
    for l in &lines {
        println!("{l}");
    }
    for br in &breaches {
        println!("BREACH {} {}", br.workload, br.what);
    }
    println!("{} comparisons, {} breaches", lines.len(), breaches.len());
    Ok(breaches.is_empty())
}

/// Child of `run`: some passes of one workload, measured, as JSON.
fn cmd_chunk(args: &Args) -> Result<bool, String> {
    let chunk = run::run_chunk(
        args.workload()?,
        args.number("seed", DEFAULT_SEED)?,
        args.number("passes", 3)? as usize,
        args.number("setups", 1)? as usize,
    );
    println!("{}", json::to_string(&chunk.to_value()));
    Ok(true)
}

/// Child of the traced run: the layer probes, or one traced pass.
fn cmd_tracechild(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let child = if args.flags.contains_key("probes") {
        trace::child_probes(seed)
    } else {
        trace::child_pass(args.workload()?, seed)
    };
    println!("{}", json::to_string(&child.to_value()));
    Ok(true)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);
    let outcome = match args.command.as_str() {
        "run" => cmd_run(&args),
        "all" => cmd_all(&args),
        "agree" => cmd_agree(&args),
        "catalogue" => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        "chunk" => cmd_chunk(&args),
        "tracechild" => cmd_tracechild(&args),
        other => Err(format!("unknown command {other:?}; see perf/README.md")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_flags_mean_run() {
        let a = parse(&[
            "--workload",
            "fleet_64",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(a.command, "run");
        assert_eq!(a.workload().unwrap().name, "fleet_64");
        assert_eq!(a.number("seed", 0), Ok(7));
        assert_eq!(a.number("trace", 0), Ok(1));
    }

    #[test]
    fn no_workload_means_all_and_switches_are_bare() {
        assert_eq!(parse(&[]).command, "all");
        assert_eq!(parse(&["--seed", "3"]).command, "all");
        let a = parse(&["tracechild", "--probes", "--seed", "3"]);
        assert_eq!(a.command, "tracechild");
        assert!(a.flags.contains_key("probes"));
        assert_eq!(a.number("seed", 0), Ok(3));
        let a = parse(&["agree", "a.json", "b.json"]);
        assert_eq!(a.positional, ["a.json", "b.json"]);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(parse(&["--workload", "nope"]).workload().is_err());
        assert!(parse(&["--seed", "x"]).number("seed", 0).is_err());
    }
}
