//! The shared experiment runner: every `bench/src/bin/*` binary is the
//! same six lines of arg parsing, header printing and JSON writing
//! around a different experiment body. [`ExperimentSpec`] owns that
//! boilerplate so a new experiment binary is just a spec literal.

use std::path::{Path, PathBuf};

use mahimahi::obs::{Artefact, Recording};

use crate::report::{header, write_bench_json};

/// The corpus-wide experiment seed (the paper's publication year).
pub(crate) const DEFAULT_SEED: u64 = 2014;

/// Flat `(key, value)` metrics an experiment body hands back for the
/// BENCH JSON file.
pub(crate) type Metrics = Vec<(String, f64)>;

/// How one artefact channel appears on every binary's command line.
struct Output {
    artefact: Artefact,
    /// The flag; its value says where to write.
    flag: &'static str,
    /// The file written inside the flag's directory; `None` when the
    /// flag's value is itself the file.
    file: Option<&'static str>,
    /// What the completion message counts: lines containing `counted`,
    /// called `noun`.
    counted: &'static str,
    noun: &'static str,
}

/// The observer flags, one row per [`Artefact`].
const OUTPUTS: [Output; 4] = [
    Output {
        artefact: Artefact::Trace,
        flag: "--trace-out",
        file: None,
        counted: "",
        noun: "flow samples",
    },
    Output {
        artefact: Artefact::Capture,
        flag: "--capture-out",
        file: Some("capture.jsonl"),
        counted: "",
        noun: "capture events",
    },
    Output {
        artefact: Artefact::Span,
        flag: "--span-out",
        file: Some("spans.jsonl"),
        counted: "",
        noun: "spans",
    },
    Output {
        artefact: Artefact::Audit,
        flag: "--audit-out",
        file: Some("audit.jsonl"),
        counted: "\"ev\":\"violation\"",
        noun: "violation(s)",
    },
];

/// One experiment binary: name, default scale, and the body.
pub struct ExperimentSpec {
    /// Bench name — also the `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// Default for the first CLI argument (sites or loads per arm).
    pub default_sites: usize,
    /// Section-header title for the parsed scale.
    pub title: fn(n: usize) -> String,
    /// Run the experiment at `(n, seed)`, recording into `recording`
    /// (set on every spec the body builds): print the human-readable
    /// tables, return the flat JSON metrics — or `None` for experiments
    /// that do not write a BENCH file (corpus_stats).
    pub run: fn(n: usize, seed: u64, recording: Option<&Recording>) -> Option<Metrics>,
}

impl ExperimentSpec {
    /// Parse `argv[1]` (falling back to `default_sites`; a scale of 0
    /// exits 2), print the header, run the body, and write `BENCH_<name>.json` if the body
    /// returned metrics. Binaries call this from `main`.
    ///
    /// Every binary also accepts the observer flags of `OUTPUTS`
    /// (after any positional arguments). Each puts one [`Artefact`] in
    /// the run's [`Recording`], so the first worlds the body builds —
    /// page loads, fleets and soaks alike, up to the artefact's budget —
    /// record it. After the run the recording's JSONL is written:
    ///
    /// - `--trace-out <file>`: per-flow TCP samples (cwnd, srtt,
    ///   in-flight, delivered, state transitions);
    /// - `--capture-out <dir>`: per-packet enqueue/dequeue/drop/deliver
    ///   at every shell plus request/response events at the browser and
    ///   replay boundaries, as `<dir>/capture.jsonl` — render it with
    ///   `mmgraph <dir>`;
    /// - `--span-out <dir>`: page/resource/phase spans from the browser,
    ///   `ServerThink` from the replay servers, `ConnSetup`/`HolWait`/
    ///   `Conn` from the TCP layer, as `<dir>/spans.jsonl` — analyze it
    ///   with `mmpath <dir>/spans.jsonl`;
    /// - `--audit-out <dir>` (or bare `--audit`, meaning `.`):
    ///   packet-conservation ledgers, TCP invariants and HTTP/span
    ///   consistency checked online, the per-world reports plus
    ///   order-insensitive equivalence digests as `<dir>/audit.jsonl` —
    ///   render or gate with `mmaudit <dir>`, compare runs with
    ///   `mmaudit --compare`.
    ///
    /// Observers only observe — the BENCH output is byte-identical with
    /// any of them on or off.
    pub fn main(&self) {
        let args: Vec<String> = std::env::args().collect();
        let outputs: Vec<(&Output, String)> = OUTPUTS
            .iter()
            .filter_map(|out| {
                // Bare `--audit` audits into the current directory.
                let bare = out.artefact == Artefact::Audit && args.iter().any(|a| a == "--audit");
                let value = match args.iter().position(|a| a == out.flag) {
                    Some(i) => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                        Some(value) => value.clone(),
                        None => {
                            eprintln!("{} requires a value: where to write", out.flag);
                            std::process::exit(2);
                        }
                    },
                    None if bare => ".".to_string(),
                    None => return None,
                };
                Some((out, value))
            })
            .collect();
        let n = args
            .get(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(self.default_sites);
        if n == 0 {
            eprintln!("the scale (sites, loads, users or minutes) must be at least 1");
            std::process::exit(2);
        }
        header(&(self.title)(n));
        let artefacts: Vec<Artefact> = outputs.iter().map(|(out, _)| out.artefact).collect();
        let recording = Recording::of(&artefacts);
        let metrics = (self.run)(n, DEFAULT_SEED, Some(&recording));
        let written = recording.into_jsonl();
        for (out, value) in &outputs {
            let jsonl = &written[out.artefact as usize];
            let count = jsonl.lines().filter(|l| l.contains(out.counted)).count();
            let write = match out.file {
                Some(file) => std::fs::create_dir_all(value).map(|()| Path::new(value).join(file)),
                None => Ok(PathBuf::from(value)),
            }
            .and_then(|path| std::fs::write(&path, jsonl).map(|()| path));
            match write {
                Ok(path) => println!("\n  wrote {} ({count} {})", path.display(), out.noun),
                Err(e) => eprintln!("\n  could not write {} output to {value}: {e}", out.flag),
            }
        }
        if let Some(metrics) = metrics {
            match write_bench_json(self.name, DEFAULT_SEED, n, &metrics) {
                Ok(path) => println!("\n  wrote {}", path.display()),
                Err(e) => eprintln!("\n  could not write BENCH_{}.json: {e}", self.name),
            }
        }
    }
}
