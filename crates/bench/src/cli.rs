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
    /// The one word the bin accepts after its scale (figshare's `smoke`).
    pub word: Option<&'static str>,
    /// Section-header title for the parsed scale.
    pub title: fn(n: usize) -> String,
    /// Run the experiment at `(n, seed)` — `word` says whether the spec's
    /// word was given — recording into `recording` (set on every spec the
    /// body builds): print the human-readable tables, return the flat
    /// JSON metrics — or `None` for experiments that do not write a BENCH
    /// file (corpus_stats).
    pub run: fn(n: usize, word: bool, seed: u64, recording: Option<&Recording>) -> Option<Metrics>,
}

/// What a bin's command line asked for.
#[derive(Debug, PartialEq)]
struct Args {
    scale: usize,
    /// The spec's word was given.
    word: bool,
    /// Each observer flag given: its artefact, and where to write it.
    outputs: Vec<(Artefact, String)>,
}

/// Parse the arguments after the bin's name: `[scale] [word] [observer
/// flags]`. Anything else — an unknown flag, a scale that is not a
/// number ≥ 1, a flag without its value — is an error.
fn parse(args: &[String], default_scale: usize, word: Option<&str>) -> Result<Args, String> {
    let mut rest = args.iter().map(String::as_str).peekable();
    let mut parsed = Args {
        scale: default_scale,
        word: false,
        outputs: Vec::new(),
    };
    if let Some(first) = rest.next_if(|a| !a.starts_with("--")) {
        parsed.scale = match first.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("the scale must be a number ≥ 1, not `{first}`")),
        };
        parsed.word = word.is_some() && rest.next_if(|&a| Some(a) == word).is_some();
    }
    while let Some(arg) = rest.next() {
        // Bare `--audit` audits into the current directory.
        if arg == "--audit" {
            parsed.outputs.push((Artefact::Audit, ".".to_string()));
            continue;
        }
        let Some(out) = OUTPUTS.iter().find(|out| out.flag == arg) else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let Some(value) = rest.next_if(|v| !v.starts_with("--")) else {
            return Err(format!("{arg} requires a value: where to write"));
        };
        parsed.outputs.push((out.artefact, value.to_string()));
    }
    Ok(parsed)
}

impl ExperimentSpec {
    /// Parse the command line — `[scale] [word] [observer flags]`, or
    /// exit 2 with a usage line — print the header, run the body, and
    /// write `BENCH_<name>.json` if the body returned metrics. Binaries
    /// call this from `main`.
    ///
    /// The observer flags are those of `OUTPUTS`. Each puts one
    /// [`Artefact`] in the run's [`Recording`], so the first worlds the
    /// body builds — page loads, fleets and soaks alike, up to the
    /// artefact's budget — record it. After the run the recording's
    /// JSONL is written:
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
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let args = parse(&argv, self.default_sites, self.word).unwrap_or_else(|e| {
            let word = self.word.map(|w| format!(" [{w}]")).unwrap_or_default();
            eprintln!("{}: {e}", self.name);
            eprintln!(
                "usage: {} [scale]{word} [--trace-out <file>] [--capture-out <dir>] \
                 [--span-out <dir>] [--audit-out <dir> | --audit]",
                self.name
            );
            std::process::exit(2);
        });
        let n = args.scale;
        header(&(self.title)(n));
        let artefacts: Vec<Artefact> = args.outputs.iter().map(|&(a, _)| a).collect();
        let recording = Recording::of(&artefacts);
        let metrics = (self.run)(n, args.word, DEFAULT_SEED, Some(&recording));
        let written = recording.into_jsonl();
        for (artefact, value) in &args.outputs {
            let out = OUTPUTS.iter().find(|out| out.artefact == *artefact);
            let out = out.expect("every artefact has a flag");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// The word figshare declares; no other bin has one.
    fn word_of(bin: &str) -> Option<&'static str> {
        (bin == "figshare").then_some("smoke")
    }

    #[test]
    fn argv_parses_or_says_why_not() {
        use Artefact::{Audit, Capture, Trace};
        let ok = |scale, word, outputs: &[(Artefact, &str)]| {
            Ok(Args {
                scale,
                word,
                outputs: outputs.iter().map(|&(a, v)| (a, v.to_string())).collect(),
            })
        };
        let err = |e: &str| Err(e.to_string());
        let table: [(&str, &str, Result<Args, String>); 14] = [
            ("fig2", "", ok(7, false, &[])),
            ("fig2", "12", ok(12, false, &[])),
            ("fig2", "12 --audit-out a", ok(12, false, &[(Audit, "a")])),
            (
                "figcell",
                "--capture-out c --audit-out a",
                ok(7, false, &[(Capture, "c"), (Audit, "a")]),
            ),
            (
                "figshare",
                "4 smoke --audit-out a",
                ok(4, true, &[(Audit, "a")]),
            ),
            ("figshare", "4", ok(4, false, &[])),
            ("fig2", "2 --audit", ok(2, false, &[(Audit, ".")])),
            (
                "fig2",
                "--trace-out t.jsonl",
                ok(7, false, &[(Trace, "t.jsonl")]),
            ),
            ("figsoak", "--smoke", err("unexpected argument `--smoke`")),
            (
                "fig3",
                "4 --captur-out x",
                err("unexpected argument `--captur-out`"),
            ),
            (
                "fig2",
                "abc",
                err("the scale must be a number ≥ 1, not `abc`"),
            ),
            ("fig2", "0", err("the scale must be a number ≥ 1, not `0`")),
            (
                "fig2",
                "4 --audit-out",
                err("--audit-out requires a value: where to write"),
            ),
            ("fig2", "4 smoke", err("unexpected argument `smoke`")),
        ];
        for (bin, line, want) in table {
            assert_eq!(parse(&args(line), 7, word_of(bin)), want, "{bin} {line}");
        }
    }

    /// Every experiment-bin command line CI runs parses.
    #[test]
    fn every_ci_command_line_parses() {
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let mut seen = 0;
        for line in ci
            .lines()
            .filter(|l| l.contains("cargo run") && l.contains("-p bench"))
        {
            let bin = line
                .split("--bin ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .expect("a --bin");
            // benchdiff compares BENCH files; it is not an experiment.
            if bin == "benchdiff" {
                continue;
            }
            let after = line.split_once(" -- ").map_or("", |(_, a)| a);
            let parsed = parse(&args(after), 7, word_of(bin));
            assert!(parsed.is_ok(), "{line}: {parsed:?}");
            seen += 1;
        }
        assert!(seen >= 10, "only {seen} experiment lines found in ci.yml");
    }
}
