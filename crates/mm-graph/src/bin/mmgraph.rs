//! `mmgraph` — render capture files into SVG graphs and CSV tables.
//!
//! Usage:
//!
//! ```text
//! mmgraph <capture.jsonl | dir> [--out <dir>] [--bin-ms <n>]
//! ```
//!
//! Given a directory (e.g. an experiment's `--capture-out` dir), reads
//! the `capture.jsonl` inside it. Artifacts are written next to the
//! input unless `--out` says otherwise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mm_graph::{parse_capture_bytes, render_capture, write_artifact, DEFAULT_BIN_MS};

fn usage() -> ExitCode {
    eprintln!("usage: mmgraph <capture.jsonl|dir> [--out <dir>] [--bin-ms <n>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut bin_ms = DEFAULT_BIN_MS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                out_dir = Some(PathBuf::from(v));
                i += 2;
            }
            "--bin-ms" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => bin_ms = n,
                    _ => {
                        eprintln!("mmgraph: --bin-ms wants a positive integer, got {v:?}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            a if a.starts_with("--") => return usage(),
            a => {
                if input.is_some() {
                    return usage();
                }
                input = Some(PathBuf::from(a));
                i += 1;
            }
        }
    }
    let Some(input) = input else {
        return usage();
    };
    match run(&input, out_dir, bin_ms) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mmgraph: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(input: &Path, out_dir: Option<PathBuf>, bin_ms: u64) -> Result<(), String> {
    let file = if input.is_dir() {
        input.join("capture.jsonl")
    } else {
        input.to_path_buf()
    };
    let bytes = std::fs::read(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
    let captures =
        parse_capture_bytes(&bytes).map_err(|e| format!("parse {}: {e}", file.display()))?;
    if captures.is_empty() {
        return Err(format!("{} holds no events", file.display()));
    }
    let out_dir = out_dir.unwrap_or_else(|| {
        file.parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let mut written = 0usize;
    for data in &captures {
        if data.dropped > 0 {
            eprintln!(
                "mmgraph: load {}: {} events were dropped at capture time (caps hit); \
                 graphs undercount",
                data.load, data.dropped
            );
        }
        let artifacts =
            render_capture(data, bin_ms).map_err(|e| format!("load {}: {e}", data.load))?;
        for artifact in artifacts {
            write_artifact(&out_dir, &artifact.name, &artifact.content)?;
            written += 1;
        }
    }
    println!(
        "mmgraph: {} loads, {} artifacts, bin {} ms",
        captures.len(),
        written,
        bin_ms
    );
    Ok(())
}
