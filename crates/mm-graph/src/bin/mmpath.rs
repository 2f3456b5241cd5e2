//! `mmpath` — critical-path PLT attribution from a span JSONL file.
//!
//! ```text
//! mmpath <spans.jsonl> [--out <dir>]
//!     Per page load: validate the span tree, extract the critical
//!     path, print the per-phase attribution table. With --out, also
//!     write waterfall-load<N>.svg per load and attribution.txt.
//!
//! mmpath --diff <a.jsonl> [<b.jsonl>] [--out <dir>]
//!     Pair page loads by root URL and print per-phase critical-path
//!     medians side by side. With one file, the two arms are split by
//!     the page spans' `detail` labels (e.g. figmux records "http1"
//!     and "mux" pages into one file). With --out, write diff.txt.
//! ```
//!
//! Exits nonzero on parse errors, malformed trees, or a critical path
//! that fails to sum exactly to its page's PLT — so CI can assert the
//! attribution identity, not just produce artifacts.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

use mm_graph::{
    build_pages, critical_path, paired_loads, path_ns, render_attribution, render_diff, validate,
    waterfall_svg, write_artifact, PageTree,
};

fn load_pages(path: &str) -> Result<Vec<PageTree>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spans = mm_trace::parse_spans_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(build_pages(&spans))
}

/// Write `name` into `--out`, if one was given.
fn write_out(out: Option<&Path>, name: &str, content: &str) -> Result<(), String> {
    out.map_or(Ok(()), |dir| write_artifact(dir, name, content))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(Path::new);
    let diff = args.iter().any(|a| a == "--diff");
    let files: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--") && !matches!(args.get(i.wrapping_sub(1)), Some(p) if p == "--out")
        })
        .map(|(_, a)| a)
        .collect();
    if files.is_empty() {
        eprintln!("usage: mmpath <spans.jsonl> [--out <dir>]");
        eprintln!("       mmpath --diff <a.jsonl> [<b.jsonl>] [--out <dir>]");
        return ExitCode::from(2);
    }
    let outcome = if diff {
        run_diff(&files, out_dir)
    } else {
        run_attribution(files[0], out_dir)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run_diff(files: &[&String], out_dir: Option<&Path>) -> Result<bool, String> {
    let (a, b, la, lb) = if files.len() >= 2 {
        let a = load_pages(files[0])?;
        let b = load_pages(files[1])?;
        (a, b, files[0].clone(), files[1].clone())
    } else {
        // One file: split arms by the page spans' detail labels.
        let pages = load_pages(files[0])?;
        let labels: BTreeSet<String> = pages.iter().map(|t| t.page.detail.clone()).collect();
        let mut arms = labels.iter().cloned();
        let (Some(la), Some(lb), None) = (arms.next(), arms.next(), arms.next()) else {
            return Err(format!(
                "--diff with one file needs exactly two arm labels, found {labels:?}"
            ));
        };
        let (a, b): (Vec<_>, Vec<_>) = pages.into_iter().partition(|t| t.page.detail == la);
        (a, b, la, lb)
    };
    if paired_loads(&a, &b) == 0 {
        return Err(format!(
            "--diff: no pairs matched: {la} ({} load(s)) and {lb} ({} load(s)) \
             share no root URLs",
            a.len(),
            b.len()
        ));
    }
    let table = render_diff(&a, &b, &la, &lb);
    print!("{table}");
    write_out(out_dir, "diff.txt", &table)?;
    Ok(true)
}

fn run_attribution(file: &str, out_dir: Option<&Path>) -> Result<bool, String> {
    let pages = load_pages(file)?;
    if pages.is_empty() {
        return Err(format!("{file}: no page spans found"));
    }
    let mut ok = true;
    let mut report = String::new();
    // A file that cannot be written fails the run but not the others.
    let write = |name: &str, content: &str| {
        write_out(out_dir, name, content)
            .map_err(|e| eprintln!("{e}"))
            .is_ok()
    };
    for tree in &pages {
        for err in validate(tree) {
            eprintln!("load {}: malformed tree: {err}", tree.page.load);
            ok = false;
        }
        let path = critical_path(tree);
        if path_ns(&path) != tree.plt_ns() {
            eprintln!(
                "load {}: critical path sums to {} ns, PLT is {} ns",
                tree.page.load,
                path_ns(&path),
                tree.plt_ns()
            );
            ok = false;
        }
        let table = render_attribution(tree, &path);
        println!("{table}");
        report.push_str(&table);
        report.push('\n');
        ok &= write(
            &format!("waterfall-load{}.svg", tree.page.load),
            &waterfall_svg(tree),
        );
    }
    ok &= write("attribution.txt", &report);
    Ok(ok)
}
