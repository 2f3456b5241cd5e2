//! # mm-graph — the offline analysers
//!
//! Two bins read the artefacts every experiment bin can write, and draw
//! them with one zero-dependency SVG writer; each writes its files with
//! [`write_artifact`].
//!
//! `mmgraph` reads the per-packet captures `mm-capture` writes
//! (`--capture-out`) and renders, per instrumented link
//! ([`render_capture`]), a **throughput-vs-capacity** timeseries (the
//! `mm-throughput-graph` shaded-capacity convention) and a per-packet
//! **queueing-delay** scatter with p50/p95 percentile bands
//! (`mm-delay-graph`), each with a CSV twin so numbers stay
//! machine-checkable.
//!
//! `mmpath` reads the causal spans `mm-trace` records (`--span-out`):
//! *which component made a resource wait, when, and on whose behalf*. It
//! rebuilds the span tree of each page load ([`build_pages`]), checks
//! the structural invariants the emitters promise ([`validate`]),
//! extracts the **critical path** — the chain of blocking spans whose
//! durations sum *exactly* to the page's PLT ([`critical_path`]) —
//! renders per-phase attribution tables ([`render_attribution`]), diffs
//! two trace sets to answer "where did the +11% come from"
//! ([`render_diff`]), and draws the page's waterfall
//! ([`waterfall_svg`]).
//!
//! ## The critical-path identity
//!
//! The browser emits, for every resource, a contiguous phase chain
//! tiling `[queued, parse_end]`, and it queues a discovered resource at
//! the *exact* instant its discoverer's parse completes (the fetch call
//! runs synchronously in the parse callback). The root resource is
//! queued at navigation start, and PLT is the last parse completion.
//! So walking from the last-finishing resource up the discovery chain
//! to the root and concatenating each resource's phases yields a
//! gapless tiling of `[navigation, PLT]` — the segment durations sum
//! exactly to PLT, with no residue to hide mis-attribution in. The
//! proptest in `tests/` pins this under arbitrary loss.
//!
//! ## The mux subtlety
//!
//! Under HTTP/1.1 two in-flight resources never share a connection, so
//! sibling `Transfer` spans on one connection may not overlap (and
//! [`validate`] rejects them). Under mux they *legitimately* overlap —
//! that interleaving is the whole point of multiplexing — so the
//! non-overlap check is http1-only, and what mux pays instead shows up
//! as explicit `MuxWait` (stream-scheduler slot wait) and transport
//! `HolWait` (TCP reassembly-gap) spans.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;

use mm_capture::CaptureData;
use mm_trace::{Span, SpanKind};

mod analyze;
mod parse;
mod render;
mod svg;
mod waterfall;

use analyze::{delay_bands, delay_samples, throughput};
pub use parse::parse_capture_bytes;
use render::{delay_csv, delay_svg, throughput_csv, throughput_svg};
pub use waterfall::waterfall_svg;

/// One rendered output file (name is relative to the chosen out dir).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    pub name: String,
    pub content: String,
}

/// Write `content` as `dir/name`, creating `dir` if needed, and print
/// the path written: how both bins fill `--out`.
pub fn write_artifact(dir: &Path, name: &str, content: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, content))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Default bin width for timeseries graphs, matching mahimahi's
/// `mm-throughput-graph` half-second binning spirit at sim timescales.
pub const DEFAULT_BIN_MS: u64 = 200;

/// Render every artifact one capture supports: per instrumented link a
/// throughput SVG/CSV pair and (when the link saw queue activity) a
/// queueing-delay pair. Deterministic: same capture ⇒ same bytes. A
/// link whose series would exceed the bin bound is an error.
pub fn render_capture(data: &CaptureData, bin_ms: u64) -> Result<Vec<Artifact>, String> {
    let mut out = Vec::new();
    let load = data.load;
    for series in throughput(data, bin_ms)? {
        let label = series.point.label();
        out.push(Artifact {
            name: format!("load{load}-throughput-{label}.svg"),
            content: throughput_svg(&series, &format!("load {load} · {label} · throughput")),
        });
        out.push(Artifact {
            name: format!("load{load}-throughput-{label}.csv"),
            content: throughput_csv(&series),
        });
        let samples = delay_samples(data, series.point);
        if !samples.is_empty() {
            let bands = delay_bands(&samples, bin_ms);
            out.push(Artifact {
                name: format!("load{load}-delay-{label}.svg"),
                content: delay_svg(
                    &samples,
                    &bands,
                    &format!("load {load} · {label} · queueing delay"),
                ),
            });
            out.push(Artifact {
                name: format!("load{load}-delay-{label}.csv"),
                content: delay_csv(&bands),
            });
        }
    }
    Ok(out)
}

/// One page load's reconstructed span tree.
#[derive(Debug, Clone)]
pub struct PageTree {
    /// The `Page` span (PLT = its duration; `detail` = experiment arm).
    pub page: Span,
    /// `Resource` spans, in id order.
    pub(crate) resources: Vec<Span>,
    /// Phase spans per resource span id, sorted by start time.
    pub(crate) phases: HashMap<u64, Vec<Span>>,
    /// TCP reassembly-gap waits, joined to resources by `conn`.
    pub(crate) hol_waits: Vec<Span>,
    /// Replay-server service windows, joined by `conn` + `url`.
    pub(crate) thinks: Vec<Span>,
}

impl PageTree {
    /// Page load time in nanoseconds.
    pub fn plt_ns(&self) -> u64 {
        self.page.dur_ns()
    }
}

/// One segment of a page's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSeg {
    /// Browser resource index the segment belongs to.
    pub(crate) res: u32,
    pub(crate) url: String,
    pub(crate) kind: SpanKind,
    pub(crate) t0_ns: u64,
    pub(crate) t1_ns: u64,
}

impl PathSeg {
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// Sum of the segments' durations, saturating: a well-formed page's
/// critical path sums to its PLT; a hostile span file cannot wrap it.
pub fn path_ns(path: &[PathSeg]) -> u64 {
    path.iter().fold(0, |sum, s| sum.saturating_add(s.dur_ns()))
}

/// Group a span set into per-load page trees, ordered by load id.
///
/// Loads without a `Page` span (e.g. truncated by a buffer bound) are
/// skipped. Connection spans are dropped; hol waits and server thinks
/// land in side tables joined by `conn` — [`validate`] reports orphans.
pub fn build_pages(spans: &[Span]) -> Vec<PageTree> {
    let mut by_load: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_load.entry(s.load).or_default().push(s);
    }
    let mut out = Vec::new();
    for (_, load_spans) in by_load {
        let Some(page) = load_spans
            .iter()
            .find(|s| s.kind == SpanKind::Page)
            .map(|s| (*s).clone())
        else {
            continue;
        };
        let mut resources: Vec<Span> = load_spans
            .iter()
            .filter(|s| s.kind == SpanKind::Resource)
            .map(|s| (*s).clone())
            .collect();
        resources.sort_by_key(|s| s.id);
        let mut phases: HashMap<u64, Vec<Span>> = HashMap::new();
        let mut hol_waits = Vec::new();
        let mut thinks = Vec::new();
        for s in &load_spans {
            match s.kind {
                SpanKind::Page | SpanKind::Resource | SpanKind::Conn => {}
                SpanKind::HolWait => hol_waits.push((*s).clone()),
                SpanKind::ServerThink => thinks.push((*s).clone()),
                // Transport-level spans (the socket's own handshake
                // `ConnSetup`, parent 0) are connection lifecycle, not
                // part of any resource's phase chain.
                _ if s.parent == 0 => {}
                _ => phases.entry(s.parent).or_default().push((*s).clone()),
            }
        }
        for v in phases.values_mut() {
            v.sort_by_key(|s| (s.t0_ns, s.t1_ns, s.id));
        }
        hol_waits.sort_by_key(|s| (s.t0_ns, s.conn));
        thinks.sort_by_key(|s| (s.t0_ns, s.conn));
        out.push(PageTree {
            page,
            resources,
            phases,
            hol_waits,
            thinks,
        });
    }
    out
}

/// Check a tree's structural invariants; returns human-readable
/// violations (empty = well-formed).
///
/// Checked: every parent id resolves inside the load; each completed
/// resource's phases tile its interval contiguously (start at the
/// resource's start, each phase starting where the previous ended,
/// ending at the resource's end); on http1 pages, sibling `Transfer`
/// spans sharing one connection do not overlap. The overlap check is
/// skipped for mux pages — interleaved transfers on the one connection
/// are mux working as designed, not a malformed tree.
pub fn validate(tree: &PageTree) -> Vec<String> {
    let mut errs = Vec::new();
    let mut ids: HashSet<u64> = HashSet::new();
    ids.insert(tree.page.id);
    for r in &tree.resources {
        ids.insert(r.id);
    }
    for r in &tree.resources {
        if r.parent != 0 && !ids.contains(&r.parent) {
            errs.push(format!(
                "resource {} ({}) has orphan parent {}",
                r.res, r.url, r.parent
            ));
        }
    }
    for (parent, phases) in &tree.phases {
        if !ids.contains(parent) {
            errs.push(format!(
                "{} phase span(s) have orphan parent {parent}",
                phases.len()
            ));
        }
    }
    for r in &tree.resources {
        let Some(phases) = tree.phases.get(&r.id) else {
            continue;
        };
        if phases.iter().any(|p| p.kind == SpanKind::Failed) {
            continue; // failed chains end at give-up time, not parse end
        }
        let mut t = r.t0_ns;
        for p in phases {
            if p.t0_ns != t {
                errs.push(format!(
                    "resource {} ({}): {} starts at {} but previous phase ended at {t}",
                    r.res,
                    r.url,
                    p.kind.as_str(),
                    p.t0_ns
                ));
            }
            t = p.t1_ns;
        }
        if t != r.t1_ns {
            errs.push(format!(
                "resource {} ({}): phases end at {t}, resource ends at {}",
                r.res, r.url, r.t1_ns
            ));
        }
    }
    if tree.page.detail == "http1" {
        let mut by_conn: BTreeMap<u64, Vec<(u64, u64, u32)>> = BTreeMap::new();
        for phases in tree.phases.values() {
            for p in phases {
                if p.kind == SpanKind::Transfer && p.conn != 0 {
                    by_conn
                        .entry(p.conn)
                        .or_default()
                        .push((p.t0_ns, p.t1_ns, p.res));
                }
            }
        }
        for (conn, mut spans) in by_conn {
            spans.sort();
            for w in spans.windows(2) {
                if w[1].0 < w[0].1 {
                    errs.push(format!(
                        "http1 conn {conn:#x}: transfers of resources {} and {} overlap",
                        w[0].2, w[1].2
                    ));
                }
            }
        }
    }
    errs
}

/// Extract the page's critical path: the gapless chain of phase
/// segments from navigation start to the last parse completion.
///
/// Walks discovery parents up from the last-finishing resource, then
/// concatenates each chain member's phases in time order, splitting a
/// `RequestTx` segment at a matched `ServerThink` window (same
/// connection and URL, window contained in the segment) so server
/// service time is attributed to the server rather than the network.
/// The split is sum-preserving, so the identity
/// `sum(seg durations) == PLT` survives it.
pub fn critical_path(tree: &PageTree) -> Vec<PathSeg> {
    let by_id: HashMap<u64, &Span> = tree.resources.iter().map(|r| (r.id, r)).collect();
    // The resource whose parse completion *is* the PLT instant.
    let Some(last) = tree
        .resources
        .iter()
        .filter(|r| r.t1_ns <= tree.page.t1_ns)
        .max_by_key(|r| (r.t1_ns, r.id))
    else {
        return Vec::new();
    };
    // Discovery chain, last → root (cycle-guarded).
    let mut chain = vec![last];
    let mut seen: HashSet<u64> = [last.id].into();
    let mut cur = last;
    while cur.parent != 0 && cur.parent != tree.page.id {
        match by_id.get(&cur.parent) {
            Some(parent) if seen.insert(parent.id) => {
                chain.push(parent);
                cur = parent;
            }
            _ => break,
        }
    }
    chain.reverse();
    let mut path = Vec::new();
    for r in chain {
        let Some(phases) = tree.phases.get(&r.id) else {
            continue;
        };
        for p in phases {
            if p.kind == SpanKind::RequestTx {
                if let Some(think) = tree
                    .thinks
                    .iter()
                    .filter(|t| {
                        t.conn == p.conn
                            && t.url == r.url
                            && t.t0_ns >= p.t0_ns
                            && t.t1_ns <= p.t1_ns
                    })
                    .max_by_key(|t| t.t0_ns)
                {
                    for (kind, a, b) in [
                        (SpanKind::RequestTx, p.t0_ns, think.t0_ns),
                        (SpanKind::ServerThink, think.t0_ns, think.t1_ns),
                        (SpanKind::RequestTx, think.t1_ns, p.t1_ns),
                    ] {
                        if b > a {
                            path.push(PathSeg {
                                res: r.res,
                                url: r.url.clone(),
                                kind,
                                t0_ns: a,
                                t1_ns: b,
                            });
                        }
                    }
                    continue;
                }
            }
            path.push(PathSeg {
                res: r.res,
                url: r.url.clone(),
                kind: p.kind,
                t0_ns: p.t0_ns,
                t1_ns: p.t1_ns,
            });
        }
    }
    path
}

/// Stable display order for attribution rows.
pub(crate) const PHASE_ORDER: [SpanKind; 9] = [
    SpanKind::Queued,
    SpanKind::ConnSetup,
    SpanKind::MuxWait,
    SpanKind::RequestTx,
    SpanKind::ServerThink,
    SpanKind::Transfer,
    SpanKind::RenderQueue,
    SpanKind::Parse,
    SpanKind::Failed,
];

/// Add one span's duration to its kind's `(ns, count)` total.
fn tally(totals: &mut HashMap<SpanKind, (u64, usize)>, kind: SpanKind, ns: u64) {
    let e = totals.entry(kind).or_insert((0, 0));
    e.0 = e.0.saturating_add(ns);
    e.1 += 1;
}

/// Sum critical-path segment durations per phase kind.
pub(crate) fn attribute(path: &[PathSeg]) -> Vec<(SpanKind, u64, usize)> {
    let mut totals = HashMap::new();
    for seg in path {
        tally(&mut totals, seg.kind, seg.dur_ns());
    }
    PHASE_ORDER
        .iter()
        .filter_map(|k| totals.get(k).map(|&(ns, n)| (*k, ns, n)))
        .collect()
}

/// Sum *all* phase spans of the page per kind (not just the critical
/// path), plus transport `HolWait` time — the page-wide waiting budget.
pub(crate) fn aggregate(tree: &PageTree) -> Vec<(SpanKind, u64, usize)> {
    let mut totals = HashMap::new();
    let spans = tree.phases.values().flatten();
    for s in spans.chain(&tree.hol_waits).chain(&tree.thinks) {
        tally(&mut totals, s.kind, s.dur_ns());
    }
    PHASE_ORDER
        .iter()
        .chain([SpanKind::HolWait].iter())
        .filter_map(|k| totals.get(k).map(|&(ns, n)| (*k, ns, n)))
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render one page's attribution table: critical-path and page-wide
/// per-phase totals, with the exact-sum check on the last line.
pub fn render_attribution(tree: &PageTree, path: &[PathSeg]) -> String {
    let mut out = String::new();
    let plt = tree.plt_ns();
    out.push_str(&format!(
        "load {}  arm {}  root {}\n",
        tree.page.load,
        if tree.page.detail.is_empty() {
            "-"
        } else {
            &tree.page.detail
        },
        tree.page.url
    ));
    out.push_str(&format!(
        "  PLT {:>10.3} ms   resources {}   critical-path resources {}\n",
        ms(plt),
        tree.resources.len(),
        path.iter().map(|s| s.res).collect::<HashSet<_>>().len()
    ));
    out.push_str("  phase           critical ms      %PLT     page-wide ms  spans\n");
    let crit = attribute(path);
    let aggr = aggregate(tree);
    let crit_by: HashMap<SpanKind, u64> = crit.iter().map(|&(k, ns, _)| (k, ns)).collect();
    for (kind, total_ns, n) in &aggr {
        let c = crit_by.get(kind).copied().unwrap_or(0);
        out.push_str(&format!(
            "  {:<14} {:>12.3} {:>8.1}% {:>14.3} {:>6}\n",
            kind.as_str(),
            ms(c),
            if plt > 0 {
                c as f64 / plt as f64 * 100.0
            } else {
                0.0
            },
            ms(*total_ns),
            n
        ));
    }
    let sum = path_ns(path);
    out.push_str(&format!(
        "  critical path sums to {:.3} ms (PLT {:.3} ms){}\n",
        ms(sum),
        ms(plt),
        if sum == plt {
            "  [exact]"
        } else {
            "  [MISMATCH]"
        }
    ));
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Number of load pairs [`render_diff`] will match: loads sharing a
/// root URL across the two arms, counted min-wise per URL. Zero means
/// the diff would be vacuous (disjoint corpora, or a mislabeled arm) —
/// `mmpath --diff` refuses to print a table in that case.
pub fn paired_loads(a: &[PageTree], b: &[PageTree]) -> usize {
    let mut count_a: BTreeMap<&str, usize> = BTreeMap::new();
    for t in a {
        *count_a.entry(&t.page.url).or_default() += 1;
    }
    let mut count_b: BTreeMap<&str, usize> = BTreeMap::new();
    for t in b {
        *count_b.entry(&t.page.url).or_default() += 1;
    }
    count_a
        .iter()
        .map(|(url, &na)| na.min(count_b.get(url).copied().unwrap_or(0)))
        .sum()
}

/// Diff two arms' trees, paired by root URL: per-phase medians of
/// critical-path time, so a PLT delta decomposes into named phases.
pub fn render_diff(a: &[PageTree], b: &[PageTree], label_a: &str, label_b: &str) -> String {
    let mut by_url: BTreeMap<&str, (Vec<&PageTree>, Vec<&PageTree>)> = BTreeMap::new();
    for t in a {
        by_url.entry(&t.page.url).or_default().0.push(t);
    }
    for t in b {
        by_url.entry(&t.page.url).or_default().1.push(t);
    }
    let mut plt_a = Vec::new();
    let mut plt_b = Vec::new();
    let mut phase_a: HashMap<SpanKind, Vec<f64>> = HashMap::new();
    let mut phase_b: HashMap<SpanKind, Vec<f64>> = HashMap::new();
    let mut pairs = 0usize;
    for (pa, pb) in by_url.values() {
        if pa.is_empty() || pb.is_empty() {
            continue;
        }
        pairs += pa.len().min(pb.len());
        for (trees, plts, phases) in [
            (pa, &mut plt_a, &mut phase_a),
            (pb, &mut plt_b, &mut phase_b),
        ] {
            for t in trees.iter() {
                plts.push(ms(t.plt_ns()));
                let mut per = HashMap::new();
                for seg in &critical_path(t) {
                    tally(&mut per, seg.kind, seg.dur_ns());
                }
                for kind in PHASE_ORDER {
                    phases
                        .entry(kind)
                        .or_default()
                        .push(ms(per.get(&kind).map_or(0, |&(ns, _)| ns)));
                }
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "critical-path diff: {label_a} vs {label_b} ({pairs} paired loads)\n"
    ));
    out.push_str(&format!(
        "  {:<14} {:>12} {:>12} {:>12}\n",
        "phase",
        format!("{label_a} ms"),
        format!("{label_b} ms"),
        "delta ms"
    ));
    let ma = median(plt_a);
    let mb = median(plt_b);
    out.push_str(&format!(
        "  {:<14} {:>12.3} {:>12.3} {:>+12.3}\n",
        "PLT",
        ma,
        mb,
        mb - ma
    ));
    for kind in PHASE_ORDER {
        let va = median(phase_a.get(&kind).cloned().unwrap_or_default());
        let vb = median(phase_b.get(&kind).cloned().unwrap_or_default());
        if va == 0.0 && vb == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<14} {:>12.3} {:>12.3} {:>+12.3}\n",
            kind.as_str(),
            va,
            vb,
            vb - va
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_capture::{Dir, LinkMeta, PacketEvent, PacketEventKind, PointKind, TapPoint};

    fn sample_capture() -> CaptureData {
        let point = TapPoint {
            kind: PointKind::Link,
            index: 1,
            dir: Dir::Down,
        };
        let mut packets = Vec::new();
        for i in 0..50u64 {
            packets.push(PacketEvent {
                t_ns: i * 10_000_000,
                kind: PacketEventKind::Dequeue,
                point,
                pkt_id: i,
                size_bytes: 1500,
                sojourn_ns: (i % 7) * 1_000_000,
                flow: 0,
            });
            packets.push(PacketEvent {
                t_ns: i * 10_000_000,
                kind: PacketEventKind::Deliver,
                point,
                pkt_id: i,
                size_bytes: 1500,
                sojourn_ns: 0,
                flow: 0,
            });
        }
        CaptureData {
            load: 4,
            links: vec![LinkMeta {
                point,
                deliveries_ms: (0..10).collect(),
                period_ms: 10,
                mtu_bytes: 1500,
            }],
            packets,
            https: vec![],
            dropped: 0,
        }
    }

    #[test]
    fn render_emits_all_artifact_kinds() {
        let arts = render_capture(&sample_capture(), 100).unwrap();
        let names: Vec<&str> = arts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "load4-throughput-link1-down.svg",
                "load4-throughput-link1-down.csv",
                "load4-delay-link1-down.svg",
                "load4-delay-link1-down.csv",
            ]
        );
    }

    #[test]
    fn render_is_deterministic() {
        let data = sample_capture();
        assert_eq!(render_capture(&data, 100), render_capture(&data, 100));
    }

    #[test]
    fn a_delivery_past_the_bin_bound_is_an_error_naming_the_link() {
        let mut data = sample_capture();
        data.packets[1].t_ns = u64::MAX - 1;
        let err = render_capture(&data, DEFAULT_BIN_MS).unwrap_err();
        assert!(err.contains("link1-down"), "{err}");
        // A series of exactly the bound is still drawn.
        data.packets[1].t_ns = (analyze::MAX_BINS * DEFAULT_BIN_MS - 1) * 1_000_000;
        let series = throughput(&data, DEFAULT_BIN_MS).unwrap();
        assert_eq!(series[0].bins.len() as u64, analyze::MAX_BINS);
    }

    use proptest::prelude::*;

    proptest! {
        /// Integrating the throughput series over all bins recovers the
        /// exact number of bytes delivered — binning loses nothing.
        #[test]
        fn throughput_integration_equals_bytes_delivered(
            sizes in proptest::collection::vec(40u32..1500, 1..200),
            gaps_ms in proptest::collection::vec(0u64..50, 1..200),
            bin_ms in 1u64..500,
        ) {
            let point = TapPoint { kind: PointKind::Link, index: 1, dir: Dir::Up };
            let mut t_ms = 0u64;
            let mut packets = Vec::new();
            for (i, (size, gap)) in sizes.iter().zip(gaps_ms.iter().cycle()).enumerate() {
                t_ms += gap;
                packets.push(PacketEvent {
                    t_ns: t_ms * 1_000_000,
                    kind: PacketEventKind::Deliver,
                    point,
                    pkt_id: i as u64,
                    size_bytes: *size,
                    sojourn_ns: 0,
                    flow: 0,
                });
            }
            let expected: u64 = sizes.iter().map(|&s| s as u64).sum();
            let data = CaptureData {
                load: 0,
                links: vec![LinkMeta {
                    point,
                    deliveries_ms: vec![0].into(),
                    period_ms: 1,
                    mtu_bytes: 1500,
                }],
                packets,
                https: vec![],
                dropped: 0,
            };
            let series = throughput(&data, bin_ms).unwrap();
            prop_assert_eq!(series.len(), 1);
            prop_assert_eq!(series[0].delivered_total(), expected);
        }
    }

    fn span(id: u64, parent: u64, kind: SpanKind, t0: u64, t1: u64, res: u32) -> Span {
        Span {
            load: 1,
            id,
            parent,
            kind,
            t0_ns: t0,
            t1_ns: t1,
            res,
            conn: 7,
            url: format!("http://h/{res}"),
            detail: String::new(),
        }
    }

    /// A minimal two-resource page: root [0,100] discovered child
    /// [100,180]; PLT 180.
    fn sample_page() -> Vec<Span> {
        let mut page = span(1, 0, SpanKind::Page, 0, 180, mm_trace::NO_RESOURCE);
        page.detail = "http1".into();
        vec![
            page,
            span(2, 1, SpanKind::Resource, 0, 100, 0),
            span(3, 2, SpanKind::Queued, 0, 10, 0),
            span(4, 2, SpanKind::RequestTx, 10, 40, 0),
            span(5, 2, SpanKind::Transfer, 40, 80, 0),
            span(6, 2, SpanKind::RenderQueue, 80, 90, 0),
            span(7, 2, SpanKind::Parse, 90, 100, 0),
            span(8, 2, SpanKind::Resource, 100, 180, 1),
            span(9, 8, SpanKind::Queued, 100, 120, 1),
            span(10, 8, SpanKind::RequestTx, 120, 140, 1),
            span(11, 8, SpanKind::Transfer, 140, 160, 1),
            span(12, 8, SpanKind::Parse, 160, 180, 1),
        ]
    }

    #[test]
    fn builds_validates_and_sums_to_plt() {
        let pages = build_pages(&sample_page());
        assert_eq!(pages.len(), 1);
        let tree = &pages[0];
        assert!(validate(tree).is_empty(), "{:?}", validate(tree));
        let path = critical_path(tree);
        let sum: u64 = path.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(sum, tree.plt_ns());
        assert_eq!(path.first().unwrap().t0_ns, 0);
        assert_eq!(path.last().unwrap().t1_ns, 180);
    }

    #[test]
    fn tiling_gap_is_reported() {
        let mut spans = sample_page();
        spans[3].t0_ns = 12; // RequestTx no longer starts where Queued ended
        let pages = build_pages(&spans);
        let errs = validate(&pages[0]);
        assert!(errs.iter().any(|e| e.contains("request_tx")), "{errs:?}");
    }

    #[test]
    fn http1_transfer_overlap_is_reported_mux_is_not() {
        let mut spans = sample_page();
        // Overlap the two transfers on the shared conn id.
        spans[10].t0_ns = 70; // child RequestTx 70..140 (breaks tiling too)
        spans[10].t1_ns = 75;
        let overlap = span(13, 8, SpanKind::Transfer, 75, 85, 1);
        spans.push(overlap);
        let errs = validate(&build_pages(&spans)[0]);
        assert!(errs.iter().any(|e| e.contains("overlap")), "{errs:?}");
        // Same shape under a mux arm: no overlap error.
        spans[0].detail = "mux".into();
        let errs = validate(&build_pages(&spans)[0]);
        assert!(!errs.iter().any(|e| e.contains("overlap")), "{errs:?}");
    }

    #[test]
    fn server_think_split_preserves_sum() {
        let mut spans = sample_page();
        let mut think = span(20, 0, SpanKind::ServerThink, 20, 30, mm_trace::NO_RESOURCE);
        think.url = "http://h/0".into();
        spans.push(think);
        let pages = build_pages(&spans);
        let path = critical_path(&pages[0]);
        let sum: u64 = path.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(sum, pages[0].plt_ns());
        assert!(path.iter().any(|s| s.kind == SpanKind::ServerThink));
        // The split RequestTx halves flank the think window.
        let txs: Vec<_> = path
            .iter()
            .filter(|s| s.kind == SpanKind::RequestTx && s.res == 0)
            .collect();
        assert_eq!(txs.len(), 2);
        assert_eq!((txs[0].t0_ns, txs[0].t1_ns), (10, 20));
        assert_eq!((txs[1].t0_ns, txs[1].t1_ns), (30, 40));
    }

    #[test]
    fn diff_pairs_by_root_url() {
        let a = build_pages(&sample_page());
        let mut faster = sample_page();
        for s in &mut faster {
            s.detail = "mux".into();
            // Same structure, 20% faster.
            s.t0_ns = s.t0_ns * 8 / 10;
            s.t1_ns = s.t1_ns * 8 / 10;
        }
        let b = build_pages(&faster);
        let table = render_diff(&a, &b, "http1", "mux");
        assert!(table.contains("1 paired loads"), "{table}");
        assert!(table.contains("PLT"), "{table}");
        assert!(table.contains("transfer"), "{table}");
    }

    #[test]
    fn paired_loads_counts_shared_root_urls() {
        let a = build_pages(&sample_page());
        assert_eq!(paired_loads(&a, &a), 1);
        // Disjoint root URLs pair nothing.
        let mut other = sample_page();
        for s in &mut other {
            if s.kind == SpanKind::Page {
                s.url = "http://elsewhere/".into();
            }
        }
        let b = build_pages(&other);
        assert_eq!(paired_loads(&a, &b), 0);
        assert_eq!(paired_loads(&a, &[]), 0);
    }

    #[test]
    fn attribution_table_reports_exact() {
        let pages = build_pages(&sample_page());
        let path = critical_path(&pages[0]);
        let table = render_attribution(&pages[0], &path);
        assert!(table.contains("[exact]"), "{table}");
        assert!(!table.contains("MISMATCH"), "{table}");
    }
}
