//! The paired-arm sweeps — table2, figmux, figcell — as three tables
//! over one engine.
//!
//! Each loads every site of every network **cell** once per **arm** — a
//! (protocol, congestion control, recovery tier, replay mode)
//! configuration — with the same seed, server think time, network and
//! trace, so the per-site paired differences are the primary statistic.
//! A [`Sweep`] is that shape as data: the [`Grid`] of cells (link rate ×
//! delay for Table 2 and its §5 SPDY-style case study; cellular regime ×
//! queue discipline for the rest), the ordered arms, and the ordered
//! output **columns**. [`Sweep::run`] is the one loop. The cellular
//! regimes stand in for the paper's Verizon/AT&T LTE recordings, which
//! are not redistributable: seeded Markov-modulated traces with the same
//! qualitative structure (see `mm-trace::generate::cellular`, DESIGN.md).
//!
//! A load depends only on (cell, arm configuration, site index, seed),
//! so an arm two tables share yields the same per-site PLTs in both:
//! Table 2's `multi` is figmux's `http1`, cell for cell
//! (`tests/cellular_sweeps.rs` holds that relation). The one cellular
//! table, [`FIGCELL`], loads each (cell, arm) pair once.

use mahimahi::browser::{MuxConfig, ProtocolMode};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mahimahi::net::{CcAlgorithm, RecoveryTier, TcpConfig};
use mm_corpus::materialize;
use mm_replay::ReplayMode;
use mm_sim::{RngStream, SimDuration, Summary};
use mm_trace::{cellular, constant_rate, CellularParams};

use crate::cli::Metrics;
use crate::experiments::corpus_subset;
use crate::parallel::parallel_map;
use crate::report::{key_fragment, ms, pct, summary_metrics};

use CcAlgorithm as Cc;
use Column::Plt;
use Protocol::{Http1, Mux};
use RecoveryTier as Tier;

/// One-way propagation delay of the cellular grid (cellular RTTs sat
/// around 60–120 ms in the paper's era).
pub const FIGCELL_DELAY_MS: u64 = 40;

/// The cellular regimes every cellular grid crosses: (name, trace
/// parameters).
pub fn figcell_regimes() -> Vec<(&'static str, CellularParams)> {
    vec![
        (
            // Healthy LTE: high mean rate, mild variation, rare outages.
            "lte-good",
            CellularParams {
                mean_mbps: 14.0,
                volatility: 0.4,
                state_ms: 200,
                outage_prob: 0.01,
                period_ms: 60_000,
            },
        ),
        (
            // Loaded LTE: moderate rate, strong variation, real outages.
            "lte-variable",
            CellularParams {
                mean_mbps: 6.0,
                volatility: 0.8,
                state_ms: 150,
                outage_prob: 0.05,
                period_ms: 60_000,
            },
        ),
        (
            // Congested 3G-ish tail: low rate, deep fades.
            "umts-congested",
            CellularParams {
                mean_mbps: 2.2,
                volatility: 0.7,
                state_ms: 250,
                outage_prob: 0.08,
                period_ms: 60_000,
            },
        ),
    ]
}

/// The application protocol of an [`Arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The browser's default HTTP/1.1 connection pools.
    Http1,
    /// One mm-mux connection per origin — the configuration most
    /// exposed to tail loss and spurious timeouts.
    Mux,
}

/// One way of loading a site: what varies between the loads of one site
/// within one cell. Everything else — seed, think time, network, trace —
/// is held equal across a cell's arms.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    /// Metric-key stem of the arm's PLT column.
    pub label: &'static str,
    pub protocol: Protocol,
    /// Only BBR paces (it is the one controller that models a rate);
    /// the loss-based controllers run unpaced, as deployed.
    pub cc: CcAlgorithm,
    pub recovery: RecoveryTier,
    /// Multi-origin replay, or Table 2's single-server ablation.
    pub mode: ReplayMode,
}

/// A multi-origin arm.
const fn arm(label: &'static str, protocol: Protocol, cc: Cc, recovery: Tier) -> Arm {
    Arm {
        label,
        protocol,
        cc,
        recovery,
        mode: ReplayMode::MultiOrigin,
    }
}

/// One output column, naming arms by their index in [`Sweep::arms`].
/// Every column but [`Column::Plt`] is emitted as `<key>_<cell>`.
#[derive(Debug, Clone, Copy)]
pub enum Column {
    /// An arm's PLT distribution over the sites: emitted as
    /// `<label>_<cell>_median_ms` and `<label>_<cell>_p95_ms`.
    Plt(usize),
    /// The median over sites of the paired speedup of arm `other` over
    /// arm `base`, `(base − other) / base · 100` percent (positive =
    /// `other` faster).
    Paired {
        key: &'static str,
        base: usize,
        other: usize,
    },
    /// The median PLT of arm `base` over the median PLT of arm `other`
    /// (above 1 = `other` faster on the median site of each).
    Ratio {
        key: &'static str,
        base: usize,
        other: usize,
    },
    /// The `percentile` over sites of the per-site PLT gap of arm
    /// `other` over arm `base`, `(other − base) / base · 100` percent
    /// (positive = `other` slower).
    Gap {
        key: &'static str,
        base: usize,
        other: usize,
        percentile: f64,
    },
}

const fn paired(key: &'static str, base: usize, other: usize) -> Column {
    Column::Paired { key, base, other }
}

/// The cells a sweep crosses, as data: each cell is one network, named
/// by a row and a column label, emitted row-major.
#[derive(Debug, Clone, Copy)]
pub enum Grid {
    /// The cellular regimes × these queue disciplines: (label, kind).
    /// The downlink follows the regime's cellular trace, the uplink is
    /// a 1 Mbit/s CBR (uplink-limited requests are not the phenomenon
    /// under study), behind a [`FIGCELL_DELAY_MS`] delay shell.
    Cellular(&'static [(&'static str, QdiscKind)]),
    /// Link rates (Mbit/s) × one-way delays (ms): a symmetric CBR link
    /// with an infinite droptail queue behind a delay shell.
    RateDelay {
        rates: &'static [f64],
        delays: &'static [u64],
    },
}

impl Grid {
    /// The grid's cells, row-major, each with no loads yet and with the
    /// network its loads run over.
    pub fn cells(&self, seed: u64) -> Vec<(SweepCell, NetSpec)> {
        let cell = |row: String, col: String, delay_ms, link| {
            let net = NetSpec {
                delay: Some(SimDuration::from_millis(delay_ms)),
                link: Some(link),
                ..NetSpec::default()
            };
            (
                SweepCell {
                    row,
                    col,
                    plts: Vec::new(),
                },
                net,
            )
        };
        let mut cells = Vec::new();
        match *self {
            Grid::Cellular(qdiscs) => {
                for (regime, params) in figcell_regimes() {
                    // One trace realization per regime, shared by every
                    // table, arm and site — the forks name no table — so
                    // the pairing isolates protocol/recovery, not trace
                    // luck, and columns line up across experiments.
                    let mut trace_rng = RngStream::from_seed(seed).fork("figcell").fork(regime);
                    let downlink = cellular(&params, &mut trace_rng);
                    for &(qdisc_name, qdisc) in qdiscs {
                        let uplink = constant_rate(1.0, 1000);
                        let downlink = downlink.clone();
                        let link = LinkSpec {
                            uplink,
                            downlink,
                            qdisc,
                        };
                        let (row, col) = (regime.to_string(), qdisc_name.to_string());
                        cells.push(cell(row, col, FIGCELL_DELAY_MS, link));
                    }
                }
            }
            Grid::RateDelay { rates, delays } => {
                for &mbps in rates {
                    for &delay_ms in delays {
                        let link = LinkSpec::symmetric(constant_rate(mbps, 1000));
                        let (row, col) = (format!("{mbps:.0}mbps"), format!("{delay_ms}ms"));
                        cells.push(cell(row, col, delay_ms, link));
                    }
                }
            }
        }
        cells
    }
}

/// A paired-arm experiment as data. The order of `columns` is the order
/// of keys in the `BENCH_<name>.json` the experiment writes, and that
/// order is part of the file format (`benchdiff` and readers' diffs see
/// a reorder as churn): append, never insert.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Section-header text, before the scale.
    pub title: &'static str,
    pub grid: Grid,
    /// The loads of one site in one cell, in execution order.
    pub arms: &'static [Arm],
    pub columns: &'static [Column],
    /// Printed under the table: what the derived columns mean.
    pub legend: &'static str,
}

/// The (link rate, one-way delay) grid of the paper's Table 2, which its
/// §5 case study shares.
const RATE_DELAY: Grid = Grid::RateDelay {
    rates: &[1.0, 14.0, 25.0],
    delays: &[30, 120, 300],
};

/// E3 — Table 2: {50th, 95th} percentile PLT difference between
/// single-server and multi-origin replay, per (rate, delay) cell.
pub const TABLE2: Sweep = Sweep {
    title: "Table 2 — PLT inflation without multi-origin preservation",
    grid: RATE_DELAY,
    arms: &[
        arm("multi", Http1, Cc::Reno, Tier::Reno),
        Arm {
            mode: ReplayMode::SingleServer,
            ..arm("single", Http1, Cc::Reno, Tier::Reno)
        },
    ],
    columns: &[gap("median_diff_pct", 50.0), gap("p95_diff_pct", 95.0)],
    legend: "\
median_diff_pct / p95_diff_pct = the median / 95th percentile over sites of the per-site
PLT gap of single-server over multi-origin replay (positive = single-server slower).",
}
.checked();

/// Table 2's gap of single-server (arm 1) over multi-origin (arm 0).
const fn gap(key: &'static str, percentile: f64) -> Column {
    Column::Gap {
        key,
        base: 0,
        other: 1,
        percentile,
    }
}

/// E7 — figmux, the protocol comparison (the shape of the paper's §5
/// SPDY case study): HTTP/1.1 vs the mm-mux multiplexed transport over
/// Table 2's grid. Its `http1` arm is Table 2's `multi`.
pub const FIGMUX: Sweep = Sweep {
    title: "figmux — HTTP/1.1 vs multiplexed transport across link rate × RTT",
    grid: RATE_DELAY,
    arms: &[
        arm("http1", Http1, Cc::Reno, Tier::Reno),
        arm("mux", Mux, Cc::Reno, Tier::Reno),
    ],
    columns: &[
        Plt(0),
        Plt(1),
        Column::Ratio {
            key: "ratio",
            base: 0,
            other: 1,
        },
        paired("paired_speedup_pct", 0, 1),
    ],
    legend: "\
ratio              = http1 median / mux median over the per-site PLT distributions;
paired_speedup_pct = median per-site speedup of mux over http1 (positive = mux faster);
columns are one-way delays: the RTT is twice the label.",
}
.checked();

/// E8 — figcell, the one cellular table: page loads over cellular
/// regime × queue discipline × protocol × congestion control × loss
/// recovery. Every arm without an `http1` prefix runs mux, its label
/// `<cc>_<tier>`; every site is loaded once per (cell, arm), and the
/// table answers three questions from the same loads.
///
/// Does modern (SACK) loss recovery restore the multiplexing win under
/// loss? Multiplexing concentrates a page onto one connection, so one
/// loss event stalls everything (`mux_sack_speedup_pct`,
/// `http1_sack_speedup_pct`, `mux_vs_http1_sack_pct`).
///
/// Does time-based loss detection (RACK-TLP + F-RTO,
/// `RecoveryTier::RackTlp`) fix the CoDel cells, where SACK did not pay?
/// AQM keeps queues short, so recovery *speed* buys little, and without
/// spurious-RTO detection the RTO tail — and its unrecoverable backoff —
/// dominates serial mux chains. SACK is the baseline the RACK-TLP
/// columns must not fall below (`racktlp_speedup_pct`,
/// `racktlp_vs_sack_pct`).
///
/// Congestion control × buffer depth: does a sender that never causes
/// the damage (delivery-rate model + pacing, `CcAlgorithm::Bbr`) beat
/// loss-based CC where the damage is worst (deep droptail buffers),
/// without giving back the AQM column, and how does CUBIC (the era's
/// Linux default) interact with the recovery tiers? The CC columns hold
/// recovery at the RACK-TLP tier (`bbr_vs_reno_pct`, `cubic_vs_reno_pct`,
/// `bbr_vs_cubic_pct`).
pub const FIGCELL: Sweep = Sweep {
    title: "figcell — protocol × CC × recovery × buffer depth over cellular traces",
    // Infinite droptail is the paper's configuration (no loss, deep
    // bufferbloat); 32-packet droptail models a bounded device buffer
    // (loss under bursts — where loss recovery matters); CoDel is the
    // AQM answer; 256 packets ≈ several seconds at cellular rates, the
    // bufferbloat regime where a loss-based sender must fill the whole
    // queue before it learns anything and a model-based one should
    // never build the queue at all. It comes last so the first three
    // cells of a regime keep their order.
    grid: Grid::Cellular(&[
        ("inf-droptail", QdiscKind::Infinite),
        ("droptail32", QdiscKind::DropTailPackets(32)),
        ("codel", QdiscKind::Codel),
        ("droptail256", QdiscKind::DropTailPackets(256)),
    ]),
    arms: &[
        arm("http1", Http1, Cc::Reno, Tier::Reno),
        arm("http1_sack", Http1, Cc::Reno, Tier::Sack),
        // Mux, `<cc>_<tier>`, cc-major.
        arm("reno_reno", Mux, Cc::Reno, Tier::Reno),
        arm("reno_sack", Mux, Cc::Reno, Tier::Sack),
        arm("reno_racktlp", Mux, Cc::Reno, Tier::RackTlp),
        arm("cubic_reno", Mux, Cc::Cubic, Tier::Reno),
        arm("cubic_sack", Mux, Cc::Cubic, Tier::Sack),
        arm("cubic_racktlp", Mux, Cc::Cubic, Tier::RackTlp),
        arm("bbr_reno", Mux, Cc::Bbr, Tier::Reno),
        arm("bbr_sack", Mux, Cc::Bbr, Tier::Sack),
        arm("bbr_racktlp", Mux, Cc::Bbr, Tier::RackTlp),
    ],
    columns: &[
        Plt(0),
        Plt(1),
        Plt(2),
        Plt(3),
        paired("mux_sack_speedup_pct", 2, 3),
        paired("http1_sack_speedup_pct", 0, 1),
        paired("mux_vs_http1_sack_pct", 1, 3),
        Plt(4),
        Plt(5),
        Plt(6),
        Plt(7),
        Plt(8),
        Plt(9),
        Plt(10),
        paired("racktlp_speedup_pct", 2, 4),
        paired("racktlp_vs_sack_pct", 3, 4),
        paired("bbr_vs_reno_pct", 4, 10),
        paired("cubic_vs_reno_pct", 4, 7),
        paired("bbr_vs_cubic_pct", 7, 10),
    ],
    legend: "\
Every arm without an http1 prefix runs mux, labelled <cc>_<tier>.
Does SACK restore the multiplexing win?
mux_sack_speedup_pct   = median per-site paired speedup of SACK over NewReno under mux
                         (positive = SACK faster);
http1_sack_speedup_pct = the same pairing for the HTTP/1.1 pool;
mux_vs_http1_sack_pct  = mux+SACK over HTTP/1.1+SACK.
Does RACK-TLP fix the CoDel cells?
racktlp_speedup_pct    = RACK-TLP + F-RTO over NewReno, Reno CC;
racktlp_vs_sack_pct    = RACK-TLP over SACK (positive = the time-based machinery pays).
CC x buffer depth (droptail256 is the deep-buffer bufferbloat column):
bbr_vs_reno_pct        = BBR (paced, model-based) over Reno CC, recovery held at the
                         racktlp tier; cubic_vs_reno_pct and bbr_vs_cubic_pct are the
                         same pairing for the other CC pairs.",
}
.checked();

/// One cell of a finished sweep.
pub struct SweepCell {
    /// The grid's row and column labels: (regime, qdisc) or (rate, delay).
    pub row: String,
    pub col: String,
    /// Per site, the PLT in ms under each arm, in arm order.
    pub plts: Vec<Vec<f64>>,
}

impl SweepCell {
    /// The `<row>_<col>` metric-key suffix the cell is named by.
    pub fn key(&self) -> String {
        format!("{}_{}", key_fragment(&self.row), key_fragment(&self.col))
    }

    /// An arm's PLT over the sites.
    fn plt(&self, arm: usize) -> Summary {
        Summary::from_samples(self.plts.iter().map(|site| site[arm]))
    }

    /// A per-site statistic over the sites.
    fn per_site(&self, f: impl Fn(&[f64]) -> f64) -> Summary {
        Summary::from_samples(self.plts.iter().map(|site| f(site)))
    }

    /// The one number a column shows for this cell (an arm's median PLT
    /// for [`Column::Plt`]).
    fn value(&self, column: Column) -> f64 {
        match column {
            Plt(arm) => self.plt(arm).median(),
            Column::Paired { base, other, .. } => self
                .per_site(|site| (site[base] - site[other]) / site[base] * 100.0)
                .median(),
            Column::Ratio { base, other, .. } => self.plt(base).median() / self.plt(other).median(),
            Column::Gap {
                base,
                other,
                percentile,
                ..
            } => self
                .per_site(|site| (site[other] - site[base]) / site[base] * 100.0)
                .percentile(percentile),
        }
    }
}

impl Sweep {
    /// Reject, at compile time when the table is a `const`, a column
    /// that names an arm the table does not have.
    pub const fn checked(self) -> Self {
        let mut i = 0;
        while i < self.columns.len() {
            let (a, b) = match self.columns[i] {
                Plt(arm) => (arm, arm),
                Column::Paired { base, other, .. }
                | Column::Ratio { base, other, .. }
                | Column::Gap { base, other, .. } => (base, other),
            };
            assert!(
                a < self.arms.len() && b < self.arms.len(),
                "column names an arm outside the table"
            );
            i += 1;
        }
        self
    }

    /// Section-header title at `n_sites`.
    pub fn title(&self, n_sites: usize) -> String {
        let rtt = match self.grid {
            Grid::Cellular(_) => format!(", {}ms RTT", FIGCELL_DELAY_MS * 2),
            Grid::RateDelay { .. } => String::new(),
        };
        format!("{} ({n_sites} sites{rtt})", self.title)
    }

    /// A column's row head: the arm's label, or the column's key.
    fn head(&self, column: Column) -> &'static str {
        match column {
            Plt(arm) => self.arms[arm].label,
            Column::Paired { key, .. } | Column::Ratio { key, .. } | Column::Gap { key, .. } => key,
        }
    }

    /// Run the sweep over `n_sites` corpus sites: per grid cell every
    /// site is materialized once and loaded once per arm. Sites shard
    /// across threads with per-site seeds (serial-identical).
    pub fn run(&self, n_sites: usize, seed: u64) -> Vec<SweepCell> {
        let plans = corpus_subset(n_sites, seed);
        let mut cells = self.grid.cells(seed);
        for (cell, net) in &mut cells {
            cell.plts = parallel_map(&plans, |i, plan| {
                let site = materialize(plan);
                let load = |arm: &Arm| {
                    let mut spec = LoadSpec::new(&site);
                    spec.net = net.clone();
                    spec.seed = seed.wrapping_add(i as u64);
                    if arm.protocol == Mux {
                        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
                    }
                    spec.replay.mode = arm.mode;
                    spec.tcp = Some(
                        TcpConfig::builder()
                            .cc(arm.cc)
                            .recovery(arm.recovery)
                            .build(),
                    );
                    run_page_load(&spec).plt.as_millis_f64()
                };
                self.arms.iter().map(load).collect()
            });
        }
        cells.into_iter().map(|(cell, _)| cell).collect()
    }

    /// The flat BENCH metrics of a finished sweep: cell-major, and
    /// within a cell in column order.
    pub fn metrics(&self, cells: &[SweepCell]) -> Metrics {
        let mut metrics = Metrics::new();
        for cell in cells {
            let suffix = cell.key();
            for &column in self.columns {
                let key = format!("{}_{suffix}", self.head(column));
                match column {
                    Plt(arm) => metrics.extend(summary_metrics(&key, &mut cell.plt(arm))),
                    _ => metrics.push((key, cell.value(column))),
                }
            }
        }
        metrics
    }

    /// Print one block per grid row: a row per column, the grid's
    /// columns across — PLT medians for arms, percentages for paired
    /// speedups and gaps, ratios as they are.
    pub(crate) fn print(&self, cells: &[SweepCell]) {
        for block in cells.chunk_by(|a, b| a.row == b.row) {
            print!("  {:<24}", block[0].row);
            for cell in block {
                print!(" {:>12}", cell.col);
            }
            println!();
            for &column in self.columns {
                let show: fn(f64) -> String = match column {
                    Plt(_) => ms,
                    Column::Ratio { .. } => |v| format!("{v:.2}"),
                    Column::Paired { .. } | Column::Gap { .. } => pct,
                };
                print!("    {:<22}", self.head(column));
                for cell in block {
                    print!(" {:>12}", show(cell.value(column)));
                }
                println!();
            }
            println!();
        }
        for line in self.legend.lines() {
            println!("  {line}");
        }
        println!(
            "  every site is loaded under all {} arms with the same seed and trace.",
            self.arms.len()
        );
    }

    /// The body of an experiment binary: run, print, hand back the
    /// BENCH metrics.
    pub fn report(&self, n_sites: usize, seed: u64) -> Metrics {
        let cells = self.run(n_sites, seed);
        self.print(&cells);
        self.metrics(&cells)
    }
}
