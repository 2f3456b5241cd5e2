//! The experiment drivers, one per paper artifact. Each sets the run's
//! recording (`None`: none) on every spec it builds.

use mahimahi::browser::{MuxConfig, ProtocolMode};
use mahimahi::harness::{run_page_load, LinkSpec, LoadSpec, NetSpec, QdiscKind};
use mahimahi::obs::Recording;
use mm_corpus::{
    cnbc_like, generate_plans, materialize, nytimes_like, server_distribution, wikihow_like,
    CorpusConfig, ServerDistribution, SitePlan,
};
use mm_replay::ReplayMode;
use mm_sim::{RngStream, SimDuration, Summary};
use mm_trace::constant_rate;
use mm_web::{HostProfile, LiveWebConfig};

use crate::parallel::parallel_map;
use crate::sweep::FIGCELL_DELAY_MS;

/// E1/E6 — Figure 2: PLT CDFs for bare ReplayShell, ReplayShell inside
/// DelayShell 0 ms, and ReplayShell inside LinkShell at 1000 Mbit/s.
pub struct Fig2Result {
    pub replay: Summary,
    pub delay0: Summary,
    pub link1000: Summary,
}

impl Fig2Result {
    /// Median overhead of DelayShell-0 over bare replay, percent.
    pub fn delay0_overhead_pct(&mut self) -> f64 {
        (self.delay0.median() - self.replay.median()) / self.replay.median() * 100.0
    }

    /// Median overhead of LinkShell-1000 over bare replay, percent.
    pub fn link1000_overhead_pct(&mut self) -> f64 {
        (self.link1000.median() - self.replay.median()) / self.replay.median() * 100.0
    }
}

/// Run Figure 2 over the first `n_sites` corpus sites (500 = the paper).
///
/// Sites shard across threads; each site's three arms share one seed
/// derived from the site index, so the summaries are byte-identical to a
/// serial run.
pub fn fig2(n_sites: usize, seed: u64, recording: Option<&Recording>) -> Fig2Result {
    let plans = corpus_subset(n_sites, seed);
    let trace_1000 = constant_rate(1000.0, 1000);
    let per_site = parallel_map(&plans, |i, plan| {
        let site = materialize(plan);
        let mut spec = LoadSpec::new(&site);
        spec.seed = seed.wrapping_add(i as u64);
        spec.recording = recording;
        // Arm 1: bare ReplayShell.
        let replay = run_page_load(&spec).plt.as_millis_f64();
        // Arm 2: DelayShell 0 ms.
        spec.net = NetSpec::delay_ms(0);
        let delay0 = run_page_load(&spec).plt.as_millis_f64();
        // Arm 3: LinkShell 1000 Mbit/s, infinite droptail.
        spec.net = NetSpec {
            link: Some(LinkSpec::symmetric(trace_1000.clone())),
            ..NetSpec::default()
        };
        let link1000 = run_page_load(&spec).plt.as_millis_f64();
        (replay, delay0, link1000)
    });
    Fig2Result {
        replay: Summary::from_samples(per_site.iter().map(|s| s.0)),
        delay0: Summary::from_samples(per_site.iter().map(|s| s.1)),
        link1000: Summary::from_samples(per_site.iter().map(|s| s.2)),
    }
}

/// E2 — Table 1: mean ± σ PLT for CNBC-like and wikiHow-like pages, 100
/// loads each, on two host machines.
pub struct Table1Result {
    /// (site name, machine name, summary)
    pub cells: Vec<(String, String, Summary)>,
}

impl Table1Result {
    /// Largest cross-machine difference of means, as a fraction of the
    /// smaller mean, per site. Paper: < 0.5%.
    pub fn worst_cross_machine_mean_diff(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for site in ["www.cnbc.com", "www.wikihow.com"] {
            let means: Vec<f64> = self
                .cells
                .iter()
                .filter(|(s, _, _)| s == site)
                .map(|(_, _, sum)| sum.mean())
                .collect();
            if means.len() == 2 {
                let lo = means[0].min(means[1]);
                let hi = means[0].max(means[1]);
                worst = worst.max((hi - lo) / lo);
            }
        }
        worst
    }

    /// Largest coefficient of variation across cells. Paper: σ within
    /// 1.6% of the mean.
    pub fn worst_cv(&self) -> f64 {
        self.cells
            .iter()
            .map(|(_, _, s)| s.cv())
            .fold(0.0, f64::max)
    }
}

/// Run Table 1. The paper's setup loads each page 100 times per machine
/// under the same emulated conditions (30 ms delay shell here).
pub fn table1(loads: usize, seed: u64, recording: Option<&Recording>) -> Table1Result {
    let mut cells = Vec::new();
    for (plan, site_seed) in [(cnbc_like(seed), 1u64), (wikihow_like(seed), 2u64)] {
        let site = materialize(&plan);
        for (machine, profile) in [
            ("Machine 1", HostProfile::machine_1()),
            ("Machine 2", HostProfile::machine_2()),
        ] {
            let mut spec = LoadSpec::new(&site);
            spec.net = NetSpec::delay_ms(30);
            spec.host_profile = Some(profile);
            spec.recording = recording;
            // Machine identity changes the noise realization only; the
            // seed series per machine must differ.
            spec.seed = seed
                .wrapping_mul(31)
                .wrapping_add(site_seed)
                .wrapping_add(if machine == "Machine 2" { 1 << 32 } else { 0 });
            let plts = mahimahi::harness::run_loads(&spec, loads);
            cells.push((
                plan.name.clone(),
                machine.to_string(),
                Summary::from_samples(plts),
            ));
        }
    }
    Table1Result { cells }
}

/// E4 — Figure 3: PLT CDFs for an nytimes-like page on the "actual web"
/// versus multi-origin and single-server replay.
pub struct Fig3Result {
    pub web: Summary,
    pub multi: Summary,
    pub single: Summary,
}

impl Fig3Result {
    /// Median gap of multi-origin replay vs the web, percent.
    pub fn multi_gap_pct(&mut self) -> f64 {
        (self.multi.median() - self.web.median()) / self.web.median() * 100.0
    }

    /// Median gap of single-server replay vs the web, percent.
    pub fn single_gap_pct(&mut self) -> f64 {
        (self.single.median() - self.web.median()) / self.web.median() * 100.0
    }
}

/// Run Figure 3 with `loads` page loads per arm.
///
/// Loads shard across threads. The per-load minimum RTTs are drawn
/// serially up front from the same RNG stream the serial loop used, so
/// sharding leaves every load's conditions — and the summaries — exactly
/// as a serial run produces them.
pub fn fig3(loads: usize, seed: u64, recording: Option<&Recording>) -> Fig3Result {
    let plan = nytimes_like(seed);
    let site = materialize(&plan);
    // "For fair comparison, we record the minimum round trip time to
    // www.nytimes.com for each page load on the Web and use DelayShell
    // to emulate this for each page load with ReplayShell."
    let mut rtt_rng = RngStream::from_seed(seed).fork("min-rtt");
    let min_rtts: Vec<u64> = (0..loads)
        .map(|_| 8 + rtt_rng.gen_range_inclusive(0, 6))
        .collect();
    let per_load = parallel_map(&min_rtts, |i, &min_rtt_ms| {
        let delay = NetSpec::delay_ms(min_rtt_ms);
        let load_seed = seed.wrapping_mul(97).wrapping_add(i as u64);

        // Arm 1: the live web — same servers plus real-world variability:
        // per-origin path latency above the minimum and fast CDN think
        // time (lower than replay's CGI matcher).
        let mut web_spec = LoadSpec::new(&site);
        web_spec.net = delay.clone();
        web_spec.live_web = Some(LiveWebConfig::default());
        web_spec.replay.think_time = mm_web::live_think_time(&LiveWebConfig::default());
        web_spec.seed = load_seed;
        web_spec.recording = recording;
        let web = run_page_load(&web_spec).plt.as_millis_f64();

        // Arm 2: multi-origin replay.
        let mut multi_spec = LoadSpec::new(&site);
        multi_spec.net = delay.clone();
        multi_spec.seed = load_seed;
        multi_spec.recording = recording;
        let multi = run_page_load(&multi_spec).plt.as_millis_f64();

        // Arm 3: single-server replay.
        let mut single_spec = LoadSpec::new(&site);
        single_spec.net = delay;
        single_spec.replay.mode = ReplayMode::SingleServer;
        single_spec.seed = load_seed;
        single_spec.recording = recording;
        let single = run_page_load(&single_spec).plt.as_millis_f64();
        (web, multi, single)
    });
    Fig3Result {
        web: Summary::from_samples(per_load.iter().map(|s| s.0)),
        multi: Summary::from_samples(per_load.iter().map(|s| s.1)),
        single: Summary::from_samples(per_load.iter().map(|s| s.2)),
    }
}

/// E5 — §4's corpus statistic: the distribution of physical servers per
/// website across the 500-site corpus.
pub fn corpus_stats(n_sites: usize, seed: u64) -> ServerDistribution {
    let plans = generate_plans(&CorpusConfig {
        n_sites,
        seed,
        single_server_sites: if n_sites >= 500 { 9 } else { n_sites / 55 },
        ..CorpusConfig::default()
    });
    server_distribution(&plans)
}

/// One cell of the figshare contention sweep: `n_users` concurrent
/// users through one shared bottleneck under a (qdisc, CC mix,
/// protocol) configuration.
pub struct FigShareCell {
    pub n_users: usize,
    pub qdisc: String,
    pub cc_mix: String,
    pub protocol: String,
    /// Jain's fairness index over per-user bulk goodputs.
    pub fairness: f64,
    /// Interpolated PLT percentiles across the user population, ms.
    pub plt_p50_ms: f64,
    pub plt_p95_ms: f64,
    pub plt_p99_ms: f64,
    /// Fraction of aggregate bulk goodput taken by BBR users.
    pub bbr_share: f64,
    /// High-water backlog of the bottleneck downlink queue, packets.
    pub max_queue_packets: usize,
}

pub struct FigShareResult {
    pub cells: Vec<FigShareCell>,
}

/// Bytes of each user's companion bulk download.
pub const FIGSHARE_BULK_BYTES: u64 = 2_000_000;
/// The shared bottleneck: 40/12 Mbit/s, [`FIGCELL_DELAY_MS`] each way.
pub const FIGSHARE_DOWN_MBPS: f64 = 40.0;
pub const FIGSHARE_UP_MBPS: f64 = 12.0;
/// Users arrive staggered across this window.
pub(crate) const FIGSHARE_ARRIVAL_WINDOW_MS: u64 = 2_000;

/// The swept queue disciplines of the shared bottleneck: a bounded
/// device buffer, a deep bufferbloat buffer and the AQM answer.
const FIGSHARE_QDISCS: &[(&str, QdiscKind)] = &[
    ("droptail32", QdiscKind::DropTailPackets(32)),
    ("droptail256", QdiscKind::DropTailPackets(256)),
    ("codel", QdiscKind::Codel),
];

/// The swept CC population mixes.
pub fn figshare_mixes() -> Vec<mahimahi::fleet::CcMix> {
    use mahimahi::fleet::CcMix;
    vec![CcMix::AllReno, CcMix::AllBbr, CcMix::BbrRenoSplit]
}

/// The population sizes run for a `figshare <n>` invocation: every
/// default rung (2, 16, 64) no larger than `n`, plus `n` itself — so
/// `figshare 1024` adds the 1024-user arm behind the size flag.
pub(crate) fn figshare_populations(n: usize) -> Vec<usize> {
    let mut ns: Vec<usize> = [2usize, 16, 64]
        .iter()
        .copied()
        .filter(|&k| k <= n)
        .collect();
    if !ns.contains(&n) {
        ns.push(n);
    }
    ns.sort_unstable();
    ns
}

/// E-share — the population-scale contention sweep: `n_users` users,
/// each a page load plus a bulk download, through one shared
/// delay+link bottleneck, over qdisc {droptail32, droptail256, codel}
/// × CC mix {all-Reno, all-BBR, 50/50 BBR+Reno} × protocol {http1,
/// mux}. `smoke` restricts to the given population and two cells (the
/// CI configuration). Cells run in parallel; each is an independent
/// deterministic world seeded by `seed`, so user `i` arrives at the
/// same instant in every cell (per-user pairing).
pub fn figshare(n: usize, smoke: bool, seed: u64, recording: Option<&Recording>) -> FigShareResult {
    use mahimahi::fleet::{run_fleet, CcMix, FleetSpec};

    let plan = corpus_subset(1, seed).remove(0);
    let populations = if smoke {
        vec![n]
    } else {
        figshare_populations(n)
    };
    struct Cell {
        n_users: usize,
        qdisc_name: &'static str,
        qdisc: QdiscKind,
        mix: CcMix,
        protocol: &'static str,
    }
    let mut grid = Vec::new();
    for &n_users in &populations {
        for &(qdisc_name, qdisc) in FIGSHARE_QDISCS {
            for mix in figshare_mixes() {
                for protocol in ["http1", "mux"] {
                    if smoke
                        && !matches!(
                            (qdisc_name, mix, protocol),
                            ("droptail256", CcMix::BbrRenoSplit, "mux")
                                | ("codel", CcMix::AllReno, "http1")
                        )
                    {
                        continue;
                    }
                    grid.push(Cell {
                        n_users,
                        qdisc_name,
                        qdisc,
                        mix,
                        protocol,
                    });
                }
            }
        }
    }

    let cells = parallel_map(&grid, |_, cell| {
        let site = materialize(&plan);
        let mut load = LoadSpec::new(&site);
        load.net = NetSpec {
            delay: Some(SimDuration::from_millis(FIGCELL_DELAY_MS)),
            link: Some(LinkSpec {
                uplink: constant_rate(FIGSHARE_UP_MBPS, 1000),
                downlink: constant_rate(FIGSHARE_DOWN_MBPS, 1000),
                qdisc: cell.qdisc,
            }),
            ..NetSpec::default()
        };
        if cell.protocol == "mux" {
            load.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        }
        load.seed = seed;
        load.recording = recording;
        let r = run_fleet(&FleetSpec {
            load,
            n_users: cell.n_users,
            cc_mix: cell.mix,
            bulk_bytes: FIGSHARE_BULK_BYTES,
            arrival_window: SimDuration::from_millis(FIGSHARE_ARRIVAL_WINDOW_MS),
        });
        FigShareCell {
            n_users: cell.n_users,
            qdisc: cell.qdisc_name.to_string(),
            cc_mix: cell.mix.label().to_string(),
            protocol: cell.protocol.to_string(),
            fairness: r.fairness(),
            plt_p50_ms: r.plt_percentile(50.0),
            plt_p95_ms: r.plt_percentile(95.0),
            plt_p99_ms: r.plt_percentile(99.0),
            bbr_share: r.bbr_goodput_share(),
            max_queue_packets: r.max_downlink_queue_packets,
        }
    });
    FigShareResult { cells }
}

/// E-soak — figsoak: the long-lived serving soak. Every other
/// experiment builds a world per measurement; figsoak keeps ONE
/// multi-origin replay world serving open-loop Poisson session arrivals
/// for simulated hours and reports production-posture numbers:
/// requests/sec, session PLT tails, and the leak-detector high-water
/// marks (server connection table, client socket pool, retransmission
/// queues, SACK scoreboards). Everything observable is exported as a
/// Prometheus text snapshot from the soak's metrics registry.
pub struct FigSoakReport {
    pub result: mahimahi::soak::SoakResult,
    /// Prometheus text snapshot of the soak registry (validated).
    pub snapshot: String,
}

/// Mean session inter-arrival time (open loop).
pub(crate) const FIGSOAK_ARRIVAL_MEAN_MS: u64 = 1_000;
/// Client slot-pool size: the admission limit on concurrent sessions.
pub const FIGSOAK_MAX_LIVE: usize = 32;
/// Bound on the sampled server connection-table high-water mark: the
/// slot pool times a per-session connection budget. A session against
/// the corpus site opens an HTTP/1.1 pool per origin (~180 connections
/// across ~30 origins), and closed connections linger until the next
/// maintenance pass, so the budget is ~200 per concurrent session. The
/// point of the assertion is that occupancy is bounded by concurrency
/// — a 4x longer soak peaks at the same mark — not by run length.
pub(crate) const FIGSOAK_CONN_BOUND: usize = FIGSOAK_MAX_LIVE * 200;

/// Run the soak for `minutes` of simulated time over the figshare
/// bottleneck (40/12 Mbit/s, 80 ms RTT, deep droptail buffer). Panics
/// if the world leaks — connections still tabled after the drain, or a
/// connection-table high-water mark beyond the concurrency bound — or
/// if the metrics snapshot fails Prometheus text validation, so every
/// invocation (CI smoke included) is a memory-bounds assertion. The
/// world is audited like every other bin's: `--audit-out`, gated by
/// `mmaudit`.
pub fn figsoak(minutes: usize, seed: u64, recording: Option<&Recording>) -> FigSoakReport {
    use mahimahi::metrics::{validate_text, Registry};
    use mahimahi::soak::{run_soak, SoakSpec};

    let plan = corpus_subset(1, seed).remove(0);
    let site = materialize(&plan);
    let registry = Registry::new();
    let mut spec = SoakSpec::new(&site);
    spec.delay = Some(SimDuration::from_millis(FIGCELL_DELAY_MS));
    spec.link = Some(LinkSpec {
        uplink: constant_rate(FIGSHARE_UP_MBPS, 1000),
        downlink: constant_rate(FIGSHARE_DOWN_MBPS, 1000),
        qdisc: QdiscKind::DropTailPackets(256),
    });
    spec.arrival_mean = SimDuration::from_millis(FIGSOAK_ARRIVAL_MEAN_MS);
    spec.duration = SimDuration::from_secs(minutes as u64 * 60);
    spec.max_live_sessions = FIGSOAK_MAX_LIVE;
    spec.seed = seed;
    spec.recording = recording;

    let result = run_soak(&spec, &registry);
    let snapshot = registry.encode();
    validate_text(&snapshot).expect("soak snapshot must be valid Prometheus text");

    // The soak's reason to exist: a long-serving world must not
    // accumulate state. Anything tabled after the drain, or occupancy
    // beyond what live concurrency explains, is a leak.
    assert_eq!(
        result.server_conns_final, 0,
        "server connection table not empty after drain"
    );
    assert_eq!(
        result.client_sockets_final, 0,
        "client socket pool not empty after drain"
    );
    assert!(
        result.server_conn_high_water <= FIGSOAK_CONN_BOUND,
        "server connection high-water {} exceeds concurrency bound {}",
        result.server_conn_high_water,
        FIGSOAK_CONN_BOUND
    );
    FigSoakReport { result, snapshot }
}

/// Deterministic corpus subset used by multi-site experiments: sites are
/// drawn evenly across the corpus so the subset spans small and large
/// sites.
pub fn corpus_subset(n_sites: usize, seed: u64) -> Vec<SitePlan> {
    let full = generate_plans(&CorpusConfig {
        n_sites: 500,
        seed,
        ..CorpusConfig::default()
    });
    if n_sites >= full.len() {
        return full;
    }
    let stride = full.len() / n_sites;
    full.into_iter()
        .step_by(stride.max(1))
        .take(n_sites)
        .collect()
}
