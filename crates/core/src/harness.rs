//! The measurement harness: one call = one page load in a fresh,
//! fully-isolated world.
//!
//! Every load builds its own simulator, replay environment, shell stack
//! and browser, mirroring how each mahimahi measurement runs in its own
//! namespaces. Determinism: a [`LoadSpec`] plus a seed fully determines
//! the resulting [`PageLoadResult`].

use std::cell::RefCell;
use std::rc::Rc;

use mm_browser::{Browser, BrowserConfig, PageLoadResult};
use mm_net::IpAddr;
use mm_record::StoredSite;
use mm_replay::ReplayConfig;
use mm_shells::{CoDel, DropHead, DropTail, Pie, Qdisc, QueueLimit};
use mm_sim::{RngStream, SimDuration, Simulator};
use mm_trace::Trace;
use mm_web::{apply_live_web_variability, HostProfile, LiveWebConfig};

use crate::world::{Runner, World};

/// Queue discipline selection for LinkShell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QdiscKind {
    /// Infinite droptail (the paper's configuration).
    Infinite,
    /// Droptail bounded in packets.
    DropTailPackets(usize),
    /// Drophead bounded in packets.
    DropHeadPackets(usize),
    /// CoDel with RFC defaults.
    Codel,
    /// PIE with RFC defaults, given the link rate in Mbit/s.
    Pie(f64),
}

impl QdiscKind {
    pub(crate) fn build(&self) -> Box<dyn Qdisc> {
        match *self {
            QdiscKind::Infinite => Box::new(DropTail::infinite()),
            QdiscKind::DropTailPackets(n) => Box::new(DropTail::new(QueueLimit::Packets(n))),
            QdiscKind::DropHeadPackets(n) => Box::new(DropHead::new(QueueLimit::Packets(n))),
            QdiscKind::Codel => Box::new(CoDel::default_params()),
            QdiscKind::Pie(mbps) => Box::new(Pie::default_params(mbps * 1e6 / 8.0)),
        }
    }
}

/// A LinkShell specification.
#[derive(Clone)]
pub struct LinkSpec {
    pub uplink: Trace,
    pub downlink: Trace,
    pub qdisc: QdiscKind,
}

impl LinkSpec {
    /// Symmetric link from one trace with an infinite droptail queue.
    pub fn symmetric(trace: Trace) -> LinkSpec {
        LinkSpec {
            uplink: trace.clone(),
            downlink: trace,
            qdisc: QdiscKind::Infinite,
        }
    }
}

/// The emulated network between browser and servers: any combination of
/// DelayShell, LinkShell and LossShell, nested in mahimahi order
/// (delay outermost, then link, then loss).
#[derive(Clone, Default)]
pub struct NetSpec {
    /// `mm-delay <ms>`: fixed one-way delay each direction.
    pub delay: Option<SimDuration>,
    /// `mm-link <up> <down>`: trace-driven link.
    pub link: Option<LinkSpec>,
    /// `mm-loss <up> <down>`: i.i.d. loss rates.
    pub loss: Option<(f64, f64)>,
}

impl NetSpec {
    /// No emulation at all: bare ReplayShell.
    pub(crate) fn none() -> NetSpec {
        NetSpec::default()
    }

    /// Just a delay shell (the paper's `mm-delay <ms>`).
    pub fn delay_ms(ms: u64) -> NetSpec {
        NetSpec {
            delay: Some(SimDuration::from_millis(ms)),
            ..NetSpec::default()
        }
    }
}

/// Everything that defines one measured page load.
#[derive(Clone)]
pub struct LoadSpec<'a> {
    /// The recorded site to replay.
    pub(crate) site: &'a StoredSite,
    /// Replay topology and server think time.
    pub replay: ReplayConfig,
    /// Browser parameters.
    pub browser: BrowserConfig,
    /// The emulated network between browser and servers.
    pub net: NetSpec,
    /// Host machine profile applied to browser and servers (Table 1).
    pub host_profile: Option<HostProfile>,
    /// Live-web variability applied to the servers (Figure 3's
    /// "Actual Web" arm).
    pub live_web: Option<LiveWebConfig>,
    /// TCP configuration for every host in the world (None = defaults).
    /// Lets protocol studies A/B congestion control and socket knobs.
    pub tcp: Option<mm_net::TcpConfig>,
    /// Explicit per-packet/per-request tap for this load, attached to
    /// every shell layer plus the browser and replay boundaries. `None`
    /// falls back to [`LoadSpec::recording`]'s capture (see
    /// [`crate::obs::Artefact::Capture`]). Taps only observe: results are
    /// byte-identical with or without one.
    pub capture: Option<mm_capture::TapHandle>,
    /// Explicit causal-span sink for this load, attached to the browser
    /// (page/resource/phase spans), the replay servers (`ServerThink`)
    /// and every host's TCP layer (`ConnSetup`/`HolWait`/`Conn`). `None`
    /// falls back to [`LoadSpec::recording`]'s spans (see
    /// [`crate::obs::Artefact::Span`]). Sinks only observe: results are
    /// byte-identical with or without one.
    pub span: Option<mm_trace::SpanHandle>,
    /// Explicit conformance auditor for this load, registered as the
    /// world's metrics sink, packet tap and span sink at once (fanned
    /// out alongside any other sinks). The caller keeps the auditor and
    /// calls [`mm_audit::Auditor::finish`] after the load. `None` falls
    /// back to [`LoadSpec::recording`]'s audit (see
    /// [`crate::obs::Artefact::Audit`]). Auditors only observe: results
    /// are byte-identical with or without one.
    pub audit: Option<mm_audit::Auditor>,
    /// The run's recording, for each artefact no explicit handle above
    /// (or `tcp.metrics`, for flow traces) covers. `None` records nothing.
    pub recording: Option<&'a crate::obs::Recording>,
    /// Seed for all stochastic elements of this load.
    pub seed: u64,
}

impl<'a> LoadSpec<'a> {
    /// A plain multi-origin replay load with default settings.
    pub fn new(site: &'a StoredSite) -> LoadSpec<'a> {
        LoadSpec {
            site,
            replay: ReplayConfig::default(),
            browser: BrowserConfig::default(),
            net: NetSpec::none(),
            host_profile: None,
            live_web: None,
            tcp: None,
            capture: None,
            span: None,
            audit: None,
            recording: None,
            seed: 0,
        }
    }
}

/// The address the browser host uses inside the innermost namespace.
const BROWSER_IP: IpAddr = IpAddr::new(100, 64, 0, 2);

/// Run one page load to completion and return its result.
///
/// Panics if the site's root URL cannot be fetched (an unusable recording
/// is a harness bug).
pub fn run_page_load(spec: &LoadSpec<'_>) -> PageLoadResult {
    let mut sim = Simulator::new();
    let world = World::build(spec, Runner::default());
    if let Some(live) = &spec.live_web {
        apply_live_web_variability(&world.shell, live, &world.rng.fork("live-web"));
    }
    let browser_host = world.host(&world.stack.innermost(), BROWSER_IP);
    let browser = Browser::new(
        browser_host.clone(),
        world.resolver.clone(),
        world.browser.clone(),
    );
    if let Some(profile) = &spec.host_profile {
        for (i, host) in world.shell.hosts.iter().enumerate() {
            host.set_noise(profile.noise(spec.seed, &format!("server-{i}")));
        }
        browser_host.set_noise(profile.noise(spec.seed, "browser"));
        let rng = RngStream::from_seed(spec.seed)
            .fork(&profile.name)
            .fork("browser-cpu");
        browser.set_cpu_jitter(rng, profile.cpu_sigma);
    }

    let result: Rc<RefCell<Option<PageLoadResult>>> = Rc::new(RefCell::new(None));
    let slot = result.clone();
    browser.navigate(&mut sim, &spec.site.root_url, move |_sim, r| {
        *slot.borrow_mut() = Some(r);
    });
    sim.run();
    world.finish(spec.recording);
    let r = result
        .borrow_mut()
        .take()
        .expect("page load did not complete; dead recording or network");
    r
}

/// Run `n` loads of the same spec with per-load seeds forked from
/// `spec.seed`, returning each PLT in milliseconds.
pub fn run_loads(spec: &LoadSpec<'_>, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let seed = spec.seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let load_spec = LoadSpec {
                seed,
                ..spec.clone()
            };
            run_page_load(&load_spec).plt.as_millis_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_replay::ReplayMode;
    use mm_trace::constant_rate;

    #[test]
    fn bare_replay_load_completes() {
        let site = crate::test_site(7, 6, 18.0);
        let r = run_page_load(&LoadSpec::new(&site));
        assert_eq!(r.failures, 0);
        assert!(r.resource_count() >= 19);
        assert!(r.plt > SimDuration::from_millis(50), "plt {}", r.plt);
    }

    /// A recording whose HTML links a host name: the world's resolver
    /// knows the recorded IP literals only, so that one fetch fails like
    /// an NXDOMAIN, the audited load completes, and nothing panics.
    #[test]
    fn a_host_name_link_fails_one_resource() {
        let mut site = crate::test_site(7, 6, 18.0);
        let root = &mut site.pairs_mut()[0].response;
        let html = String::from_utf8(root.body.to_vec()).expect("HTML");
        let linked = html.replacen(
            "<html>",
            "<html><img src=\"http://cdn.example.com/a.png\">",
            1,
        );
        assert_ne!(linked, html, "the root document opens with <html>");
        *root = mm_http::Response::ok(linked.into(), "text/html");
        let clean = run_page_load(&LoadSpec::new(&crate::test_site(7, 6, 18.0)));
        let mut spec = LoadSpec::new(&site);
        let auditor = mm_audit::Auditor::for_load(0);
        spec.audit = Some(auditor.clone());
        let r = run_page_load(&spec);
        assert_eq!(r.failures, 1);
        assert_eq!(r.resource_count(), clean.resource_count() + 1);
        let report = auditor.finish();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn delay_shell_increases_plt() {
        let site = crate::test_site(7, 6, 18.0);
        let bare = run_page_load(&LoadSpec::new(&site)).plt;
        let mut spec = LoadSpec::new(&site);
        spec.net = NetSpec::delay_ms(100);
        let delayed = run_page_load(&spec).plt;
        assert!(
            delayed > bare + SimDuration::from_millis(150),
            "bare {bare}, delayed {delayed}"
        );
    }

    #[test]
    fn slow_link_increases_plt() {
        let site = crate::test_site(7, 6, 18.0);
        let mut fast = LoadSpec::new(&site);
        fast.net.link = Some(LinkSpec::symmetric(constant_rate(100.0, 1000)));
        let mut slow = LoadSpec::new(&site);
        slow.net.link = Some(LinkSpec::symmetric(constant_rate(1.0, 1000)));
        let f = run_page_load(&fast).plt;
        let s = run_page_load(&slow).plt;
        assert!(s > f, "slow {s} vs fast {f}");
        // 1 Mbit/s on a ~500 KB page: transfer alone is ≥ 3 s.
        assert!(s > SimDuration::from_secs(2), "slow {s}");
    }

    #[test]
    fn loss_increases_plt() {
        let site = crate::test_site(7, 6, 18.0);
        let mut clean = LoadSpec::new(&site);
        clean.net = NetSpec::delay_ms(20);
        let mut lossy = LoadSpec::new(&site);
        lossy.net = NetSpec::delay_ms(20);
        lossy.net.loss = Some((0.05, 0.05));
        let c = run_page_load(&clean).plt;
        let l = run_page_load(&lossy).plt;
        assert!(l > c, "lossy {l} vs clean {c}");
    }

    #[test]
    fn single_server_slower_at_high_bandwidth() {
        // Needs a site big enough for single-server CGI contention to
        // outrun the browser's own CPU time (the Table 2 mechanism).
        let site = crate::test_site(8, 20, 120.0);
        let net = NetSpec {
            delay: Some(SimDuration::from_millis(30)),
            link: Some(LinkSpec::symmetric(constant_rate(25.0, 1000))),
            ..NetSpec::default()
        };
        let mut multi = LoadSpec::new(&site);
        multi.net = net.clone();
        let mut single = LoadSpec::new(&site);
        single.net = net;
        single.replay.mode = ReplayMode::SingleServer;
        let m = run_page_load(&multi).plt;
        let s = run_page_load(&single).plt;
        assert!(s > m, "single {s} vs multi {m}");
    }

    #[test]
    fn host_noise_perturbs_but_barely() {
        let site = crate::test_site(7, 6, 18.0);
        let mut base = LoadSpec::new(&site);
        base.net = NetSpec::delay_ms(30);
        let quiet = run_page_load(&base).plt;
        let mut noisy_spec = LoadSpec::new(&site);
        noisy_spec.net = NetSpec::delay_ms(30);
        noisy_spec.host_profile = Some(HostProfile::machine_1());
        let noisy = run_page_load(&noisy_spec).plt;
        assert_ne!(quiet, noisy);
        let rel = (noisy.as_millis_f64() - quiet.as_millis_f64()).abs() / quiet.as_millis_f64();
        assert!(rel < 0.05, "noise shifted PLT by {}%", rel * 100.0);
    }

    #[test]
    fn run_loads_varies_with_noise() {
        let site = crate::test_site(7, 6, 18.0);
        let mut spec = LoadSpec::new(&site);
        spec.net = NetSpec::delay_ms(10);
        spec.host_profile = Some(HostProfile::machine_1());
        let plts = run_loads(&spec, 5);
        assert_eq!(plts.len(), 5);
        let distinct: std::collections::HashSet<u64> =
            plts.iter().map(|p| (p * 1000.0) as u64).collect();
        assert!(distinct.len() > 1, "noise must vary across loads");
    }
}
