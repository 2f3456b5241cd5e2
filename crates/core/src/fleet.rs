//! Population-scale contention worlds: one shared bottleneck, many users.
//!
//! Where [`crate::harness::run_page_load`] builds a pristine world per
//! measurement, [`run_fleet`] builds ONE world and puts `n_users`
//! concurrent users inside it — each with a browser doing a page load and
//! a long-running bulk download — all contending for the same emulated
//! link. This is the `figshare` substrate: fairness (Jain's index over
//! per-user bulk goodputs), per-user PLT percentiles under cross traffic,
//! and bottleneck queue occupancy, swept over qdisc × CC mix × protocol.
//!
//! The world is the one every runner builds (`world.rs`, DESIGN.md §6)
//! — shared replay servers outermost, the shells as the shared
//! bottleneck, the users innermost — plus one bulk server per user next
//! to the replay servers. Per-user congestion control lives on that
//! dedicated bulk server (the data sender), so a 50/50 BBR+Reno
//! population genuinely races BBRv1 against NewReno through one queue.
//! The embedded [`LoadSpec`]'s observers (`capture`, `span`, `audit`, or
//! its `recording`) see the whole world: one recorder, one id, however
//! many users.

use std::cell::RefCell;
use std::rc::Rc;

use mm_browser::{Browser, PageLoadResult};
use mm_net::{CcAlgorithm, IpAddr, SocketAddr};
use mm_shells::transfer::{payload, Receiver, Sender, Serve};
use mm_shells::ShellLayer;
use mm_sim::{jain_fairness, SimDuration, Simulator, Summary, Timestamp};

use crate::harness::LoadSpec;
use crate::world::{Runner, World};

/// A fleet world: one shared [`LoadSpec`]-shaped environment plus the
/// population knobs. The embedded `load` describes the site, network,
/// browser and base TCP configuration every user shares; `load.seed`
/// seeds the whole world.
pub struct FleetSpec<'a> {
    /// The environment (site, replay, browser, net, base TCP, seed).
    pub load: LoadSpec<'a>,
    /// How many concurrent users share the bottleneck.
    pub n_users: usize,
    /// Congestion-control population mix.
    pub cc_mix: CcMix,
    /// Bytes each user's companion bulk download transfers (0 = none).
    pub bulk_bytes: u64,
    /// User `i` arrives at `arrival_window * i / n_users` — deterministic
    /// stagger, so user indices pair across sweep cells.
    pub arrival_window: SimDuration,
}

/// Congestion-control population mix across a fleet's users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMix {
    /// Every user's sender runs NewReno.
    AllReno,
    /// Every user's sender runs BBRv1.
    AllBbr,
    /// Even-indexed users run BBRv1, odd-indexed NewReno (50/50).
    BbrRenoSplit,
}

impl CcMix {
    /// The algorithm user `i` drives its bulk sender with.
    pub(crate) fn cc_for(&self, user: usize) -> CcAlgorithm {
        match self {
            CcMix::AllReno => CcAlgorithm::Reno,
            CcMix::AllBbr => CcAlgorithm::Bbr,
            CcMix::BbrRenoSplit => {
                if user.is_multiple_of(2) {
                    CcAlgorithm::Bbr
                } else {
                    CcAlgorithm::Reno
                }
            }
        }
    }

    /// When the whole population runs one algorithm, that algorithm —
    /// it then also applies to the shared replay servers. A split mix
    /// cannot (shared servers have one config), so web flows keep the
    /// base config; see DESIGN.md §6.
    pub(crate) fn uniform(&self) -> Option<CcAlgorithm> {
        match self {
            CcMix::AllReno => Some(CcAlgorithm::Reno),
            CcMix::AllBbr => Some(CcAlgorithm::Bbr),
            CcMix::BbrRenoSplit => None,
        }
    }

    /// Stable key fragment for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CcMix::AllReno => "all_reno",
            CcMix::AllBbr => "all_bbr",
            CcMix::BbrRenoSplit => "bbr_reno",
        }
    }
}

/// What one user experienced inside the shared world.
#[derive(Debug, Clone)]
pub struct UserOutcome {
    /// The congestion control its bulk sender ran.
    pub cc: CcAlgorithm,
    /// Page load time of the user's single page load, in milliseconds.
    pub plt_ms: f64,
    /// Goodput of the user's bulk download in bits/second.
    pub goodput_bps: f64,
    /// Bytes the bulk download actually delivered.
    pub bulk_bytes: u64,
}

/// Everything measured from one fleet world.
#[derive(Debug, Clone)]
pub struct FleetResult {
    pub users: Vec<UserOutcome>,
    /// High-water backlog of the bottleneck downlink queue, in packets.
    pub max_downlink_queue_packets: usize,
    /// High-water backlog of the bottleneck uplink queue, in packets.
    pub max_uplink_queue_packets: usize,
    /// Virtual time at which the last event ran.
    pub completed_at: SimDuration,
}

impl FleetResult {
    /// Per-user bulk goodputs, user order.
    pub(crate) fn goodputs(&self) -> Vec<f64> {
        self.users.iter().map(|u| u.goodput_bps).collect()
    }

    /// Jain's fairness index over per-user bulk goodputs.
    pub fn fairness(&self) -> f64 {
        jain_fairness(&self.goodputs())
    }

    /// Interpolated PLT percentile across users, in milliseconds.
    pub fn plt_percentile(&self, p: f64) -> f64 {
        let mut s = Summary::from_samples(self.users.iter().map(|u| u.plt_ms).collect::<Vec<_>>());
        s.percentile_interpolated(p)
    }

    /// Fraction of aggregate bulk goodput taken by BBR users (0.0 for an
    /// all-Reno world, 1.0 for all-BBR; the dominance measurement for the
    /// 50/50 mix).
    pub fn bbr_goodput_share(&self) -> f64 {
        let total: f64 = self.goodputs().iter().sum();
        // fold from +0.0: an empty `Iterator::sum` yields -0.0, which
        // would leak a negative zero into reports for all-Reno worlds.
        let bbr: f64 = self
            .users
            .iter()
            .filter(|u| u.cc == CcAlgorithm::Bbr)
            .map(|u| u.goodput_bps)
            .fold(0.0, |a, b| a + b);
        if total > 0.0 {
            bbr / total
        } else {
            0.0
        }
    }
}

/// Browser host address for user `i` (100.64/16, clear of the corpus's
/// 23/8 server pool and the harness's single-load browser IP).
fn user_ip(i: usize) -> IpAddr {
    assert!(i < 200 * 200, "fleet larger than the address plan");
    IpAddr::new(100, 64, 1 + (i / 200) as u8, (2 + i % 200) as u8)
}

/// Dedicated bulk-server address for user `i` (10.99/16).
fn bulk_ip(i: usize) -> IpAddr {
    IpAddr::new(10, 99, 1 + (i / 200) as u8, (1 + i % 200) as u8)
}

const BULK_PORT: u16 = 5001;

/// Run one fleet world to completion.
///
/// Panics if any user's page load never finishes — a world where loads
/// hang is a harness bug, not a measurable outcome — and if the load
/// spec sets `host_profile` or `live_web`, which only `run_page_load`
/// applies.
pub fn run_fleet(spec: &FleetSpec<'_>) -> FleetResult {
    assert!(spec.n_users >= 1, "a fleet needs at least one user");
    assert!(
        spec.load.host_profile.is_none(),
        "a fleet does not apply LoadSpec::host_profile"
    );
    assert!(
        spec.load.live_web.is_none(),
        "a fleet does not apply LoadSpec::live_web"
    );
    let mut sim = Simulator::new();

    // A uniform population's algorithm also drives the shared replay
    // servers; a split mix cannot — shared servers have one config — so
    // web flows keep the base.
    let mut load = spec.load.clone();
    if let Some(cc) = spec.cc_mix.uniform() {
        load.tcp = Some(load.tcp.unwrap_or_default().to_builder().cc(cc).build());
    }
    let runner = Runner {
        timer_mux: true,
        ..Runner::default()
    };
    let world = World::build(&load, runner);
    let user_tcp = |i: usize| world.tcp.to_builder().cc(spec.cc_mix.cc_for(i)).build();

    // One bulk server per user, also outermost: the user's long-running
    // sender, carrying that user's congestion control. Every sender
    // sends the one payload and closes.
    let mut bulk_servers = Vec::with_capacity(spec.n_users);
    let bulk = payload(spec.bulk_bytes as usize);
    if spec.bulk_bytes > 0 {
        let serve: Rc<Serve> = Rc::new(Serve(Sender::new(bulk.clone())));
        for i in 0..spec.n_users {
            let host = world.host(&world.shell.ns, bulk_ip(i));
            host.set_tcp_config(user_tcp(i));
            host.listen(BULK_PORT, serve.clone());
            bulk_servers.push(host);
        }
    }
    let inner_ns = world.stack.innermost();

    // Users: staggered deterministic arrivals across the window, so the
    // same user index arrives at the same time in every cell of a sweep
    // (per-user pairing).
    let plt_slots: Vec<Rc<RefCell<Option<PageLoadResult>>>> = (0..spec.n_users)
        .map(|_| Rc::new(RefCell::new(None)))
        .collect();
    // Each user's bulk download: when it started, and its receiver.
    let mut bulk_clients: Vec<(Timestamp, Rc<Receiver>)> = Vec::with_capacity(spec.n_users);
    // The runner holds its users: a browser (and through it the user's host)
    // lives until the run is over, not until its arrival event has fired.
    let mut browsers: Vec<Browser> = Vec::with_capacity(spec.n_users);
    for (i, plt_slot) in plt_slots.iter().enumerate() {
        let start = Timestamp::ZERO
            + SimDuration::from_nanos(
                spec.arrival_window.as_nanos() * i as u64 / spec.n_users as u64,
            );
        let host = world.host(&inner_ns, user_ip(i));
        host.set_tcp_config(user_tcp(i));
        let browser = Browser::new(host.clone(), world.resolver.clone(), world.browser.clone());
        browsers.push(browser.clone());
        let slot = plt_slot.clone();
        let root_url = spec.load.site.root_url.clone();
        sim.schedule_at(start, move |sim| {
            browser.navigate(sim, &root_url, move |_sim, r| {
                *slot.borrow_mut() = Some(r);
            });
        });

        if spec.bulk_bytes > 0 {
            let client = Receiver::new(bulk.clone());
            bulk_clients.push((start, client.clone()));
            let bulk_addr = SocketAddr::new(bulk_ip(i), BULK_PORT);
            sim.schedule_at(start, move |sim| {
                host.connect(sim, bulk_addr, client);
            });
        }
    }

    sim.run();
    world.finish(load.recording);

    let users = (0..spec.n_users)
        .map(|i| {
            let plt = plt_slots[i]
                .borrow_mut()
                .take()
                .unwrap_or_else(|| panic!("user {i}: page load did not complete"));
            // Goodput runs from the user's arrival to the last data.
            let (goodput_bps, bulk_bytes) = match bulk_clients.get(i) {
                Some((started, rx)) => match rx.last_data() {
                    Some(at) if at > *started => {
                        let bytes = rx.received() as u64;
                        (bytes as f64 * 8.0 / (at - *started).as_secs_f64(), bytes)
                    }
                    _ => (0.0, 0),
                },
                None => (0.0, 0),
            };
            UserOutcome {
                cc: spec.cc_mix.cc_for(i),
                plt_ms: plt.plt.as_millis_f64(),
                goodput_bps,
                bulk_bytes,
            }
        })
        .collect();

    let (mut max_up, mut max_down) = (0, 0);
    for layer in world.stack.layers() {
        if let ShellLayer::Link(link) = layer {
            let up = link.uplink.qdisc_stats();
            let down = link.downlink.qdisc_stats();
            max_up = max_up.max(up.max_backlog_packets);
            max_down = max_down.max(down.max_backlog_packets);
        }
    }

    FleetResult {
        users,
        max_downlink_queue_packets: max_down,
        max_uplink_queue_packets: max_up,
        completed_at: sim.now() - Timestamp::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{LinkSpec, NetSpec};
    use mm_trace::constant_rate;

    fn base_spec(site: &mm_record::StoredSite, n: usize) -> FleetSpec<'_> {
        let mut load = LoadSpec::new(site);
        load.net = NetSpec {
            delay: Some(SimDuration::from_millis(20)),
            link: Some(LinkSpec::symmetric(constant_rate(20.0, 2000))),
            ..NetSpec::default()
        };
        load.seed = 2014;
        FleetSpec {
            load,
            n_users: n,
            cc_mix: CcMix::AllReno,
            bulk_bytes: 200_000,
            arrival_window: SimDuration::from_millis(500),
        }
    }

    #[test]
    fn two_user_fleet_completes_with_positive_goodputs() {
        let site = crate::test_site(17, 4, 10.0);
        let r = run_fleet(&base_spec(&site, 2));
        assert_eq!(r.users.len(), 2);
        for (i, u) in r.users.iter().enumerate() {
            assert!(u.plt_ms > 0.0, "user {i} plt {}", u.plt_ms);
            assert!(u.goodput_bps > 0.0, "user {i} goodput");
            assert_eq!(u.bulk_bytes, 200_000);
        }
        let j = r.fairness();
        assert!(j > 0.0 && j <= 1.0, "fairness {j}");
        assert!(r.max_downlink_queue_packets > 0);
    }

    #[test]
    #[should_panic(expected = "a fleet does not apply LoadSpec::host_profile")]
    fn a_fleet_refuses_a_host_profile() {
        let site = crate::test_site(17, 4, 10.0);
        let mut spec = base_spec(&site, 2);
        spec.load.host_profile = Some(mm_web::HostProfile::machine_1());
        run_fleet(&spec);
    }

    #[test]
    #[should_panic(expected = "a fleet does not apply LoadSpec::live_web")]
    fn a_fleet_refuses_live_web_variability() {
        let site = crate::test_site(17, 4, 10.0);
        let mut spec = base_spec(&site, 2);
        spec.load.live_web = Some(mm_web::LiveWebConfig::default());
        run_fleet(&spec);
    }

    #[test]
    fn contention_slows_loads_down() {
        let site = crate::test_site(17, 4, 10.0);
        let solo = run_fleet(&base_spec(&site, 1));
        let crowd = run_fleet(&base_spec(&site, 8));
        // Under 8-way contention on the same link, the median PLT must
        // exceed the uncontended load's.
        assert!(
            crowd.plt_percentile(50.0) > solo.plt_percentile(50.0),
            "crowd {} vs solo {}",
            crowd.plt_percentile(50.0),
            solo.plt_percentile(50.0)
        );
    }

    #[test]
    fn split_mix_assigns_both_algorithms() {
        let site = crate::test_site(17, 4, 10.0);
        let mut spec = base_spec(&site, 4);
        spec.cc_mix = CcMix::BbrRenoSplit;
        let r = run_fleet(&spec);
        let bbr = r.users.iter().filter(|u| u.cc == CcAlgorithm::Bbr).count();
        assert_eq!(bbr, 2);
        let share = r.bbr_goodput_share();
        assert!(share > 0.0 && share < 1.0, "share {share}");
    }
}
