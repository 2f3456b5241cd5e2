//! One world, built once: the construction every runner shares.
//!
//! A world is mahimahi's nest, the same whether one browser or a
//! thousand run inside it (`mm-webreplay mm-delay 40 mm-link up down --
//! cmd` is the same three programs whatever `cmd` is):
//!
//! ```text
//! root ns: replay servers (+ whatever servers the runner adds)
//!   └─ delay / link / loss shells          (the emulated network)
//!        └─ inner ns: the users' hosts     (the runner places them)
//! ```
//!
//! [`World::build`] resolves the observers, builds the serving side and
//! the shell stack, and hands out the resolver and the wired TCP and
//! browser configurations; [`crate::harness::run_page_load`],
//! [`crate::fleet::run_fleet`] and [`crate::soak::run_soak`] only place
//! users, run, and collect. Observers resolve in one order for every
//! artefact — an explicit handle on the spec, else a claim on the
//! process-global channel ([`Artefact`]), else none — and every consumer
//! of one stream (a recorder, the auditor, the runner's own sinks) is a
//! member of one fan-out per observer trait.
//!
//! The world holds the serving side and the shells; the runner holds
//! the hosts and browsers it places for as long as they must route
//! (DESIGN.md §6). Nothing here points back at the world, so dropping
//! it and them frees everything.

use std::rc::Rc;

use mm_audit::Auditor;
use mm_browser::{BrowserConfig, ProtocolMode, Resolver};
use mm_capture::{Capture, FanoutTap, TapHandle};
use mm_metrics::{FanoutSink, FlowTracer, MetricsHandle, Registry, RegistrySink};
use mm_net::{Host, IpAddr, Namespace, PacketIdGen, SocketAddr, TcpConfig};
use mm_replay::{ReplayShell, ServerProtocol};
use mm_shells::ShellStack;
use mm_sim::RngStream;
use mm_trace::{FanoutSpan, SpanHandle, TraceBuffer};

use crate::harness::LoadSpec;
use crate::obs::Artefact;

/// What the runner that is building brings besides the spec.
#[derive(Default)]
pub(crate) struct Runner {
    /// Route every host's socket timers through a per-host
    /// [`mm_net::Host::enable_timer_mux`] mux instead of the simulator's
    /// queue. The one difference between runners that is not the users
    /// they place: fleet and soak worlds set it, a single page load does
    /// not — pinned by the host-time benchmark's recorded digests until
    /// the issue that deletes `TimerMux` (ROADMAP, "One timer path").
    pub(crate) timer_mux: bool,
    /// The runner's own metrics sink (the soak's registry): the TCP sink
    /// unless the spec carries an explicit one, and the qdisc sink.
    pub(crate) metrics: Option<MetricsHandle>,
    /// The runner's own span sink (the soak's phase histograms).
    pub(crate) span: Option<SpanHandle>,
}

/// A built world, ready for users.
pub(crate) struct World {
    /// Root of the world's randomness (`spec.seed`).
    pub(crate) rng: RngStream,
    ids: PacketIdGen,
    /// The serving side, outermost; `shell.ns` is the root namespace.
    pub(crate) shell: Rc<ReplayShell>,
    /// The emulated network; `stack.innermost()` is where users live.
    pub(crate) stack: ShellStack,
    /// The browsers' "DNS": recorded origin → serving address.
    pub(crate) resolver: Resolver,
    /// The spec's TCP configuration with the world's observers wired in,
    /// run by the servers and by every host [`World::host`] places.
    pub(crate) tcp: TcpConfig,
    /// The spec's browser configuration, wired likewise.
    pub(crate) browser: BrowserConfig,
    timer_mux: bool,
    /// Recorders this world claimed from the global channels, merged
    /// back by [`World::finish`]. Explicit handles are their owner's.
    tracer: Option<FlowTracer>,
    capture: Option<Capture>,
    spans: Option<Rc<TraceBuffer>>,
    audit: Option<Auditor>,
}

/// One handle for the `members` present: none, the only one, or their
/// fan-out.
fn fan<H>(
    members: impl IntoIterator<Item = Option<H>>,
    fanout: impl FnOnce(Vec<H>) -> H,
) -> Option<H> {
    let mut members: Vec<H> = members.into_iter().flatten().collect();
    if members.len() > 1 {
        Some(fanout(members))
    } else {
        members.pop()
    }
}

impl World {
    pub(crate) fn build(spec: &LoadSpec<'_>, runner: Runner) -> World {
        let rng = RngStream::from_seed(spec.seed);
        let ids = PacketIdGen::new();
        let mut tcp = spec.tcp.clone().unwrap_or_default();

        // Observers. Each only observes, and each substituted config
        // differs from the unobserved one in its sink fields alone
        // (hosts fall back to `TcpConfig::default()` when no config
        // flows in), so the simulation is byte-identical either way.
        // The auditor is one instance behind all three traits: its
        // cross-stream checks (qdisc gauge vs packet ledger, server
        // bytes vs browser bytes) need one shared view.
        let claim = |explicit: bool, a: Artefact| if explicit { None } else { a.claim() };
        let tracer = claim(tcp.metrics.is_some(), Artefact::Trace).map(|_| FlowTracer::new());
        let capture = claim(spec.capture.is_some(), Artefact::Capture).map(Capture::for_load);
        let spans = claim(spec.span.is_some(), Artefact::Span).map(TraceBuffer::for_load);
        let claimed_audit = claim(spec.audit.is_some(), Artefact::Audit).map(Auditor::for_load);
        let audit = spec.audit.clone().or_else(|| claimed_audit.clone());

        let own_tcp = tcp.metrics.take().or_else(|| runner.metrics.clone());
        let tracing = tracer
            .as_ref()
            .map(|t| MetricsHandle::new(RegistrySink::with_tracer(Registry::new(), t.clone())));
        let auditing = audit.as_ref().map(Auditor::metrics_handle);
        let sinks = |m| MetricsHandle::new(FanoutSink::new(m));
        let metrics = fan([own_tcp, tracing, auditing.clone()], sinks);
        // The qdiscs' own depth gauges and counters: the runner's
        // registry exports them, the auditor cross-checks them against
        // the packet ledger its tap builds.
        let qdisc_metrics = fan([runner.metrics, auditing], sinks);
        let capturing = spec.capture.clone();
        let capturing = capturing.or_else(|| capture.as_ref().map(Capture::handle));
        let tap = fan([capturing, audit.as_ref().map(Auditor::tap_handle)], |t| {
            TapHandle::new(FanoutTap::new(t))
        });
        // Spans: the fan-out allocates the ids all its members see. The
        // TCP and replay layers are wired only for a world-wide consumer
        // (a recorder or the auditor) — the runner's own sink reads
        // browser phases alone, and emitting elsewhere for nobody would
        // cost every socket a span's allocations.
        let recording = spec.span.clone();
        let recording = recording.or_else(|| spans.as_ref().map(TraceBuffer::handle));
        let world_wide = [recording, audit.as_ref().map(Auditor::span_handle)];
        let span = if world_wide.iter().all(Option::is_none) {
            None
        } else {
            fan([runner.span.clone()].into_iter().chain(world_wide), |s| {
                FanoutSpan::new(s).handle()
            })
        };

        tcp.metrics = metrics;
        tcp.span = span.clone();

        // Outermost: ReplayShell's world. The browser's protocol choice
        // is passed through to the servers so both ends of a connection
        // speak the same wire format — one knob on the spec drives the
        // whole stack. The observers flow through ReplayConfig/
        // BrowserConfig so replay worlds and browsers built outside this
        // builder wire up the same way.
        let mut replay = spec.replay.clone();
        if let ProtocolMode::Mux(mux) = &spec.browser.protocol {
            replay.protocol = ServerProtocol::Mux(mux.clone());
        }
        replay.capture = tap.clone();
        replay.span = span.clone();
        let shell = Rc::new(ReplayShell::new(
            &Namespace::root("replayshell"),
            spec.site,
            replay,
            &ids,
        ));
        if runner.timer_mux {
            shell.enable_timer_mux();
        }
        // The servers run the world's TCP configuration, modelling the
        // deployed SPDY-era server stack under mux: a raised initial
        // cwnd on the servers (only), so one multiplexed connection can
        // match the burst capacity of an HTTP/1.1 pool. An explicit IW
        // in `spec.tcp` is the experimenter's ablation knob and wins
        // over this deployment default.
        let mut server_tcp = tcp.clone();
        if let ProtocolMode::Mux(mux) = &spec.browser.protocol {
            server_tcp.initial_cwnd_segments = server_tcp
                .initial_cwnd_segments
                .or(mux.server_initial_cwnd_segments);
        }
        for host in &shell.hosts {
            host.set_tcp_config(server_tcp.clone());
        }

        // Nested emulation shells in mahimahi order. The tap and the
        // qdisc instruments must attach before any layer is added so
        // every shell's direction reports under its point.
        let mut stack = ShellStack::new(&shell.ns).observed(tap.clone(), qdisc_metrics);
        if let Some(delay) = spec.net.delay {
            stack = stack.delay(delay);
        }
        if let Some(link) = &spec.net.link {
            let qdisc = link.qdisc;
            stack = stack.link_asymmetric(link.uplink.clone(), link.downlink.clone(), &move || {
                qdisc.build()
            });
        }
        if let Some((up, down)) = spec.net.loss {
            stack = stack.loss(up, down, &rng.fork("loss"));
        }

        let resolver: Resolver = {
            let shell = shell.clone();
            // Recorded origins are IP literals; a host name has no
            // address here, and that fetch fails like an NXDOMAIN.
            Rc::new(move |url: &mm_http::Url| {
                let ip: IpAddr = url.host().parse().ok()?;
                Some(shell.resolve(SocketAddr::new(ip, url.port())))
            })
        };

        let mut browser = spec.browser.clone();
        browser.capture = tap;
        browser.span = span.or(runner.span);

        World {
            rng,
            ids,
            shell,
            stack,
            resolver,
            tcp,
            browser,
            timer_mux: runner.timer_mux,
            tracer,
            capture,
            spans,
            audit: claimed_audit,
        }
    }

    /// A new host at `ip` in `ns`, on this world's TCP configuration and
    /// timer path.
    pub(crate) fn host(&self, ns: &Namespace, ip: IpAddr) -> Host {
        let host = Host::new_in(ip, self.ids.clone(), ns);
        host.set_tcp_config(self.tcp.clone());
        if self.timer_mux {
            host.enable_timer_mux();
        }
        host
    }

    /// The run is over: merge what this world's claimed recorders hold
    /// into the global channels.
    pub(crate) fn finish(&self) {
        if let Some(tracer) = &self.tracer {
            Artefact::Trace.append(&tracer.take_jsonl());
        }
        if let Some(capture) = &self.capture {
            Artefact::Capture.append(&capture.take_jsonl());
        }
        if let Some(spans) = &self.spans {
            Artefact::Span.append(&spans.to_jsonl());
        }
        if let Some(audit) = &self.audit {
            Artefact::Audit.append(&audit.finish().to_jsonl());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_browser::MuxConfig;
    use mm_corpus::{materialize, plan_site, SiteParams};
    use mm_net::RecoveryTier;

    /// The TCP configurations of a world built from `spec`: its servers',
    /// then that of a user host placed in it.
    fn configs(spec: &LoadSpec<'_>) -> (Vec<TcpConfig>, TcpConfig) {
        let world = World::build(spec, Runner::default());
        let user = world.host(&world.stack.innermost(), IpAddr::new(100, 64, 0, 2));
        let servers = world.shell.hosts.iter().map(Host::tcp_config).collect();
        (servers, user.tcp_config())
    }

    #[test]
    fn the_spec_tcp_config_reaches_every_host() {
        let params = SiteParams {
            servers: Some(4),
            ..SiteParams::default()
        };
        let site = materialize(&plan_site(970, &params, &mut RngStream::from_seed(23)));
        let mut spec = LoadSpec::new(&site);
        let rack = TcpConfig::builder().recovery(RecoveryTier::RackTlp);
        spec.tcp = Some(rack.clone().build());
        let tier_and_iw = |config: &TcpConfig| (config.recovery, config.initial_cwnd_segments);
        let rack_with = |segments| (RecoveryTier::RackTlp, segments);

        // HTTP/1.1: the spec's configuration everywhere.
        let (servers, user) = configs(&spec);
        assert!(servers.len() > 1);
        assert!(servers.iter().all(|c| tier_and_iw(c) == rack_with(None)));
        assert_eq!(tier_and_iw(&user), rack_with(None));

        // Mux: the deployment IW on the servers only.
        let deployed = MuxConfig::default().server_initial_cwnd_segments;
        assert!(deployed.is_some());
        spec.browser.protocol = ProtocolMode::Mux(MuxConfig::default());
        let (servers, user) = configs(&spec);
        assert!(servers
            .iter()
            .all(|c| tier_and_iw(c) == rack_with(deployed)));
        assert_eq!(tier_and_iw(&user), rack_with(None));

        // An IW the spec names wins over the deployment's, everywhere.
        spec.tcp = Some(rack.initial_cwnd_segments(4).build());
        let (servers, user) = configs(&spec);
        assert!(servers.iter().all(|c| tier_and_iw(c) == rack_with(Some(4))));
        assert_eq!(tier_and_iw(&user), rack_with(Some(4)));
    }
}
