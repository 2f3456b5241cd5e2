//! The "Actual Web" model for Figure 3.
//!
//! Figure 3 compares page loads inside ReplayShell against loads of the
//! real www.nytimes.com over the Internet. The Internet arm differs from
//! replay in its *variability sources*: per-origin path latency spread
//! around the minimum RTT, server/CDN processing-time variation, and
//! packet-level jitter from cross traffic. This module reproduces those
//! sources on top of the same replay servers, so the only difference
//! between arms is the variability itself — the substitution DESIGN.md
//! documents.

use mm_net::HostNoise;
use mm_replay::ReplayShell;
use mm_sim::dist::LogNormal;
use mm_sim::{RngStream, SimDuration};

/// Variability parameters for the live-web arm.
#[derive(Debug, Clone)]
pub struct LiveWebConfig {
    /// Median extra one-way latency a real origin adds beyond the
    /// measured minimum RTT path (CDN hops, queueing), microseconds.
    pub(crate) median_extra_us: f64,
    /// Lognormal sigma of the per-packet extra latency.
    pub(crate) jitter_sigma: f64,
    /// Median server think time per request, microseconds. Real CDN edge
    /// servers answer cached content faster than mahimahi's CGI matcher —
    /// the source of replay's small positive bias in Figure 3.
    pub(crate) median_think_us: f64,
}

impl Default for LiveWebConfig {
    fn default() -> Self {
        LiveWebConfig {
            median_extra_us: 1_500.0,
            jitter_sigma: 0.9,
            median_think_us: 200.0,
        }
    }
}

/// Convert the config's think time into a replay `think_time` equivalent.
pub fn live_think_time(config: &LiveWebConfig) -> SimDuration {
    SimDuration::from_nanos((config.median_think_us * 1000.0) as u64)
}

/// Install per-origin live-web variability on a replay shell's servers.
///
/// Each server gets an independent lognormal per-packet jitter process
/// whose own median is drawn per origin (some origins sit behind slower
/// paths than others), seeded deterministically from `rng`.
pub fn apply_live_web_variability(shell: &ReplayShell, config: &LiveWebConfig, rng: &RngStream) {
    for (i, host) in shell.hosts.iter().enumerate() {
        let mut origin_rng = rng.fork_indexed("live-origin", i as u64);
        // Per-origin median: spread around the configured median.
        let origin_median = LogNormal::with_median(config.median_extra_us, 0.5);
        let median = mm_sim::dist::Distribution::sample(&origin_median, &mut origin_rng)
            .clamp(100.0, 50_000.0);
        let noise_rng = rng.fork_indexed("live-noise", i as u64);
        host.set_noise(HostNoise::new(
            noise_rng,
            Box::new(LogNormal::with_median(median, config.jitter_sigma)),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mm_http::{Request, Response};
    use mm_net::{IpAddr, Namespace, PacketIdGen, SocketAddr};
    use mm_record::{RequestResponsePair, Scheme, StoredSite};
    use mm_replay::ReplayConfig;

    fn two_origin_site() -> StoredSite {
        let mut s = StoredSite::new("s", "http://23.200.0.1:80/");
        for (ip, path) in [
            (IpAddr::new(23, 200, 0, 1), "/"),
            (IpAddr::new(23, 200, 0, 2), "/a"),
        ] {
            s.push(RequestResponsePair {
                origin: SocketAddr::new(ip, 80),
                scheme: Scheme::Http,
                request: Request::get(path, ip.to_string()),
                response: Response::ok(Bytes::from_static(b"x"), "text/html"),
            });
        }
        s
    }

    #[test]
    fn applies_noise_to_every_server() {
        let ns = Namespace::root("live");
        let ids = PacketIdGen::new();
        let shell = ReplayShell::new(&ns, &two_origin_site(), ReplayConfig::default(), &ids);
        assert_eq!(shell.hosts.len(), 2);
        // No direct observability of noise; exercise the path and verify
        // it doesn't panic and is deterministic in structure.
        apply_live_web_variability(&shell, &LiveWebConfig::default(), &RngStream::from_seed(1));
    }

    #[test]
    fn think_time_conversion() {
        let cfg = LiveWebConfig {
            median_think_us: 500.0,
            ..LiveWebConfig::default()
        };
        assert_eq!(live_think_time(&cfg), SimDuration::from_micros(500));
    }
}
