//! End-to-end SACK loss recovery: a burst of lost data segments recovers
//! in about one extra RTT with SACK, versus one hole per RTT (go-back-N
//! NewReno) without — the mechanism the figcell experiment measures at
//! page-load scale.

mod common;

use common::scripted_upload;
use mm_net::{RecoveryTier, TcpConfig};
use mm_shells::transfer::Sender;
use mm_sim::{SimDuration, Timestamp};

/// Transfer `total` bytes over an RTT of `2 * one_way`, dropping data
/// segments `[drop_from, drop_to)` once. Returns (completion time,
/// client-side TCP stats).
fn lossy_transfer(
    sack: bool,
    total: usize,
    one_way: SimDuration,
    drop_from: u64,
    drop_to: u64,
) -> (Timestamp, mm_net::TcpStats) {
    lossy_transfer_cfg(sack, sack, total, one_way, drop_from, drop_to)
}

fn lossy_transfer_cfg(
    client_sack: bool,
    server_sack: bool,
    total: usize,
    one_way: SimDuration,
    drop_from: u64,
    drop_to: u64,
) -> (Timestamp, mm_net::TcpStats) {
    let tier = |sack| {
        if sack {
            RecoveryTier::Sack
        } else {
            RecoveryTier::Reno
        }
    };
    scripted_upload(
        Sender::new,
        TcpConfig::builder().recovery(tier(client_sack)).build(),
        TcpConfig::builder().recovery(tier(server_sack)).build(),
        total,
        one_way,
        drop_from,
        drop_to,
    )
}

const RTT_MS: u64 = 80;

#[test]
fn sack_negotiated_on_handshake() {
    // Handshake-only probe: both ends configured, connection established.
    let (_, stats) = lossy_transfer(true, 2000, SimDuration::from_millis(RTT_MS / 2), 999, 999);
    assert_eq!(stats.retransmissions, 0);
    assert_eq!(stats.sack_recoveries, 0);
}

#[test]
fn burst_loss_recovers_in_about_one_rtt_with_sack() {
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    // 60 KB ≈ 42 segments; drop segments 12..17 (a 5-segment burst well
    // inside the window, with plenty of data after to generate dup acks).
    let (clean, _) = lossy_transfer(true, 60_000, one_way, 999, 999);
    let (with_sack, sack_stats) = lossy_transfer(true, 60_000, one_way, 12, 17);
    let (without, newreno_stats) = lossy_transfer(false, 60_000, one_way, 12, 17);

    // SACK entered recovery, retransmitted selectively, never timed out.
    assert!(sack_stats.sack_recoveries >= 1, "{sack_stats:?}");
    assert_eq!(sack_stats.timeouts, 0, "{sack_stats:?}");
    assert_eq!(newreno_stats.timeouts, 0, "{newreno_stats:?}");

    // The whole 5-segment burst recovers within ~2 RTT of the clean run
    // (one to learn of the loss, the retransmissions ride one wave).
    let rtt = SimDuration::from_millis(RTT_MS);
    assert!(
        with_sack <= clean + rtt + rtt,
        "sack recovery too slow: clean {clean}, sack {with_sack}"
    );
    // NewReno goes back one hole per RTT: five holes cost several RTTs
    // more. Require at least 2 RTTs of separation so the test is robust.
    assert!(
        without >= with_sack + rtt + rtt,
        "expected NewReno ({without}) to trail SACK ({with_sack}) by >= 2 RTTs"
    );
}

#[test]
fn single_loss_equivalent_under_both() {
    // One lost segment: NewReno's fast retransmit already handles this in
    // one RTT; SACK must not be slower.
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    let (with_sack, s) = lossy_transfer(true, 60_000, one_way, 12, 13);
    let (without, _) = lossy_transfer(false, 60_000, one_way, 12, 13);
    assert_eq!(s.timeouts, 0);
    assert!(
        with_sack <= without + SimDuration::from_millis(5),
        "sack {with_sack} vs newreno {without}"
    );
}

#[test]
fn metrics_counters_match_stats_ground_truth() {
    // Attach a registry sink to the sender and rerun the burst-loss
    // transfer: every exported counter must agree exactly with the
    // socket's own `TcpStats` — the sink observes the same events, one
    // increment per event, nothing double-counted. (The receiver runs
    // unsinked, so the registry holds sender-side events only.)
    use mm_metrics::{MetricsHandle, Registry, RegistrySink};
    let registry = Registry::new();
    let sink = MetricsHandle::new(RegistrySink::new(registry.clone()));
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    let (_, stats) = scripted_upload(
        Sender::new,
        TcpConfig::builder()
            .recovery(RecoveryTier::Sack)
            .metrics(sink)
            .build(),
        TcpConfig::builder().recovery(RecoveryTier::Sack).build(),
        60_000,
        one_way,
        12,
        17,
    );
    assert!(stats.retransmissions >= 5, "{stats:?}");
    let counter = |name: &str| registry.counter(name, "").get();
    assert_eq!(counter("tcp_retransmits_total"), stats.retransmissions);
    assert_eq!(counter("tcp_fast_retransmits_total"), stats.sack_recoveries);
    assert_eq!(counter("tcp_rto_total"), stats.timeouts);
    assert_eq!(counter("tcp_tlp_fires_total"), 0);
    assert_eq!(counter("tcp_spurious_rto_undo_total"), 0);
    // The sink also samples cwnd/srtt gauges on every ack.
    let text = registry.encode();
    assert!(text.contains("tcp_cwnd_bytes"), "{text}");
    assert!(text.contains("tcp_srtt_seconds"), "{text}");
}

#[test]
fn metrics_sink_does_not_change_timing() {
    // The byte-identical-when-off guarantee, from the other side: a
    // transfer with a sink attached completes at exactly the same
    // virtual time as one without (sinks observe, never schedule).
    use mm_metrics::{MetricsHandle, Registry, RegistrySink};
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    let plain = TcpConfig::builder().recovery(RecoveryTier::Sack).build();
    let sinked = plain
        .to_builder()
        .metrics(MetricsHandle::new(RegistrySink::new(Registry::new())))
        .build();
    let (without, _) = scripted_upload(
        Sender::new,
        plain.clone(),
        plain.clone(),
        60_000,
        one_way,
        12,
        17,
    );
    let (with, _) = scripted_upload(Sender::new, sinked, plain, 60_000, one_way, 12, 17);
    assert_eq!(with, without, "metrics sink altered the simulation");
}

#[test]
fn asymmetric_config_falls_back_to_newreno() {
    // Only the client asks for SACK: negotiation must fall back to
    // NewReno (no SACK recoveries even under burst loss), and the
    // transfer must still complete intact and match the no-SACK timing.
    let one_way = SimDuration::from_millis(RTT_MS / 2);
    let (mixed, stats) = lossy_transfer_cfg(true, false, 60_000, one_way, 12, 17);
    let (off, _) = lossy_transfer_cfg(false, false, 60_000, one_way, 12, 17);
    assert_eq!(stats.sack_recoveries, 0, "{stats:?}");
    assert_eq!(mixed, off, "un-negotiated SACK must not change timing");
}
