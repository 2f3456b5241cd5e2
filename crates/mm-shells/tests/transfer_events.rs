//! What one clean 1 MiB upload costs the engine, by dispatch tag, over
//! three paths (ROADMAP item 19's table, rebuilt on `transfer`). The
//! counts are exact: a change that moves one is a change to how many
//! events a packet hop or a timer costs, and says so here.

use mm_net::TcpConfig;
use mm_shells::transfer::{Transfer, TransferSpec};
use mm_shells::{DropTail, ShellStack};
use mm_sim::SimDuration;
use mm_trace::constant_rate;

/// A path, the shells that make it, and its `(events, host, delay, link,
/// timer)` dispatches.
type Row = (
    &'static str,
    fn(ShellStack) -> ShellStack,
    (u64, u64, u64, u64, u64),
);

const DELAY: SimDuration = SimDuration::from_millis(40);

#[test]
fn a_clean_upload_costs_these_events() {
    let rows: [Row; 3] = [
        // Item 19(a) (inline host dispatch) removes the host column;
        // item 4(b) (physical timer cancel) shrinks the timer column.
        ("bare", |stack| stack, (2_165, 1_443, 0, 0, 722)),
        // Items 19(a) and 4(b), as above.
        (
            "delay 40 ms",
            |stack| stack.delay(DELAY),
            (3_608, 1_443, 1_443, 0, 722),
        ),
        // Items 19(a) and 4(b), as above.
        (
            "delay 40 ms + 14 Mbit/s",
            |stack| {
                let link = constant_rate(14.0, 1000);
                stack
                    .delay(DELAY)
                    .link(link, &|| Box::new(DropTail::infinite()))
            },
            (4_842, 1_443, 1_443, 1_234, 722),
        ),
    ];
    let spec = TransferSpec {
        tcp: TcpConfig::default(),
        bytes: 1 << 20,
    };
    for (path, shells, expected) in rows {
        let mut world = Transfer::new(&spec, shells);
        world.sim.enable_profiler();
        let r = world.run();
        assert!(r.intact, "{path}");
        let tag = |t| r.profile.as_ref().expect("profiled").count(t);
        let counts = (
            r.events_executed,
            tag("sim_events_host_total"),
            tag("sim_events_delay_total"),
            tag("sim_events_link_total"),
            tag("sim_events_timer_total"),
        );
        assert_eq!(
            counts, expected,
            "{path}: (events, host, delay, link, timer)"
        );
        // The engine's clock runs past the last data: superseded timers
        // still pop, as no-ops, at their old deadlines (ROADMAP finding 8).
        assert!(r.completed_at > r.last_data, "{path}");
    }
}

/// What loss recovery's two walks cost per call on ROADMAP item 20's
/// deepest world: one 16 MB BBR/`RackTlp` upload behind 20 ms, a
/// 100 Mbit/s link with droptail 64 and 1 % loss each way (loss seed 1;
/// `tcp_probe item20`'s last row). Walking from the queue head, NextSeg's
/// rule 1 visited 315.0 entries per call and RACK's scan 271.6 per scan;
/// with the cursors, which resume where the last call left off and skip
/// sacked ranges, they visit 2.0 and 19.3.
#[test]
fn loss_recovery_walks_visit_what_changed() {
    use mm_net::{CcAlgorithm, RecoveryTier};
    use mm_shells::QueueLimit;
    use mm_sim::RngStream;

    let spec = TransferSpec {
        tcp: TcpConfig::builder()
            .cc(CcAlgorithm::Bbr)
            .recovery(RecoveryTier::RackTlp)
            .build(),
        bytes: 16_000_000,
    };
    let r = Transfer::new(&spec, |stack| {
        stack
            .delay(SimDuration::from_millis(20))
            .link(constant_rate(100.0, 1000), &|| {
                Box::new(DropTail::new(QueueLimit::Packets(64)))
            })
            .loss(0.01, 0.01, &RngStream::from_seed(1).fork("loss"))
    })
    .run();
    assert!(r.intact);
    assert_eq!(r.events_executed, 52_159);
    let s = &r.sender;
    let walks = (
        (s.next_seg_visits, s.next_seg_calls),
        (s.rack_scan_visits, s.rack_scans),
    );
    assert_eq!(
        walks,
        ((21_329, 10_490), (208_711, 10_802)),
        "(NextSeg, RACK) (visits, calls)"
    );
    let per_call = |(visits, calls): (u64, u64)| visits as f64 / calls as f64;
    assert!(per_call(walks.0) * 10.0 <= 315.0);
    assert!(per_call(walks.1) * 10.0 <= 272.0);
}
