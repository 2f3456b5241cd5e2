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
