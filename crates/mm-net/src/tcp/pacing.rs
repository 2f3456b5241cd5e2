//! Packet pacing: spreading a window of segments across the round trip
//! instead of bursting them back to back.
//!
//! Classic TCP transmits everything the window allows the instant an ACK
//! opens it; through a deep droptail buffer the resulting line-rate burst
//! is exactly what builds bufferbloat, and through a shallow one it is
//! what overflows it. The [`Pacer`] is a virtual-time token clock: each
//! released segment advances `next_release` by `bytes / rate`, and the
//! socket may only transmit while `now ≥ next_release` — the release
//! schedule a fair-queue qdisc (Linux `fq`) would impose, minus any
//! TSO-style burst quantum (one segment per release; DESIGN.md §3).
//!
//! The pacer does not own a rate: the socket derives one per transmission
//! opportunity — `CongestionControl::pacing_rate` when the controller
//! models one (BBR), else `gain × bw_estimate` from the delivery-rate
//! estimator (`PACING_GAIN_SS`/`PACING_GAIN_CA`, the Linux sysctl
//! defaults). With no bandwidth estimate yet there is nothing to pace
//! against and transmission is immediate (the initial window leaves as a
//! burst, as deployed stacks do before the first RTT of feedback).
//!
//! The pacer enforces only *spacing*; the congestion and flow-control
//! windows are checked before it, so pacing can delay but never expand
//! what the window permits (property-tested).

use mm_sim::{SimDuration, Timestamp};

/// Pacing gain while the controller reports slow start: transmit at
/// twice the estimated bandwidth so the window can still grow
/// exponentially (Linux `sysctl_tcp_pacing_ss_ratio` = 200%).
pub(crate) const PACING_GAIN_SS: f64 = 2.0;

/// Pacing gain in congestion avoidance: 20% headroom over the estimate
/// so pacing never becomes the clamp that starves window growth (Linux
/// `sysctl_tcp_pacing_ca_ratio` = 120%).
pub(crate) const PACING_GAIN_CA: f64 = 1.2;

/// The token clock. `next_release` is the earliest instant the next
/// segment may leave; it only moves forward while transmissions happen,
/// and an idle period naturally re-admits an immediate send (the clock
/// is floored at `now` when it has fallen behind).
#[derive(Debug, Clone, Default)]
pub struct Pacer {
    next_release: Timestamp,
    /// High-water mark of bytes released ahead of the token clock: if a
    /// segment leaves at `now < next_release`, the deficit
    /// `(next_release - now) × rate` is how far the sender outran its
    /// own schedule. Stays 0 for a socket that honors `can_send`.
    max_excess_bytes: u64,
}

impl Pacer {
    pub fn new() -> Pacer {
        Pacer::default()
    }

    /// May a segment be released at `now`?
    pub fn can_send(&self, now: Timestamp) -> bool {
        now >= self.next_release
    }

    /// The earliest instant the next segment may leave (arm the pacing
    /// timer here when [`can_send`](Self::can_send) says no).
    pub(crate) fn ready_at(&self) -> Timestamp {
        self.next_release
    }

    /// Account a released segment of `bytes` at `now` against
    /// `rate` (bytes per second): the next release slides one
    /// serialization time into the future. A zero rate is ignored
    /// (callers gate on a known rate, but a degenerate estimate must
    /// not divide by zero or freeze the connection).
    pub fn on_sent(&mut self, now: Timestamp, bytes: u64, rate: u64) {
        if rate == 0 || bytes == 0 {
            return;
        }
        if now < self.next_release {
            let ahead_ns = (self.next_release - now).as_nanos();
            let excess = ((ahead_ns as u128 * rate as u128) / 1_000_000_000) as u64;
            self.max_excess_bytes = self.max_excess_bytes.max(excess);
        }
        let gap = SimDuration::from_nanos(((bytes as u128 * 1_000_000_000) / rate as u128) as u64);
        self.next_release = self.next_release.max(now) + gap;
    }

    /// High-water mark of bytes released ahead of the token clock
    /// (0 unless some transmission ignored [`can_send`](Self::can_send)).
    pub(crate) fn max_excess_bytes(&self) -> u64 {
        self.max_excess_bytes
    }

    /// Forget any pending schedule (connection teardown). The excess
    /// high-water mark survives: it records a conformance fact, not
    /// schedule state.
    pub(crate) fn reset(&mut self) {
        self.next_release = Timestamp::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn first_send_is_immediate_then_spaced() {
        let mut p = Pacer::new();
        assert!(p.can_send(ms(0)));
        p.on_sent(ms(0), 1000, 100_000); // 10 ms serialization
        assert!(!p.can_send(ms(5)));
        assert_eq!(p.ready_at(), ms(10));
        assert!(p.can_send(ms(10)));
    }

    #[test]
    fn idle_period_floors_the_clock_at_now() {
        let mut p = Pacer::new();
        p.on_sent(ms(0), 1000, 100_000);
        // Long idle: the next send at t=1s releases immediately and the
        // following gap is measured from t=1s, not from the stale clock.
        assert!(p.can_send(ms(1000)));
        p.on_sent(ms(1000), 1000, 100_000);
        assert_eq!(p.ready_at(), ms(1010));
    }

    #[test]
    fn released_bytes_bounded_by_rate() {
        // Greedy sender against a 1 MB/s pacer: over any horizon the
        // released bytes can exceed rate × elapsed by at most one
        // segment (the initial immediate release).
        let mut p = Pacer::new();
        let rate = 1_000_000u64;
        let seg = 1460u64;
        let mut sent = 0u64;
        let mut now_ns = 0u64;
        let horizon_ns = 50_000_000; // 50 ms
        while now_ns <= horizon_ns {
            let now = Timestamp::from_nanos(now_ns);
            while p.can_send(now) {
                p.on_sent(now, seg, rate);
                sent += seg;
            }
            now_ns += 100_000; // 0.1 ms polling
        }
        let budget = rate * horizon_ns / 1_000_000_000 + seg;
        assert!(sent <= budget, "sent {sent} > budget {budget}");
        // And the pacer is not wildly conservative either.
        assert!(sent >= budget - 2 * seg, "sent {sent} « budget {budget}");
    }

    #[test]
    fn excess_high_water_tracks_early_releases() {
        let mut p = Pacer::new();
        p.on_sent(ms(0), 1000, 100_000); // next release at 10 ms
        assert_eq!(p.max_excess_bytes(), 0);
        // A send 5 ms early at 100 kB/s is 500 bytes ahead of schedule.
        p.on_sent(ms(5), 1000, 100_000);
        assert_eq!(p.max_excess_bytes(), 500);
        // On-schedule sends never raise the mark.
        p.on_sent(ms(30), 1000, 100_000);
        assert_eq!(p.max_excess_bytes(), 500);
    }

    #[test]
    fn zero_rate_is_inert() {
        let mut p = Pacer::new();
        p.on_sent(ms(0), 1000, 0);
        assert!(p.can_send(ms(0)), "zero rate must not freeze the pacer");
    }

    #[test]
    fn reset_reopens_immediately() {
        let mut p = Pacer::new();
        p.on_sent(ms(0), 100_000, 1000); // 100 s serialization
        assert!(!p.can_send(ms(50)));
        p.reset();
        assert!(p.can_send(ms(50)));
    }
}
