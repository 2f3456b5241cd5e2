//! Time-based loss detection and spurious-timeout detection: the state
//! machines behind [`TcpConfig::recovery`](crate::tcp::socket::TcpConfig)
//! = `RackTlp`.
//!
//! * [`RackState`] — RACK (RFC 8985): instead of counting duplicate ACKs,
//!   infer loss from *delivery time*. Track the transmit time of the most
//!   recently sent segment known to be delivered (cumulatively acked or
//!   sacked); any outstanding segment sent sufficiently *before* it —
//!   more than one reordering window — is deemed lost. A segment sent
//!   *after* the most recently delivered one is never marked (it has had
//!   no chance to be overtaken), the invariant the property tests pin.
//!   The reordering window starts at `min_rtt / 4` and widens each time a
//!   RACK loss mark is later disproven by the segment's original arriving
//!   (this model's stand-in for DSACK evidence), monotonically within a
//!   connection.
//! * `FrtoState` — F-RTO (RFC 5682): after a retransmission timeout,
//!   before blindly resending everything, probe whether the timeout was
//!   *spurious* (the acknowledgments were merely delayed). If the first
//!   post-RTO cumulative ACK covers data that was never retransmitted,
//!   send new data instead of retransmissions; if the next ACK again
//!   advances over never-retransmitted data, the original flight is
//!   arriving — the timeout was spurious, and the socket undoes the
//!   congestion-window collapse and the RTO backoff
//!   (`RttEstimator::reset_backoff`,
//!   unwired until this subsystem existed — DESIGN.md §3).
//!
//! The Tail Loss Probe timer itself lives in the socket (it needs the
//! simulator); this module owns the pure state machines so they can be
//! property-tested in isolation.

use mm_sim::{SimDuration, Timestamp};

/// Cap on the adaptive reordering-window multiplier (quarters of
/// `min_rtt`): 16 quarters = 4 × min_rtt, the most reordering tolerance
/// that can still detect loss faster than the RTO.
pub(crate) const REO_WND_MAX_QUARTERS: u32 = 16;

/// Extra slack added to the Tail Loss Probe timeout over `2 × SRTT`,
/// absorbing ack-processing jitter (Linux uses 2 ms).
pub(crate) const TLP_SLACK: SimDuration = SimDuration::from_millis(2);

/// RACK per-connection state: delivery-time tracking and the adaptive
/// reordering window (RFC 8985, simplified — deviations in DESIGN.md §3).
#[derive(Debug, Default)]
pub struct RackState {
    /// Transmit time of the most recently *sent* segment known delivered.
    xmit_ts: Option<Timestamp>,
    /// Ending sequence of that segment (tiebreak for equal send times).
    end_seq: u64,
    /// RTT measured on the delivery that last advanced `xmit_ts`.
    rtt: SimDuration,
    /// Minimum RTT over never-retransmitted deliveries.
    min_rtt: Option<SimDuration>,
    /// Highest delivered ending sequence (reordering detection).
    highest_delivered: u64,
    /// Reordering window in quarters of `min_rtt`; starts at 1 (RTT/4),
    /// widened — never narrowed — by disproven loss marks.
    reo_wnd_quarters: u32,
    /// Whether any out-of-order delivery has been observed.
    reordering_seen: bool,
}

impl RackState {
    pub fn new() -> RackState {
        RackState {
            reo_wnd_quarters: 1,
            ..RackState::default()
        }
    }

    /// Record a delivery (cumulative ack or new SACK coverage) of a
    /// segment last transmitted at `sent_at`, ending at `end_seq`.
    /// Returns whether detection-relevant state changed — the delivery
    /// clock advanced, or the minimum RTT dropped (which narrows the
    /// reordering window and can pull pending loss deadlines earlier);
    /// loss verdicts can only change when one of those happens or a
    /// recorded reordering-window deadline passes.
    ///
    /// Karn-style ambiguity guard: a delivery of a *retransmitted*
    /// segment whose implied RTT is below the observed minimum is almost
    /// certainly the original's ack, not the retransmission's — using its
    /// (recent) transmit time would fast-forward the delivery clock and
    /// mark the whole flight lost, so it is ignored.
    pub fn on_delivered(
        &mut self,
        sent_at: Timestamp,
        end_seq: u64,
        retransmitted: bool,
        now: Timestamp,
    ) -> bool {
        let rtt = now.saturating_duration_since(sent_at);
        let mut min_shrunk = false;
        if retransmitted {
            if let Some(min) = self.min_rtt {
                if rtt < min {
                    return false;
                }
            }
        } else {
            min_shrunk = self.min_rtt.is_none_or(|m| rtt < m);
            self.min_rtt = Some(match self.min_rtt {
                Some(m) => m.min(rtt),
                None => rtt,
            });
            if end_seq < self.highest_delivered {
                self.reordering_seen = true;
            }
        }
        let newer = match self.xmit_ts {
            None => true,
            Some(ts) => sent_at > ts || (sent_at == ts && end_seq > self.end_seq),
        };
        if newer {
            self.xmit_ts = Some(sent_at);
            self.end_seq = end_seq;
            self.rtt = rtt;
        }
        self.highest_delivered = self.highest_delivered.max(end_seq);
        newer || min_shrunk
    }

    /// A RACK loss mark was disproven (the marked segment's original
    /// transmission arrived after all): widen the reordering window one
    /// quarter-RTT, up to `REO_WND_MAX_QUARTERS`. Monotone.
    pub fn on_spurious_mark(&mut self) {
        self.reordering_seen = true;
        self.reo_wnd_quarters = (self.reo_wnd_quarters + 1).min(REO_WND_MAX_QUARTERS);
    }

    /// The current reordering window: `min_rtt / 4` scaled by the
    /// adaptive multiplier. Zero until an RTT has been observed.
    pub fn reo_wnd(&self) -> SimDuration {
        match self.min_rtt {
            Some(m) => SimDuration::from_nanos(m.as_nanos() / 4)
                .saturating_mul(self.reo_wnd_quarters as u64),
            None => SimDuration::ZERO,
        }
    }

    /// Was the most recently delivered segment sent after one transmitted
    /// at `sent_at` ending at `end_seq`? Only such segments can be deemed
    /// lost — a segment sent after every delivered one has had no chance
    /// to be overtaken.
    pub(crate) fn sent_after(&self, sent_at: Timestamp, end_seq: u64) -> bool {
        match self.xmit_ts {
            None => false,
            Some(ts) => ts > sent_at || (ts == sent_at && self.end_seq > end_seq),
        }
    }

    /// The instant at which an undelivered segment sent at `sent_at`
    /// crosses from "possibly reordered" to "lost": one delivery RTT plus
    /// the reordering window past its transmission.
    pub(crate) fn lost_deadline(&self, sent_at: Timestamp) -> Timestamp {
        sent_at + self.rtt + self.reo_wnd()
    }

    /// Is the outstanding segment `(sent_at, end_seq)` deemed lost at
    /// `now`?
    pub fn is_lost(&self, sent_at: Timestamp, end_seq: u64, now: Timestamp) -> bool {
        self.sent_after(sent_at, end_seq) && self.lost_deadline(sent_at) <= now
    }

    /// True once any delivery has been recorded (detection can run).
    pub(crate) fn has_delivery(&self) -> bool {
        self.xmit_ts.is_some()
    }

    /// The delivery clock: transmit time and ending sequence of the most
    /// recently sent segment known delivered (diagnostics/tests).
    pub fn clock(&self) -> Option<(Timestamp, u64)> {
        self.xmit_ts.map(|ts| (ts, self.end_seq))
    }

    /// Whether out-of-order delivery has ever been observed.
    pub fn reordering_seen(&self) -> bool {
        self.reordering_seen
    }
}

/// F-RTO (RFC 5682) detection phase, advanced by the socket on RTO and on
/// each subsequent cumulative ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum FrtoState {
    /// No detection in progress.
    #[default]
    Inactive,
    /// An RTO fired and retransmitted the head; `retx_end` is the end of
    /// the retransmitted sequence range. Waiting for the first ACK.
    RtoSent { retx_end: u64 },
    /// The first post-RTO ACK covered never-retransmitted data and new
    /// data was sent instead of retransmissions. One more such ACK
    /// declares the timeout spurious.
    NewDataSent { retx_end: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn delivery_advances_most_recent() {
        let mut r = RackState::new();
        r.on_delivered(ms(10), 1000, false, ms(50));
        assert!(r.has_delivery());
        assert!(r.sent_after(ms(5), 500));
        assert!(!r.sent_after(ms(10), 1000), "not after itself");
        assert!(!r.sent_after(ms(20), 2000), "not after a later send");
        // An older delivery must not rewind the clock.
        r.on_delivered(ms(8), 800, false, ms(51));
        assert!(r.sent_after(ms(9), 900));
        assert!(!r.sent_after(ms(10), 1000));
    }

    #[test]
    fn equal_send_time_tiebreaks_on_end_seq() {
        let mut r = RackState::new();
        r.on_delivered(ms(10), 2000, false, ms(50));
        assert!(r.sent_after(ms(10), 1000));
        assert!(!r.sent_after(ms(10), 2000));
    }

    #[test]
    fn reo_wnd_starts_at_quarter_min_rtt() {
        let mut r = RackState::new();
        assert_eq!(r.reo_wnd(), SimDuration::ZERO);
        r.on_delivered(ms(0), 1000, false, ms(40));
        assert_eq!(r.reo_wnd(), SimDuration::from_millis(10));
        // A lower RTT lowers the window base.
        r.on_delivered(ms(50), 2000, false, ms(70));
        assert_eq!(r.reo_wnd(), SimDuration::from_millis(5));
    }

    #[test]
    fn spurious_marks_widen_window_monotonically_and_cap() {
        let mut r = RackState::new();
        r.on_delivered(ms(0), 1000, false, ms(40));
        let mut prev = r.reo_wnd();
        for _ in 0..REO_WND_MAX_QUARTERS + 4 {
            r.on_spurious_mark();
            assert!(r.reo_wnd() >= prev, "window must never narrow");
            prev = r.reo_wnd();
        }
        assert_eq!(
            r.reo_wnd(),
            SimDuration::from_millis(10).saturating_mul(REO_WND_MAX_QUARTERS as u64)
        );
        assert!(r.reordering_seen());
    }

    #[test]
    fn loss_requires_deadline_and_sent_before() {
        let mut r = RackState::new();
        // Delivery of a segment sent at t=100 with a 40 ms RTT.
        r.on_delivered(ms(100), 5000, false, ms(140));
        // Segment sent at t=90: deadline 90 + 40 + 10 = 140.
        assert!(r.is_lost(ms(90), 4000, ms(140)));
        assert!(!r.is_lost(ms(90), 4000, ms(139)));
        // Sent after the delivered one: never lost, however late.
        assert!(!r.is_lost(ms(101), 6000, ms(10_000)));
    }

    #[test]
    fn retransmitted_delivery_below_min_rtt_ignored() {
        let mut r = RackState::new();
        r.on_delivered(ms(0), 1000, false, ms(40)); // min_rtt = 40ms
                                                    // A retransmission "delivered" 5 ms after (re)sending is really
                                                    // the original's ack; it must not advance the delivery clock.
        r.on_delivered(ms(100), 2000, true, ms(105));
        assert!(!r.sent_after(ms(50), 1500));
        // A plausible retransmission RTT does advance it.
        r.on_delivered(ms(100), 2000, true, ms(145));
        assert!(r.sent_after(ms(50), 1500));
    }

    #[test]
    fn out_of_order_delivery_sets_reordering_seen() {
        let mut r = RackState::new();
        r.on_delivered(ms(10), 3000, false, ms(50));
        assert!(!r.reordering_seen());
        r.on_delivered(ms(5), 1000, false, ms(51));
        assert!(r.reordering_seen());
    }
}
