//! Per-connection delivery-rate estimation (the model behind the `Bbr`
//! congestion controller, and so behind its pacing).
//!
//! Implements the sampler of draft-cheng-iccrg-delivery-rate-estimation
//! (the algorithm Linux ships as `tcp_rate.c`, and the measurement layer
//! BBR is built on): every transmitted segment is stamped with a
//! [`TxRecord`] — the connection's `delivered` count, the time of the
//! most recent delivery, and the send time of the first packet of the
//! current flight — and every ACK or SACK that delivers data closes the
//! loop into a [`RateSample`]:
//!
//! ```text
//!   send_elapsed = P.sent_at        − P.first_sent_time
//!   ack_elapsed  = C.delivered_time − P.delivered_time
//!   bw sample    = (C.delivered − P.delivered) / max(send_elapsed, ack_elapsed)
//! ```
//!
//! Taking the *max* of the two elapsed intervals is the load-bearing
//! subtlety: using only the ACK interval over-estimates bandwidth when
//! the sender bursts (many sends share one delivery interval), and using
//! only the send interval over-estimates it when ACKs are compressed.
//! With the max, a sample can never exceed the true bottleneck rate in a
//! fixed-rate world — the property test pins this.
//!
//! Samples taken while the sender was **application-limited** (it ran
//! out of data before filling the window) measure the app, not the
//! network; they are marked so consumers (the windowed-max bandwidth
//! filters here and in BBR) only let them *raise* the estimate, never
//! drag it down.
//!
//! The module also owns the **windowed min-RTT filter** (monotone-deque
//! minimum over a sliding time window, default 10 s — BBR's min-RTT
//! horizon) used for BDP computation and pacing.

use mm_sim::{SimDuration, Timestamp};

use crate::tcp::deque::InlineDeque;

/// Sliding window of the min-RTT filter (BBR's 10 s horizon).
pub const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Sliding window of the estimator's own bandwidth filter, the one
/// `TcpHandle::delivery_rate` reports.
pub const BW_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Per-segment state stamped at transmission time (draft-cheng §3.1:
/// `P.delivered`, `P.delivered_time`, `P.first_sent_time`,
/// `P.is_app_limited`).
#[derive(Debug, Clone, Copy, Default)]
pub struct TxRecord {
    /// Connection `delivered` count when this segment was sent.
    pub(crate) delivered: u64,
    /// Time of the most recent delivery when this segment was sent.
    pub(crate) delivered_time: Timestamp,
    /// Send time of the first segment of the current flight (equals the
    /// segment's own send time when it starts a flight).
    pub(crate) first_sent_time: Timestamp,
    /// Whether the sender was application-limited at send time.
    pub(crate) is_app_limited: bool,
}

/// One delivery-rate sample, generated per ACK/SACK that delivered data.
#[derive(Debug, Clone, Copy)]
pub struct RateSample {
    /// Estimated delivery rate, bytes per second.
    pub bw: u64,
    /// Connection total delivered bytes after this delivery.
    pub(crate) delivered: u64,
    /// `delivered` count when the sampled segment was sent (BBR's
    /// round-trip accounting keys off this).
    pub(crate) prior_delivered: u64,
    /// RTT of the sampled segment (now − its send time).
    pub(crate) rtt: SimDuration,
    /// The sampled segment was sent while application-limited: the
    /// sample is a lower bound on the path, not a measurement of it.
    pub(crate) is_app_limited: bool,
}

/// The queue under both windowed filters. A filter is a monotone deque,
/// and most of a short connection's samples displace everything before
/// them, so most sockets never hold more than one: that one is inline.
/// A filter that spills keeps its spill for the socket's life, so the
/// spill grows from four: reserving 16 read +0.5 MB `peak_rss_mb` on
/// `fleet_64` and +0.3 MB on `soak_open_loop` (DESIGN.md §3).
type Samples<T> = InlineDeque<T, 1, 0>;

/// Windowed minimum filter over RTT samples: a monotone deque keyed by
/// sample time. Within a window the reported minimum is non-increasing
/// as samples arrive (property-tested); old minima expire after
/// [`MIN_RTT_WINDOW`] so a route change eventually shows through.
#[derive(Debug, Clone)]
pub struct MinRttFilter {
    window: SimDuration,
    /// (sample time, rtt), increasing in both fields: front is the
    /// current minimum, later entries are successors-in-waiting.
    samples: Samples<(Timestamp, SimDuration)>,
}

impl MinRttFilter {
    /// Filter with an explicit window.
    pub fn new(window: SimDuration) -> Self {
        MinRttFilter {
            window,
            samples: Samples::default(),
        }
    }

    /// Feed one RTT sample taken at `now`.
    pub fn update(&mut self, rtt: SimDuration, now: Timestamp) {
        self.expire(now);
        // Anything ≥ the new sample can never be the minimum again
        // (it is both older and larger).
        while self.samples.back().is_some_and(|&(_, r)| r >= rtt) {
            self.samples.pop_back();
        }
        self.samples.push_back((now, rtt));
    }

    /// Drop samples that fell out of the window.
    fn expire(&mut self, now: Timestamp) {
        while self
            .samples
            .front()
            .is_some_and(|&(t, _)| now.saturating_duration_since(t) > self.window)
        {
            self.samples.pop_front();
        }
    }

    /// The windowed minimum, if any in-window sample exists. (Read-only:
    /// expiry happens on `update`, so between updates the reported
    /// minimum is stable — deterministic regardless of when it is read.)
    pub fn min(&self) -> Option<SimDuration> {
        self.samples.front().map(|&(_, r)| r)
    }
}

impl Default for MinRttFilter {
    fn default() -> Self {
        MinRttFilter::new(MIN_RTT_WINDOW)
    }
}

/// Windowed-maximum filter over bandwidth samples — the same monotone-
/// deque structure as [`MinRttFilter`] with the ordering flipped,
/// generic over the window key so it serves both the estimator's
/// time-keyed window and BBR's round-trip-keyed one. Expiry is the
/// caller's floor (keys are not all subtractable), and the app-limited
/// admission rule lives here so both consumers share it: an app-limited
/// sample measures the app, not the path, and may only *raise* the
/// maximum.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowedMaxBw<K> {
    /// (key, bw), increasing in key, decreasing in bw: front is the max.
    samples: Samples<(K, u64)>,
}

impl<K: Copy + PartialOrd> WindowedMaxBw<K> {
    pub(crate) fn new() -> Self {
        WindowedMaxBw {
            samples: Samples::default(),
        }
    }

    /// Admit one sample at `key`.
    pub(crate) fn update(&mut self, key: K, bw: u64, is_app_limited: bool) {
        if is_app_limited && Some(bw) <= self.max() {
            return;
        }
        // Anything ≤ the new sample can never be the maximum again.
        while self.samples.back().is_some_and(|&(_, b)| b <= bw) {
            self.samples.pop_back();
        }
        self.samples.push_back((key, bw));
    }

    /// Drop samples whose key fell below `floor`.
    pub(crate) fn expire_before(&mut self, floor: K) {
        while self.samples.front().is_some_and(|&(k, _)| k < floor) {
            self.samples.pop_front();
        }
    }

    /// The windowed maximum, if any in-window sample exists.
    pub(crate) fn max(&self) -> Option<u64> {
        self.samples.front().map(|&(_, b)| b)
    }
}

/// The per-connection delivery-rate estimator (draft-cheng's connection
/// state `C.*`), plus the windowed min-RTT filter and a windowed-max
/// bandwidth estimate for diagnostics.
#[derive(Debug)]
pub struct RateEstimator {
    /// Total bytes delivered (cumulatively acked + newly sacked).
    delivered: u64,
    /// When `delivered` last advanced.
    delivered_time: Timestamp,
    /// Send time of the first segment of the current flight.
    first_sent_time: Timestamp,
    /// Delivered count up to which samples are app-limited; 0 = not
    /// app-limited (draft-cheng's `C.app_limited`).
    app_limited_until: u64,
    min_rtt: MinRttFilter,
    /// Windowed-max bandwidth over sample time.
    bw: WindowedMaxBw<Timestamp>,
}

impl RateEstimator {
    pub fn new() -> Self {
        RateEstimator {
            delivered: 0,
            delivered_time: Timestamp::ZERO,
            first_sent_time: Timestamp::ZERO,
            app_limited_until: 0,
            min_rtt: MinRttFilter::default(),
            bw: WindowedMaxBw::new(),
        }
    }

    /// Stamp a freshly transmitted segment. `flight_empty` must be true
    /// when nothing was outstanding before this send: the sample window
    /// restarts (a connection idle period must not count as elapsed
    /// time, or the first sample after idle would be absurdly low).
    pub fn on_send(&mut self, now: Timestamp, flight_empty: bool) -> TxRecord {
        if flight_empty {
            self.first_sent_time = now;
            self.delivered_time = now;
        }
        TxRecord {
            delivered: self.delivered,
            delivered_time: self.delivered_time,
            first_sent_time: self.first_sent_time,
            is_app_limited: self.app_limited_until > self.delivered,
        }
    }

    /// The sender ran out of application data with window to spare:
    /// every sample taken until the current flight is fully delivered
    /// measures the app, not the path (draft-cheng §3.4).
    pub(crate) fn on_app_limited(&mut self, inflight: u64) {
        self.app_limited_until = (self.delivered + inflight).max(1);
    }

    /// Record `bytes` newly delivered (cumulative ack advance or new
    /// SACK coverage) at `now`.
    pub fn on_delivery(&mut self, bytes: u64, now: Timestamp) {
        if bytes == 0 {
            return;
        }
        self.delivered += bytes;
        self.delivered_time = now;
    }

    /// Feed one RTT measurement into the windowed min filter.
    pub(crate) fn on_rtt(&mut self, rtt: SimDuration, now: Timestamp) {
        self.min_rtt.update(rtt, now);
    }

    /// Generate the rate sample for an ACK that delivered the segment
    /// stamped with `rec`, last sent at `sent_at`. Call after
    /// [`on_delivery`](Self::on_delivery) for every byte the ACK
    /// delivered. Returns `None` when the interval is degenerate (zero —
    /// e.g. a zero-latency test world) or nothing was delivered.
    pub fn sample(
        &mut self,
        rec: &TxRecord,
        sent_at: Timestamp,
        now: Timestamp,
    ) -> Option<RateSample> {
        // Passing `delivered` clears a stale app-limited mark: once the
        // whole app-limited flight is delivered, fresh samples measure
        // the network again.
        if self.app_limited_until != 0 && self.delivered > self.app_limited_until {
            self.app_limited_until = 0;
        }
        let delivered_delta = self.delivered.saturating_sub(rec.delivered);
        if delivered_delta == 0 {
            return None;
        }
        let send_elapsed = sent_at.saturating_duration_since(rec.first_sent_time);
        let ack_elapsed = self
            .delivered_time
            .saturating_duration_since(rec.delivered_time);
        let interval = send_elapsed.max(ack_elapsed);
        // Slide the send-side window forward: future samples measure
        // their send interval from the newest *delivered* packet's send
        // time (Linux `tcp_rate_skb_delivered` advancing
        // `first_tx_mstamp`). Without this the window stays pinned at
        // the flight start and every later sample decays toward the
        // first round's cwnd/RTT — the estimator could never learn a
        // rate above its first guess.
        self.first_sent_time = sent_at;
        if interval.is_zero() {
            return None;
        }
        let bw = ((delivered_delta as u128 * 1_000_000_000) / interval.as_nanos() as u128) as u64;
        let is_app_limited = rec.is_app_limited;
        // The estimator's own windowed-max bandwidth (diagnostics).
        self.bw.update(now, bw, is_app_limited);
        self.bw.expire_before(Timestamp::from_nanos(
            now.as_nanos().saturating_sub(BW_WINDOW.as_nanos()),
        ));
        Some(RateSample {
            bw,
            delivered: self.delivered,
            prior_delivered: rec.delivered,
            rtt: now.saturating_duration_since(sent_at),
            is_app_limited,
        })
    }

    /// Windowed-max delivery-rate estimate, bytes per second.
    pub(crate) fn bw_estimate(&self) -> Option<u64> {
        self.bw.max()
    }

    /// Windowed minimum RTT.
    pub(crate) fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt.min()
    }

    /// Total bytes delivered on this connection.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl Default for RateEstimator {
    fn default() -> Self {
        RateEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    #[test]
    fn sample_uses_max_of_send_and_ack_elapsed() {
        let mut e = RateEstimator::new();
        // Flight starts at t=0; two 1000-byte segments sent back to back.
        let r0 = e.on_send(ms(0), true);
        let r1 = e.on_send(ms(0), false);
        // First delivery at t=100 (RTT 100 ms).
        e.on_delivery(1000, ms(100));
        let s0 = e.sample(&r0, ms(0), ms(100)).unwrap();
        // send_elapsed 0, ack_elapsed 100ms (delivered_time was reset to
        // the flight start) → 1000 B / 100 ms = 10_000 B/s.
        assert_eq!(s0.bw, 10_000);
        assert_eq!(s0.rtt, SimDuration::from_millis(100));
        // Second delivery 10 ms later. The sample spans everything
        // delivered since r1 was stamped (2000 B over the 110 ms
        // ack-elapsed window): 18_181 B/s — the *average* delivery rate,
        // not the instantaneous burst rate of the last segment.
        e.on_delivery(1000, ms(110));
        let s1 = e.sample(&r1, ms(0), ms(110)).unwrap();
        assert_eq!(s1.bw, 2000 * 1000 / 110);
    }

    #[test]
    fn burst_sends_do_not_inflate_bw() {
        let mut e = RateEstimator::new();
        // Sender bursts 10 segments at t=0; receiver acks them spaced
        // 10 ms apart (a 100 kB/s bottleneck). Every sample must stay at
        // or below the bottleneck rate.
        let recs: Vec<TxRecord> = (0..10).map(|i| e.on_send(ms(0), i == 0)).collect();
        for (i, rec) in recs.iter().enumerate() {
            let t = ms(100 + 10 * i as u64);
            e.on_delivery(1000, t);
            if let Some(s) = e.sample(rec, ms(0), t) {
                assert!(s.bw <= 100_000, "sample {} exceeded link rate: {}", i, s.bw);
            }
        }
        assert_eq!(e.delivered(), 10_000);
    }

    #[test]
    fn idle_restart_resets_sample_window() {
        let mut e = RateEstimator::new();
        let r0 = e.on_send(ms(0), true);
        e.on_delivery(1000, ms(50));
        e.sample(&r0, ms(0), ms(50)).unwrap();
        // Idle for 10 s, then a fresh flight: the sample interval must
        // not include the idle gap.
        let r1 = e.on_send(ms(10_050), true);
        e.on_delivery(1000, ms(10_100));
        let s = e.sample(&r1, ms(10_050), ms(10_100)).unwrap();
        // 1000 B over the fresh flight's 50 ms.
        assert_eq!(s.bw, 20_000);
    }

    #[test]
    fn app_limited_marks_and_clears() {
        let mut e = RateEstimator::new();
        let _r0 = e.on_send(ms(0), true);
        e.on_app_limited(1000); // 1000 bytes in flight, queue empty
        let r1 = e.on_send(ms(1), false);
        assert!(r1.is_app_limited);
        // Delivering past delivered+inflight clears the mark.
        e.on_delivery(2000, ms(100));
        let s = e.sample(&r1, ms(1), ms(100)).unwrap();
        assert!(s.is_app_limited, "the stamped sample keeps its mark");
        // Delivery cleared the estimator's mark: the next send is clean.
        let r2 = e.on_send(ms(101), false);
        assert!(!r2.is_app_limited);
    }

    #[test]
    fn app_limited_samples_only_raise_bw_estimate() {
        let mut e = RateEstimator::new();
        // A genuine 100 kB/s sample.
        let r0 = e.on_send(ms(0), true);
        e.on_delivery(10_000, ms(100));
        e.sample(&r0, ms(0), ms(100)).unwrap();
        assert_eq!(e.bw_estimate(), Some(100_000));
        // An app-limited trickle (1 kB/s) must not drag it down.
        e.on_app_limited(0);
        let r1 = e.on_send(ms(200), true);
        e.on_delivery(100, ms(300));
        e.sample(&r1, ms(200), ms(300)).unwrap();
        assert_eq!(e.bw_estimate(), Some(100_000));
    }

    #[test]
    fn min_rtt_filter_tracks_window() {
        let mut f = MinRttFilter::new(SimDuration::from_secs(1));
        f.update(SimDuration::from_millis(50), ms(0));
        f.update(SimDuration::from_millis(40), ms(100));
        f.update(SimDuration::from_millis(60), ms(200));
        assert_eq!(f.min(), Some(SimDuration::from_millis(40)));
        // The 40 ms sample expires at t=1.2s; 60 ms becomes the minimum.
        f.update(SimDuration::from_millis(70), ms(1200));
        assert_eq!(f.min(), Some(SimDuration::from_millis(60)));
    }

    #[test]
    fn steady_paced_stream_tracks_true_rate() {
        // A continuously backlogged sender paced at 100 kB/s: 1000-byte
        // segments leave every 10 ms, each delivered one 100 ms RTT
        // later. After the first round the samples must settle at the
        // true rate — neither decaying toward the first round's
        // cwnd/RTT (the bug the sliding send window prevents) nor
        // exceeding the bottleneck.
        let mut e = RateEstimator::new();
        let mut recs = Vec::new();
        for i in 0..60u64 {
            recs.push((e.on_send(ms(10 * i), i == 0), ms(10 * i)));
            if i >= 10 {
                // The segment sent at 10*(i-10) is delivered now.
                let (rec, sent_at) = recs[(i - 10) as usize];
                e.on_delivery(1000, ms(10 * i));
                if let Some(s) = e.sample(&rec, sent_at, ms(10 * i)) {
                    assert!(s.bw <= 100_000, "sample {i} above link rate: {}", s.bw);
                    if i > 25 {
                        assert!(s.bw >= 90_000, "sample {i} decayed: {}", s.bw);
                    }
                }
            }
        }
        let bw = e.bw_estimate().unwrap();
        assert!((90_000..=100_000).contains(&bw), "estimate {bw}");
    }

    #[test]
    fn zero_interval_world_produces_no_samples() {
        // Zero-latency test worlds put send and delivery on one
        // timestamp; the estimator must decline to divide by zero.
        let mut e = RateEstimator::new();
        let r = e.on_send(ms(0), true);
        e.on_delivery(1000, ms(0));
        assert!(e.sample(&r, ms(0), ms(0)).is_none());
    }
}
