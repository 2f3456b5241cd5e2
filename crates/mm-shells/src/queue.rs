//! Queue disciplines for LinkShell.
//!
//! Mahimahi's `mm-link` ships several: an infinite droptail queue (the
//! default the paper uses), bounded droptail/drophead, and the AQMs CoDel
//! and PIE. All are implemented here behind one [`Qdisc`] trait so benches
//! can ablate them. Every one is a FIFO: the queue, its byte count and its
//! counters are one core (`Fifo`), and a discipline adds only its drop
//! policy.

use std::collections::VecDeque;

use mm_net::Packet;
use mm_sim::{SimDuration, Timestamp};

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    Accepted,
    Dropped,
}

/// Counters every discipline keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct QdiscStats {
    pub enqueued: u64,
    pub dequeued: u64,
    pub dropped: u64,
    /// High-water mark of the backlog in packets — the standing-queue
    /// measurement the pacing/BBR experiments compare senders by.
    pub max_backlog_packets: usize,
    /// High-water mark of the backlog in wire bytes. Tracks the same
    /// peaks as the packet count but is the right denomination for
    /// byte-limited buffers and for judging mixed small-ack/full-MTU
    /// traffic, where packet counts flatter the queue.
    pub max_backlog_bytes: usize,
}

/// A packet queue with a drop policy.
pub trait Qdisc {
    /// Offer a packet at time `now`.
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult;
    /// Remove the next packet to transmit at time `now`.
    fn dequeue(&mut self, now: Timestamp) -> Option<Packet>;
    /// Wire size of the packet `dequeue` would return next, if any.
    /// (For AQMs that drop at dequeue time this is a best-effort hint.)
    fn peek_size(&self) -> Option<usize>;
    /// Packets currently queued.
    fn len_packets(&self) -> usize;
    /// Bytes currently queued (wire sizes).
    fn len_bytes(&self) -> usize;
    /// Counter snapshot.
    fn stats(&self) -> QdiscStats;
}

/// Capacity limit for bounded queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueLimit {
    /// No limit (mm-link's default).
    Infinite,
    /// At most this many packets.
    Packets(usize),
    /// At most this many bytes (wire sizes).
    Bytes(usize),
}

impl QueueLimit {
    /// Would a backlog of `packets` packets and `bytes` bytes break it?
    fn exceeded_by(self, packets: usize, bytes: usize) -> bool {
        match self {
            QueueLimit::Infinite => false,
            QueueLimit::Packets(n) => packets > n,
            QueueLimit::Bytes(b) => bytes > b,
        }
    }
}

struct Entry {
    pkt: Packet,
    enqueued_at: Timestamp,
}

/// The bookkeeping every discipline shares: the packets in arrival
/// order with their arrival times, their byte count, and the counters.
#[derive(Default)]
struct Fifo {
    q: VecDeque<Entry>,
    bytes: usize,
    stats: QdiscStats,
}

impl Fifo {
    /// Append `pkt`, counting it enqueued.
    fn push(&mut self, now: Timestamp, pkt: Packet) {
        self.bytes += pkt.wire_size();
        self.stats.enqueued += 1;
        self.q.push_back(Entry {
            pkt,
            enqueued_at: now,
        });
    }

    /// Fold the current backlog into the high-water marks.
    fn mark_high_water(&mut self) {
        self.stats.max_backlog_packets = self.stats.max_backlog_packets.max(self.q.len());
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.bytes);
    }

    /// Append `pkt` and accept it.
    fn admit(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        self.push(now, pkt);
        self.mark_high_water();
        EnqueueResult::Accepted
    }

    /// Count an offered packet dropped at the door.
    fn refuse(&mut self) -> EnqueueResult {
        self.stats.dropped += 1;
        EnqueueResult::Dropped
    }

    /// Remove the head; the caller counts it dequeued or dropped.
    fn pop(&mut self) -> Option<Entry> {
        let e = self.q.pop_front()?;
        self.bytes -= e.pkt.wire_size();
        Some(e)
    }

    /// Remove the head as transmitted.
    fn dequeue(&mut self) -> Option<Packet> {
        let e = self.pop()?;
        self.stats.dequeued += 1;
        Some(e.pkt)
    }
}

/// The `Qdisc` methods a discipline answers from its `Fifo` alone.
macro_rules! fifo_accessors {
    () => {
        fn peek_size(&self) -> Option<usize> {
            self.fifo.q.front().map(|e| e.pkt.wire_size())
        }

        fn len_packets(&self) -> usize {
            self.fifo.q.len()
        }

        fn len_bytes(&self) -> usize {
            self.fifo.bytes
        }

        fn stats(&self) -> QdiscStats {
            self.fifo.stats
        }
    };
}

/// FIFO with tail drop on overflow (or never, if infinite).
pub struct DropTail {
    fifo: Fifo,
    limit: QueueLimit,
}

impl DropTail {
    /// Bounded or infinite droptail queue.
    pub fn new(limit: QueueLimit) -> Self {
        DropTail {
            fifo: Fifo::default(),
            limit,
        }
    }

    /// The paper's default: infinite.
    pub fn infinite() -> Self {
        DropTail::new(QueueLimit::Infinite)
    }
}

impl Qdisc for DropTail {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        let (packets, bytes) = (self.fifo.q.len() + 1, self.fifo.bytes + pkt.wire_size());
        if self.limit.exceeded_by(packets, bytes) {
            return self.fifo.refuse();
        }
        self.fifo.admit(now, pkt)
    }

    fn dequeue(&mut self, _now: Timestamp) -> Option<Packet> {
        self.fifo.dequeue()
    }

    fifo_accessors!();
}

/// FIFO that evicts the *head* (oldest packet) on overflow — keeps queue
/// latency bounded at the cost of in-flight data.
pub struct DropHead {
    fifo: Fifo,
    limit: QueueLimit,
}

impl DropHead {
    /// Bounded drophead queue (an infinite drophead is just droptail).
    pub fn new(limit: QueueLimit) -> Self {
        assert!(
            limit != QueueLimit::Infinite,
            "infinite drophead is meaningless; use DropTail::infinite()"
        );
        DropHead {
            fifo: Fifo::default(),
            limit,
        }
    }
}

impl Qdisc for DropHead {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        self.fifo.push(now, pkt);
        while self.limit.exceeded_by(self.fifo.q.len(), self.fifo.bytes)
            && self.fifo.pop().is_some()
        {
            self.fifo.stats.dropped += 1;
        }
        self.fifo.mark_high_water();
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self, _now: Timestamp) -> Option<Packet> {
        self.fifo.dequeue()
    }

    fifo_accessors!();
}

/// CoDel AQM (ACM Queue 2012 / RFC 8289), operating on sojourn time.
pub struct CoDel {
    fifo: Fifo,
    target: SimDuration,
    interval: SimDuration,
    /// Time at which the sojourn first exceeded target, if tracking.
    first_above: Option<Timestamp>,
    dropping: bool,
    drop_next: Timestamp,
    drop_count: u32,
}

impl CoDel {
    /// CoDel with explicit parameters.
    pub(crate) fn new(target: SimDuration, interval: SimDuration) -> Self {
        CoDel {
            fifo: Fifo::default(),
            target,
            interval,
            first_above: None,
            dropping: false,
            drop_next: Timestamp::ZERO,
            drop_count: 0,
        }
    }

    /// RFC defaults: target 5 ms, interval 100 ms.
    pub fn default_params() -> Self {
        CoDel::new(SimDuration::from_millis(5), SimDuration::from_millis(100))
    }

    fn control_law(&self, t: Timestamp) -> Timestamp {
        t + SimDuration::from_nanos(
            (self.interval.as_nanos() as f64 / (self.drop_count.max(1) as f64).sqrt()) as u64,
        )
    }

    /// Pop the head and decide whether CoDel considers it "OK to send".
    /// Returns (packet, sojourn_was_below_target).
    fn do_dequeue(&mut self, now: Timestamp) -> Option<(Packet, bool)> {
        let e = self.fifo.pop()?;
        let sojourn = now.saturating_duration_since(e.enqueued_at);
        let ok = if sojourn < self.target || self.fifo.bytes <= mm_net::MTU {
            self.first_above = None;
            true
        } else {
            match self.first_above {
                None => {
                    self.first_above = Some(now + self.interval);
                    true
                }
                Some(fa) => now < fa,
            }
        };
        Some((e.pkt, ok))
    }
}

impl Qdisc for CoDel {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        self.fifo.admit(now, pkt)
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let Some((pkt, ok)) = self.do_dequeue(now) else {
            self.dropping = false;
            return None;
        };
        let mut pkt = Some(pkt);
        if self.dropping {
            if ok {
                self.dropping = false;
            } else {
                // Drop packets on schedule while above target.
                while self.dropping && now >= self.drop_next {
                    self.fifo.stats.dropped += 1;
                    self.drop_count += 1;
                    match self.do_dequeue(now) {
                        Some((next_pkt, next_ok)) => {
                            pkt = Some(next_pkt);
                            if next_ok {
                                self.dropping = false;
                            } else {
                                self.drop_next = self.control_law(self.drop_next);
                            }
                        }
                        None => {
                            pkt = None;
                            self.dropping = false;
                        }
                    }
                }
            }
        } else if !ok
            && (now.saturating_duration_since(self.drop_next) < self.interval
                || self.drop_count >= 1)
        {
            // Re-enter dropping state.
            self.dropping = true;
            self.fifo.stats.dropped += 1;
            self.drop_count = if now.saturating_duration_since(self.drop_next) < self.interval {
                (self.drop_count.saturating_sub(2)).max(1)
            } else {
                1
            };
            pkt = self.do_dequeue(now).map(|(p, _)| Some(p)).unwrap_or(None);
            self.drop_next = self.control_law(now);
        } else if !ok {
            self.dropping = true;
            self.fifo.stats.dropped += 1;
            self.drop_count = 1;
            pkt = self.do_dequeue(now).map(|(p, _)| Some(p)).unwrap_or(None);
            self.drop_next = self.control_law(now);
        }
        if pkt.is_some() {
            self.fifo.stats.dequeued += 1;
        }
        pkt
    }

    fifo_accessors!();
}

/// PIE AQM (RFC 8033, simplified): drop probability updated from the
/// estimated queueing delay on each enqueue, using the deterministic
/// stream of arrival times rather than a separate update timer.
pub struct Pie {
    fifo: Fifo,
    target: SimDuration,
    update_period: SimDuration,
    alpha: f64,
    beta: f64,
    drop_prob: f64,
    last_update: Timestamp,
    old_delay: SimDuration,
    /// Deterministic pseudo-random stream for drop decisions.
    rng_state: u64,
    /// Estimated departure rate, bytes/sec (set by the link when known).
    depart_rate: f64,
}

impl Pie {
    /// PIE with explicit target delay; `depart_rate` is the link's rate in
    /// bytes/sec, used to estimate delay from backlog.
    pub(crate) fn new(target: SimDuration, depart_rate: f64) -> Self {
        assert!(depart_rate > 0.0);
        Pie {
            fifo: Fifo::default(),
            target,
            update_period: SimDuration::from_millis(15),
            alpha: 0.125,
            beta: 1.25,
            drop_prob: 0.0,
            last_update: Timestamp::ZERO,
            old_delay: SimDuration::ZERO,
            rng_state: 0x1234_5678_9abc_def0,
            depart_rate,
        }
    }

    /// RFC default target of 15 ms.
    pub fn default_params(depart_rate: f64) -> Self {
        Pie::new(SimDuration::from_millis(15), depart_rate)
    }

    fn next_rand(&mut self) -> f64 {
        // xorshift64*: deterministic, cheap, good enough for drop decisions.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn current_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.fifo.bytes as f64 / self.depart_rate)
    }

    fn maybe_update(&mut self, now: Timestamp) {
        if now.saturating_duration_since(self.last_update) < self.update_period {
            return;
        }
        self.last_update = now;
        let cur = self.current_delay();
        let p_delta = self.alpha * (cur.as_secs_f64() - self.target.as_secs_f64())
            + self.beta * (cur.as_secs_f64() - self.old_delay.as_secs_f64());
        // Scale adjustments down when drop_prob is small (RFC 8033 §4.2).
        let scale = if self.drop_prob < 0.000001 {
            0.0009765625 // 1/2048
        } else if self.drop_prob < 0.00001 {
            0.001953125
        } else if self.drop_prob < 0.0001 {
            0.00390625
        } else if self.drop_prob < 0.001 {
            0.0078125
        } else if self.drop_prob < 0.01 {
            0.03125
        } else if self.drop_prob < 0.1 {
            0.125
        } else {
            1.0
        };
        self.drop_prob = (self.drop_prob + p_delta * scale).clamp(0.0, 1.0);
        // Decay when the queue is idle.
        if cur.is_zero() && self.old_delay.is_zero() {
            self.drop_prob *= 0.98;
        }
        self.old_delay = cur;
    }
}

impl Qdisc for Pie {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        self.maybe_update(now);
        // Never drop when the backlog is trivial (burst allowance).
        let tiny = self.fifo.bytes <= 2 * mm_net::MTU;
        if !tiny && self.drop_prob > 0.0 && self.next_rand() < self.drop_prob {
            return self.fifo.refuse();
        }
        self.fifo.admit(now, pkt)
    }

    fn dequeue(&mut self, _now: Timestamp) -> Option<Packet> {
        self.fifo.dequeue()
    }

    fifo_accessors!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::InstrumentedQdisc;
    use bytes::Bytes;
    use mm_metrics::{MetricsHandle, Registry, RegistrySink};
    use mm_net::{IpAddr, SocketAddr, TcpFlags, TcpSegment};

    fn pkt(id: u64, payload: usize) -> Packet {
        Packet {
            id,
            src: SocketAddr::new(IpAddr::new(1, 1, 1, 1), 1),
            dst: SocketAddr::new(IpAddr::new(2, 2, 2, 2), 2),
            segment: TcpSegment {
                flags: TcpFlags::ACK,
                seq: 0,
                ack: 0,
                window: 0,
                sack: Default::default(),
                payload: Bytes::from(vec![0; payload]),
            },
            corrupted: false,
        }
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn droptail_fifo_order() {
        let mut q = DropTail::infinite();
        for i in 0..5 {
            assert_eq!(q.enqueue(t(0), pkt(i, 100)), EnqueueResult::Accepted);
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(t(1)).unwrap().id, i);
        }
        assert!(q.dequeue(t(2)).is_none());
    }

    #[test]
    fn droptail_packet_limit() {
        let mut q = DropTail::new(QueueLimit::Packets(2));
        assert_eq!(q.enqueue(t(0), pkt(0, 10)), EnqueueResult::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(1, 10)), EnqueueResult::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(2, 10)), EnqueueResult::Dropped);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len_packets(), 2);
    }

    #[test]
    fn droptail_byte_limit() {
        let mut q = DropTail::new(QueueLimit::Bytes(3000));
        assert_eq!(q.enqueue(t(0), pkt(0, 1460)), EnqueueResult::Accepted); // 1500
        assert_eq!(q.enqueue(t(0), pkt(1, 1460)), EnqueueResult::Accepted); // 3000
        assert_eq!(q.enqueue(t(0), pkt(2, 0)), EnqueueResult::Dropped); // +40 > 3000
        assert_eq!(q.len_bytes(), 3000);
    }

    #[test]
    fn droptail_sojourn_accounting() {
        // A sojourn is the observer's to measure: each dequeued packet's
        // own wait, from its shadow.
        let registry = Registry::new();
        let sink = MetricsHandle::new(RegistrySink::new(registry.clone()));
        let mut q = InstrumentedQdisc::new(Box::new(DropTail::infinite()), sink, "down");
        q.enqueue(t(10), pkt(0, 0));
        q.enqueue(t(20), pkt(1, 0));
        q.dequeue(t(30));
        q.dequeue(t(30));
        // Sojourns 20 ms and 10 ms.
        let text = registry.encode();
        assert!(text.contains("qdisc_down_sojourn_seconds_count 2"));
        assert!(
            text.contains("qdisc_down_sojourn_seconds_sum 0.03\n"),
            "{text}"
        );
    }

    #[test]
    fn max_backlog_high_water_mark() {
        let mut q = DropTail::infinite();
        for i in 0..5 {
            q.enqueue(t(0), pkt(i, 100));
        }
        q.dequeue(t(1));
        q.dequeue(t(1));
        q.enqueue(t(2), pkt(9, 100));
        // Peak was 5; the current backlog of 4 must not lower it.
        assert_eq!(q.stats().max_backlog_packets, 5);
        assert_eq!(q.len_packets(), 4);
        // The byte high-water tracked the same peak (5 packets of 100
        // payload bytes plus headers) and holds it the same way.
        let peak_bytes = 5 * pkt(0, 100).wire_size();
        assert_eq!(q.stats().max_backlog_bytes, peak_bytes);
        assert!(q.len_bytes() < peak_bytes);
    }

    #[test]
    fn instrumented_qdisc_observes_without_meddling() {
        let registry = Registry::new();
        let sink = MetricsHandle::new(RegistrySink::new(registry.clone()));
        let mut q = InstrumentedQdisc::new(
            Box::new(DropTail::new(QueueLimit::Packets(2))),
            sink,
            "down",
        );
        assert_eq!(q.enqueue(t(0), pkt(0, 100)), EnqueueResult::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(1, 100)), EnqueueResult::Accepted);
        assert_eq!(q.enqueue(t(0), pkt(2, 100)), EnqueueResult::Dropped);
        assert_eq!(q.dequeue(t(10)).unwrap().id, 0);
        let text = registry.encode();
        assert!(text.contains("qdisc_down_enqueues_total 3"));
        assert!(text.contains("qdisc_down_drops_total 1"));
        // One dequeue after 10 ms of sojourn.
        assert!(text.contains("qdisc_down_sojourn_seconds_count 1"));
        assert!(text.contains("qdisc_down_sojourn_seconds_sum 0.01"));
        // The wrapper's own stats are the inner qdisc's.
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len_packets(), 1);
    }

    #[test]
    fn drophead_evicts_oldest() {
        let mut q = DropHead::new(QueueLimit::Packets(2));
        q.enqueue(t(0), pkt(0, 10));
        q.enqueue(t(0), pkt(1, 10));
        assert_eq!(q.enqueue(t(0), pkt(2, 10)), EnqueueResult::Accepted);
        assert_eq!(q.stats().dropped, 1);
        // Head (id 0) was evicted; 1 and 2 remain.
        assert_eq!(q.dequeue(t(1)).unwrap().id, 1);
        assert_eq!(q.dequeue(t(1)).unwrap().id, 2);
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn infinite_drophead_rejected() {
        let _ = DropHead::new(QueueLimit::Infinite);
    }

    #[test]
    fn codel_no_drops_under_light_load() {
        let mut q = CoDel::default_params();
        for i in 0..100 {
            q.enqueue(t(i), pkt(i, 1000));
            // Dequeued quickly: sojourn ~1ms, below 5ms target.
            let got = q.dequeue(t(i + 1));
            assert!(got.is_some());
        }
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn codel_drops_under_standing_queue() {
        let mut q = CoDel::default_params();
        // Build a standing queue: enqueue 500 packets at t=0, drain slowly
        // (1 per 10ms → sojourn grows far beyond 5ms target).
        for i in 0..500 {
            q.enqueue(t(0), pkt(i, 1400));
        }
        let mut now_ms = 200; // everything already 200ms old
        let mut drained = 0;
        while q.dequeue(t(now_ms)).is_some() {
            now_ms += 10;
            drained += 1;
            if drained > 1000 {
                break;
            }
        }
        assert!(
            q.stats().dropped > 5,
            "CoDel should shed load: dropped {}",
            q.stats().dropped
        );
    }

    #[test]
    fn pie_no_drops_when_queue_short() {
        let mut q = Pie::default_params(1e6);
        for i in 0..200 {
            assert_eq!(q.enqueue(t(i), pkt(i, 100)), EnqueueResult::Accepted);
            q.dequeue(t(i));
        }
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn pie_drops_as_delay_grows() {
        // Slow link: 100 kB/s; pour in 1500-byte packets every ms without
        // draining → delay estimate explodes, drop prob rises.
        let mut q = Pie::default_params(100_000.0);
        let mut accepted = 0;
        for i in 0..2000 {
            if q.enqueue(t(i), pkt(i, 1460)) == EnqueueResult::Accepted {
                accepted += 1;
            }
        }
        assert!(q.stats().dropped > 100, "dropped {}", q.stats().dropped);
        assert!(accepted > 0);
    }
}
