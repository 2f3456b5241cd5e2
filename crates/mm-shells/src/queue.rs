//! Queue disciplines for LinkShell.
//!
//! Mahimahi's `mm-link` ships several: an infinite droptail queue (the
//! default the paper uses), bounded droptail/drophead, and the AQMs CoDel
//! and PIE. All are implemented here behind one [`Qdisc`] trait so benches
//! can ablate them.

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
    /// Sum of sojourn times of dequeued packets, for mean-delay reporting.
    pub(crate) total_sojourn: SimDuration,
    /// High-water mark of the backlog in packets — the standing-queue
    /// measurement the pacing/BBR experiments compare senders by.
    pub max_backlog_packets: usize,
    /// High-water mark of the backlog in wire bytes. Tracks the same
    /// peaks as the packet count but is the right denomination for
    /// byte-limited buffers and for judging mixed small-ack/full-MTU
    /// traffic, where packet counts flatter the queue.
    pub max_backlog_bytes: usize,
}

impl QdiscStats {
    /// Mean queueing delay of dequeued packets.
    #[cfg(test)]
    pub(crate) fn mean_sojourn(&self) -> SimDuration {
        match self.total_sojourn.as_nanos().checked_div(self.dequeued) {
            None => SimDuration::ZERO,
            Some(mean) => SimDuration::from_nanos(mean),
        }
    }
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

struct Entry {
    pkt: Packet,
    enqueued_at: Timestamp,
}

/// FIFO with tail drop on overflow (or never, if infinite).
pub struct DropTail {
    q: VecDeque<Entry>,
    bytes: usize,
    limit: QueueLimit,
    stats: QdiscStats,
}

impl DropTail {
    /// Bounded or infinite droptail queue.
    pub fn new(limit: QueueLimit) -> Self {
        DropTail {
            q: VecDeque::new(),
            bytes: 0,
            limit,
            stats: QdiscStats::default(),
        }
    }

    /// The paper's default: infinite.
    pub fn infinite() -> Self {
        DropTail::new(QueueLimit::Infinite)
    }

    fn would_overflow(&self, pkt: &Packet) -> bool {
        match self.limit {
            QueueLimit::Infinite => false,
            QueueLimit::Packets(n) => self.q.len() + 1 > n,
            QueueLimit::Bytes(b) => self.bytes + pkt.wire_size() > b,
        }
    }
}

impl Qdisc for DropTail {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        if self.would_overflow(&pkt) {
            self.stats.dropped += 1;
            return EnqueueResult::Dropped;
        }
        self.bytes += pkt.wire_size();
        self.stats.enqueued += 1;
        self.q.push_back(Entry {
            pkt,
            enqueued_at: now,
        });
        self.stats.max_backlog_packets = self.stats.max_backlog_packets.max(self.q.len());
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.bytes);
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let e = self.q.pop_front()?;
        self.bytes -= e.pkt.wire_size();
        self.stats.dequeued += 1;
        self.stats.total_sojourn += now.saturating_duration_since(e.enqueued_at);
        Some(e.pkt)
    }

    fn peek_size(&self) -> Option<usize> {
        self.q.front().map(|e| e.pkt.wire_size())
    }

    fn len_packets(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

/// FIFO that evicts the *head* (oldest packet) on overflow — keeps queue
/// latency bounded at the cost of in-flight data.
pub struct DropHead {
    q: VecDeque<Entry>,
    bytes: usize,
    limit: QueueLimit,
    stats: QdiscStats,
}

impl DropHead {
    /// Bounded drophead queue (an infinite drophead is just droptail).
    pub fn new(limit: QueueLimit) -> Self {
        assert!(
            limit != QueueLimit::Infinite,
            "infinite drophead is meaningless; use DropTail::infinite()"
        );
        DropHead {
            q: VecDeque::new(),
            bytes: 0,
            limit,
            stats: QdiscStats::default(),
        }
    }
}

impl Qdisc for DropHead {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        self.bytes += pkt.wire_size();
        self.stats.enqueued += 1;
        self.q.push_back(Entry {
            pkt,
            enqueued_at: now,
        });
        loop {
            let overflow = match self.limit {
                QueueLimit::Infinite => false,
                QueueLimit::Packets(n) => self.q.len() > n,
                QueueLimit::Bytes(b) => self.bytes > b,
            };
            if !overflow {
                break;
            }
            if let Some(victim) = self.q.pop_front() {
                self.bytes -= victim.pkt.wire_size();
                self.stats.dropped += 1;
            } else {
                break;
            }
        }
        self.stats.max_backlog_packets = self.stats.max_backlog_packets.max(self.q.len());
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.bytes);
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let e = self.q.pop_front()?;
        self.bytes -= e.pkt.wire_size();
        self.stats.dequeued += 1;
        self.stats.total_sojourn += now.saturating_duration_since(e.enqueued_at);
        Some(e.pkt)
    }

    fn peek_size(&self) -> Option<usize> {
        self.q.front().map(|e| e.pkt.wire_size())
    }

    fn len_packets(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

/// CoDel AQM (ACM Queue 2012 / RFC 8289), operating on sojourn time.
pub struct CoDel {
    q: VecDeque<Entry>,
    bytes: usize,
    stats: QdiscStats,
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
            q: VecDeque::new(),
            bytes: 0,
            stats: QdiscStats::default(),
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
        let e = self.q.pop_front()?;
        self.bytes -= e.pkt.wire_size();
        let sojourn = now.saturating_duration_since(e.enqueued_at);
        let ok = if sojourn < self.target || self.bytes <= mm_net::MTU {
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
        self.stats.total_sojourn += sojourn;
        Some((e.pkt, ok))
    }
}

impl Qdisc for CoDel {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        self.bytes += pkt.wire_size();
        self.stats.enqueued += 1;
        self.q.push_back(Entry {
            pkt,
            enqueued_at: now,
        });
        self.stats.max_backlog_packets = self.stats.max_backlog_packets.max(self.q.len());
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.bytes);
        EnqueueResult::Accepted
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
                    self.stats.dropped += 1;
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
            self.stats.dropped += 1;
            self.drop_count = if now.saturating_duration_since(self.drop_next) < self.interval {
                (self.drop_count.saturating_sub(2)).max(1)
            } else {
                1
            };
            pkt = self.do_dequeue(now).map(|(p, _)| Some(p)).unwrap_or(None);
            self.drop_next = self.control_law(now);
        } else if !ok {
            self.dropping = true;
            self.stats.dropped += 1;
            self.drop_count = 1;
            pkt = self.do_dequeue(now).map(|(p, _)| Some(p)).unwrap_or(None);
            self.drop_next = self.control_law(now);
        }
        if pkt.is_some() {
            self.stats.dequeued += 1;
        }
        pkt
    }

    fn peek_size(&self) -> Option<usize> {
        self.q.front().map(|e| e.pkt.wire_size())
    }

    fn len_packets(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

/// PIE AQM (RFC 8033, simplified): drop probability updated from the
/// estimated queueing delay on each enqueue, using the deterministic
/// stream of arrival times rather than a separate update timer.
pub struct Pie {
    q: VecDeque<Entry>,
    bytes: usize,
    stats: QdiscStats,
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
            q: VecDeque::new(),
            bytes: 0,
            stats: QdiscStats::default(),
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
        SimDuration::from_secs_f64(self.bytes as f64 / self.depart_rate)
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
        let tiny = self.bytes <= 2 * mm_net::MTU;
        if !tiny && self.drop_prob > 0.0 && self.next_rand() < self.drop_prob {
            self.stats.dropped += 1;
            return EnqueueResult::Dropped;
        }
        self.bytes += pkt.wire_size();
        self.stats.enqueued += 1;
        self.q.push_back(Entry {
            pkt,
            enqueued_at: now,
        });
        self.stats.max_backlog_packets = self.stats.max_backlog_packets.max(self.q.len());
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.bytes);
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let e = self.q.pop_front()?;
        self.bytes -= e.pkt.wire_size();
        self.stats.dequeued += 1;
        self.stats.total_sojourn += now.saturating_duration_since(e.enqueued_at);
        Some(e.pkt)
    }

    fn peek_size(&self) -> Option<usize> {
        self.q.front().map(|e| e.pkt.wire_size())
    }

    fn len_packets(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }
}

/// Factory for building fresh qdiscs (each link direction needs its own).
pub type QdiscFactory = Box<dyn Fn() -> Box<dyn Qdisc>>;

/// Convenience factories.
pub mod factories {
    use super::*;

    /// Infinite droptail (the paper's configuration).
    pub fn infinite() -> QdiscFactory {
        Box::new(|| Box::new(DropTail::infinite()))
    }

    /// Bounded droptail.
    pub fn droptail(limit: QueueLimit) -> QdiscFactory {
        Box::new(move || Box::new(DropTail::new(limit)))
    }

    /// Bounded drophead.
    pub fn drophead(limit: QueueLimit) -> QdiscFactory {
        Box::new(move || Box::new(DropHead::new(limit)))
    }

    /// CoDel with RFC defaults.
    pub fn codel() -> QdiscFactory {
        Box::new(|| Box::new(CoDel::default_params()))
    }

    /// PIE with RFC default target, given the link rate in Mbit/s.
    pub fn pie(link_mbps: f64) -> QdiscFactory {
        Box::new(move || Box::new(Pie::default_params(link_mbps * 1e6 / 8.0)))
    }

    /// Wrap a factory so every qdisc it builds reports into `sink`
    /// under the given direction label (see [`super::InstrumentedQdisc`]).
    pub fn instrumented(
        inner: QdiscFactory,
        sink: mm_metrics::MetricsHandle,
        dir: &'static str,
    ) -> QdiscFactory {
        Box::new(move || Box::new(InstrumentedQdisc::new(inner(), sink.clone(), dir)))
    }
}

/// A [`Qdisc`] decorator exporting queue behavior to a metrics sink:
/// a backlog histogram observed at every enqueue, a sojourn-time
/// histogram observed at every dequeue, and drop/enqueue counters.
/// Opt-in via [`factories::instrumented`] — nothing in the default
/// experiment paths constructs one, and the decorator never alters
/// accept/drop decisions or packet order, so enabling it changes
/// metrics output only.
pub struct InstrumentedQdisc {
    inner: Box<dyn Qdisc>,
    sink: mm_metrics::MetricsHandle,
    /// Direction label baked into the metric names (metric names must
    /// be static, so we select between two fixed name sets).
    dir: &'static str,
}

impl InstrumentedQdisc {
    /// Wrap `inner`, labeling metrics for `dir` (`"up"` or `"down"`;
    /// anything else reports under the `"down"` names).
    pub fn new(inner: Box<dyn Qdisc>, sink: mm_metrics::MetricsHandle, dir: &'static str) -> Self {
        InstrumentedQdisc { inner, sink, dir }
    }

    #[rustfmt::skip]
    fn names(&self) -> (&'static str, &'static str, &'static str, &'static str, &'static str) {
        if self.dir == "up" {
            (
                "qdisc_up_backlog_packets",
                "qdisc_up_sojourn_seconds",
                "qdisc_up_drops_total",
                "qdisc_up_enqueues_total",
                "qdisc_up_backlog_now_packets",
            )
        } else {
            (
                "qdisc_down_backlog_packets",
                "qdisc_down_sojourn_seconds",
                "qdisc_down_drops_total",
                "qdisc_down_enqueues_total",
                "qdisc_down_backlog_now_packets",
            )
        }
    }
}

impl Qdisc for InstrumentedQdisc {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        let drops_before = self.inner.stats().dropped;
        let result = self.inner.enqueue(now, pkt);
        let (backlog, _, drops, enqueues, backlog_now) = self.names();
        self.sink.observe(backlog, self.inner.len_packets() as f64);
        // The instantaneous backlog as a gauge, so conformance audits
        // can cross-check a tap's packet ledger against the qdisc's own
        // view of its depth.
        self.sink
            .gauge_set(backlog_now, self.inner.len_packets() as f64);
        self.sink.counter_add(enqueues, 1);
        // Count via the stats delta, not the enqueue result: AQMs can
        // accept this packet while dropping another (DropHead evicts
        // the oldest packet to admit the newest).
        let dropped = self.inner.stats().dropped - drops_before;
        if dropped > 0 {
            self.sink.counter_add(drops, dropped);
        }
        result
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let (_, sojourn, drops, _, backlog_now) = self.names();
        let before = self.inner.stats();
        let pkt = self.inner.dequeue(now);
        let after = self.inner.stats();
        if pkt.is_some() {
            // The per-packet sojourn is the total-sojourn delta — the
            // trait exposes sums, not per-packet stamps.
            let delta = after.total_sojourn.saturating_sub(before.total_sojourn);
            self.sink.observe(sojourn, delta.as_secs_f64());
        }
        // CoDel drops at dequeue time.
        if after.dropped > before.dropped {
            self.sink.counter_add(drops, after.dropped - before.dropped);
        }
        self.sink
            .gauge_set(backlog_now, self.inner.len_packets() as f64);
        pkt
    }

    fn peek_size(&self) -> Option<usize> {
        self.inner.peek_size()
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }

    fn stats(&self) -> QdiscStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
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
        let mut q = DropTail::infinite();
        q.enqueue(t(10), pkt(0, 0));
        q.enqueue(t(20), pkt(1, 0));
        q.dequeue(t(30));
        q.dequeue(t(30));
        let stats = q.stats();
        // Sojourns 20ms and 10ms → mean 15ms.
        assert_eq!(stats.mean_sojourn(), SimDuration::from_millis(15));
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
        use mm_metrics::{MetricsHandle, Registry, RegistrySink};
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

    #[test]
    fn factories_produce_fresh_instances() {
        let f = factories::infinite();
        let mut a = f();
        let mut b = f();
        a.enqueue(t(0), pkt(0, 0));
        assert_eq!(a.len_packets(), 1);
        assert_eq!(b.len_packets(), 0);
        b.enqueue(t(0), pkt(1, 0));
        assert_eq!(b.len_packets(), 1);
    }
}
