//! The shells' one observer seam: what every shell direction reports
//! about the packets crossing it.
//!
//! A [`Reporter`] builds every [`PacketEvent`] the shells emit: delay and
//! link legs report each packet they hand on, loss legs each packet they
//! lose. A link's queue is observed by [`ObservedQdisc`], which reports
//! every queue milestone — enqueue, dequeue (with exact sojourn), drop
//! (attributed to the *right* packet) — to the tap, and the queue's
//! instruments to a metrics sink. Observers never alter accept/drop
//! decisions, packet order or timing: they change what is reported only.

use std::collections::VecDeque;

use mm_capture::{Dir, LinkMeta, PacketEvent, PacketEventKind, PointKind, TapHandle, TapPoint};
use mm_metrics::MetricsHandle;
use mm_net::{Packet, MTU};
use mm_sim::Timestamp;
use mm_trace::Trace;

use crate::queue::{EnqueueResult, Qdisc, QdiscStats};

/// One tap at one point: the builder of every packet event a shell
/// direction reports.
#[derive(Clone)]
pub(crate) struct Reporter {
    tap: TapHandle,
    point: TapPoint,
}

impl Reporter {
    /// Report `kind` for `pkt`.
    pub(crate) fn packet(&self, now: Timestamp, kind: PacketEventKind, pkt: &Packet) {
        self.report(now, kind, &Shadow::of(pkt, now), 0);
    }

    fn report(&self, now: Timestamp, kind: PacketEventKind, pkt: &Shadow, sojourn_ns: u64) {
        self.tap.on_packet(&PacketEvent {
            t_ns: now.as_nanos(),
            kind,
            point: self.point,
            pkt_id: pkt.pkt_id,
            size_bytes: pkt.size_bytes,
            sojourn_ns,
            flow: pkt.flow,
        });
    }

    /// Report a link's delivery-opportunity schedule, once, so offline
    /// analyzers can reconstruct its capacity series.
    pub(crate) fn link_meta(&self, trace: &Trace) {
        self.tap.on_link_meta(&LinkMeta {
            point: self.point,
            deliveries_ms: trace.deliveries_ms().into(),
            period_ms: trace.period_ms(),
            mtu_bytes: MTU as u32,
        });
    }
}

/// What observes the shell a [`crate::ShellStack`] adds: a tap for the
/// packets of both its directions, and a metrics sink for a link's
/// queue instruments.
#[derive(Clone, Default)]
pub(crate) struct Observers {
    pub(crate) tap: Option<TapHandle>,
    pub(crate) metrics: Option<MetricsHandle>,
    /// The layer's position in its stack (`link-2` ⇒ 2), which its tap
    /// points carry.
    pub(crate) index: u32,
}

impl Observers {
    fn point(&self, kind: PointKind, dir: Dir) -> TapPoint {
        TapPoint {
            kind,
            index: self.index,
            dir,
        }
    }

    /// The reporter of one direction of this layer, if it is tapped.
    pub(crate) fn reporter(&self, kind: PointKind, dir: Dir) -> Option<Reporter> {
        Some(Reporter {
            tap: self.tap.clone()?,
            point: self.point(kind, dir),
        })
    }

    /// One link direction's queue, observed if anything observes it.
    pub(crate) fn queue(&self, qdisc: Box<dyn Qdisc>, dir: Dir) -> Box<dyn Qdisc> {
        if self.tap.is_none() && self.metrics.is_none() {
            return qdisc;
        }
        let point = self.point(PointKind::Link, dir);
        Box::new(ObservedQdisc::new(
            qdisc,
            point,
            self.tap.clone(),
            self.metrics.clone(),
        ))
    }
}

/// A packet as its events describe it, and when it joined a queue: an
/// entry of the decorator's shadow FIFO.
struct Shadow {
    pkt_id: u64,
    size_bytes: u32,
    enqueued_at: Timestamp,
    flow: u64,
}

impl Shadow {
    fn of(pkt: &Packet, now: Timestamp) -> Shadow {
        Shadow {
            pkt_id: pkt.id,
            size_bytes: pkt.wire_size() as u32,
            enqueued_at: now,
            flow: pkt.flow_key(),
        }
    }
}

/// The metric names of one direction's queue instruments (metric names
/// must be static, so there are two fixed sets).
struct QdiscNames {
    backlog: &'static str,
    backlog_now: &'static str,
    sojourn: &'static str,
    enqueues: &'static str,
    drops: &'static str,
}

const UP: QdiscNames = QdiscNames {
    backlog: "qdisc_up_backlog_packets",
    backlog_now: "qdisc_up_backlog_now_packets",
    sojourn: "qdisc_up_sojourn_seconds",
    enqueues: "qdisc_up_enqueues_total",
    drops: "qdisc_up_drops_total",
};

const DOWN: QdiscNames = QdiscNames {
    backlog: "qdisc_down_backlog_packets",
    backlog_now: "qdisc_down_backlog_now_packets",
    sojourn: "qdisc_down_sojourn_seconds",
    enqueues: "qdisc_down_enqueues_total",
    drops: "qdisc_down_drops_total",
};

/// A [`Qdisc`] decorator that observes a discipline without touching
/// it. To a tap it reports each packet's enqueue, dequeue (with its
/// sojourn) and drop. To a metrics sink it reports the queue's
/// instruments: the backlog as a histogram at every enqueue and as a
/// gauge after every operation, each transmitted packet's sojourn, and
/// enqueue and drop counters. Within one operation the packet events
/// come first, so a gauge always describes the queue the events left.
///
/// Drop *attribution* needs care because the [`Qdisc`] trait exposes
/// only counter deltas: DropHead evicts its oldest packet to admit the
/// newest, and CoDel drops heads at dequeue time. The decorator keeps a
/// shadow FIFO of `(id, size, enqueue time)` — every discipline here is
/// FIFO-ordered — so a drop delta is always pinned to the packet that
/// actually left, and a sojourn is the transmitted packet's own.
pub struct ObservedQdisc {
    inner: Box<dyn Qdisc>,
    tap: Option<Reporter>,
    metrics: Option<(MetricsHandle, &'static QdiscNames)>,
    shadow: VecDeque<Shadow>,
    /// `inner.stats().dropped` as of the last enqueue/dequeue — drops
    /// only happen inside those calls, so one stats read after each op
    /// yields the same delta as a before/after pair.
    dropped_seen: u64,
}

impl ObservedQdisc {
    /// Observe `inner`, the queue at `point`: its packet events go to
    /// `tap`, its instruments to `metrics` under the names of
    /// `point.dir`.
    pub fn new(
        inner: Box<dyn Qdisc>,
        point: TapPoint,
        tap: Option<TapHandle>,
        metrics: Option<MetricsHandle>,
    ) -> Self {
        let names = match point.dir {
            Dir::Up => &UP,
            Dir::Down => &DOWN,
        };
        ObservedQdisc {
            dropped_seen: inner.stats().dropped,
            inner,
            tap: tap.map(|tap| Reporter { tap, point }),
            metrics: metrics.map(|sink| (sink, names)),
            shadow: VecDeque::new(),
        }
    }

    /// Drops the inner discipline counted since the last call.
    fn drop_delta(&mut self) -> u64 {
        let dropped = self.inner.stats().dropped;
        let delta = dropped - self.dropped_seen;
        self.dropped_seen = dropped;
        delta
    }

    fn report(&self, now: Timestamp, kind: PacketEventKind, pkt: &Shadow, sojourn_ns: u64) {
        if let Some(tap) = &self.tap {
            tap.report(now, kind, pkt, sojourn_ns);
        }
    }

    /// `n` packets left the head of the queue unsent (evictions).
    fn head_drops(&mut self, now: Timestamp, n: u64) {
        for _ in 0..n {
            let Some(victim) = self.shadow.pop_front() else {
                return;
            };
            self.report(now, PacketEventKind::Drop, &victim, 0);
        }
    }
}

impl Qdisc for ObservedQdisc {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        let offered = Shadow::of(&pkt, now);
        let result = self.inner.enqueue(now, pkt);
        // Count drops by the stats delta, not the result: DropHead
        // accepts the offered packet while evicting another.
        let dropped = self.drop_delta();
        match result {
            EnqueueResult::Dropped => {
                // The offered packet itself was refused (droptail/PIE).
                self.report(now, PacketEventKind::Drop, &offered, 0);
                debug_assert!(dropped >= 1);
            }
            EnqueueResult::Accepted => {
                self.report(now, PacketEventKind::Enqueue, &offered, 0);
                self.shadow.push_back(offered);
                self.head_drops(now, dropped);
            }
        }
        if let Some((sink, names)) = &self.metrics {
            let backlog = self.inner.len_packets() as f64;
            sink.observe(names.backlog, backlog);
            sink.gauge_set(names.backlog_now, backlog);
            sink.counter_add(names.enqueues, 1);
            if dropped > 0 {
                sink.counter_add(names.drops, dropped);
            }
        }
        result
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let pkt = self.inner.dequeue(now);
        let dropped = self.drop_delta();
        let mut sojourn = None;
        match &pkt {
            // Shadow entries ahead of the returned packet were dropped
            // inside this dequeue (CoDel's head drops).
            Some(p) => {
                while let Some(head) = self.shadow.pop_front() {
                    if head.pkt_id == p.id {
                        let waited = now.saturating_duration_since(head.enqueued_at);
                        self.report(now, PacketEventKind::Dequeue, &head, waited.as_nanos());
                        sojourn = Some(waited);
                        break;
                    }
                    self.report(now, PacketEventKind::Drop, &head, 0);
                }
            }
            // Nothing returned but drops counted: the discipline dropped
            // its way to an empty queue.
            None => self.head_drops(now, dropped),
        }
        if let Some((sink, names)) = &self.metrics {
            if let Some(sojourn) = sojourn {
                sink.observe(names.sojourn, sojourn.as_secs_f64());
            }
            if dropped > 0 {
                sink.counter_add(names.drops, dropped);
            }
            sink.gauge_set(names.backlog_now, self.inner.len_packets() as f64);
        }
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

/// The metrics-only [`ObservedQdisc`] under its former name. The
/// host-time benchmark (`perf/src/api.rs`) names it; it goes when that
/// benchmark is ported (ROADMAP, "Benchmark v2").
pub enum InstrumentedQdisc {}

// The benchmark calls `::new` and gets the merged type.
#[allow(clippy::new_ret_no_self)]
impl InstrumentedQdisc {
    /// Observe `inner` for a metrics sink, under the `dir` (`"up"`, else
    /// `"down"`) names.
    pub fn new(inner: Box<dyn Qdisc>, sink: MetricsHandle, dir: &'static str) -> ObservedQdisc {
        let dir = if dir == "up" { Dir::Up } else { Dir::Down };
        let point = TapPoint {
            kind: PointKind::Link,
            index: 0,
            dir,
        };
        ObservedQdisc::new(inner, point, None, Some(sink))
    }
}

/// The tap-only [`ObservedQdisc`] under its former name, kept while the
/// host-time benchmark names it (see [`InstrumentedQdisc`]).
pub enum TappedQdisc {}

#[allow(clippy::new_ret_no_self)]
impl TappedQdisc {
    /// Observe `inner` for a tap at `point`.
    pub fn new(inner: Box<dyn Qdisc>, tap: TapHandle, point: TapPoint) -> ObservedQdisc {
        ObservedQdisc::new(inner, point, Some(tap), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkt;
    use crate::queue::{CoDel, DropHead, DropTail, QueueLimit};
    use mm_capture::Capture;
    use mm_metrics::{Registry, RegistrySink};
    use mm_sim::SimDuration;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn point() -> TapPoint {
        TapPoint {
            kind: PointKind::Link,
            index: 1,
            dir: Dir::Down,
        }
    }

    fn events(cap: &Capture) -> Vec<(PacketEventKind, u64, u64)> {
        cap.data()
            .packets
            .iter()
            .map(|e| (e.kind, e.pkt_id, e.sojourn_ns))
            .collect()
    }

    #[test]
    fn droptail_attributes_tail_drop_to_offered_packet() {
        let cap = Capture::new();
        let mut q = TappedQdisc::new(
            Box::new(DropTail::new(QueueLimit::Packets(1))),
            cap.handle(),
            point(),
        );
        assert_eq!(q.enqueue(t(0), pkt(0, 100)), EnqueueResult::Accepted);
        assert_eq!(q.enqueue(t(1), pkt(1, 100)), EnqueueResult::Dropped);
        assert_eq!(q.dequeue(t(5)).unwrap().id, 0);
        assert_eq!(
            events(&cap),
            vec![
                (PacketEventKind::Enqueue, 0, 0),
                (PacketEventKind::Drop, 1, 0),
                (PacketEventKind::Dequeue, 0, 5_000_000),
            ]
        );
    }

    #[test]
    fn drophead_attributes_eviction_to_oldest_packet() {
        let cap = Capture::new();
        let mut q = TappedQdisc::new(
            Box::new(DropHead::new(QueueLimit::Packets(2))),
            cap.handle(),
            point(),
        );
        q.enqueue(t(0), pkt(0, 100));
        q.enqueue(t(0), pkt(1, 100));
        // Admitting id 2 evicts id 0 (the head), not id 2.
        assert_eq!(q.enqueue(t(1), pkt(2, 100)), EnqueueResult::Accepted);
        assert_eq!(q.dequeue(t(2)).unwrap().id, 1);
        assert_eq!(q.dequeue(t(2)).unwrap().id, 2);
        assert_eq!(
            events(&cap),
            vec![
                (PacketEventKind::Enqueue, 0, 0),
                (PacketEventKind::Enqueue, 1, 0),
                (PacketEventKind::Enqueue, 2, 0),
                (PacketEventKind::Drop, 0, 0),
                (PacketEventKind::Dequeue, 1, 2_000_000),
                (PacketEventKind::Dequeue, 2, 1_000_000),
            ]
        );
    }

    #[test]
    fn codel_dequeue_drops_attributed_to_skipped_heads() {
        // Build a deep standing queue and drain slowly so CoDel sheds;
        // every drop the inner qdisc counts must surface as a Drop event
        // for a packet that was previously enqueued, and each dequeued
        // packet must match the id the caller received.
        let cap = Capture::new();
        let mut q = TappedQdisc::new(Box::new(CoDel::default_params()), cap.handle(), point());
        for i in 0..500 {
            q.enqueue(t(0), pkt(i, 1400));
        }
        let mut now_ms = 200;
        let mut got = Vec::new();
        while let Some(p) = q.dequeue(t(now_ms)) {
            got.push(p.id);
            now_ms += 10;
            if got.len() > 1000 {
                break;
            }
        }
        let stats = q.stats();
        assert!(stats.dropped > 5, "test needs CoDel to shed");
        let data = cap.data();
        let drops: Vec<u64> = data
            .packets
            .iter()
            .filter(|e| e.kind == PacketEventKind::Drop)
            .map(|e| e.pkt_id)
            .collect();
        let deqs: Vec<u64> = data
            .packets
            .iter()
            .filter(|e| e.kind == PacketEventKind::Dequeue)
            .map(|e| e.pkt_id)
            .collect();
        assert_eq!(drops.len() as u64, stats.dropped);
        assert_eq!(deqs, got, "dequeue events must mirror returned packets");
        // Every packet was accounted exactly once: dropped or dequeued.
        let mut all: Vec<u64> = drops.iter().chain(deqs.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn sojourn_matches_queue_wait() {
        let cap = Capture::new();
        let mut q = TappedQdisc::new(Box::new(DropTail::infinite()), cap.handle(), point());
        q.enqueue(t(10), pkt(0, 0));
        q.dequeue(t(25));
        let data = cap.data();
        let deq = data
            .packets
            .iter()
            .find(|e| e.kind == PacketEventKind::Dequeue)
            .unwrap();
        assert_eq!(
            SimDuration::from_nanos(deq.sojourn_ns),
            SimDuration::from_millis(15)
        );
    }

    #[test]
    fn tapping_never_changes_decisions() {
        // Same offered sequence through a bare and a tapped qdisc:
        // identical accept/drop outcomes and identical dequeue order.
        let offered: Vec<(u64, usize)> = (0..50)
            .map(|i| (i, if i % 3 == 0 { 1460 } else { 0 }))
            .collect();
        let mut bare: Box<dyn Qdisc> = Box::new(DropHead::new(QueueLimit::Packets(5)));
        let cap = Capture::new();
        let mut tapped = TappedQdisc::new(
            Box::new(DropHead::new(QueueLimit::Packets(5))),
            cap.handle(),
            point(),
        );
        let mut bare_out = Vec::new();
        let mut tapped_out = Vec::new();
        for (i, &(id, sz)) in offered.iter().enumerate() {
            let now = t(i as u64);
            assert_eq!(
                bare.enqueue(now, pkt(id, sz)),
                tapped.enqueue(now, pkt(id, sz))
            );
            if i % 2 == 0 {
                bare_out.push(bare.dequeue(now).map(|p| p.id));
                tapped_out.push(tapped.dequeue(now).map(|p| p.id));
            }
        }
        assert_eq!(bare_out, tapped_out);
        assert_eq!(bare.stats().dropped, tapped.stats().dropped);
    }

    #[test]
    fn codel_sojourn_histogram_counts_delivered_packets_only() {
        // CoDel pops heads it then drops; their waits are no packet's
        // sojourn. Observed for both metrics and a tap, the histogram's
        // sum must be the sum of the tap's dequeue sojourns.
        let registry = Registry::new();
        let metrics = MetricsHandle::new(RegistrySink::new(registry.clone()));
        let cap = Capture::new();
        let mut q = ObservedQdisc::new(
            Box::new(CoDel::default_params()),
            point(),
            Some(cap.handle()),
            Some(metrics),
        );
        for i in 0..200 {
            q.enqueue(t(0), pkt(i, 1400));
        }
        let mut now_ms = 200;
        while q.dequeue(t(now_ms)).is_some() {
            now_ms += 10;
        }
        assert!(q.stats().dropped > 5, "test needs CoDel to shed");
        let tapped: f64 = cap
            .data()
            .packets
            .iter()
            .filter(|e| e.kind == PacketEventKind::Dequeue)
            .map(|e| SimDuration::from_nanos(e.sojourn_ns).as_secs_f64())
            .sum();
        let text = registry.encode();
        let sum: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("qdisc_down_sojourn_seconds_sum "))
            .expect("a sojourn histogram")
            .parse()
            .expect("a number");
        assert!(
            (sum - tapped).abs() < 1e-6,
            "histogram {sum} s, tap {tapped} s"
        );
    }
}
