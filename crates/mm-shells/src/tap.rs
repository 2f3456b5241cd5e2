//! Per-packet event tapping for qdiscs: the [`TappedQdisc`] decorator.
//!
//! Where [`crate::queue::InstrumentedQdisc`] aggregates queue behavior
//! into metrics, `TappedQdisc` reports every individual packet
//! milestone — enqueue, dequeue (with exact sojourn), drop (attributed
//! to the *right* packet) — to a [`PacketTap`](mm_capture::PacketTap). Attribution needs care
//! because the [`Qdisc`] trait only exposes counter deltas: DropHead
//! evicts its oldest packet to admit the newest, and CoDel drops heads
//! at dequeue time. The decorator keeps a shadow FIFO of
//! `(id, size, enqueue time)` triples — every discipline in this
//! workspace is FIFO-ordered — so a drop delta can always be pinned to
//! the packet that actually left.
//!
//! Like every tap, the decorator never alters accept/drop decisions,
//! packet order, or timing: wrapping changes the event stream only.

use std::collections::VecDeque;

use mm_capture::{PacketEvent, PacketEventKind, TapHandle, TapPoint};
use mm_net::Packet;
use mm_sim::Timestamp;

use crate::queue::{EnqueueResult, Qdisc, QdiscStats};

struct Shadow {
    pkt_id: u64,
    size_bytes: u32,
    enqueued_at: Timestamp,
    flow: u64,
}

/// A [`Qdisc`] decorator reporting per-packet events to a tap.
pub struct TappedQdisc {
    inner: Box<dyn Qdisc>,
    tap: TapHandle,
    point: TapPoint,
    shadow: VecDeque<Shadow>,
    /// `inner.stats().dropped` as of the last enqueue/dequeue — drops
    /// only happen inside those calls, so one stats read after each op
    /// yields the same delta as a before/after pair.
    dropped_seen: u64,
}

impl TappedQdisc {
    /// Wrap `inner`, reporting events at `point`.
    pub fn new(inner: Box<dyn Qdisc>, tap: TapHandle, point: TapPoint) -> Self {
        let dropped_seen = inner.stats().dropped;
        TappedQdisc {
            inner,
            tap,
            point,
            shadow: VecDeque::new(),
            dropped_seen,
        }
    }

    /// Drops the inner discipline counted since the last call.
    fn drop_delta(&mut self) -> u64 {
        let dropped = self.inner.stats().dropped;
        let delta = dropped - self.dropped_seen;
        self.dropped_seen = dropped;
        delta
    }

    fn emit(
        &self,
        t: Timestamp,
        kind: PacketEventKind,
        pkt_id: u64,
        size: u32,
        sojourn_ns: u64,
        flow: u64,
    ) {
        self.tap.on_packet(&PacketEvent {
            t_ns: t.as_nanos(),
            kind,
            point: self.point,
            pkt_id,
            size_bytes: size,
            sojourn_ns,
            flow,
        });
    }

    /// Report `n` head-of-queue drops (evictions) from the shadow FIFO.
    fn emit_head_drops(&mut self, now: Timestamp, n: u64) {
        for _ in 0..n {
            let Some(victim) = self.shadow.pop_front() else {
                return;
            };
            self.emit(
                now,
                PacketEventKind::Drop,
                victim.pkt_id,
                victim.size_bytes,
                0,
                victim.flow,
            );
        }
    }
}

impl Qdisc for TappedQdisc {
    fn enqueue(&mut self, now: Timestamp, pkt: Packet) -> EnqueueResult {
        let pkt_id = pkt.id;
        let size = pkt.wire_size() as u32;
        let flow = pkt.flow_key();
        let result = self.inner.enqueue(now, pkt);
        let drop_delta = self.drop_delta();
        match result {
            EnqueueResult::Dropped => {
                // The offered packet itself was refused (droptail/PIE).
                self.emit(now, PacketEventKind::Drop, pkt_id, size, 0, flow);
                debug_assert!(drop_delta >= 1);
            }
            EnqueueResult::Accepted => {
                self.emit(now, PacketEventKind::Enqueue, pkt_id, size, 0, flow);
                self.shadow.push_back(Shadow {
                    pkt_id,
                    size_bytes: size,
                    enqueued_at: now,
                    flow,
                });
                // Accepted-yet-drops-counted means the discipline evicted
                // from the head to make room (DropHead).
                self.emit_head_drops(now, drop_delta);
            }
        }
        result
    }

    fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        let pkt = self.inner.dequeue(now);
        let drop_delta = self.drop_delta();
        match &pkt {
            Some(p) => {
                // Shadow entries ahead of the returned packet were
                // dropped inside this dequeue (CoDel's head drops).
                while let Some(head) = self.shadow.pop_front() {
                    if head.pkt_id == p.id {
                        let sojourn = now.saturating_duration_since(head.enqueued_at);
                        self.emit(
                            now,
                            PacketEventKind::Dequeue,
                            head.pkt_id,
                            head.size_bytes,
                            sojourn.as_nanos(),
                            head.flow,
                        );
                        break;
                    }
                    self.emit(
                        now,
                        PacketEventKind::Drop,
                        head.pkt_id,
                        head.size_bytes,
                        0,
                        head.flow,
                    );
                }
            }
            // Nothing returned but drops counted: the discipline dropped
            // its way to an empty queue.
            None => self.emit_head_drops(now, drop_delta),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{CoDel, DropHead, DropTail, QueueLimit};
    use bytes::Bytes;
    use mm_capture::{Capture, Dir, PointKind};
    use mm_net::{IpAddr, SocketAddr, TcpFlags, TcpSegment};
    use mm_sim::SimDuration;

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
}
