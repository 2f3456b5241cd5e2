//! The receive direction of a [`TcpInner`]: in-order delivery and
//! out-of-order reassembly, the peer's FIN, one immediate ACK per data
//! segment, RFC 2018 SACK blocks while holes remain, and the `HolWait`
//! spans that time each reassembly gap.

use bytes::Bytes;
use mm_sim::Timestamp;
use mm_trace::SpanKind;

use crate::packet::{Packet, SackOption, TcpFlags, TcpSegment};
use crate::tcp::socket::{SocketEvent, TcpInner, RECV_WINDOW};

impl TcpInner {
    /// Take in the payload (and FIN) of `seg`, acknowledging it.
    pub(super) fn handle_data(&mut self, now: Timestamp, seg: &TcpSegment, out: &mut Vec<Packet>) {
        let sack = self.recovery.tier.uses_sack();
        let mut payload = seg.payload.clone();
        let mut seq = seg.seq;
        // Trim any prefix we've already received.
        if seq < self.rcv_nxt {
            let overlap = (self.rcv_nxt - seq) as usize;
            if overlap >= payload.len() && !seg.flags.fin {
                // Entirely duplicate data: re-ack.
                self.queue_ack(now, out);
                return;
            }
            payload = payload.slice(overlap.min(payload.len())..);
            seq = self.rcv_nxt;
        }
        if seq >= self.rcv_nxt + RECV_WINDOW {
            // Beyond the window (RFC 793 §3.3): not acceptable. Never
            // parked, so nothing a peer sends grows the queue past the
            // window, and every SACK edge stays within 2^31 of the ack.
            self.queue_ack(now, out);
            return;
        }
        if seg.flags.fin {
            let fin_seq = seg.seq + seg.payload.len() as u64;
            self.peer_fin_seq = Some(fin_seq);
        }
        if seq != self.rcv_nxt {
            // Out of order: stash and send an immediate duplicate ACK
            // (carrying SACK blocks when negotiated).
            if !payload.is_empty() {
                if sack {
                    self.rcv_sack.on_arrival(seq, seq + payload.len() as u64);
                }
                if self.ooo.is_empty() && self.hole_since.is_none() {
                    self.hole_since = Some(now);
                }
                // Room for 16 when the first segment parks: grown from
                // empty by doubling, the queue made more allocator calls
                // on every lossy workload (`soak_open_loop` more than the
                // tree it replaced).
                if self.ooo.capacity() == 0 {
                    self.ooo.reserve(16);
                }
                // Almost always the tail; an equal start keeps the first.
                let at = self.ooo.partition_point(|&(s, _)| s < seq);
                if self.ooo.get(at).is_none_or(|&(s, _)| s != seq) {
                    self.ooo.insert(at, (seq, payload));
                }
            }
            self.queue_ack(now, out);
            return;
        }
        // In-order: deliver, then drain contiguous out-of-order data.
        if !payload.is_empty() {
            self.deliver(payload);
        }
        while let Some((oseq, odata)) = self.ooo.pop_front_if(|(oseq, _)| *oseq <= self.rcv_nxt) {
            let skip = (self.rcv_nxt - oseq) as usize;
            if skip < odata.len() {
                self.deliver(odata.slice(skip..));
            }
        }
        // Reassembly gap closed: the parked bytes waited this long for
        // the hole to fill (initiator side only — the response direction
        // is where head-of-line blocking costs PLT).
        if let Some(hole_t0) = self.hole_since {
            if self.ooo.is_empty() {
                self.hole_since = None;
                if self.conn_t0.is_some() {
                    self.span_emit(SpanKind::HolWait, hole_t0, now, "reassembly");
                }
            }
        }
        if sack {
            self.rcv_sack.on_advance(self.rcv_nxt);
        }
        // Process FIN once all data before it has arrived.
        if let Some(fin_seq) = self.peer_fin_seq {
            if self.rcv_nxt == fin_seq {
                self.rcv_nxt = fin_seq + 1;
                self.on_peer_fin();
            }
        }
        self.queue_ack(now, out);
    }

    /// Hand in-order bytes to the application.
    fn deliver(&mut self, data: Bytes) {
        self.rcv_nxt += data.len() as u64;
        self.stats.bytes_received += data.len() as u64;
        self.pending_events.push_back(SocketEvent::Data(data));
    }

    /// Acknowledge the segment just taken in, at once.
    fn queue_ack(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        let pkt = self.ack_packet(now);
        out.push(pkt);
    }

    /// Build a pure ACK, attaching SACK blocks while the reassembly queue
    /// holds out-of-order data (RFC 2018: every ACK sent during a hole
    /// reports the blocks).
    pub(super) fn ack_packet(&mut self, now: Timestamp) -> Packet {
        let mut sack = SackOption::default();
        if self.recovery.tier.uses_sack() && !self.ooo.is_empty() {
            let ooo = self.ooo.iter().map(|(seq, data)| (*seq, data.len() as u64));
            sack.blocks = self.rcv_sack.blocks(ooo, self.rcv_nxt);
            if !sack.blocks.is_empty() {
                let (blocks, n) = sack.blocks.decode(self.rcv_nxt);
                self.metric_sample_event(now, "sack", &blocks[..n]);
            }
        }
        self.packet(TcpFlags::ACK, self.snd_nxt, Bytes::new(), sack)
    }
}
