//! The send direction of a [`TcpInner`]: the send queue, the window and
//! pacing gates, app-limited marking, new segments and retransmissions,
//! the retransmission queue with its incremental RFC 6675 pipe count,
//! ACK processing and rate-sample closing. What an ACK means for loss
//! recovery is [`LossRecovery`]'s call; this file acts on its verdicts.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use bytes::{Bytes, BytesMut};
use mm_metrics::FlowSample;
use mm_sim::{SimDuration, Timestamp};

use crate::packet::{Packet, SackBlock, SackOption, TcpFlags, TcpSegment, MSS};
use crate::tcp::cc::Controller;
use crate::tcp::rate::TxRecord;
use crate::tcp::recovery::{Frto, LossRecovery, NextSeg, Verdict};
use crate::tcp::socket::{SocketEvent, TcpHandle, TcpInner, RTO};

/// Retransmission-queue entry.
pub(super) struct RetxEntry {
    pub(super) segment: TcpSegment,
    /// Last transmission time. Refreshed on retransmission only under
    /// RACK (which keys loss inference off last-transmit times); the
    /// classic tiers keep the original time, whose only reader is the
    /// Karn-gated RTT sampler.
    pub(super) sent_at: Timestamp,
    /// First transmission time — never refreshed, and therefore monotone
    /// in sequence order, which is what lets RACK's detection scan stop
    /// at the first entry provably sent after the delivery clock.
    pub(super) first_sent_at: Timestamp,
    pub(super) retransmitted: bool,
    /// Whether this entry currently counts toward the incremental pipe
    /// estimate (see [`RetxQueue::pipe`]).
    in_pipe: bool,
    /// RACK has deemed this segment lost. The mark stays with the entry
    /// through partial-ack trims and goes when the segment is delivered
    /// (which also widens the adaptive reordering window — the mark was
    /// wrong).
    pub(super) rack_lost: bool,
    /// Delivery-rate bookkeeping stamped at first transmission
    /// (draft-cheng per-packet state; see [`crate::tcp::rate`]).
    tx: TxRecord,
}

/// Transmitted, unacknowledged segments with the RFC 6675 pipe estimate
/// kept alongside: a ring indexed by position, `retx[0]` the lowest.
/// Segments are appended at `snd_nxt` and removed from the head as
/// cumulative acks arrive, so order by starting sequence *is* insertion
/// order and a binary search stands in for a map keyed by sequence
/// (DESIGN.md §3). Adding and removing entries go through here so the
/// count stays in step, and an edit to an entry's pipe-relevant state is
/// followed by [`refresh`](RetxQueue::refresh).
#[derive(Default)]
pub(super) struct RetxQueue {
    q: VecDeque<RetxEntry>,
    /// The sum of `seq_len` over entries with `in_pipe` set.
    pipe: u64,
}

impl Index<usize> for RetxQueue {
    type Output = RetxEntry;

    fn index(&self, index: usize) -> &RetxEntry {
        &self.q[index]
    }
}

impl IndexMut<usize> for RetxQueue {
    fn index_mut(&mut self, index: usize) -> &mut RetxEntry {
        &mut self.q[index]
    }
}

/// The single source of truth for a segment's pipe contribution: sacked
/// coverage contributes nothing; otherwise a segment counts unless it is
/// presumed lost and was never retransmitted. Every reader — the
/// definitional walk, the per-entry refresh, and the bulk rebuild — goes
/// through here, so the incremental counter and the walk cannot drift
/// apart by a one-sided edit.
fn counts(e: &RetxEntry, rec: &LossRecovery) -> bool {
    !rec.is_sacked(e) && (e.retransmitted || !rec.is_lost(e))
}

impl RetxQueue {
    pub(super) fn len(&self) -> usize {
        self.q.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    pub(super) fn front(&self) -> Option<&RetxEntry> {
        self.q.front()
    }

    pub(super) fn iter(&self) -> std::collections::vec_deque::Iter<'_, RetxEntry> {
        self.q.iter()
    }

    /// Entries to edit in place (anything but their starts).
    pub(super) fn iter_mut(&mut self) -> std::collections::vec_deque::IterMut<'_, RetxEntry> {
        self.q.iter_mut()
    }

    /// Index of the first entry starting at or above `seq` — `len()` if
    /// every entry starts below it. `0..lower_bound(seq)` is a map's
    /// `range(..seq)`, `lower_bound(seq)..` its `range(seq..)`.
    pub(super) fn lower_bound(&self, seq: u64) -> usize {
        self.q.partition_point(|e| e.segment.seq < seq)
    }

    /// Queue a freshly transmitted segment, which must start above every
    /// queued one. A new transmission always counts toward pipe: nothing
    /// above it can be sacked and no loss evidence about it can exist.
    pub(super) fn push(&mut self, segment: TcpSegment, sent_at: Timestamp, tx: TxRecord) {
        assert!(
            self.q
                .back()
                .is_none_or(|last| last.segment.seq < segment.seq),
            "retransmission queue entries are appended in sequence order"
        );
        self.pipe += segment.seq_len();
        self.q.push_back(RetxEntry {
            segment,
            sent_at,
            first_sent_at: sent_at,
            retransmitted: false,
            in_pipe: true,
            rack_lost: false,
            tx,
        });
    }

    /// Remove the lowest entry.
    pub(super) fn pop_front(&mut self) -> Option<RetxEntry> {
        self.q.pop_front().inspect(|e| self.uncount(e))
    }

    /// Remove the highest entry.
    pub(super) fn pop_back(&mut self) -> Option<RetxEntry> {
        self.q.pop_back().inspect(|e| self.uncount(e))
    }

    fn uncount(&mut self, e: &RetxEntry) {
        if e.in_pipe {
            self.pipe -= e.segment.seq_len();
        }
    }

    /// Drop every entry and give the buffer back.
    pub(super) fn release(&mut self) {
        self.q = VecDeque::new();
        self.pipe = 0;
    }

    /// Partial ack into the head segment: trim the acked prefix so a
    /// future retransmit resends only what's missing.
    fn trim_front(&mut self, ack: u64, rec: &LossRecovery) {
        let Some(e) = self.q.front_mut() else {
            return;
        };
        let cut = (ack - e.segment.seq) as usize;
        if cut > 0 && cut <= e.segment.payload.len() {
            if std::mem::take(&mut e.in_pipe) {
                self.pipe -= e.segment.seq_len();
            }
            e.segment.payload = e.segment.payload.slice(cut..);
            e.segment.seq = ack;
            self.refresh(0, rec);
        }
    }

    /// RFC 6675 pipe: an estimate of the bytes still in the network. Per
    /// outstanding segment: sacked coverage contributes nothing, lost and
    /// never-retransmitted bytes contribute nothing, everything else
    /// counts once. (RFC 6675 counts a retransmitted octet twice if its
    /// original is also presumed present; here the original of a
    /// retransmitted segment is presumed gone — that presumption is why
    /// it was retransmitted — so each octet counts at most once and pipe
    /// never exceeds the outstanding sequence space, an invariant the
    /// property tests pin down.)
    ///
    /// Maintained incrementally: every transition that changes a
    /// segment's contribution (transmit, retransmit, ack, trim, new sack
    /// coverage, loss marking) adjusts the count through
    /// [`refresh`](RetxQueue::refresh), so reading the estimate is O(1)
    /// instead of a per-ack walk of the retransmission queue (measured:
    /// the dominant host-CPU cost of SACK recovery on the lossy-transfer
    /// bench).
    pub(super) fn pipe(&self, rec: &LossRecovery) -> u64 {
        debug_assert_eq!(
            self.pipe,
            self.walk(rec),
            "incremental pipe diverged from the definitional walk"
        );
        self.pipe
    }

    /// The definitional O(n) pipe walk the incremental counter must
    /// always agree with (debug assertions and property tests).
    pub(super) fn walk(&self, rec: &LossRecovery) -> u64 {
        self.q
            .iter()
            .filter(|e| counts(e, rec))
            .map(|e| e.segment.seq_len())
            .sum()
    }

    /// Recompute the pipe contribution of the entry at `index` after a
    /// state transition (sacked, marked lost, retransmitted, trimmed) and
    /// adjust the counter by the difference.
    pub(super) fn refresh(&mut self, index: usize, rec: &LossRecovery) {
        let e = &mut self.q[index];
        let counts = counts(e, rec);
        if counts != e.in_pipe {
            if counts {
                self.pipe += e.segment.seq_len();
            } else {
                self.pipe -= e.segment.seq_len();
            }
            e.in_pipe = counts;
        }
    }

    /// Rebuild the counter from the definitional walk after a bulk state
    /// change (RTO mass-marking, F-RTO undo) where per-entry deltas
    /// would touch every entry anyway.
    pub(super) fn rebuild(&mut self, rec: &LossRecovery) {
        let mut total = 0;
        for e in self.q.iter_mut() {
            e.in_pipe = counts(e, rec);
            if e.in_pipe {
                total += e.segment.seq_len();
            }
        }
        self.pipe = total;
    }
}

/// Remember the most recently *sent* never-retransmitted segment an ack
/// delivered — the one whose stamped record closes into the ack's rate
/// sample.
fn note_delivered(candidate: &mut Option<(Timestamp, u64, TxRecord)>, e: &RetxEntry) {
    let (sent_at, end_seq) = (e.sent_at, e.segment.seq_end());
    let newer = match *candidate {
        None => true,
        Some((ts, end, _)) => sent_at > ts || (sent_at == ts && end_seq > end),
    };
    if newer {
        *candidate = Some((sent_at, end_seq, e.tx));
    }
}

impl TcpInner {
    /// Bytes in flight.
    pub(super) fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Effective send window.
    fn send_window(&self) -> u64 {
        self.cc.cwnd().min(self.snd_wnd)
    }

    /// Whether one more full segment of queued data fits the peer's
    /// advertised window — the gate every send that bypasses cwnd
    /// (limited transmit, NextSeg's new data, F-RTO's probe, the TLP)
    /// must still pass (RFC 3042's condition 3).
    fn peer_window_allows_new(&self) -> bool {
        self.send_queued_bytes > 0 && self.flight_size() + MSS as u64 <= self.snd_wnd
    }

    /// Pull up to `max` bytes off the send queue as one payload. A
    /// payload that lies within the head chunk is a view of the caller's
    /// buffer; bytes are copied only to join a segment across chunks.
    fn dequeue_payload(&mut self, max: usize) -> Bytes {
        let Some(head) = self.send_queue.front_mut() else {
            return Bytes::new();
        };
        let payload = if head.len() > max {
            let payload = head.slice(..max);
            *head = head.slice(max..);
            payload
        } else if head.len() == max || self.send_queue.len() == 1 {
            self.send_queue.pop_front().expect("front exists")
        } else {
            let mut joined = BytesMut::with_capacity(max.min(self.send_queued_bytes as usize));
            while joined.len() < max {
                let Some(head) = self.send_queue.front_mut() else {
                    break;
                };
                let need = max - joined.len();
                if head.len() > need {
                    joined.extend_from_slice(&head[..need]);
                    *head = head.slice(need..);
                } else {
                    joined.extend_from_slice(head);
                    self.send_queue.pop_front();
                }
            }
            joined.freeze()
        };
        self.send_queued_bytes -= payload.len() as u64;
        payload
    }

    /// Transmit as much new data as the window allows — released one
    /// serialization interval at a time when the controller paces.
    pub(super) fn transmit_new(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        let had_backlog = self.send_queued_bytes > 0;
        let out_before = out.len();
        // One rate lookup per transmission opportunity; `None` means
        // unpaced (a loss-based controller, or no bandwidth estimate yet
        // to pace against) and the loop below never consults the pacer.
        let pace_rate = self.current_pacing_rate();
        self.pace_deadline = None;
        // App-limited marking must precede the sends it covers (Linux
        // stamps `tp->app_limited` in the write path, before
        // transmission): when the queued data cannot fill the available
        // window, every segment of this burst measures the app, not the
        // path — including the first one, which would otherwise be
        // stamped un-limited and "validate" a model built from a
        // trickle.
        if had_backlog
            && self.send_queued_bytes < self.send_window().saturating_sub(self.flight_size())
        {
            self.rate
                .on_app_limited(self.flight_size() + self.send_queued_bytes);
        }
        loop {
            let window = self.send_window();
            let flight = self.flight_size();
            if flight >= window {
                break;
            }
            let can_send = (window - flight).min(MSS as u64) as usize;
            let has_data = self.send_queued_bytes > 0;
            if has_data && pace_rate.is_some() && !self.pacer.can_send(now) {
                // The window permits more, the pacer does not (yet):
                // stop here and let the pacing timer resume the loop at
                // the release instant. The window gate above ran first,
                // so pacing can only ever delay what cwnd permits.
                self.stats.pacing_waits += 1;
                self.pace_deadline = Some(self.pacer.ready_at());
                break;
            }
            let len = self.send_new(can_send, now, out);
            if len == 0 {
                // Out of application data with window to spare: every
                // sample taken until this flight drains measures the app,
                // not the path (draft-cheng app-limited marking).
                self.rate.on_app_limited(self.flight_size());
                break;
            }
            if !has_data {
                break; // the bare FIN ends the stream
            }
            if let Some(rate) = pace_rate {
                self.pacer.on_sent(now, len, rate);
            }
        }
        if out.len() > out_before {
            // Window-gated sends only: limited transmit, PRR and TLP
            // have their own budgets and may legitimately pass cwnd, so
            // the flight≤cwnd conformance check keys off this tag.
            self.metric_sample_event(now, "tx", &[]);
        }
    }

    /// The one new-segment emitter: up to `max` bytes off the send queue,
    /// the pending FIN piggybacked when the remainder fit — or, with the
    /// queue empty and a close pending, a bare FIN. It does not look at
    /// cwnd; callers own their budgets. Returns the sequence space sent
    /// (0 = nothing to send).
    fn send_new(&mut self, max: usize, now: Timestamp, out: &mut Vec<Packet>) -> u64 {
        let payload = self.dequeue_payload(max);
        let fin = self.fin_pending && self.send_queued_bytes == 0 && self.fin_seq.is_none();
        if payload.is_empty() && !fin {
            return 0;
        }
        let drained = !payload.is_empty() && self.send_queued_bytes == 0;
        let flags = if fin {
            TcpFlags::FIN_ACK
        } else {
            TcpFlags::ACK
        };
        self.stats.bytes_sent += payload.len() as u64;
        let pkt = self.packet(flags, self.snd_nxt, payload, SackOption::default());
        let seg = pkt.segment.clone();
        self.snd_nxt = seg.seq_end();
        if fin {
            self.fin_seq = Some(seg.seq_end() - 1);
            self.enter_fin_state();
        }
        let len = seg.seq_len();
        self.insert_retx(seg, now);
        out.push(pkt);
        if drained {
            self.pending_events.push_back(SocketEvent::SendQueueDrained);
        }
        len
    }

    /// Queue a freshly transmitted segment for retransmission.
    pub(super) fn insert_retx(&mut self, segment: TcpSegment, sent_at: Timestamp) {
        // Delivery-rate stamp (the flight-empty check must precede the
        // insert: an idle restart resets the sample window).
        let tx = self.rate.on_send(sent_at, self.retx.is_empty());
        self.retx.push(segment, sent_at, tx);
        self.stats.max_retx_queue = self.stats.max_retx_queue.max(self.retx.len() as u64);
    }

    /// Retransmit the earliest unacknowledged segment.
    fn retransmit_head(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        if !self.retx.is_empty() {
            self.retransmit_at(0, now, out);
        }
    }

    /// Retransmit the retx entry at `index`. Returns the sequence space
    /// re-sent.
    pub(super) fn retransmit_at(
        &mut self,
        index: usize,
        now: Timestamp,
        out: &mut Vec<Packet>,
    ) -> u64 {
        let rack_active = self.recovery.tier.uses_rack();
        let entry = &mut self.retx[index];
        entry.retransmitted = true;
        if rack_active {
            // RACK keys loss inference off *last* transmission times.
            entry.sent_at = now;
        }
        let seg = entry.segment.clone();
        let seq_len = seg.seq_len();
        self.stats.retransmissions += 1;
        self.metric_count("tcp_retransmits_total");
        let pkt = self.packet(seg.flags, seg.seq, seg.payload, seg.sack);
        out.push(pkt);
        // A retransmission re-enters the network: it counts toward pipe
        // regardless of any loss presumption about the original. The
        // refresh must precede the sample, or observers see the
        // retransmitted flag flipped with the pipe counter still stale.
        self.retx.refresh(index, &self.recovery);
        self.metric_sample(now, true);
        seq_len
    }

    /// Send what RFC 6675 NextSeg picks. Returns the sequence space sent.
    fn send_next_seg(&mut self, now: Timestamp, out: &mut Vec<Packet>) -> u64 {
        let new_data_ok = self.peer_window_allows_new();
        match self
            .recovery
            .next_seg(&self.retx, new_data_ok, &mut self.stats)
        {
            NextSeg::Retransmit(index) => self.retransmit_at(index, now, out),
            NextSeg::NewData => self.send_new(MSS, now, out),
            NextSeg::Nothing => 0,
        }
    }

    /// Enter SACK loss recovery: multiplicative reduction via the
    /// congestion controller, PRR state reset, and the immediate fast
    /// retransmission of the first hole.
    fn enter_recovery(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        self.stats.fast_retransmits += 1;
        self.stats.sack_recoveries += 1;
        self.metric_count("tcp_fast_retransmits_total");
        let flight = self.flight_size();
        self.recovery.enter(self.snd_nxt, flight);
        self.cc.on_sack_recovery(flight, now);
        // The entry retransmission is not PRR-gated (it is the classic
        // fast retransmit); everything after goes through `prr_send`.
        let sent = self.send_next_seg(now, out);
        self.recovery.on_sent(sent);
    }

    /// Proportional-rate-reduction send loop (RFC 6937), run on every ACK
    /// while in SACK recovery: emit NextSeg choices until this ack's
    /// budget runs out.
    fn prr_send(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        let pipe = self.retx.pipe(&self.recovery);
        let mut budget = self.recovery.prr_budget(pipe, self.cc.ssthresh());
        while budget > 0 {
            let sent = self.send_next_seg(now, out);
            if sent == 0 {
                return;
            }
            self.recovery.on_sent(sent);
            budget = budget.saturating_sub(sent);
        }
    }

    /// RACK detection, then the tier's move: out of recovery, enter it if
    /// the head is now presumed lost (by enough sacked coverage above
    /// the hole, RFC 6675 §5, or by RACK's delivery clock overtaking
    /// it); in recovery, send what PRR allows.
    pub(super) fn detect_and_recover(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        self.recovery
            .rack_detect(&mut self.retx, now, &mut self.stats);
        if self.recovery.recovery_point.is_some() {
            self.prr_send(now, out);
        } else if self.recovery.tier.uses_sack() && self.recovery.head_is_lost(&self.retx) {
            self.enter_recovery(now, out);
        }
    }

    /// Tail Loss Probe: one segment — new data if the peer's window
    /// allows, else a retransmission of the highest unsacked outstanding
    /// segment — so a pure tail loss produces the SACK feedback RACK
    /// recovery needs instead of waiting out the RTO.
    pub(super) fn send_probe(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        self.recovery.on_tlp_fired();
        self.stats.tlp_probes += 1;
        self.metric_count("tcp_tlp_fires_total");
        let sent_new = self.peer_window_allows_new() && self.send_new(MSS, now, out) > 0;
        let highest = self
            .recovery
            .highest_unsacked_below(&self.retx, self.retx.len());
        if let (false, Some(index)) = (sent_new, highest) {
            self.retransmit_at(index, now, out);
        }
        // The probe restarts the RTO clock (RFC 8985 §7.3).
        self.rearm_rto = true;
    }

    /// Process the ACK number, window and SACK blocks of `seg`.
    pub(super) fn handle_ack(&mut self, now: Timestamp, seg: &TcpSegment, out: &mut Vec<Packet>) {
        let ack = seg.ack;
        if ack > self.snd_nxt {
            return; // acks data we never sent; ignore
        }
        // Rate-sample candidates are per-ack: never let one leak into a
        // later ack's sample (its delivered counts would be stale).
        self.rate_candidate = None;
        // Fold SACK blocks into the scoreboard first; both the dup-ack
        // and the cumulative-ack paths feed on the newly sacked count,
        // and the newly covered ranges drive the incremental pipe and
        // RACK bookkeeping.
        let (floor, snd_nxt) = (self.snd_una.max(ack), self.snd_nxt);
        let (blocks, n) = seg.sack.blocks.decode(ack);
        let newly_sacked =
            self.recovery
                .on_sack(&mut self.retx, &blocks[..n], floor, snd_nxt, now, |e| {
                    note_delivered(&mut self.rate_candidate, e)
                });
        self.stats.max_scoreboard_ranges = self
            .stats
            .max_scoreboard_ranges
            .max(self.recovery.scoreboard.ranges().len() as u64);
        if ack > self.snd_una || newly_sacked > 0 {
            self.recovery.on_delivery();
        }
        if ack <= self.snd_una && newly_sacked > 0 {
            // SACK-only progress is still delivery — and not only on
            // classifiable duplicate ACKs: a payload-bearing segment (a
            // pipelined request on a bidirectional mux connection) can
            // carry new blocks with an unmoved ack number. Missing these
            // would permanently undercount `delivered` and under-read
            // every later bandwidth sample. Most of BBR's samples under
            // loss arrive through this path.
            self.emit_rate_sample(newly_sacked, now);
        }
        if ack > self.snd_una {
            self.on_cumulative_ack(now, seg, newly_sacked, out);
        } else if ack == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.fin
            && !seg.flags.syn
            && self.flight_size() > 0
        {
            match self.recovery.on_dup_ack(
                &mut self.retx,
                self.snd_nxt,
                newly_sacked,
                now,
                &mut self.stats,
            ) {
                Verdict::EnterRecovery => self.enter_recovery(now, out),
                Verdict::LimitedTransmit => {
                    // RFC 3042 limited transmit: the first two dup acks
                    // each send one new segment past cwnd (but never past
                    // the peer's advertised window), so a small window
                    // keeps its ack clock alive.
                    if self.peer_window_allows_new() && self.send_new(MSS, now, out) > 0 {
                        self.stats.limited_transmits += 1;
                    }
                }
                Verdict::RetransmitHead => {
                    self.stats.fast_retransmits += 1;
                    self.metric_count("tcp_fast_retransmits_total");
                    let flight = self.flight_size();
                    self.cc.on_fast_retransmit(flight, now);
                    self.retransmit_head(now, out);
                }
                Verdict::Prr => self.prr_send(now, out),
                Verdict::Nothing | Verdict::Done | Verdict::Open => {}
            }
        }
        self.metric_sample(now, false);
    }

    /// The ACK moved `snd_una` forward.
    fn on_cumulative_ack(
        &mut self,
        now: Timestamp,
        seg: &TcpSegment,
        newly_sacked: u64,
        out: &mut Vec<Packet>,
    ) {
        let ack = seg.ack;
        let newly_acked = ack - self.snd_una;
        self.snd_una = ack;
        self.snd_wnd = seg.window;
        self.consecutive_timeouts = 0;
        self.rearm_rto = true;

        // RTT sample from the newest fully-acked, never-retransmitted
        // segment (Karn's algorithm). The loop runs before the
        // scoreboard advances so per-entry sacked-ness (F-RTO's evidence
        // filter) is still observable.
        let mut sample: Option<SimDuration> = None;
        let mut frto_evidence = 0u64;
        // Entries are disjoint and ordered, so everything this ack
        // covers is at the front of the queue: walk from the head.
        while let Some(e) = self.retx.front() {
            if e.segment.seq >= ack {
                break;
            }
            if e.segment.seq_end() > ack {
                // It straddles `ack`, so it is the last one covered.
                self.retx.trim_front(ack, &self.recovery);
                break;
            }
            let e = self.retx.pop_front().expect("front exists");
            if !e.retransmitted {
                sample = Some(now.duration_since(e.sent_at));
                // Unambiguous delivery: rate-sample candidate.
                note_delivered(&mut self.rate_candidate, &e);
            }
            frto_evidence += self.recovery.on_acked(&e, now);
        }
        let swallowed_sacked = self.recovery.advance(ack);

        if let Some(rtt) = sample {
            self.rtt.on_measurement(rtt);
        }

        // Close this ack's deliveries into a rate sample for the
        // congestion controller (model-based CC and pacing; a no-op for
        // the loss-based controllers). DeliveredData exactly as PRR
        // counts it.
        let delivered = newly_acked.saturating_sub(swallowed_sacked) + newly_sacked;
        self.emit_rate_sample(delivered, now);

        let probing = match self
            .recovery
            .frto_on_ack(&mut self.retx, ack, frto_evidence)
        {
            Frto::Spurious => {
                self.stats.spurious_rtos += 1;
                self.metric_count("tcp_spurious_rto_undo_total");
                self.cc.on_spurious_timeout();
                self.rtt.reset_backoff();
                false
            }
            Frto::Probe => {
                for _ in 0..2 {
                    if !self.peer_window_allows_new() {
                        break;
                    }
                    self.send_new(MSS, now, out);
                }
                true
            }
            Frto::Undecided => false,
        };

        match self.recovery.on_cumulative_ack(ack, delivered) {
            Verdict::Done => self.cc.on_recovery_exit(),
            Verdict::Prr if !probing => self.detect_and_recover(now, out),
            Verdict::RetransmitHead => {
                self.cc.on_ack(newly_acked, now, self.rtt.srtt());
                self.retransmit_head(now, out);
            }
            Verdict::Open => {
                self.cc.on_ack(newly_acked, now, self.rtt.srtt());
                self.detect_and_recover(now, out);
            }
            _ => {}
        }

        if self.retx.is_empty() {
            self.timers.cancel(RTO);
        }
        // FIN acked?
        if let Some(fin_seq) = self.fin_seq {
            if ack > fin_seq {
                self.on_fin_acked();
            }
        }
    }

    /// Close this ack's delivery bookkeeping into a rate sample and feed
    /// it to the congestion controller. `delivered_bytes` is the ack's
    /// DeliveredData (cumulative advance, minus sacked coverage it
    /// swallowed, plus newly sacked bytes — the same quantity PRR
    /// consumes).
    fn emit_rate_sample(&mut self, delivered_bytes: u64, now: Timestamp) {
        self.rate.on_delivery(delivered_bytes, now);
        if let Some((sent_at, _end, tx)) = self.rate_candidate.take() {
            if let Some(rs) = self.rate.sample(&tx, sent_at, now) {
                self.stats.rate_samples += 1;
                // The incremental pipe estimate (not raw flight): what
                // the model should compare against BDP is bytes believed
                // in the network, not sequence space covering losses.
                let inflight = self.retx.pipe;
                self.cc.on_rate_sample(&rs, inflight, now);
            }
        }
    }

    /// The rate (bytes/second) the pacer releases at right now: the
    /// controller's own model, when it has one (only BBR's does, and
    /// only once it has a bandwidth estimate). `None` means unpaced.
    /// Floored, unconditionally, at one initial window per smoothed
    /// RTT — a deliberate deviation from Linux, for the measured reason
    /// in DESIGN.md §3.
    fn current_pacing_rate(&self) -> Option<u64> {
        let model = self.cc.pacing_rate()?;
        let iw = match self.config.initial_cwnd_segments {
            Some(segments) => segments as u64 * MSS as u64,
            None => crate::tcp::cc::INITIAL_WINDOW,
        };
        let floor = self
            .rtt
            .srtt()
            .filter(|s| !s.is_zero())
            .map(|s| ((iw as u128 * 1_000_000_000) / s.as_nanos() as u128) as u64)
            .unwrap_or(0);
        Some(model.max(floor).max(1))
    }

    /// Emit the congestion-state observability signals: cwnd/srtt gauges
    /// and (when tracing is on) a per-flow time-series sample. Called at
    /// ack processing and retransmission events; sinks only observe, so
    /// this can never perturb the simulation. Routine (ack-path) calls
    /// are throttled to one per simulated millisecond per socket so a
    /// live sink stays off the per-ack hot path; retransmission events
    /// bypass the throttle (`force`) — they are exactly the samples the
    /// flow tracer must never drop.
    fn metric_sample(&self, now: Timestamp, force: bool) {
        self.metric_sample_inner(now, force, "", &[])
    }

    /// Event-tagged sample for conformance auditing (`"tx"` after a
    /// new-data burst, `"sack"` on a SACK-carrying ack). Only emitted
    /// when a flow tracer/auditor is attached, so plain gauge-only
    /// metrics runs keep their seed sampling cadence.
    pub(super) fn metric_sample_event(
        &self,
        now: Timestamp,
        event: &'static str,
        sack: &[SackBlock],
    ) {
        if self.trace_flow.is_some() {
            self.metric_sample_inner(now, true, event, sack);
        }
    }

    fn metric_sample_inner(
        &self,
        now: Timestamp,
        force: bool,
        event: &'static str,
        sack: &[SackBlock],
    ) {
        let Some(m) = &self.config.metrics else {
            return;
        };
        const ROUTINE_INTERVAL: SimDuration = SimDuration::from_millis(1);
        if let (false, Some(last)) = (force, self.last_metric_sample.get()) {
            if now < last + ROUTINE_INTERVAL {
                return;
            }
        }
        self.last_metric_sample.set(Some(now));
        m.gauge_set("tcp_cwnd_bytes", self.cc.cwnd() as f64);
        let srtt_s = self
            .rtt
            .srtt()
            .map(|srtt| srtt.as_secs_f64())
            .unwrap_or(0.0);
        if srtt_s > 0.0 {
            m.gauge_set("tcp_srtt_seconds", srtt_s);
        }
        if let Some(flow) = self.trace_flow {
            let rec = &self.recovery;
            let (rack_clock_ns, rack_clock_end) = rec
                .rack
                .clock()
                .map(|(t, end)| (t.as_nanos(), end))
                .unwrap_or((0, 0));
            let (rack_mark_ns, rack_mark_end) = rec
                .rack_mark_high
                .map(|(t, end)| (t.as_nanos(), end))
                .unwrap_or((0, 0));
            m.flow_sample(
                flow,
                &FlowSample {
                    t_s: now.as_secs_f64(),
                    cwnd: self.cc.cwnd(),
                    ssthresh: self.cc.ssthresh(),
                    srtt_s,
                    pacing_rate: self.current_pacing_rate().unwrap_or(0) as f64,
                    bytes_in_flight: self.flight_size(),
                    delivered: self.rate.delivered(),
                    retx_count: self.stats.retransmissions,
                    state: if rec.recovery_point.is_none() {
                        "open"
                    } else if self.consecutive_timeouts > 0 {
                        "loss"
                    } else {
                        "recovery"
                    },
                    event,
                    snd_nxt: self.snd_nxt,
                    snd_una: self.snd_una,
                    rcv_nxt: self.rcv_nxt,
                    rwnd: self.snd_wnd,
                    mss: MSS as u64,
                    pipe: self.retx.pipe,
                    // O(n), but only taken on the traced/audited path.
                    pipe_walk: self.retx.walk(rec),
                    rack_clock_ns,
                    rack_clock_end,
                    rack_mark_ns,
                    rack_mark_end,
                    pacing_excess: self.pacer.max_excess_bytes(),
                    sack_blocks: sack.iter().map(|b| (b.start, b.end)).collect(),
                },
            );
        }
    }
}

/// Sender-side diagnostics (tests and experiments).
impl TcpHandle {
    /// Bytes the app has queued that have not yet been put on the wire.
    /// Pairs with [`SocketEvent::SendQueueDrained`] for self-clocked
    /// writers.
    pub fn unsent_bytes(&self) -> u64 {
        self.inner.borrow().send_queued_bytes
    }

    /// RFC 6675 pipe estimate — bytes believed still in the network
    /// (diagnostics/tests; meaningful whether or not SACK is on, since an
    /// empty scoreboard makes it degenerate to outstanding bytes).
    /// Incrementally maintained; in debug builds reading it cross-checks
    /// the counter against the definitional walk.
    pub fn pipe_estimate(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.retx.pipe(&inner.recovery)
    }

    /// The definitional O(n) pipe walk (tests: must always equal
    /// [`pipe_estimate`](TcpHandle::pipe_estimate)).
    pub fn pipe_estimate_walk(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.retx.walk(&inner.recovery)
    }

    /// Current congestion window, bytes (diagnostics/tests — e.g.
    /// asserting the F-RTO spurious-timeout undo restored it).
    pub fn cwnd(&self) -> u64 {
        self.inner.borrow().cc.cwnd()
    }

    /// Current retransmission timeout, including any exponential backoff
    /// (diagnostics/tests — the F-RTO undo drops accumulated backoff).
    pub fn current_rto(&self) -> SimDuration {
        self.inner.borrow().rtt.rto()
    }

    /// Outstanding sequence space (`snd_nxt - snd_una`), the flight size
    /// the pipe estimate can never exceed.
    pub fn flight_bytes(&self) -> u64 {
        self.inner.borrow().flight_size()
    }

    /// BBR's windowed-max bottleneck bandwidth estimate, bytes per
    /// second; `None` under Reno and CUBIC, which model no path
    /// (diagnostics/tests — e.g. asserting BBR converged to link rate).
    pub fn delivery_rate(&self) -> Option<u64> {
        match &self.inner.borrow().cc {
            Controller::Bbr(bbr) => bbr.max_bw(),
            _ => None,
        }
    }

    /// BBR's minimum RTT estimate; `None` under Reno and CUBIC.
    pub fn min_rtt_estimate(&self) -> Option<SimDuration> {
        match &self.inner.borrow().cc {
            Controller::Bbr(bbr) => bbr.min_rtt(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::socket::RecoveryTier;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A data segment of `len` bytes at `seq`.
    fn segment(seq: u64, len: u64) -> TcpSegment {
        TcpSegment {
            flags: TcpFlags::ACK,
            seq,
            ack: 0,
            window: 0,
            sack: Default::default(),
            payload: Bytes::from(vec![0; len as usize]),
        }
    }

    /// An entry's place in sequence space.
    fn span(e: &RetxEntry) -> (u64, u64) {
        (e.segment.seq, e.segment.payload.len() as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The retransmission ring answers every question the socket asks of
        /// it exactly as the `BTreeMap<u64, _>` keyed by starting sequence it
        /// replaced — under the operations the socket performs: push at the
        /// tail, pop the heads an ack covers, trim (and, for the map, re-key)
        /// the head an ack straddles, pop the tail; lookups by sequence at,
        /// inside, between and above the entries.
        #[test]
        fn retx_ring_matches_a_btreemap_model(
            ops in prop::collection::vec((0u8..6, 0u64..100_000), 1..200),
        ) {
            let rec = LossRecovery::new(RecoveryTier::Reno);
            let mut ring = RetxQueue::default();
            let mut model: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            let (mut una, mut nxt) = (0u64, 0u64);
            for (op, arg) in ops {
                match op {
                    // Transmit: a segment at snd_nxt.
                    0 | 1 => {
                        let len = 1 + arg % 1460;
                        model.insert(nxt, (nxt, len));
                        ring.push(segment(nxt, len), Timestamp::ZERO, TxRecord::default());
                        nxt += len;
                    }
                    // Cumulative ack somewhere in the flight.
                    2 | 3 => {
                        let ack = una + arg % (nxt - una + 1);
                        una = ack;
                        while let Some((&k, &(_, len))) = model.first_key_value() {
                            if k >= ack {
                                break;
                            }
                            model.remove(&k);
                            if k + len > ack {
                                model.insert(ack, (ack, len - (ack - k)));
                            }
                        }
                        while let Some(e) = ring.front() {
                            if e.segment.seq >= ack {
                                break;
                            }
                            if e.segment.seq_end() <= ack {
                                ring.pop_front();
                            } else {
                                ring.trim_front(ack, &rec);
                            }
                        }
                    }
                    // The handshake's removal of the newest entry.
                    4 => {
                        let popped = ring.pop_back().map(|e| span(&e));
                        prop_assert_eq!(popped, model.pop_last().map(|(_, e)| e));
                        if let Some((seq, _)) = popped {
                            nxt = seq;
                        }
                    }
                    // A lookup, at a sequence that may fall on an entry's
                    // start, inside one, or above the tail.
                    _ => {
                        let probe = una + arg % (nxt - una + 50);
                        let below = ring.lower_bound(probe);
                        let at = (below < ring.len() && ring[below].segment.seq == probe)
                            .then(|| span(&ring[below]));
                        prop_assert_eq!(at.as_ref(), model.get(&probe));
                        prop_assert!(ring.iter().take(below).map(span).eq(model.range(..probe).map(|(_, e)| *e)));
                        prop_assert!(ring.iter().skip(below).map(span).eq(model.range(probe..).map(|(_, e)| *e)));
                        prop_assert!(ring
                            .iter()
                            .take(below)
                            .rev()
                            .map(span)
                            .eq(model.range(..probe).rev().map(|(_, e)| *e)));
                        // The entry containing `probe` "may begin below it".
                        let containing = ring.lower_bound(probe + 1).checked_sub(1).map(|i| span(&ring[i]));
                        prop_assert_eq!(containing.as_ref(), model.range(..=probe).next_back().map(|(_, e)| e));
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                prop_assert_eq!(ring.front().map(span).as_ref(), model.values().next());
                prop_assert!(ring.iter().map(span).eq(model.values().copied()));
            }
        }
    }

    /// Out-of-order insertion is the one thing the ring cannot represent, and
    /// the one thing a sender never does.
    #[test]
    #[should_panic(expected = "appended in sequence order")]
    fn retx_ring_rejects_an_entry_below_its_tail() {
        let mut ring = RetxQueue::default();
        ring.push(segment(100, 10), Timestamp::ZERO, TxRecord::default());
        ring.push(segment(100, 10), Timestamp::ZERO, TxRecord::default());
    }
}
