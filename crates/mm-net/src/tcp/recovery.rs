//! Loss recovery: every decision the negotiated [`RecoveryTier`] makes,
//! in one struct for all three tiers (`Reno` leaves the scoreboard
//! untouched). It never builds a packet or touches the congestion
//! controller: its methods return a verdict ([`NextSeg`], [`Verdict`],
//! [`Frto`]) the sender acts on, so it runs against a bare [`RetxQueue`]
//! — no host, simulator or socket (the tests below). DESIGN.md §3.

use mm_sim::{SimDuration, Timestamp};

use crate::packet::{SackBlock, MSS};
use crate::tcp::rack::{FrtoState, RackState, TLP_SLACK};
use crate::tcp::sack::{Scoreboard, DUP_THRESH};
use crate::tcp::sender::{RetxEntry, RetxQueue};
use crate::tcp::socket::{RecoveryTier, TcpStats};

/// The connection's loss-recovery state (see the module doc).
pub(super) struct LossRecovery {
    /// The tier the handshake negotiated: the configured one when the
    /// peer offered SACK, else `Reno`. Set once, on the SYN/SYN-ACK.
    pub(super) tier: RecoveryTier,
    pub(super) dup_acks: u32,
    /// High-water mark for recovery (snd_nxt at loss time) — NewReno fast
    /// recovery, SACK recovery, and RTO recovery all key off it.
    pub(super) recovery_point: Option<u64>,
    /// Sender-side scoreboard of sacked coverage above `snd_una`.
    pub(super) scoreboard: Scoreboard,
    /// Proportional rate reduction (RFC 6937) state, valid in recovery:
    /// bytes reported delivered (acked + newly sacked) since entry,
    /// bytes sent since entry, and the flight size at entry.
    prr_delivered: u64,
    prr_out: u64,
    recover_fs: u64,
    /// One rescue retransmission (RFC 6675 NextSeg rule 4) per recovery.
    rescue_done: bool,
    /// RFC 6675 §5.1: after a retransmission timeout every unsacked
    /// segment below the then-`snd_nxt` is presumed lost (an RTO means
    /// the tail generated no SACKs at all — pure tail loss — so the
    /// scoreboard alone can never flag it). Segments below this mark
    /// leave the pipe estimate until retransmitted.
    lost_point: u64,
    /// Loss-frontier watermark: every unsacked retx entry starting below
    /// it has been examined for (and marked with) scoreboard-implied
    /// loss. Valid because `IsLost` is monotone downward in sequence
    /// space — anything below a lost segment is lost or sacked — so the
    /// per-ack scan resumes here instead of rewalking the queue.
    loss_frontier: u64,
    /// NextSeg cursor (Linux's retransmit hint; DESIGN.md §3): no entry
    /// starting below it is a rule-1 candidate. It moves back when an
    /// entry becomes lost (`lost_at`), and to 0 when an RTO clears the
    /// retransmission marks.
    retx_hint: u64,
    /// RACK's resolved prefix: every entry starting below it is sacked
    /// or RACK-marked, and both last until the entry leaves the queue.
    rack_resolved: u64,
    /// RACK delivery-time state (active only at the `RackTlp` tier).
    pub(super) rack: RackState,
    /// Earliest pending RACK reordering-window expiry, consumed by the
    /// socket's timer planning (timer arming needs the simulator, which
    /// segment processing does not hold).
    reo_deadline: Option<Timestamp>,
    /// Lexicographic high-water (last-sent time, end seq) over every
    /// RACK loss mark, reported in flow samples so a conformance audit
    /// can check marks stay behind the delivery clock. `None` until the
    /// first mark.
    pub(super) rack_mark_high: Option<(Timestamp, u64)>,
    /// Set when the delivery clock advanced since the last detection
    /// pass; RACK verdicts can only change when it does (or a recorded
    /// `reo_deadline` passes), so detection is skipped otherwise.
    rack_dirty: bool,
    /// One Tail Loss Probe per flight: set when the probe fires, cleared
    /// by the next delivery of anything.
    tlp_fired: bool,
    /// The currently *desired* probe deadline. The armed timer lags it
    /// (it is not re-armed on every flush — that would flood the event
    /// heap with dead generations); the fire handler re-arms itself
    /// forward until the desired deadline is actually due.
    tlp_deadline: Option<Timestamp>,
    /// F-RTO spurious-timeout detection phase.
    frto: FrtoState,
    /// `lost_point` before the RTO that armed F-RTO, restored when the
    /// timeout is declared spurious (the §5.1 mass-marking was wrong).
    prior_lost_point: u64,
    /// Scratch buffer for newly sacked ranges (avoids per-ack allocation).
    sack_delta: Vec<SackBlock>,
}

/// RFC 6675 NextSeg's choice.
#[derive(Debug, PartialEq)]
pub(super) enum NextSeg {
    /// Retransmit the retx entry at this index.
    Retransmit(usize),
    /// Send one segment of new data.
    NewData,
    /// Nothing is eligible.
    Nothing,
}

/// What a duplicate or cumulative ACK asks of the sender.
#[derive(Debug, PartialEq)]
pub(super) enum Verdict {
    /// Enter SACK recovery (DupThresh reached, or the head is lost).
    EnterRecovery,
    /// RFC 3042: one new segment past cwnd, peer window permitting.
    LimitedTransmit,
    /// NewReno recovery: retransmit the head at once — on the third
    /// duplicate, and on each partial ack so go-back-N accelerates past
    /// stop-and-wait.
    RetransmitHead,
    /// In SACK recovery: send what PRR allows.
    Prr,
    /// The ack covered the recovery point: recovery is over.
    Done,
    /// Not in recovery: grow the window; the ack may still reveal a loss.
    Open,
    Nothing,
}

/// F-RTO's reading of a cumulative ACK.
#[derive(Debug, PartialEq)]
pub(super) enum Frto {
    /// No probe running, or the probe concluded the loss was real.
    Undecided,
    /// The timeout was spurious and recovery's half of it is undone; the
    /// sender restores the window and drops the backoff.
    Spurious,
    /// Ambiguous: keep the ack clock moving with up to two new segments
    /// (RFC 5682 step 2b), and no selective retransmissions on this ack.
    Probe,
}

impl LossRecovery {
    pub(super) fn new(tier: RecoveryTier) -> LossRecovery {
        LossRecovery {
            tier,
            dup_acks: 0,
            recovery_point: None,
            scoreboard: Scoreboard::new(),
            prr_delivered: 0,
            prr_out: 0,
            recover_fs: 0,
            rescue_done: false,
            lost_point: 0,
            loss_frontier: 0,
            retx_hint: 0,
            rack_resolved: 0,
            rack: RackState::new(),
            reo_deadline: None,
            rack_mark_high: None,
            rack_dirty: false,
            tlp_fired: false,
            tlp_deadline: None,
            frto: FrtoState::Inactive,
            prior_lost_point: 0,
            sack_delta: Vec::new(),
        }
    }

    fn frto_armed(&self) -> bool {
        self.tier.uses_rack() && self.frto != FrtoState::Inactive
    }

    /// Is `e` wholly covered by the scoreboard?
    pub(super) fn is_sacked(&self, e: &RetxEntry) -> bool {
        self.scoreboard
            .is_sacked(e.segment.seq, e.segment.seq_end())
    }

    /// Is the outstanding segment `e` presumed lost — by the scoreboard's
    /// DupThresh evidence, by a timeout having declared everything below
    /// `lost_point` gone, or by a RACK delivery-time mark?
    pub(super) fn is_lost(&self, e: &RetxEntry) -> bool {
        let (seq, end) = (e.segment.seq, e.segment.seq_end());
        if seq < self.lost_point && !self.scoreboard.is_sacked(seq, end) {
            return true;
        }
        e.rack_lost || self.scoreboard.is_lost(seq, end)
    }

    /// NextSeg rule 1's test: unsacked, never retransmitted (since the
    /// last RTO), and presumed lost.
    fn is_candidate(&self, e: &RetxEntry) -> bool {
        !e.retransmitted && !self.is_sacked(e) && self.is_lost(e)
    }

    /// The entry starting at `seq` just became lost: NextSeg must look
    /// at it again.
    fn lost_at(&mut self, seq: u64) {
        self.retx_hint = self.retx_hint.min(seq);
    }

    /// Is the first outstanding segment presumed lost? (RFC 6675's
    /// recovery trigger alongside the DupThresh rule.)
    pub(super) fn head_is_lost(&self, retx: &RetxQueue) -> bool {
        retx.front().is_some_and(|e| self.is_lost(e))
    }

    /// Index of the highest of the first `n` retx entries that the
    /// scoreboard does not cover.
    pub(super) fn highest_unsacked_below(&self, retx: &RetxQueue, n: usize) -> Option<usize> {
        (0..n).rev().find(|&i| !self.is_sacked(&retx[i]))
    }

    /// Fold an ACK's SACK blocks into the scoreboard (nothing below the
    /// tier that negotiated SACK). Returns the newly sacked byte count;
    /// `delivered` sees each newly sacked, never-retransmitted entry —
    /// the sender's rate-sample candidates.
    pub(super) fn on_sack(
        &mut self,
        retx: &mut RetxQueue,
        blocks: &[SackBlock],
        floor: u64,
        snd_nxt: u64,
        now: Timestamp,
        mut delivered: impl FnMut(&RetxEntry),
    ) -> u64 {
        if !self.tier.uses_sack() || blocks.is_empty() {
            return 0;
        }
        let mut delta = std::mem::take(&mut self.sack_delta);
        delta.clear();
        let mut newly = 0;
        // A block reaching past `snd_nxt` claims data never sent. Trusted,
        // one such block would make the head "lost", trigger a recovery
        // with no loss and inflate PRR's delivered count; ignore it, as
        // Linux's `tcp_is_sackblock_valid` does. Correct peers never send
        // one.
        for b in blocks.iter().filter(|b| b.end <= snd_nxt) {
            newly += self
                .scoreboard
                .add_blocks_delta(std::slice::from_ref(b), floor, &mut delta);
        }
        self.apply_sack_delta(retx, &delta, now, &mut delivered);
        self.sack_delta = delta;
        newly
    }

    /// Fold newly sacked ranges into the per-entry bookkeeping: refresh
    /// pipe contributions, feed RACK's delivery clock from now-sacked
    /// segments, and retire disproven RACK loss marks (widening the
    /// reordering window — the segment arrived after all). Work is
    /// bounded by the newly covered byte count, not queue length.
    fn apply_sack_delta(
        &mut self,
        retx: &mut RetxQueue,
        delta: &[SackBlock],
        now: Timestamp,
        delivered: &mut impl FnMut(&RetxEntry),
    ) {
        let rack = self.tier.uses_rack();
        let frto_armed = self.frto_armed();
        for d in delta {
            // Entries are disjoint; the one containing d.start may begin
            // below it.
            let first = retx.lower_bound(d.start + 1).saturating_sub(1);
            for index in first..retx.lower_bound(d.end) {
                let e = &retx[index];
                let (end, sent_at, retransmitted) =
                    (e.segment.seq_end(), e.sent_at, e.retransmitted);
                if self.is_sacked(e) {
                    if !retransmitted {
                        // Unambiguous delivery: candidate for this ack's
                        // rate sample.
                        delivered(e);
                    }
                    if rack {
                        // Same ambiguity guard as the cumulative-ack
                        // path: mid-F-RTO, retransmitted deliveries
                        // don't advance the delivery clock.
                        if !(frto_armed && retransmitted) {
                            self.rack_dirty |=
                                self.rack.on_delivered(sent_at, end, retransmitted, now);
                        }
                        let marked = std::mem::take(&mut retx[index].rack_lost);
                        if marked && !retransmitted {
                            // The "lost" original was merely reordered.
                            self.rack.on_spurious_mark();
                        }
                    }
                }
                retx.refresh(index, self);
            }
        }
        if !delta.is_empty() {
            self.advance_loss_frontier(retx);
        }
    }

    /// March the loss frontier upward over entries the scoreboard now
    /// proves lost, refreshing their pipe contributions. Stops at the
    /// first unsacked entry that is not lost: `IsLost` is monotone
    /// downward, so nothing above it can be lost either.
    fn advance_loss_frontier(&mut self, retx: &mut RetxQueue) {
        for index in retx.lower_bound(self.loss_frontier)..retx.len() {
            let e = &retx[index];
            let end = e.segment.seq_end();
            if self.is_sacked(e) {
                self.loss_frontier = end;
            } else if self.is_lost(e) {
                // `IsLost` is monotone downward and the frontier moves on
                // every SACK delta, so every scoreboard loss passes here.
                self.lost_at(e.segment.seq);
                self.loss_frontier = end;
                retx.refresh(index, self);
            } else {
                return;
            }
        }
    }

    /// Something was delivered (cumulatively or by SACK): the Tail Loss
    /// Probe allowance is re-armed.
    pub(super) fn on_delivery(&mut self) {
        if self.tier.uses_rack() {
            self.tlp_fired = false;
        }
    }

    /// A cumulative ACK took `e` off the queue. Returns the bytes it adds
    /// to F-RTO's spurious-timeout evidence: fully-acked segments that
    /// were neither retransmitted since the timeout (§5.1 cleared every
    /// mark, so the flag is exactly "retransmitted since the RTO") nor
    /// already sacked before it. Such bytes can only be the *original*
    /// pre-timeout flight arriving late — delay, not loss. The
    /// per-entry filter is what RFC 5682's coarse first-ack rule lacks:
    /// with per-segment immediate acks the first post-RTO ack covers
    /// exactly the retransmitted head and the RFC algorithm would give up
    /// (DESIGN.md §3).
    pub(super) fn on_acked(&mut self, e: &RetxEntry, now: Timestamp) -> u64 {
        let frto_armed = self.frto_armed();
        let evidence = if frto_armed && !e.retransmitted && !self.is_sacked(e) {
            e.segment.seq_len()
        } else {
            0
        };
        if self.tier.uses_rack() {
            // While F-RTO is still weighing spurious-vs-real, a
            // retransmitted segment's ack is exactly the ambiguity under
            // investigation (original or copy?) — letting it advance
            // RACK's delivery clock to the retransmit time would mark the
            // entire delayed original flight lost the moment the verdict
            // lands.
            if !(frto_armed && e.retransmitted) {
                self.rack_dirty |=
                    self.rack
                        .on_delivered(e.sent_at, e.segment.seq_end(), e.retransmitted, now);
            }
            if e.rack_lost && !e.retransmitted {
                // Cumulatively acked without a retransmission: the RACK
                // mark was reordering, not loss.
                self.rack.on_spurious_mark();
            }
        }
        evidence
    }

    /// The cumulative ACK reached `ack`: drop the coverage below it.
    /// Returns the sacked bytes it swallowed — already counted into
    /// PRR's delivered total when they were sacked, so RFC 6937's
    /// DeliveredData must not count them twice.
    pub(super) fn advance(&mut self, ack: u64) -> u64 {
        let sacked_before = self.scoreboard.sacked_bytes();
        self.scoreboard.advance(ack);
        sacked_before - self.scoreboard.sacked_bytes()
    }

    /// F-RTO (RFC 5682, per-entry evidence variant): advance the
    /// spurious-timeout probe on a cumulative ACK, before any recovery
    /// retransmission — a retransmission would mark the very entries
    /// whose unretransmitted delivery is the evidence.
    pub(super) fn frto_on_ack(&mut self, retx: &mut RetxQueue, ack: u64, evidence: u64) -> Frto {
        if !self.frto_armed() {
            return Frto::Undecided;
        }
        match self.frto {
            _ if evidence > 0 => {
                // Never-retransmitted, never-sacked bytes were
                // cumulatively acked after the timeout: the original
                // flight is arriving. Spurious — undo.
                self.undo_rto(retx);
                Frto::Spurious
            }
            FrtoState::RtoSent { retx_end } => {
                let covers_recovery = matches!(self.recovery_point, Some(rp) if ack >= rp);
                if covers_recovery || ack > retx_end {
                    // The flight is fully accounted for, or the ack ran
                    // past the retransmission on previously-sacked
                    // coverage only: genuine loss, recover conventionally.
                    self.frto = FrtoState::Inactive;
                    Frto::Undecided
                } else {
                    // Exactly the retransmitted head was acked —
                    // ambiguous (original or retransmission?). Let the
                    // next ack decide.
                    self.frto = FrtoState::NewDataSent { retx_end };
                    Frto::Probe
                }
            }
            FrtoState::NewDataSent { .. } => {
                // A further cumulative ack with no unretransmitted
                // evidence: the retransmissions are what's being acked.
                // Genuine loss.
                self.frto = FrtoState::Inactive;
                Frto::Undecided
            }
            FrtoState::Inactive => Frto::Undecided,
        }
    }

    /// F-RTO verdict: the timeout was spurious — the flight was delayed,
    /// not lost. Undo recovery's half of what the timeout did: retract
    /// the §5.1 mass loss-marking and leave recovery. (The sender
    /// restores the congestion window and drops the RTO backoff — the
    /// long-unwired `RttEstimator::reset_backoff`, finally behind
    /// validated forward progress.)
    fn undo_rto(&mut self, retx: &mut RetxQueue) {
        self.frto = FrtoState::Inactive;
        self.recovery_point = None;
        self.dup_acks = 0;
        self.lost_point = self.prior_lost_point;
        // The mass-marking is retracted wholesale, so per-entry deltas
        // would touch everything anyway; rebuild and rescan.
        retx.rebuild(self);
        self.loss_frontier = 0;
        self.advance_loss_frontier(retx);
    }

    /// What a cumulative ACK to `ack` does to recovery, `delivered` being
    /// its DeliveredData (RFC 6937).
    pub(super) fn on_cumulative_ack(&mut self, ack: u64, delivered: u64) -> Verdict {
        match self.recovery_point {
            Some(rp) if ack >= rp => {
                self.recovery_point = None;
                self.dup_acks = 0;
                Verdict::Done
            }
            Some(_) if self.tier.uses_sack() => {
                // Feed PRR with the delivered bytes and let the scoreboard
                // pick the selective retransmissions — no go-back-N.
                self.prr_delivered += delivered;
                Verdict::Prr
            }
            Some(_) => Verdict::RetransmitHead,
            None => {
                self.dup_acks = 0;
                Verdict::Open
            }
        }
    }

    /// What a duplicate ACK (with SACK, usually carrying new blocks) does.
    pub(super) fn on_dup_ack(
        &mut self,
        retx: &mut RetxQueue,
        snd_nxt: u64,
        newly_sacked: u64,
        now: Timestamp,
        stats: &mut TcpStats,
    ) -> Verdict {
        self.dup_acks += 1;
        // A dup ack is conventional-recovery evidence: any F-RTO probe in
        // flight concludes "not spurious" (RFC 5682 step 3).
        self.frto = FrtoState::Inactive;
        self.rack_detect(retx, now, stats);
        match (self.recovery_point, self.tier.uses_sack()) {
            (None, true) if self.dup_acks >= DUP_THRESH as u32 || self.head_is_lost(retx) => {
                Verdict::EnterRecovery
            }
            (None, true) => Verdict::LimitedTransmit,
            (None, false) if self.dup_acks == 3 => {
                self.recovery_point = Some(snd_nxt);
                Verdict::RetransmitHead
            }
            (Some(_), true) => {
                self.prr_delivered += newly_sacked;
                Verdict::Prr
            }
            _ => Verdict::Nothing,
        }
    }

    /// Enter SACK recovery at `snd_nxt` with `flight` bytes outstanding.
    pub(super) fn enter(&mut self, snd_nxt: u64, flight: u64) {
        self.recovery_point = Some(snd_nxt);
        self.reset_prr(flight);
    }

    /// Restart PRR — and the rescue allowance — from a flight of
    /// `flight` bytes.
    fn reset_prr(&mut self, flight: u64) {
        self.prr_delivered = 0;
        self.prr_out = 0;
        self.recover_fs = flight.max(1);
        self.rescue_done = false;
    }

    /// This ack's proportional-rate-reduction send budget (RFC 6937's
    /// sndcnt), given the current pipe. Computed ONCE per ack, not per
    /// segment — recomputing the slow-start bound inside the send loop
    /// would hand every ack an unbounded burst.
    pub(super) fn prr_budget(&self, pipe: u64, ssthresh: u64) -> u64 {
        if pipe > ssthresh {
            // Proportional phase: delivery rate scaled by the target
            // reduction, ssthresh / recover_fs.
            (self.prr_delivered * ssthresh)
                .div_ceil(self.recover_fs)
                .saturating_sub(self.prr_out)
        } else {
            // Slow-start reduction bound: at most one extra MSS over
            // what was delivered, never overfilling past ssthresh.
            (ssthresh - pipe).min(self.prr_delivered.saturating_sub(self.prr_out) + MSS as u64)
        }
    }

    /// Recovery sent `bytes` of sequence space.
    pub(super) fn on_sent(&mut self, bytes: u64) {
        self.prr_out += bytes;
    }

    /// RFC 6675 NextSeg: the next segment to send during SACK recovery.
    /// `new_data_ok` says whether the peer's window takes a new segment
    /// (PRR owns the congestion budget).
    ///
    /// 1. the first unsacked, unretransmitted segment presumed lost;
    /// 2. otherwise new, never-sent data;
    /// 3. otherwise one rescue retransmission per recovery of the highest
    ///    unsacked segment, so a lost *retransmission* of the final hole
    ///    cannot strand the connection until RTO. (RFC 6675's rule 3 —
    ///    blind retransmission of in-flight, not-yet-lost segments — is
    ///    deliberately omitted, as in Linux: under AQM it turns every
    ///    recovery into spurious duplicate traffic on a loaded link.)
    pub(super) fn next_seg(
        &mut self,
        retx: &RetxQueue,
        new_data_ok: bool,
        stats: &mut TcpStats,
    ) -> NextSeg {
        let Some(rp) = self.recovery_point else {
            return NextSeg::Nothing;
        };
        let below_rp = retx.lower_bound(rp);
        let from = retx.lower_bound(self.retx_hint);
        let rule1 = (from..below_rp).find(|&index| {
            stats.next_seg_visits += 1;
            self.is_candidate(&retx[index])
        });
        stats.next_seg_calls += 1;
        debug_assert_eq!(
            rule1,
            retx.iter()
                .take(below_rp)
                .position(|e| self.is_candidate(e)),
            "the NextSeg cursor skipped a candidate"
        );
        self.retx_hint = rule1.map_or(rp, |index| retx[index].segment.seq);
        if let Some(index) = rule1 {
            return NextSeg::Retransmit(index);
        }
        if new_data_ok {
            return NextSeg::NewData;
        }
        if !self.rescue_done {
            if let Some(index) = self.highest_unsacked_below(retx, below_rp) {
                self.rescue_done = true;
                return NextSeg::Retransmit(index);
            }
        }
        NextSeg::Nothing
    }

    /// RACK loss detection (RFC 8985): mark outstanding segments lost
    /// when the delivery clock has overtaken them by more than the
    /// reordering window, and remember the earliest future expiry so the
    /// reordering timer can re-check. No-op outside the RackTlp tier.
    pub(super) fn rack_detect(
        &mut self,
        retx: &mut RetxQueue,
        now: Timestamp,
        stats: &mut TcpStats,
    ) {
        if !self.tier.uses_rack() || !self.rack.has_delivery() {
            return;
        }
        // Verdicts change only when the delivery clock advances or a
        // previously recorded reordering-window deadline passes; skip
        // the queue scan otherwise (it would be a per-ack O(n) walk —
        // the same hot-path cost the incremental pipe removed).
        let deadline_due = self.reo_deadline.is_some_and(|d| d <= now);
        if !self.rack_dirty && !deadline_due {
            return;
        }
        self.rack_dirty = false;
        let Some(clock) = self.rack.clock() else {
            return;
        };
        stats.rack_scans += 1;
        let walk = cfg!(debug_assertions).then(|| self.rack_walk(retx, now, clock));
        // The scan starts past the resolved prefix and jumps over each
        // sacked range with one search, so it visits the unresolved
        // entries below the delivery clock, not the flight.
        let (mut resolved, mut marks, mut next) = (true, 0, None);
        let mut index = retx.lower_bound(self.rack_resolved);
        while index < retx.len() {
            stats.rack_scan_visits += 1;
            let e = &retx[index];
            let (seq, end) = (e.segment.seq, e.segment.seq_end());
            if first_sent_since(e, clock) {
                break;
            }
            if let Some(range_end) = self.sacked_range_end(e) {
                // Every entry inside the range is sacked; one straddling
                // its end is not, and is visited next.
                index = retx.lower_bound(range_end);
                index -= usize::from(retx[index - 1].segment.seq_end() > range_end);
            } else {
                index += 1;
                if !e.rack_lost && self.rack.sent_after(e.sent_at, end) {
                    let sent_at = e.sent_at;
                    let deadline = self.rack.lost_deadline(sent_at);
                    if deadline <= now {
                        // A mark touches nothing the rest of the scan reads.
                        retx[index - 1].rack_lost = true;
                        stats.rack_loss_marks += 1;
                        marks = fold_mark(marks, seq);
                        if self.rack_mark_high.is_none_or(|high| high < (sent_at, end)) {
                            self.rack_mark_high = Some((sent_at, end));
                        }
                        self.lost_at(seq);
                        retx.refresh(index - 1, self);
                    } else {
                        next = Some(next.map_or(deadline, |d: Timestamp| d.min(deadline)));
                    }
                }
                resolved &= retx[index - 1].rack_lost;
            }
            if resolved {
                self.rack_resolved = retx[index - 1].segment.seq_end();
            }
        }
        debug_assert!(
            walk.is_none_or(|walk| walk == (marks, next)),
            "the RACK scan disagrees with the full walk"
        );
        self.reo_deadline = next;
    }

    /// The end of the scoreboard range wholly covering `e`, if one does
    /// (`Scoreboard::is_sacked`'s search, keeping the range).
    fn sacked_range_end(&self, e: &RetxEntry) -> Option<u64> {
        let (seq, end) = (e.segment.seq, e.segment.seq_end());
        let ranges = self.scoreboard.ranges();
        let r = ranges.get(ranges.partition_point(|r| r.end < end))?;
        (r.start <= seq).then_some(r.end)
    }

    /// The definitional RACK walk from the head, marking nothing: the
    /// marks a scan should fold and its earliest pending deadline.
    fn rack_walk(
        &self,
        retx: &RetxQueue,
        now: Timestamp,
        clock: (Timestamp, u64),
    ) -> (u64, Option<Timestamp>) {
        let (mut marks, mut next) = (0, None);
        for e in retx.iter().take_while(|e| !first_sent_since(e, clock)) {
            if e.rack_lost
                || self.is_sacked(e)
                || !self.rack.sent_after(e.sent_at, e.segment.seq_end())
            {
                continue;
            }
            let deadline = self.rack.lost_deadline(e.sent_at);
            if deadline <= now {
                marks = fold_mark(marks, e.segment.seq);
            } else {
                next = Some(next.map_or(deadline, |d: Timestamp| d.min(deadline)));
            }
        }
        (marks, next)
    }

    /// The Tail Loss Probe deadline the timer should hold now, recorded
    /// as the desired one: only while data is `outstanding`, out of
    /// recovery, with the probe allowance unspent and no timeout in this
    /// episode, and strictly *before* the armed RTO — a probe that would
    /// fire at or after the RTO is pointless and forbidden. `None` below
    /// the RackTlp tier.
    pub(super) fn plan_tlp(
        &mut self,
        outstanding: bool,
        timeouts: u32,
        srtt: Option<SimDuration>,
        rto_at: Timestamp,
        now: Timestamp,
    ) -> Option<Timestamp> {
        if !self.tier.uses_rack() {
            return None;
        }
        let desired =
            if outstanding && self.recovery_point.is_none() && !self.tlp_fired && timeouts == 0 {
                // RFC 8985's PTO: two round trips for the probe's ack to
                // return, plus slack for ack jitter.
                srtt.map(|srtt| now + srtt.saturating_mul(2) + TLP_SLACK)
                    .filter(|&at| at < rto_at)
            } else {
                None
            };
        self.tlp_deadline = desired;
        desired
    }

    /// The reordering-window expiry the timer should hold now. A
    /// recorded expiry can already be due (detection is gated and may
    /// not have rechecked since): fire as soon as possible, never in the
    /// past.
    pub(super) fn plan_reo(&self, outstanding: bool, now: Timestamp) -> Option<Timestamp> {
        self.reo_deadline
            .filter(|_| outstanding)
            .map(|at| at.max(now))
    }

    /// The desired probe deadline, when a probe may be sent at all
    /// (RackTlp tier, out of recovery).
    pub(super) fn tlp_deadline(&self) -> Option<Timestamp> {
        self.tlp_deadline
            .filter(|_| self.tier.uses_rack() && self.recovery_point.is_none())
    }

    /// The probe fired: spend the allowance until the next delivery.
    pub(super) fn on_tlp_fired(&mut self) {
        self.tlp_fired = true;
        self.tlp_deadline = None;
    }

    /// A retransmission timeout fired with `flight` bytes outstanding up
    /// to `snd_nxt`; `first_timeout` says no earlier one fired in this
    /// episode. Returns the entry to retransmit.
    pub(super) fn on_rto(
        &mut self,
        retx: &mut RetxQueue,
        snd_nxt: u64,
        flight: u64,
        first_timeout: bool,
    ) -> Option<usize> {
        // F-RTO (RFC 5682) eligibility: RackTlp tier, first timeout of
        // this episode, not already inside a loss recovery. Capture the
        // pre-timeout loss watermark so a spurious verdict can retract
        // the §5.1 mass-marking.
        let frto_eligible = self.tier.uses_rack() && first_timeout && self.recovery_point.is_none();
        if frto_eligible {
            self.prior_lost_point = self.lost_point;
        } else {
            // A repeated or in-recovery RTO muddies the evidence a probe
            // in flight was collecting (RFC 5682 applies F-RTO to the
            // first timeout only).
            self.frto = FrtoState::Inactive;
        }
        // Keep a recovery point so every partial ACK immediately
        // retransmits the next hole (otherwise each lost segment would
        // cost its own RTO — catastrophic under burst loss).
        self.recovery_point = Some(snd_nxt);
        self.dup_acks = 0;
        // Timers subordinate to the RTO are void once it fires.
        self.reo_deadline = None;
        self.tlp_deadline = None;
        self.tlp_fired = false;
        if !self.tier.uses_sack() {
            return (!retx.is_empty()).then_some(0);
        }
        // RFC 6675 §5.1: an RTO clears the per-segment retransmission
        // marks (Karn's rule), keeps the sacked coverage (this receiver
        // never reneges), and declares every unsacked outstanding
        // segment lost — an RTO means the tail produced no SACKs, so the
        // scoreboard alone could never flag it. Recovery restarts PRR
        // from the post-timeout flight and resends the first actual
        // hole.
        for e in retx.iter_mut() {
            e.retransmitted = false;
        }
        self.retx_hint = 0;
        self.lost_point = snd_nxt;
        self.reset_prr(flight);
        // The mass-marking flips most contributions at once; rebuild the
        // incremental pipe rather than diffing.
        retx.rebuild(self);
        self.loss_frontier = snd_nxt;
        let first_hole = retx.iter().position(|e| !self.is_sacked(e))?;
        if frto_eligible {
            self.frto = FrtoState::RtoSent {
                retx_end: retx[first_hole].segment.seq_end(),
            };
        }
        Some(first_hole)
    }

    /// The connection is gone: nothing left to recover.
    pub(super) fn clear(&mut self) {
        self.reo_deadline = None;
        self.tlp_deadline = None;
        self.frto = FrtoState::Inactive;
        self.scoreboard.clear();
    }
}

/// Fold a RACK mark's start into a scan's record of its marks, in scan
/// order: the debug cross-check compares two such records.
fn fold_mark(marks: u64, seq: u64) -> u64 {
    marks.wrapping_mul(0x0000_0100_0000_01b3) ^ (seq + 1)
}

/// Was `e` first sent at or after the delivery clock (same tiebreak as
/// `RackState::sent_after`)? First-transmission (time, end) pairs are
/// monotone in sequence order, so then is everything above it, and a
/// RACK scan has no further candidates. This keeps the common in-order
/// case O(1): the head's first transmission already postdates the
/// newest delivery, including in zero-latency worlds where whole
/// windows share one timestamp.
fn first_sent_since(e: &RetxEntry, (ts, end): (Timestamp, u64)) -> bool {
    e.first_sent_at > ts || (e.first_sent_at == ts && e.segment.seq_end() >= end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{TcpFlags, TcpSegment};
    use crate::tcp::rate::TxRecord;
    use bytes::Bytes;

    const M: u64 = MSS as u64;
    const T0: Timestamp = Timestamp::ZERO;

    /// `n` MSS-sized segments from sequence 0, all sent at `T0`.
    fn flight(n: u64) -> RetxQueue {
        let mut retx = RetxQueue::default();
        for i in 0..n {
            let segment = TcpSegment {
                flags: TcpFlags::ACK,
                seq: i * M,
                ack: 0,
                window: 0,
                sack: Default::default(),
                payload: Bytes::from(vec![0; MSS]),
            };
            retx.push(segment, T0, TxRecord::default());
        }
        retx
    }

    /// Fold one SACK block `[start, end)` (in segments) into `rec`.
    fn sack(rec: &mut LossRecovery, retx: &mut RetxQueue, start: u64, end: u64) -> u64 {
        let block = SackBlock::new(start * M, end * M);
        rec.on_sack(retx, &[block], 0, snd_nxt(retx), T0, |_| {})
    }

    /// Where the queue's last entry ends.
    fn snd_nxt(retx: &RetxQueue) -> u64 {
        retx.iter().last().map_or(0, |e| e.segment.seq_end())
    }

    /// NextSeg's choice, its visit counters thrown away.
    fn next_seg(rec: &mut LossRecovery, retx: &RetxQueue, new_data_ok: bool) -> NextSeg {
        rec.next_seg(retx, new_data_ok, &mut TcpStats::default())
    }

    /// What the sender does with a retransmission NextSeg picked.
    fn retransmitted(rec: &LossRecovery, retx: &mut RetxQueue, index: usize) {
        retx[index].retransmitted = true;
        retx.refresh(index, rec);
    }

    #[test]
    fn next_seg_sends_lost_holes_then_new_data_then_one_rescue() {
        let mut rec = LossRecovery::new(RecoveryTier::Sack);
        let mut retx = flight(6);
        // Three segments sacked above the first three: more than
        // (DupThresh - 1) × MSS above each, so all three are lost.
        assert_eq!(sack(&mut rec, &mut retx, 3, 6), 3 * M);
        assert!(rec.head_is_lost(&retx));
        rec.enter(6 * M, 6 * M);
        for hole in 0..3 {
            assert_eq!(next_seg(&mut rec, &retx, true), NextSeg::Retransmit(hole));
            retransmitted(&rec, &mut retx, hole);
        }
        // No unretransmitted hole is left: new data while the peer's
        // window takes it…
        assert_eq!(next_seg(&mut rec, &retx, true), NextSeg::NewData);
        // …else one rescue of the highest unsacked segment, and only one.
        assert_eq!(next_seg(&mut rec, &retx, false), NextSeg::Retransmit(2));
        assert_eq!(next_seg(&mut rec, &retx, false), NextSeg::Nothing);
        // A new recovery earns a new rescue.
        rec.enter(6 * M, 6 * M);
        assert_eq!(next_seg(&mut rec, &retx, false), NextSeg::Retransmit(2));
    }

    /// Fold SACK blocks, given in segments, into `rec` at `now`.
    fn sack_at(
        rec: &mut LossRecovery,
        retx: &mut RetxQueue,
        blocks: &[(f64, f64)],
        now: Timestamp,
    ) {
        let m = M as f64;
        let blocks: Vec<_> = blocks
            .iter()
            .map(|&(start, end)| SackBlock::new((start * m) as u64, (end * m) as u64))
            .collect();
        rec.on_sack(retx, &blocks, 0, snd_nxt(retx), now, |_| {});
    }

    /// Retransmit NextSeg's picks until it offers new data; the picks.
    fn repair_holes(rec: &mut LossRecovery, retx: &mut RetxQueue) -> Vec<usize> {
        let mut picks = Vec::new();
        while let NextSeg::Retransmit(index) = next_seg(rec, retx, true) {
            retransmitted(rec, retx, index);
            picks.push(index);
        }
        picks
    }

    #[test]
    fn an_rto_puts_retransmitted_holes_below_the_cursor_back_in_play() {
        let mut rec = LossRecovery::new(RecoveryTier::Sack);
        let mut retx = flight(6);
        sack(&mut rec, &mut retx, 3, 6);
        rec.enter(6 * M, 6 * M);
        assert_eq!(repair_holes(&mut rec, &mut retx), [0, 1, 2]);
        // The cursor now sits at the recovery point. The timeout clears
        // every retransmission mark: the three holes are candidates again.
        assert_eq!(rec.on_rto(&mut retx, 6 * M, 3 * M, true), Some(0));
        retransmitted(&rec, &mut retx, 0);
        assert_eq!(next_seg(&mut rec, &retx, true), NextSeg::Retransmit(1));
    }

    #[test]
    fn a_rack_mark_below_the_cursor_puts_that_entry_in_play() {
        let mut rec = LossRecovery::new(RecoveryTier::RackTlp);
        let mut retx = flight(4);
        rec.enter(4 * M, 4 * M);
        // Nothing is lost yet: the cursor passes every entry.
        assert_eq!(next_seg(&mut rec, &retx, true), NextSeg::NewData);
        // One segment sacked above two holes: no scoreboard loss, but
        // RACK marks both once the reordering window has passed.
        let (ms, mut stats) = (Timestamp::from_millis, TcpStats::default());
        sack_at(&mut rec, &mut retx, &[(2.0, 3.0)], ms(10));
        rec.rack_detect(&mut retx, ms(10), &mut stats);
        assert!(!rec.is_lost(&retx[0]));
        rec.rack_detect(&mut retx, ms(13), &mut stats);
        assert_eq!(stats.rack_loss_marks, 2);
        assert_eq!(next_seg(&mut rec, &retx, true), NextSeg::Retransmit(0));
    }

    #[test]
    fn a_sack_above_an_earlier_entry_puts_it_in_play() {
        let mut rec = LossRecovery::new(RecoveryTier::Sack);
        let mut retx = flight(8);
        rec.enter(8 * M, 8 * M);
        assert_eq!(next_seg(&mut rec, &retx, true), NextSeg::NewData);
        // Three segments sacked above the first three make them lost.
        sack(&mut rec, &mut retx, 3, 6);
        assert_eq!(repair_holes(&mut rec, &mut retx), [0, 1, 2]);
    }

    /// An undo only retracts losses, so it needs no hook: nothing below
    /// the cursor can become a candidate.
    #[test]
    fn an_frto_undo_leaves_the_cursor_right() {
        let mut rec = LossRecovery::new(RecoveryTier::RackTlp);
        let mut retx = flight(6);
        assert_eq!(rec.on_rto(&mut retx, 6 * M, 6 * M, true), Some(0));
        retransmitted(&rec, &mut retx, 0);
        // Every unsacked entry is presumed lost: the cursor moves to the
        // second.
        assert_eq!(next_seg(&mut rec, &retx, true), NextSeg::Retransmit(1));
        retransmitted(&rec, &mut retx, 1);
        // The original head arrives: spurious, and the §5.1 marks go.
        assert_eq!(rec.frto_on_ack(&mut retx, M, M), Frto::Spurious);
        retx.pop_front();
        rec.advance(M);
        // Three segments sacked above the third make it lost again.
        sack(&mut rec, &mut retx, 3, 6);
        rec.enter(6 * M, 5 * M);
        assert_eq!(next_seg(&mut rec, &retx, false), NextSeg::Retransmit(1));
    }

    /// The new recovery's holes lie above the old recovery point, and so
    /// above the cursor: `enter` needs no hook. The cursor is a sequence
    /// number, so the acked head's removal needs no fix-up either.
    #[test]
    fn a_second_recovery_with_a_higher_recovery_point_finds_its_holes() {
        let mut rec = LossRecovery::new(RecoveryTier::Sack);
        let mut retx = flight(6);
        sack(&mut rec, &mut retx, 3, 6);
        rec.enter(6 * M, 6 * M);
        assert_eq!(repair_holes(&mut rec, &mut retx), [0, 1, 2]);
        // Recovery sends four new segments and ends at its point.
        let more = flight(10);
        for e in more.iter().skip(6) {
            retx.push(e.segment.clone(), T0, TxRecord::default());
        }
        while retx.front().is_some_and(|e| e.segment.seq < 6 * M) {
            retx.pop_front();
        }
        rec.advance(6 * M);
        assert_eq!(rec.on_cumulative_ack(6 * M, 0), Verdict::Done);
        // The head of the new flight is lost under a higher point.
        sack(&mut rec, &mut retx, 7, 10);
        rec.enter(10 * M, 4 * M);
        assert_eq!(repair_holes(&mut rec, &mut retx), [0]);
    }

    #[test]
    fn the_rack_scan_visits_an_entry_straddling_a_sacked_range() {
        let mut rec = LossRecovery::new(RecoveryTier::RackTlp);
        let mut retx = flight(5);
        let (ms, mut stats) = (Timestamp::from_millis, TcpStats::default());
        // The first block ends inside entry 2, which is not sacked.
        sack_at(&mut rec, &mut retx, &[(1.0, 2.5), (4.0, 5.0)], ms(10));
        rec.rack_detect(&mut retx, ms(13), &mut stats);
        let marked: Vec<bool> = retx.iter().map(|e| e.rack_lost).collect();
        assert_eq!(marked, [true, false, true, true, false]);
    }

    #[test]
    fn prr_is_proportional_above_ssthresh_and_slow_start_bounded_below() {
        let mut rec = LossRecovery::new(RecoveryTier::Sack);
        let ssthresh = 5 * M;
        rec.enter(10 * M, 10 * M);
        assert_eq!(rec.on_cumulative_ack(M, 2 * M), Verdict::Prr);
        // pipe > ssthresh: delivered × ssthresh / RecoverFS − out.
        assert_eq!(rec.prr_budget(8 * M, ssthresh), M);
        rec.on_sent(M);
        assert_eq!(rec.prr_budget(8 * M, ssthresh), 0);
        // pipe ≤ ssthresh: never more than delivered − out + MSS, and
        // never past ssthresh.
        assert_eq!(rec.prr_budget(2 * M, ssthresh), 2 * M);
        assert_eq!(rec.prr_budget(4 * M, ssthresh), M);
    }

    #[test]
    fn rto_marks_every_unsacked_entry_lost_and_frto_undoes_it() {
        let mut rec = LossRecovery::new(RecoveryTier::RackTlp);
        let mut retx = flight(6);
        sack(&mut rec, &mut retx, 3, 4);
        let before = retx.pipe(&rec);
        assert_eq!(before, 5 * M);
        assert_eq!(rec.on_rto(&mut retx, 6 * M, 6 * M, true), Some(0));
        for i in [0, 1, 2, 4, 5] {
            assert!(rec.is_lost(&retx[i]), "entry {i} presumed lost");
        }
        assert_eq!(retx.pipe(&rec), 0);
        retransmitted(&rec, &mut retx, 0);
        assert_eq!(retx.pipe(&rec), M);
        // The original flight's unretransmitted bytes arrive: spurious.
        assert_eq!(rec.frto_on_ack(&mut retx, 2 * M, M), Frto::Spurious);
        assert_eq!(rec.lost_point, 0);
        assert!(rec.recovery_point.is_none());
        assert_eq!(retx.pipe(&rec), before);
    }

    #[test]
    fn frto_probes_on_an_ambiguous_ack_and_gives_up_on_the_next() {
        let mut rec = LossRecovery::new(RecoveryTier::RackTlp);
        let mut retx = flight(4);
        rec.on_rto(&mut retx, 4 * M, 4 * M, true);
        retransmitted(&rec, &mut retx, 0);
        // Exactly the retransmitted head acked: original or copy?
        assert_eq!(rec.frto_on_ack(&mut retx, M, 0), Frto::Probe);
        // Still no unretransmitted evidence: the loss was real.
        assert_eq!(rec.frto_on_ack(&mut retx, 2 * M, 0), Frto::Undecided);
        assert_eq!(rec.frto, FrtoState::Inactive);
    }

    #[test]
    fn reno_never_touches_the_scoreboard() {
        let mut rec = LossRecovery::new(RecoveryTier::Reno);
        let mut retx = flight(6);
        assert_eq!(sack(&mut rec, &mut retx, 3, 6), 0);
        assert!(rec.scoreboard.ranges().is_empty());
        let mut stats = TcpStats::default();
        for dup in 1..=3 {
            let verdict = rec.on_dup_ack(&mut retx, 6 * M, 0, T0, &mut stats);
            let expect = if dup == 3 {
                Verdict::RetransmitHead
            } else {
                Verdict::Nothing
            };
            assert_eq!(verdict, expect);
        }
        assert_eq!(rec.on_rto(&mut retx, 6 * M, 6 * M, true), Some(0));
        assert_eq!(rec.lost_point, 0, "no §5.1 marking below SACK");
        assert!(rec.scoreboard.ranges().is_empty());
        assert_eq!(retx.pipe(&rec), 6 * M);
    }

    #[test]
    fn a_sack_block_past_snd_nxt_is_ignored() {
        let mut rec = LossRecovery::new(RecoveryTier::Sack);
        let mut retx = flight(4);
        // Three segments' worth reported above the four ever sent.
        let bogus = SackBlock::new(4 * M, 7 * M);
        assert_eq!(rec.on_sack(&mut retx, &[bogus], 0, 4 * M, T0, |_| {}), 0);
        assert!(rec.scoreboard.ranges().is_empty());
        assert!(!rec.head_is_lost(&retx));
        // A valid block in the same option still counts.
        let valid = SackBlock::new(2 * M, 3 * M);
        let newly = rec.on_sack(&mut retx, &[bogus, valid], 0, 4 * M, T0, |_| {});
        assert_eq!(newly, M);
    }
}
