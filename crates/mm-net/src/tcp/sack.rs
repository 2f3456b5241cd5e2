//! Selective acknowledgment (RFC 2018) and SACK-based loss recovery
//! (RFC 6675), split into the two halves a real stack has:
//!
//! * `ReceiverSack` — the receiver's block generator: folds the
//!   out-of-order reassembly queue into at most
//!   `MAX_SACK_BLOCKS` disjoint ranges,
//!   with the block containing the most recently arrived segment first
//!   (RFC 2018 §4's ordering rule, which is what lets a sender survive
//!   option-space truncation).
//! * [`Scoreboard`] — the sender's view of which bytes above `snd_una`
//!   the peer holds. Implements the RFC 6675 primitives the socket's
//!   recovery loop is built from: `IsLost` (the DupThresh rule), pipe
//!   accounting (how many bytes are estimated to still be in the
//!   network), and the block bookkeeping they both need.
//!
//! The scoreboard stores sacked coverage as a sorted, disjoint,
//! non-adjacent list of `[start, end)` ranges — the invariants the
//! property tests in `tests/proptests.rs` pin down. The receiver never
//! reneges in this model (delivered bytes are never dropped), so the
//! sender may safely treat sacked ranges as delivered.

use crate::packet::{SackBlock, SackBlocks, MAX_SACK_BLOCKS, MSS};

/// RFC 6675's DupThresh: the classic three duplicate ACKs.
pub(crate) const DUP_THRESH: u64 = 3;

/// The receiver half: generates SACK blocks describing the out-of-order
/// queue. Kept as its own small state machine because RFC 2018's ordering
/// rule needs memory of which range changed most recently.
#[derive(Debug, Default)]
pub(crate) struct ReceiverSack {
    /// The range most recently extended by an arriving segment; reported
    /// first so a sender with truncated option space still learns about
    /// the newest hole edge.
    recent: Option<SackBlock>,
}

impl ReceiverSack {
    pub(crate) fn new() -> ReceiverSack {
        ReceiverSack::default()
    }

    /// Record an out-of-order arrival covering `[seq, seq_end)`.
    pub(crate) fn on_arrival(&mut self, seq: u64, seq_end: u64) {
        if seq < seq_end {
            self.recent = Some(SackBlock::new(seq, seq_end));
        }
    }

    /// Everything below `rcv_nxt` is cumulatively acked; forget a recent
    /// block the cumulative ACK has swallowed.
    pub(crate) fn on_advance(&mut self, rcv_nxt: u64) {
        if let Some(r) = self.recent {
            if r.end <= rcv_nxt {
                self.recent = None;
            }
        }
    }

    /// Build the option's blocks from the out-of-order queue (`ooo`
    /// iterates `(seq, len)` in ascending seq order). Contiguous and
    /// overlapping entries coalesce; the block containing the most recent
    /// arrival goes first, then the others in order, at most
    /// `MAX_SACK_BLOCKS` in all.
    pub(crate) fn blocks(&self, ooo: impl Iterator<Item = (u64, u64)>, rcv_nxt: u64) -> SackBlocks {
        let mut first = None;
        let mut rest = [SackBlock { start: 0, end: 0 }; MAX_SACK_BLOCKS];
        let mut n = 0;
        let mut emit = |r: SackBlock| match self.recent {
            Some(x) if first.is_none() && r.start <= x.start && x.end <= r.end => first = Some(r),
            _ if n < MAX_SACK_BLOCKS => {
                rest[n] = r;
                n += 1;
            }
            _ => {}
        };
        // The range still growing as the walk goes up the queue.
        let mut open: Option<SackBlock> = None;
        for (seq, len) in ooo {
            let (start, end) = (seq.max(rcv_nxt), seq + len);
            match &mut open {
                _ if start >= end => {}
                Some(r) if start <= r.end => r.end = r.end.max(end),
                _ => {
                    if let Some(done) = open.replace(SackBlock { start, end }) {
                        emit(done);
                    }
                }
            }
        }
        if let Some(done) = open {
            emit(done);
        }
        let mut blocks = SackBlocks::default();
        for r in first
            .into_iter()
            .chain(rest[..n].iter().copied())
            .take(MAX_SACK_BLOCKS)
        {
            blocks.push(r);
        }
        blocks
    }
}

/// The sender half: sacked coverage above the cumulative ACK, as a
/// sorted, disjoint, non-adjacent range list.
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// Sorted, disjoint, non-adjacent `[start, end)` sacked ranges, all
    /// at or above the last `advance()` point.
    ranges: Vec<SackBlock>,
}

impl Scoreboard {
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    /// Merge the blocks of an incoming ACK. Returns the number of newly
    /// sacked bytes (the "delivered" increment PRR feeds on).
    pub fn add_blocks(&mut self, blocks: &[SackBlock], snd_una: u64) -> u64 {
        let mut scratch = Vec::new();
        self.add_blocks_delta(blocks, snd_una, &mut scratch)
    }

    /// Like [`add_blocks`](Scoreboard::add_blocks), additionally pushing
    /// the *newly covered* sub-ranges onto `delta` (not cleared first).
    /// The deltas are what incremental consumers — the socket's pipe
    /// counter and RACK's delivery clock — feed on: re-reported coverage
    /// costs nothing, so per-ack work is bounded by newly sacked bytes,
    /// not by how much old coverage the peer repeats.
    pub(crate) fn add_blocks_delta(
        &mut self,
        blocks: &[SackBlock],
        snd_una: u64,
        delta: &mut Vec<SackBlock>,
    ) -> u64 {
        let mut newly = 0;
        for b in blocks {
            let start = b.start.max(snd_una);
            if start >= b.end {
                continue;
            }
            newly += self.insert(SackBlock::new(start, b.end), delta);
        }
        newly
    }

    /// Insert one block, pushing newly covered sub-ranges onto `delta`
    /// and returning the newly covered byte count.
    fn insert(&mut self, b: SackBlock, delta: &mut Vec<SackBlock>) -> u64 {
        // Find the insertion window of ranges overlapping or adjacent to b.
        let lo = self.ranges.partition_point(|r| r.end < b.start);
        let hi = self.ranges.partition_point(|r| r.start <= b.end);
        // The gaps of [b.start, b.end) not covered by existing ranges.
        let mut newly = 0;
        let mut cursor = b.start;
        for r in &self.ranges[lo..hi] {
            if r.start > cursor {
                let gap_end = r.start.min(b.end);
                if cursor < gap_end {
                    delta.push(SackBlock::new(cursor, gap_end));
                    newly += gap_end - cursor;
                }
            }
            cursor = cursor.max(r.end);
        }
        if cursor < b.end {
            delta.push(SackBlock::new(cursor, b.end));
            newly += b.end - cursor;
        }
        if lo == hi {
            self.ranges.insert(lo, b);
            return newly;
        }
        let start = self.ranges[lo].start.min(b.start);
        let end = self.ranges[hi - 1].end.max(b.end);
        self.ranges.drain(lo..hi);
        self.ranges.insert(lo, SackBlock::new(start, end));
        newly
    }

    /// The cumulative ACK advanced: drop coverage below `snd_una`.
    pub fn advance(&mut self, snd_una: u64) {
        self.ranges.retain_mut(|r| {
            if r.end <= snd_una {
                return false;
            }
            if r.start < snd_una {
                r.start = snd_una;
            }
            true
        });
    }

    /// Forget everything (connection teardown or full recovery exit).
    pub(crate) fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Total sacked bytes currently tracked.
    pub fn sacked_bytes(&self) -> u64 {
        self.ranges.iter().map(|r| r.len()).sum()
    }

    /// The current ranges (tests and diagnostics).
    pub fn ranges(&self) -> &[SackBlock] {
        &self.ranges
    }

    /// Is `[start, end)` entirely sacked?
    pub(crate) fn is_sacked(&self, start: u64, end: u64) -> bool {
        let i = self.ranges.partition_point(|r| r.end < end);
        match self.ranges.get(i) {
            Some(r) => r.start <= start && end <= r.end,
            None => false,
        }
    }

    /// Bytes sacked strictly above `seq`.
    pub(crate) fn sacked_above(&self, seq: u64) -> u64 {
        let i = self.ranges.partition_point(|r| r.end <= seq);
        self.ranges[i..]
            .iter()
            .map(|r| r.end - r.start.max(seq))
            .sum()
    }

    /// Discontiguous sacked ranges lying entirely above `seq`.
    pub(crate) fn ranges_above(&self, seq: u64) -> u64 {
        (self.ranges.len() - self.ranges.partition_point(|r| r.start <= seq)) as u64
    }

    /// RFC 6675 `IsLost`: the segment `[start, end)` is presumed lost
    /// when DupThresh discontiguous sacked ranges sit entirely above it,
    /// or when more than `(DupThresh - 1) * MSS` bytes are sacked above
    /// it. Already-sacked segments are never lost.
    pub(crate) fn is_lost(&self, start: u64, end: u64) -> bool {
        if self.is_sacked(start, end) {
            return false;
        }
        self.ranges_above(end - 1) >= DUP_THRESH
            || self.sacked_above(end - 1) > (DUP_THRESH - 1) * MSS as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(start: u64, end: u64) -> SackBlock {
        SackBlock::new(start, end)
    }

    #[test]
    fn insert_merges_overlaps_and_adjacency() {
        let mut s = Scoreboard::new();
        s.add_blocks(&[sb(10, 20)], 0);
        s.add_blocks(&[sb(30, 40)], 0);
        s.add_blocks(&[sb(20, 30)], 0); // bridges the gap
        assert_eq!(s.ranges(), &[sb(10, 40)]);
        assert_eq!(s.sacked_bytes(), 30);
    }

    #[test]
    fn add_blocks_returns_newly_sacked() {
        let mut s = Scoreboard::new();
        assert_eq!(s.add_blocks(&[sb(10, 20)], 0), 10);
        assert_eq!(s.add_blocks(&[sb(10, 20)], 0), 0, "duplicate adds none");
        assert_eq!(s.add_blocks(&[sb(15, 25)], 0), 5);
    }

    #[test]
    fn add_blocks_delta_reports_new_coverage() {
        let mut s = Scoreboard::new();
        let mut delta = Vec::new();
        s.add_blocks_delta(&[sb(10, 20), sb(40, 50)], 0, &mut delta);
        assert_eq!(delta, vec![sb(10, 20), sb(40, 50)]);
        // A block bridging both: only the gap is new.
        delta.clear();
        let newly = s.add_blocks_delta(&[sb(15, 45)], 0, &mut delta);
        assert_eq!(delta, vec![sb(20, 40)]);
        assert_eq!(newly, 20);
        assert_eq!(s.ranges(), &[sb(10, 50)]);
        // Fully re-reported coverage yields no delta.
        delta.clear();
        assert_eq!(s.add_blocks_delta(&[sb(10, 50)], 0, &mut delta), 0);
        assert!(delta.is_empty());
    }

    #[test]
    fn advance_trims_below_una() {
        let mut s = Scoreboard::new();
        s.add_blocks(&[sb(10, 20), sb(30, 40)], 0);
        s.advance(15);
        assert_eq!(s.ranges(), &[sb(15, 20), sb(30, 40)]);
        s.advance(25);
        assert_eq!(s.ranges(), &[sb(30, 40)]);
        s.advance(100);
        assert!(s.ranges().is_empty());
    }

    #[test]
    fn blocks_below_una_ignored() {
        let mut s = Scoreboard::new();
        assert_eq!(s.add_blocks(&[sb(10, 20)], 20), 0);
        assert!(s.ranges().is_empty());
        assert_eq!(s.add_blocks(&[sb(10, 30)], 20), 10);
        assert_eq!(s.ranges(), &[sb(20, 30)]);
    }

    #[test]
    fn is_sacked_containment() {
        let mut s = Scoreboard::new();
        s.add_blocks(&[sb(10, 20), sb(40, 60)], 0);
        assert!(s.is_sacked(10, 20));
        assert!(s.is_sacked(45, 50));
        assert!(!s.is_sacked(5, 15));
        assert!(!s.is_sacked(20, 40));
        assert!(!s.is_sacked(55, 65));
    }

    #[test]
    fn is_lost_by_range_count() {
        let mut s = Scoreboard::new();
        // Three discontiguous sacked ranges above [0, 10).
        s.add_blocks(&[sb(20, 30), sb(40, 50), sb(60, 70)], 0);
        assert!(s.is_lost(0, 10));
        // Only two above [30, 40).
        let mss = MSS as u64;
        assert_eq!(s.sacked_above(39), 20);
        assert!(20 <= (DUP_THRESH - 1) * mss);
        assert!(!s.is_lost(30, 40));
    }

    #[test]
    fn is_lost_by_byte_count() {
        let mut s = Scoreboard::new();
        let mss = MSS as u64;
        // One huge sacked range above: more than (DupThresh-1)*MSS bytes.
        s.add_blocks(&[sb(10 * mss, 13 * mss + 1)], 0);
        assert!(s.is_lost(0, mss));
        // Exactly (DupThresh-1)*MSS above is NOT enough (strict >).
        let mut s2 = Scoreboard::new();
        s2.add_blocks(&[sb(10 * mss, 12 * mss)], 0);
        assert!(!s2.is_lost(0, mss));
    }

    #[test]
    fn sacked_segment_never_lost() {
        let mut s = Scoreboard::new();
        s.add_blocks(&[sb(0, 100), sb(200, 300), sb(400, 500), sb(600, 700)], 0);
        assert!(!s.is_lost(0, 100));
        assert!(s.is_lost(100, 200));
    }

    /// `r`'s blocks over `ooo`, decoded against `rcv_nxt`.
    fn receiver_blocks(r: &ReceiverSack, ooo: &[(u64, u64)], rcv_nxt: u64) -> Vec<SackBlock> {
        let (blocks, n) = r.blocks(ooo.iter().copied(), rcv_nxt).decode(rcv_nxt);
        blocks[..n].to_vec()
    }

    #[test]
    fn receiver_blocks_coalesce_and_order() {
        let mut r = ReceiverSack::new();
        let ooo = [(10u64, 10u64), (20, 10), (50, 5)];
        r.on_arrival(50, 55);
        // [10,30) coalesced, [50,55) first because it arrived last.
        assert_eq!(receiver_blocks(&r, &ooo, 0), vec![sb(50, 55), sb(10, 30)]);
    }

    #[test]
    fn receiver_blocks_respect_limit() {
        let mut r = ReceiverSack::new();
        let ooo = [(10u64, 1u64), (20, 1), (30, 1), (40, 1), (50, 1)];
        assert_eq!(
            receiver_blocks(&r, &ooo, 0),
            vec![sb(10, 11), sb(20, 21), sb(30, 31)]
        );
        // The most recent arrival first, then the lowest others.
        r.on_arrival(40, 41);
        assert_eq!(
            receiver_blocks(&r, &ooo, 0),
            vec![sb(40, 41), sb(10, 11), sb(20, 21)]
        );
    }

    #[test]
    fn receiver_trims_below_rcv_nxt() {
        let r = ReceiverSack::new();
        assert_eq!(receiver_blocks(&r, &[(10, 20)], 15), vec![sb(15, 30)]);
    }
}
