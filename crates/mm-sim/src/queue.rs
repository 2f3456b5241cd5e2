//! The engine's pending-event store: a monotone radix queue.
//!
//! A discrete-event engine only ever pops deadlines in non-decreasing
//! order and never accepts one below the last it popped. That monotone
//! contract buys a structure a comparison heap cannot match: entries are
//! filed by the *highest bit in which their deadline differs from the
//! last popped deadline* (the floor), so a push is one XOR, one
//! `leading_zeros` and one `Vec::push` — no sifting, and no cost that
//! grows with how many superseded timers sit far in the future.
//!
//! * `due` holds the entries whose deadline equals the floor, a FIFO.
//! * `later[k]` holds the entries whose deadline differs from the floor
//!   in bit `k` and in no higher bit. Everything in `later[k]` is
//!   therefore above the floor and below everything in `later[k + 1]`.
//!
//! When `due` runs dry the lowest occupied `later[k]` is *redistributed*:
//! its minimum becomes the new floor and every entry is re-filed against
//! it, in the order it was stored. All of them land in `due` or in a
//! bucket below `k`; entries in buckets above `k` keep their bucket,
//! because the new floor shares every bit from `k` up with the old one.
//! So at all times an entry sits in the bucket its deadline and the
//! current floor dictate — two entries with one deadline always share a
//! bucket — and a bucket is only ever appended to: by direct pushes, or
//! by a redistribution that finds it empty (every bucket below the one
//! being redistributed is). Within a bucket, entries of one deadline are
//! thus in push order, and that order survives each stable re-filing down
//! to `due`: **same-deadline events pop in insertion order by
//! construction**, with no sequence number to store or compare.
//!
//! Each entry moves down at most once per bit of its distance from the
//! floor when pushed (64 at the very worst, two or three in practice),
//! so push and pop are O(1) amortised.

use std::collections::VecDeque;

use crate::engine::Event;
use crate::time::Timestamp;

/// One pending event.
pub(crate) struct Scheduled {
    pub(crate) at: Timestamp,
    pub(crate) tag: &'static str,
    pub(crate) event: Event,
}

const BITS: usize = u64::BITS as usize;

pub(crate) struct EventQueue {
    /// Deadline of the last popped entry; nothing pending is below it.
    floor: u64,
    len: usize,
    /// Entries due exactly at `floor`, in insertion order.
    due: VecDeque<Scheduled>,
    /// `later[k]`: entries whose deadline's highest bit differing from
    /// `floor` is bit `k`.
    later: [Vec<Scheduled>; BITS],
    /// Bit `k` set ⇔ `later[k]` is non-empty.
    occupied: u64,
    /// Smallest deadline in `later[k]` (meaningful while occupied), kept
    /// on push so finding the next deadline never scans a bucket.
    earliest: [u64; BITS],
    /// The emptied bucket of the previous redistribution, kept for its
    /// capacity.
    spare: Vec<Scheduled>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            floor: 0,
            len: 0,
            due: VecDeque::new(),
            later: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            earliest: [0; BITS],
            spare: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// File an entry. Its deadline must not be below the last popped one
    /// (the engine asserts `at >= now`, and `now` never trails the floor).
    pub(crate) fn push(&mut self, ev: Scheduled) {
        self.len += 1;
        self.file(ev);
    }

    fn file(&mut self, ev: Scheduled) {
        let at = ev.at.as_nanos();
        debug_assert!(at >= self.floor, "deadline below the queue floor");
        let diff = at ^ self.floor;
        if diff == 0 {
            self.due.push_back(ev);
            return;
        }
        let k = (BITS - 1) - diff.leading_zeros() as usize;
        let bit = 1u64 << k;
        if self.occupied & bit == 0 || at < self.earliest[k] {
            self.earliest[k] = at;
        }
        self.occupied |= bit;
        self.later[k].push(ev);
    }

    /// The earliest pending deadline. Never moves the floor: after
    /// `run_until(h)` stops short of the next deadline the caller may
    /// still schedule anywhere in between.
    pub(crate) fn next_deadline(&self) -> Option<Timestamp> {
        if !self.due.is_empty() {
            Some(Timestamp::from_nanos(self.floor))
        } else if self.occupied != 0 {
            let k = self.occupied.trailing_zeros() as usize;
            Some(Timestamp::from_nanos(self.earliest[k]))
        } else {
            None
        }
    }

    /// Remove the earliest entry — the first inserted among those sharing
    /// its deadline — raising the floor to its deadline.
    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        if self.due.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.advance();
        }
        self.len -= 1;
        self.due.pop_front()
    }

    /// Raise the floor to the earliest pending deadline and re-file the
    /// bucket that held it. Requires `due` empty and some bucket occupied.
    fn advance(&mut self) {
        let k = self.occupied.trailing_zeros() as usize;
        self.floor = self.earliest[k];
        self.occupied &= !(1u64 << k);
        let mut bucket = std::mem::replace(&mut self.later[k], std::mem::take(&mut self.spare));
        for ev in bucket.drain(..) {
            self.file(ev);
        }
        self.spare = bucket;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64) -> Scheduled {
        Scheduled {
            at: Timestamp::from_nanos(at),
            tag: "",
            event: Event::Call(Box::new(|_| {})),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop().map(|e| e.at.as_nanos())).collect()
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_entry_is_six_words() {
        // Deadline, tag, and the larger of the two event forms with the
        // discriminant in a pointer's niche. Every push, pop and
        // re-filing moves one, so growing it is a cost to measure.
        assert_eq!(std::mem::size_of::<Scheduled>(), 48);
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut q = EventQueue::new();
        for at in [30u64, 10, 20, 10, u64::MAX, 0, 1 << 63, 5] {
            q.push(entry(at));
        }
        assert_eq!(q.len(), 8);
        assert_eq!(drain(&mut q), vec![0, 5, 10, 10, 20, 30, 1 << 63, u64::MAX]);
        assert_eq!(q.len(), 0);
        assert!(q.next_deadline().is_none());
    }

    #[test]
    fn next_deadline_leaves_room_below_it() {
        let mut q = EventQueue::new();
        q.push(entry(1_000));
        q.push(entry(4_000));
        assert_eq!(q.pop().unwrap().at.as_nanos(), 1_000);
        // Peeking at 4000 must not stop a later push at 2000.
        assert_eq!(q.next_deadline(), Some(Timestamp::from_nanos(4_000)));
        q.push(entry(2_000));
        assert_eq!(q.next_deadline(), Some(Timestamp::from_nanos(2_000)));
        assert_eq!(drain(&mut q), vec![2_000, 4_000]);
    }

    #[test]
    fn earliest_is_tracked_per_bucket_across_refills() {
        let mut q = EventQueue::new();
        // 12 and 9 share bucket 3 against floor 0; 9 arrives second.
        q.push(entry(12));
        q.push(entry(9));
        assert_eq!(q.next_deadline(), Some(Timestamp::from_nanos(9)));
        assert_eq!(q.pop().unwrap().at.as_nanos(), 9);
        // Floor 9: 12 was re-filed; a fresh 11 must come out first.
        q.push(entry(11));
        assert_eq!(drain(&mut q), vec![11, 12]);
    }
}
