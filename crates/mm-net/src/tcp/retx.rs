//! The retransmission queue's container: a ring ordered by sequence.
//!
//! What a sender keeps per unacknowledged segment is appended at
//! `snd_nxt`, removed from the head as cumulative acks arrive, and read in
//! sequence order in between — so order by starting sequence *is*
//! insertion order, and a `VecDeque` with a binary search does everything
//! a `BTreeMap<u64, _>` keyed by starting sequence did, without a node
//! allocation per few entries or a tree walk per lookup (DESIGN.md §16).
//! Entries cover disjoint ranges; the ring only needs their starts to be
//! strictly increasing, which `push_back` checks.

use std::collections::VecDeque;

/// Something with a place in sequence space.
pub trait Sequenced {
    /// The first sequence number it covers.
    fn seq(&self) -> u64;
}

/// A queue of `T` in strictly increasing order of [`Sequenced::seq`],
/// indexed by position: `ring[0]` is the lowest entry.
#[derive(Debug)]
pub struct SeqRing<T> {
    q: VecDeque<T>,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        SeqRing { q: VecDeque::new() }
    }
}

impl<T: Sequenced> SeqRing<T> {
    /// An empty ring; allocates nothing until the first push.
    pub fn new() -> Self {
        SeqRing::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Append `item`, which must start above every entry already queued.
    pub fn push_back(&mut self, item: T) {
        assert!(
            self.q.back().is_none_or(|last| last.seq() < item.seq()),
            "retransmission queue entries are appended in sequence order"
        );
        self.q.push_back(item);
    }

    /// The lowest entry.
    pub fn front(&self) -> Option<&T> {
        self.q.front()
    }

    /// The lowest entry, to edit in place. An edit may raise its start (a
    /// partial ack trims the head) but not past the next entry's.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.q.front_mut()
    }

    /// Remove the lowest entry.
    pub fn pop_front(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    /// Remove the highest entry.
    pub fn pop_back(&mut self) -> Option<T> {
        self.q.pop_back()
    }

    /// Entries in sequence order.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.q.iter()
    }

    /// Entries in sequence order, to edit in place (anything but starts).
    pub fn iter_mut(&mut self) -> std::collections::vec_deque::IterMut<'_, T> {
        self.q.iter_mut()
    }

    /// Index of the first entry starting at or above `seq` — `len()` if
    /// every entry starts below it. `0..lower_bound(seq)` is a map's
    /// `range(..seq)`, `lower_bound(seq)..` its `range(seq..)`.
    pub fn lower_bound(&self, seq: u64) -> usize {
        self.q.partition_point(|e| e.seq() < seq)
    }

    /// The entry starting exactly at `seq`, if there is one.
    pub fn get(&self, seq: &u64) -> Option<&T> {
        self.q
            .get(self.lower_bound(*seq))
            .filter(|e| e.seq() == *seq)
    }

    /// Drop every entry and give the buffer back.
    pub fn release(&mut self) {
        self.q = VecDeque::new();
    }
}

impl<T> std::ops::Index<usize> for SeqRing<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.q[index]
    }
}

impl<T> std::ops::IndexMut<usize> for SeqRing<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.q[index]
    }
}
