//! The socket's one small-queue type: a FIFO whose first `N` entries live
//! inside the value that owns it (DESIGN.md §3).
//!
//! Most of a socket's queues hold one or two entries for their whole
//! life — an event between two dispatches, a response's head and body
//! waiting for the window, a windowed filter's current extremum — so a
//! heap block per queue would be paid by every connection for the rare
//! one that queues more. The entries past the first `N` spill to a
//! `VecDeque`.

use std::collections::VecDeque;

/// A FIFO holding its first `N` (≥ 1) entries inline. The spill reserves
/// room for `SPILL` entries on first use; with `SPILL` 0 it grows as a
/// `VecDeque` does, from four by doubling.
#[derive(Debug, Clone)]
pub(crate) struct InlineDeque<T, const N: usize, const SPILL: usize> {
    /// The first entries in order, packed to the front: a slot is `None`
    /// only if every slot after it is.
    inline: [Option<T>; N],
    /// The entries after the inline ones: empty unless `inline` is full.
    spill: VecDeque<T>,
}

impl<T, const N: usize, const SPILL: usize> Default for InlineDeque<T, N, SPILL> {
    fn default() -> Self {
        InlineDeque {
            inline: std::array::from_fn(|_| None),
            spill: VecDeque::new(),
        }
    }
}

impl<T, const N: usize, const SPILL: usize> InlineDeque<T, N, SPILL> {
    pub(crate) fn len(&self) -> usize {
        self.inline.iter().filter(|s| s.is_some()).count() + self.spill.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }

    pub(crate) fn front(&self) -> Option<&T> {
        self.inline[0].as_ref()
    }

    pub(crate) fn front_mut(&mut self) -> Option<&mut T> {
        self.inline[0].as_mut()
    }

    pub(crate) fn back(&self) -> Option<&T> {
        self.spill
            .back()
            .or_else(|| self.inline.iter().rev().find_map(Option::as_ref))
    }

    pub(crate) fn push_back(&mut self, item: T) {
        if self.spill.is_empty() {
            if let Some(free) = self.inline.iter_mut().find(|s| s.is_none()) {
                *free = Some(item);
                return;
            }
            if self.spill.capacity() == 0 {
                self.spill.reserve(SPILL);
            }
        }
        self.spill.push_back(item);
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        let item = self.inline[0].take()?;
        // The emptied slot goes last; the spill's front (if any) fills it.
        self.inline.rotate_left(1);
        self.inline[N - 1] = self.spill.pop_front();
        Some(item)
    }

    pub(crate) fn pop_back(&mut self) -> Option<T> {
        self.spill
            .pop_back()
            .or_else(|| self.inline.iter_mut().rev().find_map(Option::take))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Apply `ops` to an `InlineDeque<_, N>` and a `VecDeque` side by side,
    /// comparing every observation. Each op is `(kind, count, value)`:
    /// runs of pushes and pops fill the spill, drain it and refill it.
    fn assert_matches_vecdeque<const N: usize, const SPILL: usize>(ops: &[(u8, usize, u32)]) {
        let mut deque = InlineDeque::<u32, N, SPILL>::default();
        let mut model = VecDeque::new();
        let mut next = 0u32;
        for (i, &(kind, count, value)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    for _ in 0..count {
                        deque.push_back(next);
                        model.push_back(next);
                        next += 1;
                    }
                }
                2 => {
                    for _ in 0..count {
                        assert_eq!(deque.pop_front(), model.pop_front(), "N={N}, op {i}");
                    }
                }
                3 => assert_eq!(deque.pop_back(), model.pop_back(), "N={N}, op {i}"),
                4 => {
                    if let (Some(a), Some(b)) = (deque.front_mut(), model.front_mut()) {
                        *a += value;
                        *b += value;
                    }
                }
                _ => {
                    // One in, one out, `count` times: the spill's front
                    // moves inline on every pop.
                    for _ in 0..count {
                        deque.push_back(next);
                        model.push_back(next);
                        next += 1;
                        assert_eq!(deque.pop_front(), model.pop_front(), "N={N}, op {i}");
                    }
                }
            }
            assert_eq!(
                (deque.len(), deque.is_empty(), deque.front(), deque.back()),
                (model.len(), model.is_empty(), model.front(), model.back()),
                "N={N}, after op {i} of {ops:?}"
            );
        }
        let rest: Vec<u32> = std::iter::from_fn(|| deque.pop_front()).collect();
        assert_eq!(rest, Vec::from(model), "N={N}: drained after {ops:?}");
    }

    proptest::proptest! {
        /// Interleaved pushes, pops at both ends and front edits agree
        /// with `VecDeque` for one, two and three inline slots, across a
        /// spill that fills past its reserve (or its first growth),
        /// drains, and refills.
        #[test]
        fn an_inline_deque_is_a_vecdeque(
            ops in proptest::collection::vec((0u8..6, 0usize..40, 0u32..1000), 1..40),
        ) {
            assert_matches_vecdeque::<1, 0>(&ops);
            assert_matches_vecdeque::<1, 16>(&ops);
            assert_matches_vecdeque::<2, 16>(&ops);
            assert_matches_vecdeque::<3, 4>(&ops);
        }
    }

    #[test]
    fn the_spill_reserves_once_and_is_refilled_in_order() {
        let mut q = InlineDeque::<u32, 2, 16>::default();
        for i in 0..2 {
            q.push_back(i);
        }
        assert_eq!(q.spill.capacity(), 0, "two entries fit inline");
        for i in 2..18 {
            q.push_back(i);
        }
        assert_eq!(q.spill.capacity(), 16);
        assert_eq!(q.pop_front(), Some(0));
        assert_eq!(
            q.inline,
            [Some(1), Some(2)],
            "the spill's front moved inline"
        );
        q.push_back(18);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_front()).collect();
        assert_eq!(order, (1..19).collect::<Vec<_>>());
    }
}
