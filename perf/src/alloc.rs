//! A counting `#[global_allocator]`: every heap allocation the calling
//! thread makes bumps thread-local counters (calls, bytes, live bytes).
//!
//! The simulator is deterministic and single-threaded, so the counts
//! for one op are identical across repeats and across processes — an
//! exact, noise-free cost metric beside the noisy wall clock. Counters
//! are per thread so a concurrent thread (the test harness, the
//! `parallel_map` probe) can never pollute a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers on types without destructors: reading these
    // from inside the allocator can never allocate or register a dtor.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed on this thread. Signed: memory
    // allocated elsewhere may be freed here.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus the counters.
pub struct Counting;

fn bump(size: usize) {
    // `try_with`: during thread teardown the slot may be gone; such
    // late allocations are not part of any measurement.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    let _ = LIVE.try_with(|l| l.set(l.get() + size as i64));
}

fn unlive(size: usize) {
    let _ = LIVE.try_with(|l| l.set(l.get() - size as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local integers and never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is one more trip to the allocator for `new_size`
        // bytes; counting it as such keeps `Vec` doubling visible.
        bump(new_size);
        unlive(layout.size());
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unlive(layout.size());
        // SAFETY: caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A reading of this thread's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub calls: u64,
    pub bytes: u64,
}

/// This thread's allocation counters so far.
pub fn snapshot() -> Snapshot {
    Snapshot {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Heap bytes this thread has allocated and not yet freed. Exact and
/// repeatable, unlike RSS: growth across identical ops is a leak.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

impl Snapshot {
    /// Allocations made on this thread since `self` was taken.
    pub fn elapsed(self) -> Snapshot {
        let now = snapshot();
        Snapshot {
            calls: now.calls - self.calls,
            bytes: now.bytes - self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_pattern_exactly() {
        let before = snapshot();
        let a = Box::new(7u64); // 1 call, 8 bytes
        let mut v: Vec<u8> = Vec::with_capacity(100); // 1 call, 100 bytes
        v.extend_from_slice(&[1; 100]);
        v.reserve_exact(400); // realloc to 500: 1 call, 500 bytes
        let s = String::from("twelve bytes"); // 1 call, 12 bytes
        let d = before.elapsed();
        assert_eq!(d.calls, 4);
        assert_eq!(d.bytes, 8 + 100 + 500 + 12);
        drop((a, v, s));
        // Frees are not allocations.
        assert_eq!(before.elapsed().calls, 4);
    }

    #[test]
    fn live_bytes_balance() {
        let before = live_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(100);
        assert_eq!(live_bytes() - before, 100);
        v.reserve_exact(400);
        assert_eq!(live_bytes() - before, 400);
        std::mem::forget(std::mem::take(&mut v));
        drop(v);
        assert_eq!(live_bytes() - before, 400, "a leak stays on the books");
    }

    #[test]
    fn other_threads_do_not_leak_in() {
        let before = snapshot();
        std::thread::spawn(|| {
            let v: Vec<u64> = (0..1000).collect();
            std::hint::black_box(v);
        })
        .join()
        .expect("helper thread panicked");
        // Spawning allocates on this thread (the join handle), so only
        // bound the count: the child's 8 kB vector must not appear.
        assert!(before.elapsed().bytes < 8000);
    }
}
