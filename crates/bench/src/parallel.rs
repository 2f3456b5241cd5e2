//! Thread-sharding for multi-site experiment loops.
//!
//! Each `Simulator` world is single-threaded by design (actor state in
//! `Rc<RefCell<_>>`), so parallelism lives one level up: independent page
//! loads — different sites, different seeds — run on different OS threads.
//! Because every load derives its seed from its *index*, not from
//! execution order, a sharded run produces bit-identical per-site results
//! to the serial loop, and [`parallel_map`] returns them in input order so
//! downstream summaries are byte-identical too.
//!
//! Workers claim the next unclaimed index from a shared counter rather
//! than owning a fixed stride: site costs are heavy-tailed, and a fixed
//! split leaves a core idle while the unlucky one works through its share.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to every item, sharded across the machine's cores, returning
/// results in input order. `f` receives `(index, &item)` — seed anything
/// stochastic from `index` so sharding cannot change results.
///
/// Setting `MM_BENCH_SERIAL=1` forces the plain serial loop, the
/// reference point for CI's serial-vs-sharded equivalence gate
/// (`mmaudit --compare`).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let serial = std::env::var("MM_BENCH_SERIAL").is_ok_and(|v| v == "1");
    let threads = if serial {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1))
    };
    map_on_threads(threads, items, f)
}

fn map_on_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let n = items.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // Relaxed: the counter hands out indices and publishes nothing else;
    // results travel back through `join`.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(i, item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("experiment shard panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..101).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..101).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_env_forces_one_thread() {
        // Safe enough in-process: parallel_map reads the var per call,
        // and the assertion holds under any interleaving with other
        // tests (results are order-preserving either way).
        std::env::set_var("MM_BENCH_SERIAL", "1");
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x + 1
        });
        std::env::remove_var("MM_BENCH_SERIAL");
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn one_slow_item_does_not_hold_back_a_fixed_share() {
        // Item 0 blocks until every other item has run. With a fixed
        // stride, the worker holding item 0 also owns items it can only
        // reach afterwards, and this deadlocks; with claiming, the other
        // workers take them.
        let items: Vec<usize> = (0..64).collect();
        let finished = AtomicUsize::new(0);
        let out = map_on_threads(2, &items, |i, &x| {
            if i == 0 {
                while finished.load(Ordering::SeqCst) < items.len() - 1 {
                    std::thread::yield_now();
                }
            } else {
                finished.fetch_add(1, Ordering::SeqCst);
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }
}
