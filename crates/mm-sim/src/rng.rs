//! Deterministic random-number streams.
//!
//! Every source of randomness in an experiment forks a named [`RngStream`]
//! off a single master seed. Forking hashes the parent seed with the child's
//! label, so adding a new consumer never perturbs the draws seen by existing
//! consumers — the property that keeps experiments comparable as the code
//! evolves, and that makes Table 1's reproducibility claim testable.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a, used to mix labels into seeds. Stable across platforms and
/// releases (unlike `std::hash`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A named, forkable deterministic RNG stream (ChaCha8 core).
///
/// # Example
/// ```
/// use mm_sim::RngStream;
/// use rand::RngCore;
/// let mut root = RngStream::from_seed(42);
/// let mut a1 = root.fork("loss");
/// let mut a2 = RngStream::from_seed(42).fork("loss");
/// assert_eq!(a1.next_u64(), a2.next_u64()); // same label, same draws
/// let mut b = RngStream::from_seed(42).fork("jitter");
/// assert_ne!(a1.seed(), b.seed());
/// ```
pub struct RngStream {
    seed: u64,
    rng: ChaCha8Rng,
}

impl RngStream {
    /// Create the root stream for an experiment from its master seed.
    pub fn from_seed(seed: u64) -> Self {
        RngStream {
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Fork a child stream. The child's seed depends only on this stream's
    /// *seed* and the label — not on how many values have been drawn — so
    /// fork order does not matter.
    pub fn fork(&self, label: &str) -> RngStream {
        let child_seed = self.seed ^ fnv1a(label.as_bytes()).rotate_left(17);
        RngStream::from_seed(child_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ child_seed >> 29)
    }

    /// Fork a child stream by label and index (e.g. per-site, per-load).
    pub fn fork_indexed(&self, label: &str, index: u64) -> RngStream {
        self.fork(&format!("{label}#{index}"))
    }

    /// The seed this stream was constructed from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_inclusive: {lo} > {hi}");
        self.rng.gen_range(lo..=hi)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p == 0.0 {
            return false;
        }
        if p == 1.0 {
            return true;
        }
        self.rng.gen_bool(p)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        let i = self.gen_range_inclusive(0, items.len() as u64 - 1) as usize;
        &items[i]
    }

    /// Fisher–Yates shuffle, deterministic given the stream state.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.gen_range_inclusive(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let mut a = RngStream::from_seed(7);
        let mut b = RngStream::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::from_seed(7);
        let mut b = RngStream::from_seed(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_order_independent() {
        let root = RngStream::from_seed(123);
        let mut consumed = RngStream::from_seed(123);
        let _ = consumed.next_u64(); // draw before forking
        let mut x = root.fork("x");
        let mut x2 = consumed.fork("x");
        assert_eq!(x.next_u64(), x2.next_u64());
    }

    #[test]
    fn fork_labels_are_independent() {
        let root = RngStream::from_seed(1);
        let mut a = root.fork("alpha");
        let mut b = root.fork("beta");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_indexed_distinct() {
        let root = RngStream::from_seed(1);
        let mut s0 = root.fork_indexed("site", 0);
        let mut s1 = root.fork_indexed("site", 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = RngStream::from_seed(5);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = RngStream::from_seed(5);
        for _ in 0..1000 {
            let v = r.gen_range_inclusive(3, 9);
            assert!((3..=9).contains(&v));
        }
        assert_eq!(r.gen_range_inclusive(4, 4), 4);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::from_seed(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn uniform_mean_sane() {
        let mut r = RngStream::from_seed(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
