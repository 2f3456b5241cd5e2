//! The hasher behind this crate's address-keyed maps.
//!
//! Every packet is routed by an `IpAddr` lookup and demultiplexed by a
//! `(SocketAddr, SocketAddr)` lookup. The keys are a few small integers
//! the simulation itself assigns — nothing an adversary picks — so
//! SipHash's collision resistance buys nothing, and its per-process
//! random seed is one more thing that differs between two runs. One
//! multiply-rotate step per integer field, from a fixed start, instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by addresses or ports. Point queries only: nothing may
/// depend on its iteration order.
pub(crate) type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

#[derive(Default, Clone, Copy)]
pub(crate) struct AddrHasher(u64);

/// 2^64 divided by the golden ratio, made odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl AddrHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for AddrHasher {
    /// The fallback for key fields other than the `u32` addresses and
    /// `u16` ports below: correct, a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn finish(&self) -> u64 {
        // A product's low bits depend only on its factors' low bits; the
        // table indexes by them, so fold the well-mixed half down.
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{IpAddr, SocketAddr};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<AddrHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_repeat_and_spread_over_low_and_high_bits() {
        let server = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 80);
        let keys: Vec<_> = (0..4096u32)
            .map(|i| {
                let client =
                    SocketAddr::new(IpAddr::new(10, 0, 1, (i >> 8) as u8), 40_000 + i as u16);
                (server, client)
            })
            .collect();
        assert_eq!(hash_of(keys[7]), hash_of(keys[7]));
        // The table indexes buckets by the low bits and tags entries by
        // the top seven: both must discriminate neighbouring four-tuples.
        let low: std::collections::BTreeSet<u64> =
            keys.iter().map(|k| hash_of(k) & 0xfff).collect();
        let high: std::collections::BTreeSet<u64> = keys.iter().map(|k| hash_of(k) >> 57).collect();
        assert!(
            low.len() > 2048,
            "only {} of 4096 low-bit patterns",
            low.len()
        );
        assert_eq!(high.len(), 128);
    }
}
