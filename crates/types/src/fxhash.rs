//! A fast, deterministic hasher for the simulator's hot maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs real time in the
//! event loop, and its per-process random seed makes map iteration order
//! vary across runs. The engines only key maps by small fixed-size ids
//! (`OpId`, `ObjectId`, token counters), so we use the Fx multiply-xor
//! hash (the compiler's own table hasher): a few cycles per key, and the
//! same seed every run. Nothing behavioral may depend on hash-map
//! iteration order regardless — where order matters the code uses a
//! `BTreeMap` (DESIGN §5.14) — but a fixed seed keeps even diagnostics
//! output stable.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc-hash multiplier (a prime close to the golden ratio in
/// fixed-point).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx hash state: rotate, xor, multiply per word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// Drop-in `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // No per-process seed: the same key always hashes the same.
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
    }

    #[test]
    fn byte_slices_cover_partial_words() {
        for len in 0..20usize {
            let a: Vec<u8> = (0..len as u8).collect();
            let mut b = a.clone();
            assert_eq!(hash_of(&a), hash_of(&b));
            if len > 0 {
                b[len - 1] ^= 1;
                assert_ne!(hash_of(&a), hash_of(&b));
            }
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(7) && !s.insert(7));
    }
}
