//! Open addressing over a flat slot slice: the one algorithm behind both
//! flat tables, [`OpTable`](crate::OpTable)'s index and cx-mdstore's
//! `RowTable`.
//!
//! A key starts at its home slot, the [`row_hash`] scaled onto the slot
//! count, and walks forward (wrapping from the last slot to the first)
//! until it meets itself or a vacant slot. Deletion shifts the rest of
//! the cluster back, so churn leaves no tombstones. Each table keeps its
//! own sizing rule, and must keep at least one slot vacant so a walk
//! ends.

use std::hash::{Hash, Hasher};

/// The slot among `slots` a key with `hash` walks from: the hash scaled
/// onto the slot count (multiply-shift). For a power-of-two count this
/// is the hash's top bits.
pub fn home(hash: u64, slots: usize) -> usize {
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

/// Walk the probe sequence from the home of `hash`: `Ok` with the first
/// slot `is_key` accepts, or `Err` with the vacant slot that ends the
/// walk. A table of no slots is full: its walk ends at `Err(0)`.
pub fn walk<S>(
    slots: &[S],
    hash: u64,
    is_vacant: impl Fn(&S) -> bool,
    is_key: impl Fn(&S) -> bool,
) -> Result<usize, usize> {
    if slots.is_empty() {
        return Err(0);
    }
    let mut slot = home(hash, slots.len());
    loop {
        let s = &slots[slot];
        if is_vacant(s) {
            return Err(slot);
        }
        if is_key(s) {
            return Ok(slot);
        }
        slot = next(slot, slots.len());
    }
}

/// Empty `hole` and close the gap (backward shift): each later slot of
/// the cluster whose home is not between the hole and itself moves back
/// into it, and the last hole becomes `vacant`. `hash` gives an occupied
/// slot's hash.
pub fn vacate<S: Copy>(
    slots: &mut [S],
    mut hole: usize,
    vacant: S,
    is_vacant: impl Fn(&S) -> bool,
    hash: impl Fn(&S) -> u64,
) {
    let n = slots.len();
    // How far `to` lies past `from` along the probe sequence.
    let distance = |from: usize, to: usize| if to >= from { to - from } else { to + n - from };
    let mut slot = hole;
    loop {
        slot = next(slot, n);
        let s = slots[slot];
        if is_vacant(&s) {
            break;
        }
        if distance(home(hash(&s), n), slot) >= distance(hole, slot) {
            slots[hole] = s;
            hole = slot;
        }
    }
    slots[hole] = vacant;
}

/// The slot after `slot` among `n`, wrapping from the last to the first.
fn next(slot: usize, n: usize) -> usize {
    if slot + 1 == n {
        0
    } else {
        slot + 1
    }
}

/// The hash a flat table places `key` by: each word of the key xored in
/// and multiplied by 2^64 over the golden ratio, the 128-bit product's
/// halves folded together. A table scales the top bits onto its slot
/// count, and these spread sequential keys evenly (Metarates numbers its
/// files and their inodes in order). Fx's multiplier, about 2^64/π, does
/// not: π ≈ 355/113, so Fx hashes of keys 355 apart nearly agree in their
/// top bits. Seeding the benchmark's namespace probes 4.9 slots an insert
/// by Fx's top bits and 2.3 by this hash.
pub fn row_hash<K: Hash>(key: &K) -> u64 {
    let mut hasher = FoldHasher(0);
    key.hash(&mut hasher);
    hasher.0
}

struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
}
