//! Deterministic random-number streams.
//!
//! Every component draws from its own stream so adding randomness in one
//! place never perturbs another (a classic DES reproducibility pitfall).

use cx_types::ids::mix64;
use cx_types::rng::SmallRng;

/// Create the RNG for stream `stream` of experiment seed `seed`.
///
/// The same (seed, stream) pair always yields the same sequence; different
/// streams are decorrelated by a 64-bit mix.
pub fn det_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix64(seed, stream ^ 0xD15C_0DE5_EED5_EED5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_same_sequence() {
        let (mut ra, mut rb) = (det_rng(7, 3), det_rng(7, 3));
        let a: Vec<u64> = (0..16).map(|_| ra.gen()).collect();
        let b: Vec<u64> = (0..16).map(|_| rb.gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_diverge() {
        let a: u64 = det_rng(7, 3).gen();
        let b: u64 = det_rng(7, 4).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a: u64 = det_rng(7, 3).gen();
        let b: u64 = det_rng(8, 3).gen();
        assert_ne!(a, b);
    }
}
