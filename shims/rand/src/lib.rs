//! Local `rand` 0.8 shim. `SmallRng` is SplitMix64 — streams differ from
//! upstream rand, but everything is deterministic given the seed, which is
//! the only property the simulator relies on.

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Maps a raw u64 draw onto `0..n` via widening multiply (Lemire's method
/// without the rejection step; bias is negligible for simulator-sized `n`).
fn below(raw: u64, n: u64) -> u64 {
    ((raw as u128 * n as u128) >> 64) as u64
}

fn f64_from_u64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64_from_u64(self.next_u64()) < p
    }

    fn sample_iter<T, D>(self, distr: D) -> distributions::DistIter<D, Self, T>
    where
        D: distributions::Distribution<T>,
        Self: Sized,
    {
        distributions::DistIter {
            distr,
            rng: self,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(below(rng.next_u64(), span) as $t)
            }
        }
    )*};
}
range_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * f64_from_u64(rng.next_u64())
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64. Small, fast, passes BigCrush on its own output.
    ///
    /// Every sampler here (`gen` of `f64`/`u64`/`u32`/`bool`, `gen_bool`,
    /// `gen_range`, `choose`) takes exactly one `next_u64`: no rejection
    /// loop. Callers count on it — Metarates positions its ranks by
    /// counting draws — so a sampler that draws more than once must fail
    /// `samplers_take_one_draw_each` here, not move a digest downstream.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng { state: seed }
        }
    }
}

pub mod distributions {
    use super::{f64_from_u64, RngCore};

    pub struct Standard;

    pub trait Distribution<T> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl Distribution<u64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            f64_from_u64(rng.next_u64())
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub struct DistIter<D, R, T> {
        pub(crate) distr: D,
        pub(crate) rng: R,
        pub(crate) _marker: std::marker::PhantomData<T>,
    }

    impl<D: Distribution<T>, R: RngCore, T> Iterator for DistIter<D, R, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            Some(self.distr.sample(&mut self.rng))
        }
    }
}

pub mod seq {
    use super::{below, Rng};

    pub trait SliceRandom {
        type Item;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(below(rng.next_u64(), self.len() as u64) as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = r.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(0usize..5);
            assert!(y < 5);
            let f = r.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    /// Each sampler leaves the rng where one `next_u64` does. The `u64`
    /// spans sit just over 2^63, where a rejection step (Lemire's, or
    /// "retry above the largest multiple") redraws about half the time.
    #[test]
    fn samplers_take_one_draw_each() {
        use super::RngCore;
        let xs: Vec<u32> = (0..1_000).collect();
        let mut r = SmallRng::seed_from_u64(11);
        for i in 1..2_000u64 {
            let samplers: [&dyn Fn(&mut SmallRng); 5] = [
                &|r| _ = r.gen::<f64>(),
                &|r| _ = r.gen_bool(1.0 / i as f64),
                &|r| _ = r.gen_range(0..(1 << 63) + i),
                &|r| _ = r.gen_range(0..i as usize),
                &|r| _ = xs[..i as usize % xs.len() + 1].choose(r),
            ];
            for (k, sample) in samplers.iter().enumerate() {
                let mut once = r.clone();
                once.next_u64();
                sample(&mut r);
                assert_eq!(r.next_u64(), once.next_u64(), "sampler {k}, i {i}");
            }
        }
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = SmallRng::seed_from_u64(9);
        let xs = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            let &x = xs.choose(&mut r).unwrap();
            seen[x - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }
}
