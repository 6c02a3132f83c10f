//! The workspace's one random-number generator.
//!
//! Every random choice in a run comes from a seeded [`SmallRng`], so a
//! run is a function of its seeds: the golden, baseline and seed-7 digests
//! pin these streams bit for bit.

use std::ops::Range;

/// SplitMix64. Small, fast, passes BigCrush on its own output.
///
/// Every sampler here (`gen` of `f64`/`u64`/`u32`/`u8`/`bool`, `gen_bool`,
/// `gen_range`, `choose`) takes exactly one `next_u64`: no rejection
/// loop. Callers count on it — Metarates positions its ranks by
/// counting draws — so a sampler that draws more than once must fail
/// `samplers_take_one_draw_each` here, not move a digest downstream.
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        SmallRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `u64`, `u32`, `u8`, `bool`, or `f64` in `[0, 1)`.
    pub fn gen<T: Standard>(&mut self) -> T {
        T::from_draw(self.next_u64())
    }

    /// Uniform over `range`, which must not be empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(range, self.next_u64())
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        f64_from_u64(self.next_u64()) < p
    }

    /// A uniform element of `xs`, `None` (and no draw) if it is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            xs.get(below(self.next_u64(), xs.len() as u64) as usize)
        }
    }
}

/// Maps a raw u64 draw onto `0..n` via widening multiply (Lemire's method
/// without the rejection step; bias is negligible for simulator-sized `n`).
pub(crate) fn below(raw: u64, n: u64) -> u64 {
    ((raw as u128 * n as u128) >> 64) as u64
}

pub(crate) fn f64_from_u64(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A value [`SmallRng::gen`] makes from one draw.
pub trait Standard {
    fn from_draw(raw: u64) -> Self;
}

macro_rules! standard_impl {
    ($($t:ty => |$raw:ident| $value:expr),*) => {$(
        impl Standard for $t {
            fn from_draw($raw: u64) -> $t {
                $value
            }
        }
    )*};
}
standard_impl!(
    u64 => |raw| raw,
    u32 => |raw| (raw >> 32) as u32,
    u8 => |raw| (raw >> 56) as u8,
    f64 => |raw| f64_from_u64(raw),
    bool => |raw| raw & 1 == 1
);

/// A type [`SmallRng::gen_range`] samples a range of, from one raw draw.
pub trait SampleRange: Sized {
    fn sample(range: Range<Self>, raw: u64) -> Self;
}

macro_rules! range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(range: Range<$t>, raw: u64) -> $t {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u64;
                range.start.wrapping_add(below(raw, span) as $t)
            }
        }
    )*};
}
range_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for f64 {
    fn sample(range: Range<f64>, raw: u64) -> f64 {
        range.start + (range.end - range.start) * f64_from_u64(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::SmallRng;

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
        let xs: Vec<u32> = (0..1_000).collect();
        let mut r = SmallRng::seed_from_u64(11);
        for i in 1..2_000u64 {
            let samplers: [&dyn Fn(&mut SmallRng); 5] = [
                &|r| _ = r.gen::<f64>(),
                &|r| _ = r.gen_bool(1.0 / i as f64),
                &|r| _ = r.gen_range(0..(1 << 63) + i),
                &|r| _ = r.gen_range(0..i as usize),
                &|r| _ = r.choose(&xs[..i as usize % xs.len() + 1]),
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
            let &x = r.choose(&xs).unwrap();
            seen[x - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
    }
}
