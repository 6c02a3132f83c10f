//! The workspace's property-test runner. A body draws its input from a
//! [`Gen`], which records every raw draw, and fails with a plain `assert!`;
//! a failing case is shrunk to the fewest, smallest draws that still fail.

use crate::ids::fnv1a;
use crate::rng::{below, f64_from_u64, SampleRange, SmallRng, Standard};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Candidate runs the shrinker makes, at most, per failing case.
const SHRINK_STEPS: u32 = 5_000;

/// Runs `body` over `cases` cases. Case `i` draws from a [`SmallRng`]
/// seeded by `name` and `i`, so a failure replays the same way on every
/// run. The first failing case is shrunk, named on stderr (test, case,
/// seed, number of draws) and replayed, and its panic is the test's.
pub fn check(name: &str, cases: u32, mut body: impl FnMut(&mut Gen)) {
    let base = fnv1a(name.as_bytes());
    for case in 0..cases {
        let seed = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1));
        let mut g = Gen::replay(Vec::new());
        g.fresh = Some(SmallRng::seed_from_u64(seed));
        if fails(&mut body, &mut g) {
            let draws = shrink(&mut body, g.read_draws());
            let n = draws.len();
            eprintln!("check `{name}`: case {case} (seed {seed:#x}) fails, shrunk to {n} draws");
            body(&mut Gen::replay(draws));
            panic!("check `{name}`: the shrunk case passed on replay");
        }
    }
}

/// A case's input: raw `u64` draws, fresh from a seeded [`SmallRng`] or
/// replayed from a list (a draw past its end reads 0). Each sampler maps
/// one draw to the value [`SmallRng`]'s sampler of the same name makes.
pub struct Gen {
    fresh: Option<SmallRng>,
    draws: Vec<u64>,
    read: usize,
}

impl Gen {
    fn replay(draws: Vec<u64>) -> Self {
        Gen {
            fresh: None,
            draws,
            read: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        if self.read == self.draws.len() {
            self.draws
                .push(self.fresh.as_mut().map_or(0, SmallRng::next_u64));
        }
        self.read += 1;
        self.draws[self.read - 1]
    }

    pub fn gen<T: Standard>(&mut self) -> T {
        T::from_draw(self.next_u64())
    }

    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(range, self.next_u64())
    }

    pub fn gen_bool(&mut self, p: f64) -> bool {
        f64_from_u64(self.next_u64()) < p
    }

    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        (!xs.is_empty()).then(|| &xs[below(self.next_u64(), xs.len() as u64) as usize])
    }

    /// A vector whose length is drawn from `len`, each element made by `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.gen_range(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// The draws the body read, less trailing zeros (a replay reads those).
    fn read_draws(mut self) -> Vec<u64> {
        let last = self.draws[..self.read].iter().rposition(|&raw| raw != 0);
        self.draws.truncate(last.map_or(0, |i| i + 1));
        self.draws
    }
}

thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });

/// Runs `body` on `g` and catches its panic, which prints nothing: the
/// hook is silent on this thread while the body runs, and only here.
fn fails(body: &mut impl FnMut(&mut Gen), g: &mut Gen) -> bool {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info)
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let failed = panic::catch_unwind(AssertUnwindSafe(|| body(g))).is_err();
    QUIET.with(|q| q.set(false));
    failed
}

/// Greedy shrinking of a failing case's draws: delete runs of draws, then
/// lower each draw to the smallest value that still fails (binary search),
/// until a round changes nothing or the step budget is spent.
fn shrink(body: &mut impl FnMut(&mut Gen), mut best: Vec<u64>) -> Vec<u64> {
    let mut steps = 0;
    // Whether `cand` fails and reads fewer, or smaller, draws than `best`;
    // if so, what it read becomes `best`.
    let mut improves = |cand: Vec<u64>, best: &mut Vec<u64>| {
        steps += 1;
        let mut g = Gen::replay(cand);
        let failed = steps <= SHRINK_STEPS && fails(body, &mut g);
        let read = g.read_draws();
        let better = failed && (read.len(), &read) < (best.len(), best);
        if better {
            *best = read;
        }
        better
    };
    loop {
        let before = best.clone();
        for k in [8, 4, 2, 1] {
            let mut i = 0;
            while i + k <= best.len() {
                if !improves([&best[..i], &best[i + k..]].concat(), &mut best) {
                    i += 1;
                }
            }
        }
        for i in 0..best.len() {
            // Values below `lo` pass and `best[i]` fails; 0 goes first.
            let mut lo = 0;
            while i < best.len() && lo < best[i] {
                let mid = if lo == 0 { 0 } else { lo + (best[i] - lo) / 2 };
                if !improves([&best[..i], &[mid], &best[i + 1..]].concat(), &mut best) {
                    lo = mid + 1;
                }
            }
        }
        if best == before {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn sampled_values_stay_in_range() {
        check("sampled_values_stay_in_range", 200, |g| {
            assert!((3..17).contains(&g.gen_range(3u64..17)));
            assert!((-4..9).contains(&g.gen_range(-4i32..9)));
            assert!((0.5..2.0).contains(&g.gen_range(0.5..2.0)));
            assert!((0.0..1.0).contains(&g.gen::<f64>()));
            let v = g.vec(2..7, |g| g.gen_range(0u8..3));
            assert!((2..7).contains(&v.len()) && v.iter().all(|&x| x < 3));
        });
    }

    #[test]
    fn vec_choose_and_gen_bool_cover_their_outputs() {
        let (mut lens, mut picks, mut bools) = ([false; 4], [false; 3], [false; 2]);
        check("vec_choose_and_gen_bool_cover_their_outputs", 64, |g| {
            lens[g.vec(0..4, |_| ()).len()] = true;
            picks[*g.choose(&[0, 1, 2]).unwrap()] = true;
            bools[g.gen_bool(0.5) as usize] = true;
            assert!(g.choose::<u8>(&[]).is_none());
        });
        assert!(lens.iter().chain(&picks).chain(&bools).all(|&seen| seen));
    }

    #[test]
    fn a_test_name_draws_the_same_cases_every_run() {
        let run = |name| {
            let mut out = Vec::new();
            check(name, 8, |g| out.push(g.vec(0..5, |g| g.gen::<u64>())));
            out
        };
        assert_eq!(run("same"), run("same"));
        assert_ne!(run("same"), run("other"));
    }

    /// The runner's samplers are `SmallRng`'s, draw for draw.
    #[test]
    fn gen_and_small_rng_map_a_draw_to_the_same_value() {
        let xs = [10, 20, 30, 40, 50];
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let mut g = Gen::replay(vec![r.clone().next_u64(); 12]);
            let mut r2 = r.clone();
            assert_eq!(g.gen::<u64>(), r2.gen::<u64>());
            assert_eq!(g.gen::<u32>(), r.clone().gen::<u32>());
            assert_eq!(g.gen::<u8>(), r.clone().gen::<u8>());
            assert_eq!(g.gen::<bool>(), r.clone().gen::<bool>());
            assert_eq!(g.gen::<f64>(), r.clone().gen::<f64>());
            assert_eq!(g.gen_range(5u32..77), r.clone().gen_range(5u32..77));
            assert_eq!(g.gen_range(-9i64..3), r.clone().gen_range(-9i64..3));
            assert_eq!(
                g.gen_range(0usize..1 << 40),
                r.clone().gen_range(0usize..1 << 40)
            );
            assert_eq!(g.gen_range(1.5..2.5), r.clone().gen_range(1.5..2.5));
            assert_eq!(g.gen_bool(0.3), r.clone().gen_bool(0.3));
            assert_eq!(g.choose(&xs), r.clone().choose(&xs));
            assert_eq!(g.vec(0..9, |_| ()).len(), r.clone().gen_range(0usize..9));
            r = r2;
        }
    }

    /// The property fails on any element of 500 or more, so the smallest
    /// failing input is one element, 500.
    #[test]
    fn a_failing_vec_shrinks_to_its_minimal_case() {
        let last = RefCell::new(Vec::new());
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            check("a_failing_vec_shrinks_to_its_minimal_case", 48, |g| {
                let v = g.vec(0..50, |g| g.gen_range(0..1000));
                *last.borrow_mut() = v.clone();
                assert!(v.iter().all(|&x| x < 500), "{v:?}");
            })
        }));
        assert!(run.is_err(), "the property must fail");
        assert_eq!(*last.borrow(), [500]);
    }
}
