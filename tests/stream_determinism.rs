//! The streaming workload plane's determinism contract.
//!
//! A [`StreamTrace`] is the only workload representation, so a run can be
//! repeated — on the same runtime or on another — only by pulling a second
//! stream from the same builder. These tests pin what that relies on, for
//! every Table II profile: two streams from one builder are equal (header
//! and op sequence), a generator-backed stream's `total_ops_hint` is the
//! number of ops it yields, and the conflict-injection adapter is
//! deterministic and only adds lookups where §IV-D2 puts them. Metarates'
//! lazy stream is checked against its eager oracle in `src/metarates.rs`
//! (the oracle is `#[cfg(test)]`, out of reach here).

use cx_types::check::check;
use cx_types::FsOp;
use cx_workloads::{
    injection_counts, Metarates, MetaratesMix, StreamTrace, TraceBuilder, TraceOp, TraceProfile,
    PROFILES,
};

fn pull(st: &mut StreamTrace) -> Vec<TraceOp> {
    std::iter::from_fn(|| st.ops.next_op()).collect()
}

fn assert_streams_equal(mut a: StreamTrace, mut b: StreamTrace, ctx: &str) {
    assert_eq!(a.name, b.name, "{ctx}: name");
    assert_eq!(a.processes, b.processes, "{ctx}: processes");
    assert_eq!(a.seeds, b.seeds, "{ctx}: namespace seeds");
    assert_eq!(a.roots, b.roots, "{ctx}: orphan-check roots");
    assert_eq!(a.total_ops_hint, b.total_ops_hint, "{ctx}: hint");
    assert_eq!(pull(&mut a), pull(&mut b), "{ctx}: op sequence");
}

/// Every Table II profile at three seeds: a second stream from the same
/// builder repeats the first.
#[test]
fn two_streams_from_one_builder_are_equal() {
    for profile in &PROFILES {
        for seed in [0x7ace, 7, 991] {
            let b = TraceBuilder::new(profile).scale(0.002).seed(seed);
            assert_streams_equal(
                b.clone().stream(),
                b.stream(),
                &format!("{} seed {seed}", profile.name),
            );
        }
    }
}

/// The hint is exact for generator-backed streams: runtimes and tests
/// take their expected op count from it.
#[test]
fn total_ops_hint_counts_the_pulled_ops() {
    for profile in &PROFILES {
        let mut st = TraceBuilder::new(profile).scale(0.002).stream();
        let hint = st.total_ops_hint;
        assert_eq!(pull(&mut st).len() as u64, hint, "{}", profile.name);
    }
    for mix in [MetaratesMix::ReadDominated, MetaratesMix::UpdateDominated] {
        let mut st = Metarates::new(mix, 12)
            .seed_files(100)
            .ops_per_proc(30)
            .stream();
        assert_eq!(st.total_ops_hint, 12 * 30, "{mix:?}");
        assert_eq!(pull(&mut st).len() as u64, st.total_ops_hint, "{mix:?}");
    }
}

/// The injection adapter, parameterized by a counting pass over a second
/// stream, is deterministic; with its additions taken out it is the
/// underlying stream; and every addition is a `Lookup` of the name a
/// create or mkdir just made, issued by another process right after it.
#[test]
fn injection_adapter_is_deterministic_and_only_adds_lookups() {
    let b = TraceBuilder::new(TraceProfile::by_name("CTH").expect("profile exists"))
        .scale(0.01)
        .seed(11);
    let base = pull(&mut b.clone().stream());
    let (total, injectable) = injection_counts(b.clone().stream());
    assert_eq!(total, base.len() as u64);
    let inject = |ratio| {
        b.clone()
            .stream()
            .inject_conflicting_lookups(ratio, 11, total, injectable)
    };
    for ratio in [0.01, 0.05, 0.2] {
        let ops = pull(&mut inject(ratio));
        assert_eq!(
            ops,
            pull(&mut inject(ratio)),
            "ratio {ratio}: not deterministic"
        );
        assert!(
            ops.len() as u64 > total,
            "ratio {ratio}: the adapter must actually add lookups"
        );
        // Walk the adapted sequence against the underlying one: an op that
        // is not the next underlying op is an addition, and belongs to the
        // underlying op before it.
        let mut next = 0;
        for (k, t) in ops.iter().enumerate() {
            if base.get(next) == Some(t) {
                next += 1;
                continue;
            }
            let made = next
                .checked_sub(1)
                .map(|i| base[i])
                .unwrap_or_else(|| panic!("ratio {ratio}: op {k} added before any op"));
            let (parent, name) = match made.op {
                FsOp::Create { parent, name, .. } | FsOp::Mkdir { parent, name, .. } => {
                    (parent, name)
                }
                other => panic!("ratio {ratio}: op {k} added after {other:?}"),
            };
            assert_eq!(t.op, FsOp::Lookup { parent, name }, "ratio {ratio}: op {k}");
            assert_ne!(t.proc, made.proc, "ratio {ratio}: op {k} by the creator");
        }
        assert_eq!(next, base.len(), "ratio {ratio}: underlying ops dropped");
    }
}

/// Random (seed, scale, profile): two streams from one builder are
/// equal. Catches state that leaks between streams anywhere in the
/// parameter space, not just at the pinned points.
#[test]
fn streams_repeat_for_random_parameters() {
    check("streams_repeat_for_random_parameters", 48, |g| {
        let (seed, scale_milli) = (g.gen_range(0u64..10_000), g.gen_range(1u64..8));
        let b = TraceBuilder::new(&PROFILES[g.gen_range(0usize..6)])
            .scale(scale_milli as f64 / 1000.0)
            .seed(seed);
        let (mut x, mut y) = (b.clone().stream(), b.stream());
        assert_eq!(&x.seeds, &y.seeds);
        assert_eq!(pull(&mut x), pull(&mut y));
    });
}
