//! The streaming workload plane's determinism contract.
//!
//! `TraceBuilder::stream()` must yield *exactly* the operation sequence
//! `TraceBuilder::build()` materializes — same header, same ops, same
//! order — for every Table II profile, with and without the conflict
//! injection adapter. These tests pin that contract independently of how
//! `build()` happens to be implemented today, so a future direct
//! (non-stream-backed) materializer cannot silently diverge from the lazy
//! path. Metarates' lazy stream is checked against its eager oracle in
//! `src/metarates.rs` (the oracle is `#[cfg(test)]`, out of reach here).

use cx_workloads::{injection_counts, Trace, TraceBuilder, TraceProfile, PROFILES};
use proptest::prelude::*;

/// Drain a builder's stream by hand (never through `materialize`, which
/// `build()` itself uses) so the two paths stay independent.
fn collect_stream(b: TraceBuilder) -> Trace {
    let mut st = b.stream();
    let mut ops = Vec::new();
    while let Some(op) = st.ops.next_op() {
        ops.push(op);
    }
    Trace {
        name: st.name,
        processes: st.processes,
        seeds: st.seeds,
        ops,
        roots: st.roots,
    }
}

fn assert_traces_equal(built: &Trace, streamed: &Trace, ctx: &str) {
    assert_eq!(built.name, streamed.name, "{ctx}: name");
    assert_eq!(built.processes, streamed.processes, "{ctx}: processes");
    assert_eq!(built.seeds, streamed.seeds, "{ctx}: namespace seeds");
    assert_eq!(built.roots, streamed.roots, "{ctx}: orphan-check roots");
    assert_eq!(built.ops.len(), streamed.ops.len(), "{ctx}: op count");
    assert_eq!(built.ops, streamed.ops, "{ctx}: op sequence");
}

/// Every Table II profile: the pulled sequence equals the materialized
/// one, and the hint is exact for generator-backed streams.
#[test]
fn all_six_profiles_stream_equals_build() {
    for profile in &PROFILES {
        for seed in [0x7ace, 7, 991] {
            let b = TraceBuilder::new(profile).scale(0.002).seed(seed);
            let built = b.clone().build();
            let streamed = collect_stream(b.clone());
            assert_traces_equal(&built, &streamed, &format!("{} seed {seed}", profile.name));
            assert_eq!(
                b.stream().total_ops_hint,
                built.ops.len() as u64,
                "{}: generator hint must be exact",
                profile.name
            );
        }
    }
}

/// The injection adapter parameterized by a counting pass over a second
/// generator stream must produce the same sequence as the materialized
/// `Trace::inject_conflicting_lookups` (which derives the same counts
/// from the full vector).
#[test]
fn injection_adapter_matches_materialized_injection() {
    for ratio in [0.01, 0.05, 0.2] {
        let b = TraceBuilder::new(TraceProfile::by_name("CTH").expect("profile exists"))
            .scale(0.01)
            .seed(11);
        let mut built = b.clone().build();
        built.inject_conflicting_lookups(ratio, 11);

        let (total, injectable) = injection_counts(b.clone().stream());
        let mut adapted = b
            .stream()
            .inject_conflicting_lookups(ratio, 11, total, injectable);
        let mut ops = Vec::new();
        while let Some(op) = adapted.ops.next_op() {
            ops.push(op);
        }
        assert_eq!(built.ops, ops, "ratio {ratio}: injected sequences diverge");
        assert!(
            ops.len() as u64 > total,
            "ratio {ratio}: the adapter must actually add lookups"
        );
    }
}

proptest! {
    /// Random (seed, scale): build == collect(stream) for a cheap and an
    /// expensive profile. Catches rng-state or model-state divergence
    /// anywhere in the parameter space, not just at the pinned points.
    #[test]
    fn stream_equals_build_for_random_parameters(
        seed in 0u64..10_000,
        scale_milli in 1u64..8,
        profile_idx in 0usize..6,
    ) {
        let b = TraceBuilder::new(&PROFILES[profile_idx])
            .scale(scale_milli as f64 / 1000.0)
            .seed(seed);
        let built = b.clone().build();
        let streamed = collect_stream(b);
        prop_assert_eq!(&built.ops, &streamed.ops);
        prop_assert_eq!(&built.seeds, &streamed.seeds);
    }
}
