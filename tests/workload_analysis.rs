//! Cross-crate checks of the workload analysis API and the stability of
//! the generated traces' statistical properties across scales.

use cx_core::{Experiment, MetaratesMix, Protocol, TraceBuilder, TraceProfile, Workload};
use cx_workloads::TraceSummary;

/// The cross-server share the paper states (35 % CTH / 48 % s3d) is a
/// property of the mix and placement, so it must be stable across trace
/// scales and seeds.
#[test]
fn cross_server_share_is_scale_invariant() {
    let profile = TraceProfile::by_name("s3d").expect("exists");
    let mut shares = Vec::new();
    for (scale, seed) in [(0.002, 1u64), (0.01, 2), (0.02, 3)] {
        let trace = TraceBuilder::new(profile).scale(scale).seed(seed).stream();
        shares.push(TraceSummary::analyze(trace, 8).cross_server_share);
    }
    for w in shares.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 0.03,
            "cross-server share must be stable across scales: {shares:?}"
        );
    }
    assert!((0.43..=0.53).contains(&shares[2]), "{shares:?}");
}

/// The Workload::metarates convenience constructor produces the same
/// closed-loop shape as the explicit variant.
#[test]
fn metarates_convenience_constructor() {
    let w = Workload::metarates(MetaratesMix::ReadDominated);
    let cfg = cx_core::ClusterConfig::new(2, Protocol::Cx);
    let trace = w.stream(&cfg);
    assert_eq!(trace.processes, cfg.total_processes());
    let summary = TraceSummary::analyze(trace, 2);
    assert!(
        (0.15..=0.25).contains(&summary.mutation_share),
        "read-dominated means ~20% updates, got {}",
        summary.mutation_share
    );
}

/// A workload set up by hand (profile, scale, seed) replays exactly the
/// ops its stream yields.
#[test]
fn custom_workloads_replay_verbatim() {
    let e = Experiment::new(Workload::trace("alegra").scale(0.001).seed(9))
        .servers(4)
        .protocol(Protocol::Cx);
    let expected = e.workload.stream(&e.cfg).total_ops_hint;
    let r = e.run();
    assert!(r.is_consistent());
    assert_eq!(r.stats.ops_total, expected);
}

/// Profile tweaks flow end to end: zeroing the sharing probability
/// eliminates conflicts entirely.
#[test]
fn conflict_free_tweak_eliminates_conflicts() {
    let workload = Workload::trace("deasna2")
        .scale(0.002)
        .tweak(|p| p.shared_access_prob = 0.0);
    let r = Experiment::new(workload)
        .servers(8)
        .protocol(Protocol::Cx)
        .run();
    assert!(r.is_consistent());
    assert_eq!(
        r.stats.server_stats.conflicts, 0,
        "no sharing, no conflicts"
    );
}
