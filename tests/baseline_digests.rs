//! Golden digests for the four baseline engines.
//!
//! Every figure the paper reports divides Cx by one of these, so their
//! behaviour is pinned exactly like Cx's (`GOLDEN_HOME2_DIGEST`): a digest
//! change means a baseline's *behaviour* changed — intended changes re-pin
//! the value here and say why in CHANGES.md.

use cx_core::{Experiment, ExperimentResult, Protocol, Workload};

const BASELINES: [Protocol; 4] = [
    Protocol::Se,
    Protocol::SeBatched,
    Protocol::TwoPc,
    Protocol::Ce,
];

fn pinned(protocol: Protocol, what: &str, r: &ExperimentResult, golden: u64) {
    assert!(r.is_consistent(), "{protocol:?} {what}");
    assert_eq!(r.stats.digest(), golden, "{protocol:?} {what}");
}

/// The `GOLDEN_HOME2_DIGEST` input, one run per baseline.
#[test]
fn home2_digests_pin_the_baselines() {
    const GOLDEN: [u64; 4] = [
        7_818_225_650_729_378_234,
        2_267_472_798_180_649_251,
        17_879_991_223_007_604_411,
        17_297_385_773_072_283_817,
    ];
    for (protocol, golden) in BASELINES.into_iter().zip(GOLDEN) {
        let r = Experiment::new(Workload::trace("home2").scale(0.005).seed(7))
            .servers(8)
            .protocol(protocol)
            .seed(42)
            .run();
        pinned(protocol, "home2", &r, golden);
    }
}

/// CTH with injected sub-op failures: drives undo, CLEAR (SE), ABORT-REQ
/// (2PC) and the failed migrate-back (CE).
#[test]
fn failure_injection_digests_pin_the_abort_paths() {
    const GOLDEN: [u64; 4] = [
        2_400_143_400_382_231_832,
        8_790_777_747_039_349_298,
        7_097_874_943_766_538_484,
        16_711_345_812_723_157_436,
    ];
    for (protocol, golden) in BASELINES.into_iter().zip(GOLDEN) {
        let r = Experiment::new(Workload::trace("CTH").scale(0.004).seed(7))
            .servers(8)
            .protocol(protocol)
            .seed(42)
            .configure(|cfg| cfg.failure.subop_fail_prob = 0.05)
            .run();
        assert!(
            r.stats.ops_failed > 0,
            "{protocol:?}: failures must surface"
        );
        pinned(protocol, "CTH + 5 % sub-op failures", &r, golden);
    }
}
