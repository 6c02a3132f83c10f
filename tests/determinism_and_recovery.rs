//! Reproducibility and crash-recovery, end to end.

use cx_chaos::RecoveryExperiment;
use cx_core::{Experiment, Protocol, Workload};

/// The whole pipeline is deterministic: identical configuration →
/// identical statistics, across protocols.
#[test]
fn identical_runs_are_bit_identical() {
    for protocol in [Protocol::Cx, Protocol::Se, Protocol::TwoPc] {
        let make = || {
            Experiment::new(Workload::trace("alegra").scale(0.002).seed(11))
                .servers(8)
                .protocol(protocol)
                .seed(42)
                .run()
        };
        let (a, b) = (make(), make());
        assert_eq!(a.stats.replay, b.stats.replay, "{protocol:?}");
        assert_eq!(a.stats.msgs, b.stats.msgs, "{protocol:?}");
        assert_eq!(a.stats.events, b.stats.events, "{protocol:?}");
        assert_eq!(a.stats.server_stats, b.stats.server_stats, "{protocol:?}");
        assert_eq!(a.stats.disk, b.stats.disk, "{protocol:?}");
    }
}

/// A different workload seed produces a genuinely different run.
#[test]
fn different_seeds_diverge() {
    let run = |seed| {
        Experiment::new(Workload::trace("alegra").scale(0.002).seed(seed))
            .servers(8)
            .run()
            .stats
            .replay
    };
    assert_ne!(run(1), run(2));
}

/// Table V end-to-end: recovery completes after a mid-run crash, the time
/// grows with the valid-record volume, but sublinearly (batched
/// resumption).
#[test]
fn recovery_time_is_sublinear_in_valid_records() {
    let exp = |kb: u64| {
        RecoveryExperiment {
            servers: 8,
            trace_scale: 0.02,
            detection_ms: 200,
            reboot_ms: 100,
            ..Default::default()
        }
        .with_target(kb << 10)
    };
    let small = exp(10).run().expect("10 KB accumulates");
    let large = exp(160).run().expect("160 KB accumulates");
    assert!(large.valid_kb_at_crash >= 16 * small.valid_kb_at_crash / 2);
    assert!(
        large.protocol_secs > small.protocol_secs,
        "more half-completed work takes longer"
    );
    assert!(
        large.recovery_secs < small.recovery_secs * 16.0,
        "16x the records must cost far less than 16x the total time \
         ({:.3}s vs {:.3}s)",
        large.recovery_secs,
        small.recovery_secs
    );
}

/// The threaded runtime reaches the same final state as the simulator for
/// the same sequential workload.
#[test]
fn threaded_and_des_agree() {
    let workload = Workload::trace("CTH").scale(0.0008);
    let des = Experiment::new(workload.clone())
        .servers(4)
        .protocol(Protocol::Cx)
        .configure(|cfg| {
            cfg.cx.trigger = cx_core::BatchTrigger::Timeout {
                period_ns: 5_000_000,
            }
        })
        .run();
    let thr = Experiment::new(workload)
        .servers(4)
        .protocol(Protocol::Cx)
        .configure(|cfg| {
            cfg.cx.trigger = cx_core::BatchTrigger::Timeout {
                period_ns: 5_000_000,
            }
        })
        .run_threaded();
    assert!(des.is_consistent() && thr.is_consistent());
    assert_eq!(des.stats.ops_total, thr.stats.ops_total);
    // The threaded runtime batches on *wall-clock* timers, so which ops land
    // in which lazy-commitment batch — and therefore which concurrent ops
    // conflict and abort — races with real thread scheduling. Exact
    // applied/failed equality with the virtual-time simulator is not a
    // guaranteed invariant; near-agreement is.
    assert_eq!(
        thr.stats.ops_applied + thr.stats.ops_failed,
        thr.stats.ops_total
    );
    let diff = des.stats.ops_applied.abs_diff(thr.stats.ops_applied);
    assert!(
        diff <= des.stats.ops_total / 50,
        "threaded applied {} vs DES {} — divergence beyond scheduling noise",
        thr.stats.ops_applied,
        des.stats.ops_applied
    );
}

/// The shared reproducibility fingerprint (also used by the chaos replay
/// checks, so this test pins the same digest a repro file pins).
fn stats_digest(r: &cx_core::ExperimentResult) -> u64 {
    r.stats.digest()
}

/// Perf-pass regression guard: the home2 replay must stay bit-identical
/// run to run and identical to the digest pinned when the optimization
/// pass landed. A digest change means simulator *behavior* changed —
/// intended changes must re-pin the golden value.
#[test]
fn home2_digest_pins_simulator_behavior() {
    let run = || {
        Experiment::new(Workload::trace("home2").scale(0.005).seed(7))
            .servers(8)
            .protocol(Protocol::Cx)
            .seed(42)
            .run()
    };
    let a = run();
    let b = run();
    assert!(a.is_consistent());
    assert_eq!(
        stats_digest(&a),
        stats_digest(&b),
        "same-process replay must be exact"
    );

    assert_eq!(stats_digest(&a), GOLDEN_HOME2_DIGEST);
}

/// Pinned by running the home2 replay above at the end of the perf pass.
const GOLDEN_HOME2_DIGEST: u64 = 4_199_832_947_163_537_151;
