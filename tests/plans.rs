//! Hand-written regression fault plans.
//!
//! Each plan targets a specific path of the Cx protocol the paper argues
//! about: the disordered-conflict hint path (delays), crashing a
//! participant mid-execution, crashing a coordinator between VOTE and
//! COMMIT-REQ, a coordinator+participant double crash, and a torn log
//! tail. All must come out clean; the deliberately broken recovery must
//! not.

#[path = "kit/regression_plans.rs"]
mod regression_plans;

use cx_chaos::{
    run_plan, shrink, ChaosScenario, CrashFault, CrashPoint, FaultPlan, NetAction, NetFault,
    PlanInjector,
};
use cx_cluster::{ChaosOutcome, DesCluster};
use cx_types::{BatchTrigger, ClusterConfig, MsgKind, Protocol, ServerId, DUR_MS};
use cx_wal::RecordFamily;
use cx_workloads::{TraceBuilder, TraceProfile};
use regression_plans::*;

fn scenario() -> ChaosScenario {
    ChaosScenario::new(Protocol::Cx)
}

/// Delaying VOTEs and sub-op responses exercises the disordered-delivery
/// hint path (§III-B's conflict hints arrive out of order) without ever
/// losing a message; the run must stay fully clean and quiesce.
#[test]
fn delayed_votes_exercise_the_disorder_hint_path() {
    let run = run_plan(&scenario(), &delayed_votes_plan());
    assert_eq!(run.failures, Vec::<String>::new());
    assert!(run.outcome.quiesced, "delays alone must not wedge anything");
    assert!(run.outcome.stats.faults.delays >= 4);
}

/// Kill a participant right after it appended a Result record (acked work
/// in its log, commitment still pending). Recovery must resume the
/// half-completed commitments and the oracle must stay silent.
#[test]
fn participant_crash_mid_execution_recovers_cleanly() {
    let run = run_plan(&scenario(), &participant_crash_plan());
    assert_eq!(run.failures, Vec::<String>::new());
    let f = &run.outcome.stats.faults;
    assert_eq!(f.crashes, 1, "the crash point must fire");
    assert_eq!(f.recoveries, 1);
    assert!(f.oracle_checks >= 2, "post-recovery + end-of-run passes");
    assert_eq!(run.outcome.stats.recovery_cycles.len(), 1);
    assert_eq!(run.outcome.stats.recovery_cycles[0].server, ServerId(2));
}

/// Kill a coordinator right after it appended its first Commit record —
/// i.e. after the VOTE round decided but with COMMIT-REQs at most in
/// flight (§III-C's window). The decision is durable, so recovery must
/// finish the commitment on both sides.
#[test]
fn coordinator_crash_between_vote_and_commit_req() {
    let run = run_plan(&scenario(), &coordinator_crash_plan());
    assert_eq!(run.failures, Vec::<String>::new());
    assert_eq!(run.outcome.stats.faults.crashes, 1);
    assert_eq!(run.outcome.stats.faults.recoveries, 1);
}

/// Coordinator and participant die in the same run (different moments).
/// Both recover; the cross-server state they shared must reconcile.
#[test]
fn coordinator_and_participant_double_crash() {
    let run = run_plan(&scenario(), &double_crash_plan());
    assert_eq!(run.failures, Vec::<String>::new());
    let f = &run.outcome.stats.faults;
    assert_eq!(f.crashes, 2, "both crash points must fire");
    assert_eq!(f.recoveries, 2);
}

/// A torn log tail: whole in-flight records past the durable mark survive
/// the crash. The scan must treat them as valid (they were fully written)
/// and recovery must still reconcile.
#[test]
fn torn_tail_crash_is_survivable() {
    let run = run_plan(&scenario(), &torn_tail_plan());
    assert_eq!(run.failures, Vec::<String>::new());
    assert_eq!(run.outcome.stats.faults.torn_crashes, 1);
    assert_eq!(run.outcome.stats.faults.recoveries, 1);
}

/// The oracle's self-test: with `unsafe_skip_recovery_resume` the same
/// participant-crash schedule must produce durability/partial-state
/// findings, and the shrinker must reduce a padded plan back to the one
/// essential fault.
#[test]
fn broken_recovery_is_caught_and_shrinks_to_one_fault() {
    let mut scn = scenario();
    scn.broken = true;

    let mut caught = None;
    'search: for server in 0..scn.servers {
        for nth in [3u64, 6, 10, 16, 24] {
            let plan = FaultPlan {
                crashes: vec![crash(
                    server,
                    CrashPoint::WalAppend {
                        family: RecordFamily::Result,
                        nth,
                    },
                    0,
                )],
                ..FaultPlan::default()
            };
            if !run_plan(&scn, &plan).failures.is_empty() {
                caught = Some(plan);
                break 'search;
            }
        }
    }
    let essential = caught.expect("some participant crash must expose the broken recovery");

    // Pad with two irrelevant delays; the shrinker must strip them.
    let mut padded = essential.clone();
    padded.net.push(NetFault {
        kind: MsgKind::Vote,
        from: None,
        to: None,
        nth: 2,
        action: NetAction::Delay { ns: 1_000_000 },
    });
    padded.net.push(NetFault {
        kind: MsgKind::Ack,
        from: None,
        to: None,
        nth: 3,
        action: NetAction::Delay { ns: 1_000_000 },
    });
    let shrunk = shrink(&scn, &padded);
    assert_eq!(shrunk.len(), 1, "only the crash is essential: {shrunk:?}");
    assert_eq!(shrunk.crashes, essential.crashes);
    assert!(!run_plan(&scn, &shrunk).failures.is_empty());
}

/// Same seed + same plan ⇒ byte-identical event digest and identical
/// findings, for every regression plan — the property that makes repro
/// files trustworthy.
#[test]
fn every_regression_plan_replays_to_identical_digest() {
    let plans: [(&str, FaultPlan); 7] = [
        ("delayed_votes", delayed_votes_plan()),
        ("participant_crash", participant_crash_plan()),
        ("coordinator_crash", coordinator_crash_plan()),
        ("double_crash", double_crash_plan()),
        ("torn_tail", torn_tail_plan()),
        ("mixed_faults", mixed_faults_plan()),
        ("duplicate_storm", duplicate_storm_plan()),
    ];
    let scn = scenario();
    for (name, plan) in &plans {
        let a = run_plan(&scn, plan);
        let b = run_plan(&scn, plan);
        assert_eq!(a.digest, b.digest, "{name}: digests diverged");
        assert_eq!(a.failures, b.failures, "{name}: findings diverged");
        assert_eq!(
            a.outcome.stats.faults.crashes, b.outcome.stats.faults.crashes,
            "{name}"
        );
    }
}

/// home2 at `scale` under Cx with lazy commitments suppressed, `server`
/// crashing once it holds `at_least` bytes of valid records.
fn valid_bytes_crash(scale: f64, server: u32, at_least: u64, delay_ms: (u64, u64)) -> ChaosOutcome {
    let trace = TraceBuilder::new(TraceProfile::by_name("home2").unwrap())
        .scale(scale)
        .tweak(|p| p.shared_access_prob = 0.0)
        .stream();
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Never;
    cfg.cx.log_limit_bytes = None;
    let plan = FaultPlan {
        crashes: vec![CrashFault {
            server: ServerId(server),
            point: CrashPoint::ValidBytes { at_least },
            torn_extra_bytes: 0,
            detection_ns: delay_ms.0 * DUR_MS,
            reboot_ns: delay_ms.1 * DUR_MS,
        }],
        ..FaultPlan::default()
    };
    let injector = PlanInjector::with_seeds(plan, &trace.seeds);
    DesCluster::new_stream(cfg, trace)
        .with_injector(Box::new(injector))
        .run_chaos()
}

/// The Table V trigger: the crash fires at the first append that takes
/// the victim past the target volume, and the recovery is timed.
#[test]
fn valid_bytes_crash_triggers_at_the_target() {
    let outcome = valid_bytes_crash(0.01, 2, 40 << 10, (50, 20));
    let cycle = outcome
        .stats
        .recovery_cycles
        .first()
        .expect("40 KB accumulates; one completed cycle");
    assert_eq!(cycle.server, ServerId(2));
    assert!(cycle.valid_bytes_at_crash >= 40 << 10);
    assert!(cycle.recovery_started.since(cycle.crashed_at) >= 70 * DUR_MS);
    assert!(cycle.recovery_finished > cycle.recovery_started);
    assert!(cycle.scanned_bytes > 0);
}

#[test]
fn valid_bytes_crash_is_deterministic() {
    let run = || valid_bytes_crash(0.008, 0, 20 << 10, (10, 10));
    let (a, b) = (run(), run());
    let (a, b) = (
        a.stats.recovery_cycles.first().expect("20 KB accumulates"),
        b.stats.recovery_cycles.first().expect("20 KB accumulates"),
    );
    assert_eq!(a.crashed_at, b.crashed_at);
    assert_eq!(a.recovery_finished, b.recovery_finished);
    assert_eq!(a.scanned_bytes, b.scanned_bytes);
}
