//! Tier-1 coverage for the crates `cargo test -q` otherwise never builds:
//! one fault plan through `cx-chaos`, one loopback-TCP run through
//! `cx-net` with the reconnect drill, each against the DES as oracle, and
//! the wall-clock runtime's two entry points against each other.

use cx_chaos::{run_plan, run_plan_obs, ChaosScenario};
use cx_core::{
    ClusterConfig, DesCluster, ObsSink, Protocol, TcpCluster, TcpOptions, ThreadedCluster, Workload,
};
use cx_net::PlaneConfig;
use cx_obs::GaugeKind;
use cx_types::{BatchTrigger, DUR_MS};

// The plans of `plans.rs`; four run here.
#[allow(dead_code)]
#[path = "kit/regression_plans.rs"]
mod regression_plans;

/// Kill server 2 as it appends its sixth Result-Record, mid-execution.
#[test]
fn participant_crash_plan_is_clean_and_replays_to_the_same_digest() {
    let plan = regression_plans::participant_crash_plan();
    let scn = ChaosScenario::new(Protocol::Cx);
    let a = run_plan(&scn, &plan);
    assert_eq!(a.failures, Vec::<String>::new());
    assert_eq!(a.outcome.stats.faults.crashes, 1, "the crash must fire");
    assert_eq!(a.outcome.stats.faults.recoveries, 1);
    let b = run_plan(&scn, &plan);
    assert_eq!(a.digest, b.digest, "same plan, same digest");
}

/// A crash and its recovery are in the obs report: the victim's liveness
/// gauge reads 0 at the cycle's `crashed_at` and 1 at its
/// `recovery_finished`, and nothing else writes it. Recording leaves the
/// run's digest alone.
#[test]
fn the_victims_liveness_samples_are_its_recovery_cycle() {
    let plan = regression_plans::participant_crash_plan();
    let scn = ChaosScenario::new(Protocol::Cx);
    let sink = ObsSink::recording("cx");
    let run = run_plan_obs(&scn, &plan, sink.clone());
    let cycles = &run.outcome.stats.recovery_cycles;
    assert_eq!(cycles.len(), 1, "one crash, one recovery");
    let want: Vec<_> = cycles
        .iter()
        .flat_map(|c| {
            [
                (c.server.0, c.crashed_at, 0),
                (c.server.0, c.recovery_finished, 1),
            ]
        })
        .collect();
    let report = sink.report().expect("a recording sink");
    let got: Vec<_> = report
        .gauges
        .iter()
        .filter(|g| g.kind == GaugeKind::Liveness)
        .map(|g| (g.server, g.at, g.value))
        .collect();
    assert_eq!(got, want);
    assert_eq!(
        run.digest,
        run_plan(&scn, &plan).digest,
        "recording moved the run"
    );
}

/// The three message-fault plans, pinned to values: digest and the drop,
/// delay and dup counts. A change to how a send's fate is carried out (who
/// asks the injector, in which order a duplicate's copies go) moves these.
#[test]
fn message_fault_plans_are_pinned() {
    let scn = ChaosScenario::new(Protocol::Cx);
    // (plan, digest, drops, delays, dups), recorded when the injector was
    // still asked from the DES's own send port.
    let pins = [
        (
            regression_plans::delayed_votes_plan(),
            3_242_583_449_180_376_225,
            0,
            6,
            0,
        ),
        (
            regression_plans::mixed_faults_plan(),
            4_988_761_319_360_858_753,
            1,
            0,
            1,
        ),
        (
            regression_plans::duplicate_storm_plan(),
            669_503_802_105_871_527,
            1,
            1,
            1,
        ),
    ];
    for (plan, digest, drops, delays, dups) in &pins {
        let run = run_plan(&scn, plan);
        let f = run.outcome.stats.faults;
        assert_eq!(run.failures, Vec::<String>::new());
        assert_eq!(run.digest, *digest, "{plan:?}");
        assert_eq!((f.drops, f.delays, f.dups), (*drops, *delays, *dups));
    }
}

/// Four servers over loopback TCP with every coordinator connection
/// dropped a quarter of the way in: lossless, and the workload-determined
/// totals equal the DES run of the same input.
#[test]
fn tcp_reconnect_drill_matches_the_des_totals() {
    let des_cfg = ClusterConfig::new(4, Protocol::Cx);
    let trace = Workload::trace("home2").scale(0.0003);
    let expected = trace.stream(&des_cfg).total_ops_hint;
    // Wall-clock runtimes need wall-clock-sized triggers.
    let mut tcp_cfg = des_cfg.clone();
    tcp_cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5 * DUR_MS,
    };
    tcp_cfg.cx.hint_mismatch_timeout_ns = 20 * DUR_MS;
    let opts = TcpOptions {
        drop_conns_after_ops: Some(expected / 4),
        net: PlaneConfig {
            backoff_base: std::time::Duration::from_millis(1),
            ..PlaneConfig::default()
        },
        ..TcpOptions::default()
    };
    let tcp = TcpCluster::run_stream_opts(tcp_cfg, trace.stream(&des_cfg), opts);
    let (des, des_violations) =
        DesCluster::new_stream(des_cfg.clone(), trace.stream(&des_cfg)).run();
    assert_eq!(tcp.violations, vec![]);
    assert_eq!(des_violations, vec![]);
    assert!(tcp.reconnects >= 1, "the drill must force a re-dial");
    assert_eq!(tcp.stats.ops_total, des.ops_total);
    assert_eq!(tcp.stats.cross_ops, des.cross_ops);
    assert_eq!(
        tcp.stats.ops_applied + tcp.stats.ops_failed,
        tcp.stats.ops_total,
        "every op answered across the reconnect"
    );
}

/// One node loop, two transports: the same home2 prefix through the
/// channel and the socket entry point gives the same tie-insensitive
/// totals (`tcp_equivalence.rs`'s comparison), and
/// both fill the send-side message accounting — which a threaded run never
/// did while it had a runtime of its own.
#[test]
fn threaded_and_tcp_agree_through_one_node_loop() {
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5 * DUR_MS,
    };
    cfg.cx.hint_mismatch_timeout_ns = 20 * DUR_MS;
    let trace = Workload::trace("home2").scale(0.0003);
    let thr = ThreadedCluster::run_stream(cfg.clone(), trace.stream(&cfg));
    let tcp = TcpCluster::run_stream(cfg.clone(), trace.stream(&cfg));
    assert_eq!(thr.violations, vec![]);
    assert_eq!(tcp.violations, vec![]);
    let (a, b) = (&thr.stats, &tcp.stats);
    assert_eq!(a.ops_total, trace.stream(&cfg).total_ops_hint);
    assert_eq!((a.ops_total, a.cross_ops), (b.ops_total, b.cross_ops));
    assert_eq!(a.ops_applied + a.ops_failed, a.ops_total);
    assert_eq!(b.ops_applied + b.ops_failed, b.ops_total);
    let band = (a.ops_total / 50).max(2);
    assert!(a.ops_applied.abs_diff(b.ops_applied) <= band);
    assert!(a.ops_failed.abs_diff(b.ops_failed) <= band);
    assert!(!a.msgs.is_empty() && !b.msgs.is_empty());
    assert!(a.server_msgs > 0 && b.server_msgs > 0);
    assert_eq!(a.client_msgs, b.client_msgs);
    assert_eq!((&a.leftovers, &b.leftovers), (&vec![], &vec![]));
}
