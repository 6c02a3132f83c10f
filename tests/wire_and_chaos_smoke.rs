//! Tier-1 coverage for the crates `cargo test -q` otherwise never builds:
//! one fault plan through `cx-chaos`, one loopback-TCP run through
//! `cx-net` with the reconnect drill, each against the DES as oracle, and
//! the wall-clock runtime's two entry points against each other.

use cx_chaos::{run_plan, ChaosScenario};
use cx_core::{
    run_trace, ClusterConfig, Protocol, TcpCluster, TcpOptions, ThreadedCluster, Workload,
};
use cx_net::PlaneConfig;
use cx_types::{BatchTrigger, DUR_MS};

// The plans of `crates/chaos/tests/plans.rs`; only one runs here.
#[allow(dead_code)]
#[path = "../crates/chaos/tests/regression_plans/mod.rs"]
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

/// Four servers over loopback TCP with every coordinator connection
/// dropped a quarter of the way in: lossless, and the workload-determined
/// totals equal the DES run of the same input.
#[test]
fn tcp_reconnect_drill_matches_the_des_totals() {
    let des_cfg = ClusterConfig::new(4, Protocol::Cx);
    let trace = Workload::trace("home2").scale(0.0003).build(&des_cfg);
    // Wall-clock runtimes need wall-clock-sized triggers.
    let mut tcp_cfg = des_cfg.clone();
    tcp_cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5 * DUR_MS,
    };
    tcp_cfg.cx.hint_mismatch_timeout_ns = 20 * DUR_MS;
    let opts = TcpOptions {
        drop_conns_after_ops: Some(trace.ops.len() as u64 / 4),
        net: PlaneConfig {
            backoff_base: std::time::Duration::from_millis(1),
            ..PlaneConfig::default()
        },
        ..TcpOptions::default()
    };
    let tcp = TcpCluster::run_stream_opts(tcp_cfg, trace.to_stream(), opts);
    let (des, des_violations) = run_trace(des_cfg, &trace);
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
/// totals (`crates/cluster/tests/tcp_equivalence.rs`'s comparison), and
/// both fill the send-side message accounting — which a threaded run never
/// did while it had a runtime of its own.
#[test]
fn threaded_and_tcp_agree_through_one_node_loop() {
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5 * DUR_MS,
    };
    cfg.cx.hint_mismatch_timeout_ns = 20 * DUR_MS;
    let trace = Workload::trace("home2").scale(0.0003).build(&cfg);
    let thr = ThreadedCluster::run(cfg.clone(), &trace);
    let tcp = TcpCluster::run(cfg, &trace);
    assert_eq!(thr.violations, vec![]);
    assert_eq!(tcp.violations, vec![]);
    let (a, b) = (&thr.stats, &tcp.stats);
    assert_eq!(a.ops_total, trace.ops.len() as u64);
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
