//! Tier-1 coverage for the crates `cargo test -q` otherwise never builds:
//! one fault plan through `cx-chaos`, and one loopback-TCP run through
//! `cx-net` with the reconnect drill, each against the DES as oracle.

use cx_chaos::{run_plan, ChaosScenario};
use cx_core::{run_trace, ClusterConfig, Protocol, TcpCluster, TcpOptions, Workload};
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
