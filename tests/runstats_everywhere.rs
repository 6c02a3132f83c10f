//! A run's result means the same thing on every runtime: the DES, the
//! channel run and the loopback-socket run of one input all return a
//! whole `RunStats` — one latency sample per op, a replay time, a
//! throughput, the final namespace size — and a live run's registry ends
//! up holding the end-of-run totals once, beside what the client host's
//! client table tapped per op.

use cx_core::{
    run_trace, BatchTrigger, ClusterConfig, LiveMetrics, MetricRegistry, ObsSink, Protocol,
    RunStats, SimTime, TcpCluster, ThreadedCluster, Trace, Workload, DUR_MS,
};

/// The `tcp_equivalence.rs` input: an 816-op home2 prefix on 4 Cx servers.
fn home2_prefix() -> (ClusterConfig, ClusterConfig, Trace) {
    let des_cfg = ClusterConfig::new(4, Protocol::Cx);
    let trace = Workload::trace("home2").scale(0.0003).build(&des_cfg);
    // Wall-clock runtimes need wall-clock-sized triggers.
    let mut wall_cfg = des_cfg.clone();
    wall_cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5 * DUR_MS,
    };
    wall_cfg.cx.hint_mismatch_timeout_ns = 20 * DUR_MS;
    (des_cfg, wall_cfg, trace)
}

fn assert_whole(s: &RunStats, des: &RunStats, label: &str) {
    assert_eq!(s.ops_total, des.ops_total, "{label}: ops_total");
    assert_eq!(s.cross_ops, des.cross_ops, "{label}: cross_ops");
    assert_eq!(s.latency_hist.count, s.ops_total, "{label}: latency_hist");
    assert_eq!(
        s.cross_latency_hist.count, s.cross_ops,
        "{label}: cross_latency_hist"
    );
    assert!(
        s.latency_hist.sum > 0,
        "{label}: latencies are not all zero"
    );
    assert!(s.replay > SimTime::ZERO, "{label}: replay");
    assert!(s.drained >= s.replay, "{label}: drained before replay");
    assert!(s.throughput() > 0.0, "{label}: throughput");
    // Which of two racing ops a server saw first decides a few outcomes.
    let band = (s.ops_total / 50).max(2);
    assert!(
        s.final_inodes.abs_diff(des.final_inodes) <= band,
        "{label}: {} inodes vs the DES's {}",
        s.final_inodes,
        des.final_inodes
    );
    assert!(
        s.final_dentries.abs_diff(des.final_dentries) <= band,
        "{label}: {} entries vs the DES's {}",
        s.final_dentries,
        des.final_dentries
    );
}

#[test]
fn every_runtime_returns_a_whole_runstats() {
    let (des_cfg, wall_cfg, trace) = home2_prefix();
    let (des, violations) = run_trace(des_cfg, &trace);
    assert_eq!(violations, vec![]);
    assert!(des.final_inodes > 0 && des.final_dentries > 0);
    assert_whole(&des, &des, "DES");

    let chan = ThreadedCluster::run(wall_cfg.clone(), &trace);
    assert_eq!(chan.violations, vec![]);
    assert_whole(&chan.stats, &des, "channels");

    let sock = TcpCluster::run(wall_cfg, &trace);
    assert_eq!(sock.violations, vec![]);
    assert_whole(&sock.stats, &des, "sockets");
}

#[test]
fn a_live_run_publishes_its_end_of_run_half_once() {
    let (_, wall_cfg, trace) = home2_prefix();
    let live = LiveMetrics::new(MetricRegistry::new());
    let registry = live.registry.clone();
    let res = ThreadedCluster::run_stream_live(wall_cfg, trace.to_stream(), ObsSink::Off, live);
    assert_eq!(res.violations, vec![]);
    let s = &res.stats;
    let snap = registry.snapshot();
    let v = |name: &str| snap.value(name).unwrap_or(0);
    assert!(s.total_msgs() > 0);
    assert_eq!(v("cx_messages_total"), s.total_msgs());
    assert_eq!(v("cx_ops_issued_total"), s.ops_total, "tapped live, once");
    assert_eq!(v("cx_cross_ops_total"), s.cross_ops);
    assert_eq!(
        v("cx_batched_commitments_total"),
        s.proto.batched_commitments
    );
    let latency = snap
        .series
        .iter()
        .find(|r| r.name == "cx_client_latency_ns")
        .expect("client-latency series present");
    assert_eq!(latency.summary.count, s.ops_total);
}
