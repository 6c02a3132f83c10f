//! Tests of the simulation's physical models: network latency, CPU
//! queueing, disk timing and message accounting.

use cx_cluster::des::{run_trace, DesCluster};
use cx_cluster::ObsSink;
use cx_obs::GaugeKind;
use cx_types::{BatchTrigger, ClusterConfig, Protocol, DUR_MS, DUR_US};
use cx_workloads::{Metarates, MetaratesMix, Trace, TraceBuilder, TraceProfile};

fn small_trace() -> Trace {
    TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
        .scale(0.002)
        .build()
}

#[test]
fn network_latency_slows_the_replay() {
    let trace = small_trace();
    let run = |one_way_us: u64| {
        let mut cfg = ClusterConfig::new(8, Protocol::Cx);
        cfg.net.one_way_ns = one_way_us * DUR_US;
        let (stats, v) = run_trace(cfg, &trace);
        assert!(v.is_empty());
        stats.replay
    };
    let fast = run(10);
    let slow = run(2_000);
    assert!(
        slow > fast,
        "2 ms links must be slower than 10 µs links ({slow} vs {fast})"
    );
}

#[test]
fn cpu_cost_slows_the_replay() {
    let trace = small_trace();
    let run = |per_msg_us: u64| {
        let mut cfg = ClusterConfig::new(8, Protocol::Cx);
        cfg.cpu.per_msg_ns = per_msg_us * DUR_US;
        let (stats, v) = run_trace(cfg, &trace);
        assert!(v.is_empty());
        stats.replay
    };
    assert!(run(500) > run(5));
}

#[test]
fn slower_disks_hurt_the_sync_baseline_more() {
    let trace = small_trace();
    let run = |protocol, sync_ms: u64| {
        let mut cfg = ClusterConfig::new(8, protocol);
        cfg.disk.db_sync_write_ns = sync_ms * DUR_MS;
        let (stats, v) = run_trace(cfg, &trace);
        assert!(v.is_empty());
        stats.replay.as_secs_f64()
    };
    let se_penalty = run(Protocol::Se, 8) / run(Protocol::Se, 1);
    let cx_penalty = run(Protocol::Cx, 8) / run(Protocol::Cx, 1);
    assert!(
        se_penalty > cx_penalty,
        "OFS pays sync writes per sub-op; Cx does not ({se_penalty:.2}x vs {cx_penalty:.2}x)"
    );
}

#[test]
fn message_accounting_is_consistent() {
    let trace = small_trace();
    let (stats, _) = run_trace(ClusterConfig::new(8, Protocol::Cx), &trace);
    assert_eq!(
        stats.total_msgs(),
        stats.client_msgs + stats.server_msgs,
        "every message is either client-facing or server-to-server"
    );
    // execution phase: one request and one response per sub-op assignment
    let reqs = stats
        .msgs
        .get(&cx_types::MsgKind::SubOpReq)
        .copied()
        .unwrap();
    let resps = stats
        .msgs
        .get(&cx_types::MsgKind::SubOpResp)
        .copied()
        .unwrap();
    assert!(resps >= reqs - stats.server_stats.invalidations);
}

#[test]
fn timeline_is_time_ordered() {
    let trace = TraceBuilder::new(TraceProfile::by_name("home2").unwrap())
        .scale(0.005)
        .build();
    let mut cfg = ClusterConfig::new(8, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 100 * DUR_MS,
    };
    let sink = ObsSink::recording("cx");
    let (stats, _) = DesCluster::new(cfg, &trace).with_obs(sink.clone()).run();
    let series = sink
        .report()
        .expect("a recording sink")
        .gauge_series(GaugeKind::ValidLogBytes);
    for w in series.windows(2) {
        assert!(w[1].0 > w[0].0, "one entry per sample instant");
        assert!(w[0].1 <= w[0].2, "mean ≤ max");
    }
    let busiest = series.iter().map(|&(_, _, max)| max).max();
    assert_eq!(busiest, Some(stats.peak_valid_bytes));
}

#[test]
fn failure_injection_flows_through_the_stack() {
    let trace = Metarates::new(MetaratesMix::UpdateDominated, 16)
        .seed_files(100)
        .ops_per_proc(40)
        .build();
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.failure.subop_fail_prob = 0.02;
    let (stats, violations) = run_trace(cfg, &trace);
    assert_eq!(violations, vec![], "aborts must stay atomic");
    assert!(stats.ops_failed > 0, "injected failures must surface");
    assert!(
        stats.server_stats.ops_aborted > 0,
        "disagreements must abort via commitments"
    );
    assert_eq!(stats.ops_stuck, 0);
}

#[test]
fn cross_latency_exceeds_overall_latency() {
    let trace = small_trace();
    let (stats, _) = run_trace(ClusterConfig::new(8, Protocol::Se), &trace);
    assert!(
        stats.cross_latency_hist.mean() > stats.latency_hist.mean(),
        "cross-server ops are the slow ones under serial execution"
    );
    assert_eq!(
        stats.cross_latency_hist.count, stats.cross_ops,
        "every cross-server op contributes one latency sample"
    );
}
