//! Loopback equivalence: the TCP runtime must reproduce the threaded
//! runtime's tie-insensitive totals for all four engine families on the
//! same workload (ISSUE 7 satellite 3), with the DES as a second oracle
//! for the schedule-independent counters.
//!
//! "Tie-insensitive" draws the line at scheduling ties: counters fixed by
//! the workload and placement (`ops_total`, `cross_ops`, the
//! applied+failed closure) must match *exactly*; counters that depend on
//! which of two racing operations a server saw first (applied vs failed
//! split, conflicts, retried sub-op executions) get a small band,
//! `max(2, total/50)`.

use cx_cluster::des::run_trace;
use cx_cluster::{RunStats, TcpCluster, TcpOptions, ThreadedCluster};
use cx_types::{BatchTrigger, ClusterConfig, Protocol};
use cx_workloads::{Trace, TraceBuilder, TraceProfile};

fn fast_cfg(servers: u32, protocol: Protocol) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(servers, protocol);
    // wall-clock triggers must be short in tests
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5_000_000, // 5 ms
    };
    cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
    cfg
}

fn home2_prefix() -> Trace {
    TraceBuilder::new(TraceProfile::by_name("home2").unwrap())
        .scale(0.0003)
        .build()
}

fn band(total: u64) -> u64 {
    (total / 50).max(2)
}

fn assert_tie_insensitive_match(tcp: &RunStats, other: &RunStats, label: &str) {
    assert_eq!(tcp.ops_total, other.ops_total, "{label}: ops_total");
    assert_eq!(tcp.cross_ops, other.cross_ops, "{label}: cross_ops");
    assert_eq!(
        tcp.ops_applied + tcp.ops_failed,
        tcp.ops_total,
        "{label}: tcp applied+failed closure"
    );
    assert_eq!(
        other.ops_applied + other.ops_failed,
        other.ops_total,
        "{label}: oracle applied+failed closure"
    );
    let b = band(tcp.ops_total);
    assert!(
        tcp.ops_applied.abs_diff(other.ops_applied) <= b,
        "{label}: applied {} vs {} beyond band {b}",
        tcp.ops_applied,
        other.ops_applied,
    );
    assert!(
        tcp.ops_failed.abs_diff(other.ops_failed) <= b,
        "{label}: failed {} vs {} beyond band {b}",
        tcp.ops_failed,
        other.ops_failed,
    );
}

#[test]
fn tcp_loopback_matches_threaded_for_all_four_engines() {
    let trace = home2_prefix();
    for protocol in [Protocol::Cx, Protocol::Se, Protocol::TwoPc, Protocol::Ce] {
        let tcp = TcpCluster::run(fast_cfg(4, protocol), &trace);
        let thr = ThreadedCluster::run(fast_cfg(4, protocol), &trace);
        assert_eq!(tcp.violations, vec![], "{protocol:?}: tcp atomicity");
        assert_eq!(thr.violations, vec![], "{protocol:?}: threaded atomicity");
        assert_eq!(
            tcp.stats.ops_total,
            trace.ops.len() as u64,
            "{protocol:?}: every op completed over TCP"
        );
        assert_tie_insensitive_match(&tcp.stats, &thr.stats, &format!("{protocol:?} vs threaded"));

        // Work actually happened on the wire side, at the same order of
        // magnitude: sub-op executions are retry-sensitive, so a wide
        // sanity band rather than equality.
        let (a, b) = (
            tcp.stats.server_stats.subops_executed,
            thr.stats.server_stats.subops_executed,
        );
        assert!(a > 0, "{protocol:?}: tcp executed sub-ops");
        assert!(
            a.abs_diff(b) <= (a.max(b) / 4).max(8),
            "{protocol:?}: subops_executed {a} vs {b} diverge"
        );
    }
}

#[test]
fn tcp_loopback_matches_des_oracle_for_cx() {
    let trace = home2_prefix();
    // The DES runs the same engines on virtual time with the default
    // (virtual-seconds) triggers; schedule-independent totals must agree
    // with the wall-clock TCP run regardless.
    let tcp = TcpCluster::run(fast_cfg(4, Protocol::Cx), &trace);
    let (des_stats, des_violations) = run_trace(ClusterConfig::new(4, Protocol::Cx), &trace);
    assert_eq!(tcp.violations, vec![]);
    assert_eq!(des_violations, vec![]);
    assert_tie_insensitive_match(&tcp.stats, &des_stats, "Cx vs DES");
}

#[test]
fn tcp_reconnect_mid_run_keeps_equivalence() {
    // The drill drops every coordinator connection mid-run; the totals
    // must still close (lossless reconnect) and match the threaded run.
    let trace = home2_prefix();
    let opts = TcpOptions {
        drop_conns_after_ops: Some(trace.ops.len() as u64 / 4),
        ..TcpOptions::default()
    };
    let tcp = TcpCluster::run_stream_opts(fast_cfg(4, Protocol::Cx), trace.to_stream(), opts);
    let thr = ThreadedCluster::run(fast_cfg(4, Protocol::Cx), &trace);
    assert_eq!(tcp.violations, vec![]);
    assert!(tcp.reconnects >= 1, "the drill must force a re-dial");
    assert_eq!(
        tcp.stats.ops_total,
        trace.ops.len() as u64,
        "the reconnect lost ops"
    );
    assert_tie_insensitive_match(&tcp.stats, &thr.stats, "Cx reconnect vs threaded");
    // Scoped corking coalesced across the kill: over the coordinator's
    // peers, strictly fewer flushes than frames.
    let (frames, flushes) = tcp.health.iter().fold((0u64, 0u64), |(f, fl), (_, h)| {
        (f + h.sends, fl + h.flushes)
    });
    assert!(
        flushes < frames,
        "no coalescing: {flushes} flushes for {frames} frames"
    );
}
