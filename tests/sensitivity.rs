//! Sensitivity shapes (§IV-D): the directions of Figures 7 and 9 must
//! hold at reduced scale.

use cx_core::{BatchTrigger, Experiment, ObsSink, Protocol, Workload, DUR_MS, DUR_SEC};
use cx_obs::GaugeKind;

fn home2(scale: f64) -> Workload {
    Workload::trace("home2").scale(scale)
}

/// Figure 7(a): a larger log upper-limit improves Cx (a small log forces
/// commitments and blocks arrivals on pruning).
#[test]
fn figure7a_larger_log_is_faster() {
    let run = |limit: Option<u64>| {
        let r = Experiment::new(home2(0.004))
            .servers(8)
            .protocol(Protocol::Cx)
            .log_limit(limit)
            .run();
        assert!(r.is_consistent());
        (r.stats.replay_secs(), r.stats.server_stats.log_full_blocks)
    };
    let (tiny_time, tiny_blocks) = run(Some(24 << 10));
    let (big_time, big_blocks) = run(Some(4 << 20));
    assert!(tiny_blocks > 0, "a 24 KB log must fill during the replay");
    assert_eq!(big_blocks, 0, "a 4 MB log never fills at this scale");
    assert!(
        tiny_time > big_time,
        "small log {tiny_time:.3}s must be slower than large log {big_time:.3}s"
    );
}

/// Figure 7(b): valid records accumulate during the replay and are pruned
/// by commitments; the peak is bounded by the log limit.
#[test]
fn figure7b_valid_records_rise_and_fall() {
    let sink = ObsSink::recording("cx");
    let r = Experiment::new(home2(0.006))
        .servers(8)
        .protocol(Protocol::Cx)
        .log_limit(None)
        .trigger(BatchTrigger::Timeout {
            period_ns: 100 * DUR_MS,
        })
        .run_obs(sink.clone());
    assert!(r.is_consistent());
    assert!(r.stats.peak_valid_bytes > 0);
    // The 200 ms series is the obs plane's gauge stream, every sample kept.
    let report = sink.report().expect("a recording sink");
    assert_eq!(report.dropped_gauges, 0);
    let series = report.gauge_series(GaugeKind::ValidLogBytes);
    let busiest = series.iter().map(|&(_, _, max)| max).max();
    assert_eq!(
        busiest,
        Some(r.stats.peak_valid_bytes),
        "the peak is sampled"
    );
    assert_eq!(series[0].2, 0, "the rise starts from an empty log");
}

/// Figure 9(a): a larger timeout value improves the replay (more batched
/// commitments), approaching the optimum where no lazy commitment fires
/// during the replay at all.
#[test]
fn figure9a_larger_timeout_is_faster() {
    let run = |period_ns| {
        let r = Experiment::new(home2(0.004))
            .servers(8)
            .protocol(Protocol::Cx)
            .log_limit(None)
            .trigger(BatchTrigger::Timeout { period_ns })
            .run();
        assert!(r.is_consistent());
        r.stats.replay_secs()
    };
    let short = run(20 * DUR_MS);
    let long = run(256 * DUR_SEC); // never fires within the replay
    assert!(
        long <= short,
        "long timeout {long:.3}s must not be slower than short {short:.3}s"
    );
}

/// Figure 9(b): a larger threshold batches more commitments.
#[test]
fn figure9b_larger_threshold_batches_more() {
    let run = |pending_ops| {
        let r = Experiment::new(home2(0.004))
            .servers(8)
            .protocol(Protocol::Cx)
            .log_limit(None)
            .trigger(BatchTrigger::Threshold { pending_ops })
            .run();
        assert!(r.is_consistent());
        (r.stats.replay_secs(), r.stats.server_stats.lazy_batches)
    };
    let (small_t, small_batches) = run(4);
    let (large_t, large_batches) = run(512);
    assert!(
        small_batches > large_batches,
        "a low threshold fires more batches ({small_batches} vs {large_batches})"
    );
    assert!(
        large_t <= small_t,
        "fewer, larger batches must not be slower ({large_t:.3} vs {small_t:.3})"
    );
}

/// The idle trigger (the paper's future-work extension) commits lazily
/// and stays consistent.
#[test]
fn idle_trigger_extension_works() {
    let r = Experiment::new(home2(0.003))
        .servers(8)
        .protocol(Protocol::Cx)
        .log_limit(None)
        .trigger(BatchTrigger::Idle {
            idle_ns: 5 * DUR_MS,
        })
        .run();
    assert!(r.is_consistent());
    assert_eq!(r.stats.ops_stuck, 0);
    assert!(
        r.stats.server_stats.lazy_batches > 0,
        "idle periods must trigger lazy commitments"
    );
}

/// Failure injection produces disagreements that resolve via L-COM and
/// ALL-NO without breaking consistency.
#[test]
fn injected_subop_failures_abort_atomically() {
    let r = Experiment::new(home2(0.003))
        .servers(8)
        .protocol(Protocol::Cx)
        .configure(|cfg| cfg.failure.subop_fail_prob = 0.05)
        .run();
    assert!(r.is_consistent(), "aborts must leave no partial state");
    assert!(r.stats.ops_failed > 0, "injected failures must surface");
    assert!(
        r.stats
            .msgs
            .get(&cx_core::MsgKind::AllNo)
            .copied()
            .unwrap_or(0)
            > 0,
        "disagreements must resolve through ALL-NO"
    );
}

/// The log-in-database ablation mode (§IV-A's rejected alternative) is
/// functionally equivalent — only slower.
#[test]
fn log_in_database_mode_is_consistent_and_slower() {
    let run = |in_db: bool| {
        let r = Experiment::new(home2(0.003))
            .servers(8)
            .protocol(Protocol::Cx)
            .configure(|cfg| cfg.cx.log_in_database = in_db)
            .run();
        assert!(r.is_consistent(), "in_db={in_db}");
        assert_eq!(r.stats.ops_stuck, 0);
        r.stats
    };
    let file = run(false);
    let bdb = run(true);
    // timing differs between the modes, so a handful of racy shared reads
    // may resolve differently; the namespace must match exactly
    let diff = (file.ops_applied as i64 - bdb.ops_applied as i64).abs();
    assert!(diff <= 8, "outcomes drifted by {diff} (racy reads only)");
    assert_eq!(file.final_inodes, bdb.final_inodes, "same namespace");
    assert_eq!(file.final_dentries, bdb.final_dentries, "same namespace");
    assert!(
        bdb.replay > file.replay,
        "database-resident log records must cost replay time ({} vs {})",
        bdb.replay,
        file.replay
    );
}
