//! Figure 7: sensitivity to the log size.
//!
//! (a) throughput relative to OFS as a function of the log's upper limit —
//!     a small log fills, blocks new arrivals and forces commitments;
//! (b) total valid-record volume over time with an unlimited log — rises
//!     for ~the first trigger period, peaks, then drops at every lazy
//!     commitment (the paper saw a ~600 KB peak with 10 s drops on home2).

use super::{Output, Replay};
use crate::{write_table, Args};
use cx_core::{BatchTrigger, Experiment, ObsSink, Protocol, Workload, DUR_MS};
use cx_obs::GaugeKind;
use serde::Serialize;

#[derive(Serialize)]
struct LimitPoint {
    limit_kb: Option<u64>,
    replay_secs: f64,
    vs_ofs_pct: f64,
    log_full_blocks: u64,
}

#[derive(Serialize)]
struct Out {
    limits: Vec<LimitPoint>,
    timeline: Vec<(f64, u64, u64)>,
}

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.04);
    // The trigger period is scaled with the workload so several lazy
    // commitment cycles land inside the replay, like the paper's 10 s
    // timeout inside a minutes-long replay.
    let period_ns = args.value("--period-ms").unwrap_or(400u64) * DUR_MS;
    let mut out = format!("Figure 7 — log-size sensitivity (home2, 8 servers, scale {scale})\n\n");

    let workload = || Workload::trace("home2").scale(scale);
    let ofs_secs = Experiment::new(workload())
        .servers(8)
        .protocol(Protocol::Se)
        .replay()
        .replay_secs();

    // (a) limit sweep
    let limits: Vec<Option<u64>> = vec![
        Some(16 << 10),
        Some(64 << 10),
        Some(256 << 10),
        Some(1 << 20),
        None,
    ];
    let points: Vec<LimitPoint> = crate::par_map(&limits, |limit| {
        let r = Experiment::new(workload())
            .servers(8)
            .protocol(Protocol::Cx)
            .log_limit(*limit)
            .trigger(BatchTrigger::Timeout { period_ns })
            .replay();
        LimitPoint {
            limit_kb: limit.map(|b| b >> 10),
            replay_secs: r.replay_secs(),
            vs_ofs_pct: (1.0 - r.replay_secs() / ofs_secs) * 100.0,
            log_full_blocks: r.server_stats.log_full_blocks,
        }
    });

    outln!(
        out,
        "(a) impact of the log upper-limit    [OFS baseline: {ofs_secs:.3} s]"
    );
    write_table(
        &mut out,
        &["log limit", "Cx replay (s)", "vs OFS", "blocked-on-log"],
        points.iter().map(|p| {
            vec![
                p.limit_kb
                    .map(|kb| format!("{kb} KB"))
                    .unwrap_or_else(|| "unlimited".into()),
                format!("{:.3}", p.replay_secs),
                format!("+{:.0}%", p.vs_ofs_pct),
                p.log_full_blocks.to_string(),
            ]
        }),
    );

    // (b) valid-record timeline with an unlimited log: the obs plane's
    // 200 ms gauge samples
    let sink = ObsSink::recording("cx");
    let unlimited = Experiment::new(workload())
        .servers(8)
        .protocol(Protocol::Cx)
        .log_limit(None)
        .trigger(BatchTrigger::Timeout { period_ns });
    let r = super::checked(&unlimited, unlimited.run_obs(sink.clone()));
    let report = sink.report().expect("a recording sink");
    assert_eq!(report.dropped_gauges, 0, "Figure 7b reads every sample");
    let timeline: Vec<(f64, u64, u64)> = report
        .gauge_series(GaugeKind::ValidLogBytes)
        .into_iter()
        .map(|(at, mean, max)| (at.as_secs_f64(), mean, max))
        .collect();
    // a series at all, whose busiest sample is the digested peak
    let busiest = timeline.iter().map(|s| s.2).max();
    assert_eq!(busiest, Some(r.peak_valid_bytes), "one recorder");
    outln!(
        out,
        "\n(b) valid-records' size over time (unlimited log, {} ms trigger)",
        period_ns / DUR_MS
    );
    outln!(
        out,
        "    peak on the busiest server: {} KB",
        r.peak_valid_bytes >> 10
    );
    for s in timeline.iter().step_by((timeline.len() / 24).max(1)) {
        let bar = "#".repeat(((s.1 >> 10) as usize).min(70));
        outln!(out, "    {:>7.2}s {:>6} KB |{}", s.0, s.1 >> 10, bar);
    }
    outln!(
        out,
        "\npaper: larger logs help (pruning pressure blocks requests);\n\
         valid records climb during the first trigger period, peak, and\n\
         drop at every batched commitment."
    );
    Output::new(
        out,
        &Out {
            limits: points,
            timeline,
        },
    )
}
