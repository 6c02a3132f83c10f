//! Figure 7: sensitivity to the log size.
//!
//! (a) throughput relative to OFS as a function of the log's upper limit —
//!     a small log fills, blocks new arrivals and forces commitments;
//! (b) total valid-record volume over time with an unlimited log — rises
//!     for ~the first trigger period, peaks, then drops at every lazy
//!     commitment (the paper saw a ~600 KB peak with 10 s drops on home2).
//!
//!     cargo run --release -p cx-bench --bin figure7_log_size [--scale f|--full]

use cx_bench::{print_table, write_json, Args};
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

fn main() {
    let args = Args::parse();
    let scale = args.scale(0.04);
    // The trigger period is scaled with the workload so several lazy
    // commitment cycles land inside the replay, like the paper's 10 s
    // timeout inside a minutes-long replay.
    let period_ns = args.value("--period-ms").unwrap_or(400u64) * DUR_MS;
    println!("Figure 7 — log-size sensitivity (home2, 8 servers, scale {scale})\n");

    let workload = || Workload::trace("home2").scale(scale);
    let ofs = Experiment::new(workload())
        .servers(8)
        .protocol(Protocol::Se)
        .run();
    assert!(ofs.is_consistent());
    let ofs_secs = ofs.stats.replay_secs();

    // (a) limit sweep
    let limits: Vec<Option<u64>> = vec![
        Some(16 << 10),
        Some(64 << 10),
        Some(256 << 10),
        Some(1 << 20),
        None,
    ];
    let points: Vec<LimitPoint> = cx_bench::par_map(&limits, |limit| {
        let r = Experiment::new(workload())
            .servers(8)
            .protocol(Protocol::Cx)
            .log_limit(*limit)
            .trigger(BatchTrigger::Timeout { period_ns })
            .run();
        assert!(r.is_consistent());
        LimitPoint {
            limit_kb: limit.map(|b| b >> 10),
            replay_secs: r.stats.replay_secs(),
            vs_ofs_pct: (1.0 - r.stats.replay_secs() / ofs_secs) * 100.0,
            log_full_blocks: r.stats.server_stats.log_full_blocks,
        }
    });

    println!("(a) impact of the log upper-limit    [OFS baseline: {ofs_secs:.3} s]");
    print_table(
        &["log limit", "Cx replay (s)", "vs OFS", "blocked-on-log"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.limit_kb
                        .map(|kb| format!("{kb} KB"))
                        .unwrap_or_else(|| "unlimited".into()),
                    format!("{:.3}", p.replay_secs),
                    format!("+{:.0}%", p.vs_ofs_pct),
                    p.log_full_blocks.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // (b) valid-record timeline with an unlimited log: the obs plane's
    // 200 ms gauge samples
    let sink = ObsSink::recording("cx");
    let r = Experiment::new(workload())
        .servers(8)
        .protocol(Protocol::Cx)
        .log_limit(None)
        .trigger(BatchTrigger::Timeout { period_ns })
        .run_obs(sink.clone());
    assert!(r.is_consistent());
    let report = sink.report().expect("a recording sink");
    assert_eq!(report.dropped_gauges, 0, "Figure 7b reads every sample");
    let timeline: Vec<(f64, u64, u64)> = report
        .gauge_series(GaugeKind::ValidLogBytes)
        .into_iter()
        .map(|(at, mean, max)| (at.as_secs_f64(), mean, max))
        .collect();
    // a series at all, whose busiest sample is the digested peak
    let busiest = timeline.iter().map(|s| s.2).max();
    assert_eq!(busiest, Some(r.stats.peak_valid_bytes), "one recorder");
    println!(
        "\n(b) valid-records' size over time (unlimited log, {} ms trigger)",
        period_ns / DUR_MS
    );
    println!(
        "    peak on the busiest server: {} KB",
        r.stats.peak_valid_bytes >> 10
    );
    for s in timeline.iter().step_by((timeline.len() / 24).max(1)) {
        let bar = "#".repeat(((s.1 >> 10) as usize).min(70));
        println!("    {:>7.2}s {:>6} KB |{}", s.0, s.1 >> 10, bar);
    }
    println!(
        "\npaper: larger logs help (pruning pressure blocks requests);\n\
         valid records climb during the first trigger period, peak, and\n\
         drop at every batched commitment."
    );
    write_json(
        "figure7_log_size",
        &Out {
            limits: points,
            timeline,
        },
    );
}
