//! Figure 9: sensitivity to the batched-commitment strategies (timeout and
//! threshold triggers), with an unlimited log, plus the paper's
//! future-work idle trigger as an extension series.
//!
//!     cargo run --release -p cx-bench --bin figure9_batch_strategies [--scale f|--full]
//!
//! Paper shape: the replay time decreases as the timeout or threshold
//! grows (more commitments batched together); the optimum is reached when
//! no lazy commitment fires during the replay at all (the 256 s timeout).

use cx_bench::{print_table, write_json, Args};
use cx_core::{BatchTrigger, Experiment, Protocol, Workload, DUR_MS, DUR_SEC};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    strategy: String,
    value: String,
    replay_secs: f64,
    lazy_batches: u64,
    peak_valid_kb: u64,
}

fn main() {
    let args = Args::parse();
    let scale = args.scale(0.04);
    println!(
        "Figure 9 — batched-commitment strategies (home2, 8 servers,\n\
         unlimited log, scale {scale})\n"
    );

    let run = |trigger: BatchTrigger| {
        let r = Experiment::new(Workload::trace("home2").scale(scale))
            .servers(8)
            .protocol(Protocol::Cx)
            .log_limit(None)
            .trigger(trigger)
            .run();
        assert!(r.is_consistent());
        (
            r.stats.replay_secs(),
            r.stats.server_stats.lazy_batches,
            r.stats.peak_valid_bytes >> 10,
        )
    };

    // (a) timeout sweep — scaled-down equivalents of the paper's 1..256 s
    let timeouts_ms: Vec<u64> = vec![25, 50, 100, 200, 400, 800, 1600];
    let mut points: Vec<Point> = cx_bench::par_map(&timeouts_ms, |&ms| {
        let (t, batches, peak) = run(BatchTrigger::Timeout {
            period_ns: ms * DUR_MS,
        });
        Point {
            strategy: "timeout".into(),
            value: format!("{ms} ms"),
            replay_secs: t,
            lazy_batches: batches,
            peak_valid_kb: peak,
        }
    });
    // the paper's optimum: a timeout so large no lazy commitment fires
    {
        let (t, batches, peak) = run(BatchTrigger::Timeout {
            period_ns: 256 * DUR_SEC,
        });
        points.push(Point {
            strategy: "timeout".into(),
            value: "256 s (optimum)".into(),
            replay_secs: t,
            lazy_batches: batches,
            peak_valid_kb: peak,
        });
    }

    // (b) threshold sweep
    let thresholds: Vec<u64> = vec![8, 32, 128, 512, 2048];
    points.extend(cx_bench::par_map(&thresholds, |&n| {
        let (t, batches, peak) = run(BatchTrigger::Threshold { pending_ops: n });
        Point {
            strategy: "threshold".into(),
            value: format!("{n} ops"),
            replay_secs: t,
            lazy_batches: batches,
            peak_valid_kb: peak,
        }
    }));

    // extension: the idle trigger the paper lists as future work
    {
        let (t, batches, peak) = run(BatchTrigger::Idle {
            idle_ns: 20 * DUR_MS,
        });
        points.push(Point {
            strategy: "idle (extension)".into(),
            value: "20 ms quiet".into(),
            replay_secs: t,
            lazy_batches: batches,
            peak_valid_kb: peak,
        });
    }

    print_table(
        &[
            "strategy",
            "value",
            "replay (s)",
            "lazy batches",
            "peak valid KB",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.strategy.clone(),
                    p.value.clone(),
                    format!("{:.3}", p.replay_secs),
                    p.lazy_batches.to_string(),
                    p.peak_valid_kb.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\npaper: \"the replay time decreases as the value of timeout or\n\
         threshold increases … if setting a high value, consequently the\n\
         number of valid records on the log file increases as well, thus\n\
         prolonging the recovery time potentially.\""
    );
    write_json("figure9_batch_strategies", &points);
}
