//! Figure 9: sensitivity to the batched-commitment strategies (timeout and
//! threshold triggers), with an unlimited log, plus the paper's
//! future-work idle trigger as an extension series.
//!
//! Paper shape: the replay time decreases as the timeout or threshold
//! grows (more commitments batched together); the optimum is reached when
//! no lazy commitment fires during the replay at all (the 256 s timeout).

use super::{Output, Replay};
use crate::{write_table, Args};
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

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.04);
    let mut out = format!(
        "Figure 9 — batched-commitment strategies (home2, 8 servers,\n\
         unlimited log, scale {scale})\n\n"
    );

    let point = |strategy: &str, value: String, trigger: BatchTrigger| {
        let r = Experiment::new(Workload::trace("home2").scale(scale))
            .servers(8)
            .protocol(Protocol::Cx)
            .log_limit(None)
            .trigger(trigger)
            .replay();
        Point {
            strategy: strategy.into(),
            value,
            replay_secs: r.replay_secs(),
            lazy_batches: r.server_stats.lazy_batches,
            peak_valid_kb: r.peak_valid_bytes >> 10,
        }
    };
    let timeout = |period_ns| BatchTrigger::Timeout { period_ns };

    // (a) timeout sweep — scaled-down equivalents of the paper's 1..256 s
    let timeouts_ms: Vec<u64> = vec![25, 50, 100, 200, 400, 800, 1600];
    let mut points: Vec<Point> = crate::par_map(&timeouts_ms, |&ms| {
        point("timeout", format!("{ms} ms"), timeout(ms * DUR_MS))
    });
    // the paper's optimum: a timeout so large no lazy commitment fires
    let optimum = "256 s (optimum)".into();
    points.push(point("timeout", optimum, timeout(256 * DUR_SEC)));

    // (b) threshold sweep
    let thresholds: Vec<u64> = vec![8, 32, 128, 512, 2048];
    points.extend(crate::par_map(&thresholds, |&n| {
        let trigger = BatchTrigger::Threshold { pending_ops: n };
        point("threshold", format!("{n} ops"), trigger)
    }));

    // extension: the idle trigger the paper lists as future work
    let idle = BatchTrigger::Idle {
        idle_ns: 20 * DUR_MS,
    };
    points.push(point("idle (extension)", "20 ms quiet".into(), idle));

    write_table(
        &mut out,
        &[
            "strategy",
            "value",
            "replay (s)",
            "lazy batches",
            "peak valid KB",
        ],
        points.iter().map(|p| {
            vec![
                p.strategy.clone(),
                p.value.clone(),
                format!("{:.3}", p.replay_secs),
                p.lazy_batches.to_string(),
                p.peak_valid_kb.to_string(),
            ]
        }),
    );
    outln!(
        out,
        "\npaper: \"the replay time decreases as the value of timeout or\n\
         threshold increases … if setting a high value, consequently the\n\
         number of valid records on the log file increases as well, thus\n\
         prolonging the recovery time potentially.\""
    );
    Output::new(out, &points)
}
