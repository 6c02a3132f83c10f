//! Table IV: messages generated in the trace replays and the message
//! overhead of OFS-Cx.
//!
//! Paper shape: Cx adds commitment traffic, but batching keeps the
//! overhead between 1.0% and 3.1% (< 4%) across all six traces, growing
//! with the trace's conflict ratio.

use super::{trace_replay, Output};
use crate::{write_table, Args};
use cx_core::{Protocol, PROFILES};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    trace: &'static str,
    ofs_msgs: u64,
    cx_msgs: u64,
    overhead_pct: f64,
    paper_overhead_pct: f64,
    cx_server_msgs: u64,
    immediate_commitments: u64,
}

const PAPER: [(&str, f64); 6] = [
    ("CTH", 2.2),
    ("s3d", 3.0),
    ("alegra", 1.0),
    ("home2", 3.1),
    ("deasna2", 2.4),
    ("lair62b", 2.3),
];

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.03);
    let mut out = format!("Table IV — message overhead of OFS-Cx (8 servers, scale {scale})\n\n");

    let rows: Vec<Row> = crate::par_map(&PROFILES, |p| {
        let run = |protocol| trace_replay(p.name, scale, 8, protocol);
        let se = run(Protocol::Se);
        let cx = run(Protocol::Cx);
        Row {
            trace: p.name,
            ofs_msgs: se.total_msgs(),
            cx_msgs: cx.total_msgs(),
            overhead_pct: (cx.total_msgs() as f64 / se.total_msgs() as f64 - 1.0) * 100.0,
            paper_overhead_pct: PAPER
                .iter()
                .find(|(n, _)| *n == p.name)
                .map(|(_, o)| *o)
                .unwrap_or(0.0),
            cx_server_msgs: cx.server_msgs,
            immediate_commitments: cx.server_stats.immediate_commitments,
        }
    });

    write_table(
        &mut out,
        &[
            "trace",
            "OFS msgs",
            "OFS-Cx msgs",
            "overhead",
            "overhead (paper)",
            "commitment msgs",
            "immediate",
        ],
        rows.iter().map(|r| {
            vec![
                r.trace.to_string(),
                r.ofs_msgs.to_string(),
                r.cx_msgs.to_string(),
                format!("{:.1}%", r.overhead_pct),
                format!("{:.1}%", r.paper_overhead_pct),
                r.cx_server_msgs.to_string(),
                r.immediate_commitments.to_string(),
            ]
        }),
    );
    outln!(
        out,
        "\npaper: \"the actual additional cost is very low at less than 4% …\n\
         because lazy commitments can send batched messages\"; the overhead\n\
         grows with the workload's conflict ratio."
    );
    Output::new(out, &rows)
}
