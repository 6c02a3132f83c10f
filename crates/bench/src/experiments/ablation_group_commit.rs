//! Ablation (DESIGN.md §5.3): group commit on the log device.
//!
//! Cx writes every Result-Record synchronously; the reason that is cheap
//! is that all appends queued during one flush ride the next single flush.
//! Turning group commit off makes every append pay a full flush and should
//! erase a large part of Cx's advantage — this quantifies the design
//! choice.

use super::{Output, Replay};
use crate::{write_table, Args};
use cx_core::{Experiment, Protocol, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    cx_with_gc: f64,
    cx_without_gc: f64,
    ofs: f64,
}

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.02);
    let mut out = String::from("Ablation — group commit on the operation log (8 servers)\n\n");

    let mut rows = Vec::new();
    for (name, workload) in [
        ("CTH trace", Workload::trace("CTH").scale(scale)),
        ("metarates update-dominated", super::ablation_metarates()),
    ] {
        let run = |protocol, group_commit: bool| {
            let r = Experiment::new(workload.clone())
                .servers(8)
                .protocol(protocol)
                .configure(|cfg| cfg.disk.group_commit = group_commit)
                .replay();
            r.replay_secs()
        };
        rows.push(Row {
            workload: name,
            cx_with_gc: run(Protocol::Cx, true),
            cx_without_gc: run(Protocol::Cx, false),
            ofs: run(Protocol::Se, true),
        });
    }

    write_table(
        &mut out,
        &[
            "workload",
            "Cx + group commit (s)",
            "Cx, no group commit (s)",
            "OFS (s)",
        ],
        rows.iter().map(|r| {
            vec![
                r.workload.to_string(),
                format!("{:.3}", r.cx_with_gc),
                format!("{:.3}", r.cx_without_gc),
                format!("{:.3}", r.ofs),
            ]
        }),
    );
    outln!(
        out,
        "\nwithout group commit every synchronous Result-Record pays a full\n\
         flush; the concurrency win shrinks toward the serial baseline."
    );
    Output::new(out, &rows)
}
