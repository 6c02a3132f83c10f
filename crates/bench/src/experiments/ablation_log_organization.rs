//! Ablation (§IV-A, "Log organization"): log-structured file vs log
//! records stored in the database.
//!
//! "Log records can be stored in the BDB or can be organized as a
//! log-structured file. We choose the latter approach to exploit more disk
//! bandwidth, and build an index on top of it to accelerate searches."
//! This quantifies that choice: the BDB path pays the heavier journal
//! flush plus in-place page writes for every record batch.

use super::{Output, Replay};
use crate::{write_table, Args};
use cx_core::{Experiment, Protocol, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    logfile_secs: f64,
    bdb_log_secs: f64,
    slowdown_pct: f64,
}

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.02);
    let mut out = String::from("Ablation — log organization (Cx, 8 servers)\n\n");

    let mut rows = Vec::new();
    for (name, workload) in [
        ("CTH trace", Workload::trace("CTH").scale(scale)),
        ("metarates update-dominated", super::ablation_metarates()),
    ] {
        let run = |in_db: bool| {
            let r = Experiment::new(workload.clone())
                .servers(8)
                .protocol(Protocol::Cx)
                .configure(|cfg| cfg.cx.log_in_database = in_db)
                .replay();
            r.replay_secs()
        };
        let logfile = run(false);
        let bdb = run(true);
        rows.push(Row {
            workload: name,
            logfile_secs: logfile,
            bdb_log_secs: bdb,
            slowdown_pct: (bdb / logfile - 1.0) * 100.0,
        });
    }

    write_table(
        &mut out,
        &[
            "workload",
            "log-structured file (s)",
            "log in BDB (s)",
            "slowdown",
        ],
        rows.iter().map(|r| {
            vec![
                r.workload.to_string(),
                format!("{:.3}", r.logfile_secs),
                format!("{:.3}", r.bdb_log_secs),
                format!("+{:.0}%", r.slowdown_pct),
            ]
        }),
    );
    outln!(
        out,
        "\nthe paper's choice quantified: the log-structured file exploits\n\
         sequential bandwidth, while database-resident log records pay the\n\
         journal flush plus in-place page writes per batch."
    );
    Output::new(out, &rows)
}
