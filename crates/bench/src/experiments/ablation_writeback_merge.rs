//! Ablation (DESIGN.md §5.3): elevator merging of batched write-back.
//!
//! The paper attributes the large update-dominated Metarates win partly to
//! "batched updates on these objects may constantly push the performance
//! of BDB write-back close to its peak point" — metadata objects of one
//! directory are sequentially placed, so batched write-back merges into
//! few disk runs. Setting the elevator's merge gap to zero disables that
//! merging and should disproportionately hurt the single-directory
//! workload compared to the scattered-directory traces.

use super::{Output, Replay};
use crate::{write_table, Args};
use cx_core::{Experiment, Protocol, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    merged_secs: f64,
    unmerged_secs: f64,
    slowdown_pct: f64,
    pages_per_run_merged: f64,
}

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.02);
    let mut out = String::from("Ablation — write-back merging (Cx, 8 servers)\n\n");

    let mut rows = Vec::new();
    for (name, workload) in [
        (
            "metarates update-dominated (one directory)",
            super::ablation_metarates(),
        ),
        (
            "home2 trace (many directories)",
            Workload::trace("home2").scale(scale),
        ),
    ] {
        let run = |merge_gap: u64| {
            let r = Experiment::new(workload.clone())
                .servers(8)
                .protocol(Protocol::Cx)
                .configure(|cfg| cfg.disk.merge_gap = merge_gap)
                .replay();
            // total disk busy time across the cluster: the write-back work
            // itself, excluding idle waits for the lazy trigger
            (r.disk.busy_ns as f64 / 1e9 / 8.0, r.disk.pages_per_run())
        };
        let (merged, ppr) = run(16);
        let (unmerged, _) = run(0);
        rows.push(Row {
            workload: name,
            merged_secs: merged,
            unmerged_secs: unmerged,
            slowdown_pct: (unmerged / merged - 1.0) * 100.0,
            pages_per_run_merged: ppr,
        });
    }

    write_table(
        &mut out,
        &[
            "workload",
            "merged disk busy (s)",
            "unmerged disk busy (s)",
            "slowdown",
            "pages/run",
        ],
        rows.iter().map(|r| {
            vec![
                r.workload.to_string(),
                format!("{:.3}", r.merged_secs),
                format!("{:.3}", r.unmerged_secs),
                format!("+{:.0}%", r.slowdown_pct),
                format!("{:.1}", r.pages_per_run_merged),
            ]
        }),
    );
    outln!(
        out,
        "\n(per-server disk busy time is the metric: merging acts on the\n\
         deferred write-back work, not on the client-visible replay.)"
    );
    Output::new(out, &rows)
}
