//! Ablation (DESIGN.md §5.3): group commit on the log device.
//!
//!     cargo run --release -p cx-bench --bin ablation_group_commit [--scale f]
//!
//! Cx writes every Result-Record synchronously; the reason that is cheap
//! is that all appends queued during one flush ride the next single flush.
//! Turning group commit off makes every append pay a full flush and should
//! erase a large part of Cx's advantage — this quantifies the design
//! choice.

use cx_bench::{print_table, write_json, Args};
use cx_core::{Experiment, MetaratesMix, Protocol, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    cx_with_gc: f64,
    cx_without_gc: f64,
    ofs: f64,
}

fn main() {
    let args = Args::parse();
    let scale = args.scale(0.02);
    println!("Ablation — group commit on the operation log (8 servers)\n");

    let mut rows = Vec::new();
    for (name, workload) in [
        ("CTH trace", Workload::trace("CTH").scale(scale)),
        (
            "metarates update-dominated",
            Workload::Metarates {
                mix: MetaratesMix::UpdateDominated,
                ops_per_proc: 40,
                files_per_server: 1_000,
            },
        ),
    ] {
        let run = |protocol, group_commit: bool| {
            let r = Experiment::new(workload.clone())
                .servers(8)
                .protocol(protocol)
                .configure(|cfg| cfg.disk.group_commit = group_commit)
                .run();
            assert!(r.is_consistent());
            r.stats.replay_secs()
        };
        rows.push(Row {
            workload: name,
            cx_with_gc: run(Protocol::Cx, true),
            cx_without_gc: run(Protocol::Cx, false),
            ofs: run(Protocol::Se, true),
        });
    }

    print_table(
        &[
            "workload",
            "Cx + group commit (s)",
            "Cx, no group commit (s)",
            "OFS (s)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    format!("{:.3}", r.cx_with_gc),
                    format!("{:.3}", r.cx_without_gc),
                    format!("{:.3}", r.ofs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nwithout group commit every synchronous Result-Record pays a full\n\
         flush; the concurrency win shrinks toward the serial baseline."
    );
    write_json("ablation_group_commit", &rows);
}
