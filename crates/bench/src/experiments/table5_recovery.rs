//! Table V: recovery time as the valid-records' volume grows.
//!
//! For each target volume the harness replays home2 under Cx (lazy
//! commitments suppressed so records accumulate), kills a server at the
//! target, reboots it after the failure-detection delay, and measures the
//! recovery: log scan + cold-cache row reads + batched resumption of every
//! half-completed commitment.
//!
//! Paper shape: 5→1000 KB of valid records take 3→17 s; a 100× record
//! increase costs < 3× the time, because resumption is batched.

use super::Output;
use crate::{write_table, Args};
use cx_chaos::RecoveryExperiment;

const PAPER: [(u64, f64); 6] = [
    (5, 3.0),
    (10, 6.0),
    (50, 8.0),
    (100, 10.0),
    (500, 12.0),
    (1000, 17.0),
];

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.12);
    let mut out = String::from("Table V — recovery time vs valid-records' size (8 servers)\n\n");

    let rows: Vec<_> = crate::par_map(&PAPER, |&(kb, paper_secs)| {
        let exp = RecoveryExperiment {
            servers: 8,
            trace_scale: scale,
            detection_ms: 2_000,
            reboot_ms: 800,
            ..Default::default()
        }
        .with_target(kb << 10);
        exp.run().map(|row| (row, paper_secs))
    })
    .into_iter()
    .flatten()
    .collect();

    write_table(
        &mut out,
        &[
            "valid records",
            "at crash",
            "recovery (s)",
            "paper (s)",
            "scan+resume (s)",
        ],
        rows.iter().map(|(r, paper)| {
            vec![
                format!("{} KB", r.target_kb),
                format!("{} KB", r.valid_kb_at_crash),
                format!("{:.1}", r.recovery_secs),
                format!("{:.0}", paper),
                format!("{:.2}", r.protocol_secs),
            ]
        }),
    );

    if rows.len() >= 2 {
        let first = &rows.first().expect("nonempty").0;
        let last = &rows.last().expect("nonempty").0;
        let record_ratio = last.target_kb as f64 / first.target_kb as f64;
        let time_ratio = last.recovery_secs / first.recovery_secs;
        outln!(
            out,
            "\n{record_ratio:.0}× the valid records cost {time_ratio:.1}× the recovery time\n\
             (paper: 100× → <3×; batched resumption amortizes the work)."
        );
        if rows.len() < PAPER.len() {
            outln!(
                out,
                "note: {} target volume(s) skipped — the workload at scale {scale}\n\
                 never accumulated that many valid records; rerun with --full.",
                PAPER.len() - rows.len()
            );
        }
    }
    Output::new(out, &rows.iter().map(|(r, _)| *r).collect::<Vec<_>>())
}
