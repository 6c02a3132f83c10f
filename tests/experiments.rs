//! The paper's twelve experiments, run in process at reduced scale through
//! the registry and entry point the `experiments` binary uses. Each one's
//! own asserts run here: every replay consistent, no stuck op, Figure 7b's
//! gauge series complete with its busiest sample equal to
//! `peak_valid_bytes`, Table V's crashes under the durability oracle.

use cx_bench::experiments::{run, select, ALL};
use cx_bench::Args;

const PAPER_ORDER: [&str; 12] = [
    "table2_conflict_ratio",
    "figure4_op_distribution",
    "figure5_trace_replay",
    "table4_message_overhead",
    "figure6_metarates_scaling",
    "figure7_log_size",
    "figure8_conflict_ratio",
    "figure9_batch_strategies",
    "table5_recovery",
    "ablation_group_commit",
    "ablation_writeback_merge",
    "ablation_log_organization",
];

#[test]
fn the_registry_is_in_paper_order() {
    assert_eq!(ALL.map(|(name, _)| name), PAPER_ORDER);
    let all = select(&Args::of(&["--scale", "0.5"])).expect("no names is all twelve");
    assert_eq!(
        all.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        PAPER_ORDER
    );
    let two = select(&Args::of(&[
        "table5_recovery",
        "--full",
        "figure4_op_distribution",
    ]))
    .expect("two known names");
    assert_eq!(
        two.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        ["table5_recovery", "figure4_op_distribution"]
    );
}

#[test]
fn an_unknown_name_or_flag_is_rejected() {
    let e = select(&Args::of(&["figure7_log_size", "figure10"])).expect_err("no figure 10");
    assert!(
        e.contains("\"figure10\"") && PAPER_ORDER.iter().all(|n| e.contains(n)),
        "{e}"
    );
    let e = select(&Args::of(&["--obs"])).expect_err("--obs is gone");
    assert!(e.contains("--obs"), "{e}");
}

#[test]
fn every_experiment_runs_at_reduced_scale() {
    let args = Args::of(&["--scale", "0.005", "--ops", "5", "--max-servers", "4"]);
    let chosen = select(&args).expect("flags only");
    let outputs = run(&chosen, &args, 2);
    for ((name, _), out) in chosen.iter().zip(&outputs) {
        let out = out.as_ref().unwrap_or_else(|| panic!("{name} failed"));
        assert!(!out.text.is_empty() && !out.json.is_empty(), "{name}");
    }
}
