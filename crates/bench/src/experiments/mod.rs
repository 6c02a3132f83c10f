//! The paper's twelve experiments, registered in paper order.
//!
//! Each module is one table, figure or ablation: one entry point,
//! `run(&Args) -> Output`, which runs the sweep, asserts what must hold of
//! every run (consistency, no stuck ops, the experiment's own invariants)
//! and returns the text it prints and the JSON it writes. The `experiments`
//! binary and the tier-1 test `tests/experiments.rs` both go through
//! [`select`] and [`run`].

use crate::Args;
use cx_core::{Experiment, ExperimentResult, MetaratesMix, Protocol, RunStats, Workload};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

/// `println!` into an experiment's text.
macro_rules! outln {
    ($out:expr $(, $($arg:tt)*)?) => {{
        use std::fmt::Write as _;
        writeln!($out $(, $($arg)*)?).expect("a String takes every write")
    }};
}

mod ablation_group_commit;
mod ablation_log_organization;
mod ablation_writeback_merge;
mod figure4_op_distribution;
mod figure5_trace_replay;
mod figure6_metarates_scaling;
mod figure7_log_size;
mod figure8_conflict_ratio;
mod figure9_batch_strategies;
mod table2_conflict_ratio;
mod table4_message_overhead;
mod table5_recovery;

/// What one experiment produced.
#[derive(Debug)]
pub struct Output {
    /// The tables and notes it prints.
    pub text: String,
    /// The rows it writes to `target/experiments/<name>.json`.
    pub json: String,
}

impl Output {
    fn new<T: Serialize>(text: String, rows: &T) -> Self {
        let json = serde_json::to_string_pretty(rows).expect("experiment rows serialize");
        Self { text, json }
    }
}

/// An experiment's entry point.
pub type Run = fn(&Args) -> Output;

/// Every experiment, by name, in paper order.
pub const ALL: [(&str, Run); 12] = [
    ("table2_conflict_ratio", table2_conflict_ratio::run),
    ("figure4_op_distribution", figure4_op_distribution::run),
    ("figure5_trace_replay", figure5_trace_replay::run),
    ("table4_message_overhead", table4_message_overhead::run),
    ("figure6_metarates_scaling", figure6_metarates_scaling::run),
    ("figure7_log_size", figure7_log_size::run),
    ("figure8_conflict_ratio", figure8_conflict_ratio::run),
    ("figure9_batch_strategies", figure9_batch_strategies::run),
    ("table5_recovery", table5_recovery::run),
    ("ablation_group_commit", ablation_group_commit::run),
    ("ablation_writeback_merge", ablation_writeback_merge::run),
    ("ablation_log_organization", ablation_log_organization::run),
];

/// A DES replay held to what every experiment asserts of each run.
trait Replay {
    fn replay(&self) -> RunStats;
}

impl Replay for Experiment {
    fn replay(&self) -> RunStats {
        checked(self, self.run())
    }
}

/// `e`'s stats, once the servers agree at the end (no dangling entry,
/// orphan or nlink mismatch) and no op was left stuck.
fn checked(e: &Experiment, r: ExperimentResult) -> RunStats {
    let (protocol, servers, workload) = (e.cfg.protocol, e.cfg.servers, &e.workload);
    let what = || format!("{protocol:?} on {servers} servers, {workload:?}");
    assert!(r.is_consistent(), "{} diverged: {:?}", what(), r.violations);
    assert_eq!(r.stats.ops_stuck, 0, "{} left ops stuck", what());
    r.stats
}

/// Trace `trace` at `scale` replayed under `protocol` on `servers` servers.
/// Figure 5 and Table IV make the same replays at their defaults, so each
/// one runs once per process and every later caller gets its stats; a
/// caller that asks while another runs it waits for that run.
fn trace_replay(trace: &'static str, scale: f64, servers: u32, protocol: Protocol) -> RunStats {
    type Key = (&'static str, u64, u32, Protocol);
    static MEMO: LazyLock<Mutex<HashMap<Key, Arc<OnceLock<RunStats>>>>> =
        LazyLock::new(Mutex::default);
    let key = (trace, scale.to_bits(), servers, protocol);
    let cell = Arc::clone(
        MEMO.lock()
            .expect("the memo's lock is never held across a replay")
            .entry(key)
            .or_default(),
    );
    let stats = cell.get_or_init(|| {
        Experiment::new(Workload::trace(trace).scale(scale))
            .servers(servers)
            .protocol(protocol)
            .replay()
    });
    stats.clone()
}

/// The ablations' Metarates input: update-dominated, in one directory.
fn ablation_metarates() -> Workload {
    Workload::Metarates {
        mix: MetaratesMix::UpdateDominated,
        ops_per_proc: 40,
        files_per_server: 1_000,
    }
}

/// The flags an experiment reads, plus the binary's `--jobs`. Every one
/// but `--full` takes a value.
const FLAGS: [&str; 7] = [
    "--scale",
    "--full",
    "--servers",
    "--ops",
    "--max-servers",
    "--period-ms",
    "--jobs",
];

/// The experiments `args` names, in the order named; all twelve, in paper
/// order, when it names none. An unknown name or flag is an error that
/// lists what is known.
pub fn select(args: &Args) -> Result<Vec<(&'static str, Run)>, String> {
    let mut chosen = Vec::new();
    let mut raw = args.raw.iter();
    while let Some(arg) = raw.next() {
        if arg.starts_with("--") {
            if !FLAGS.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg:?}; the flags are {FLAGS:?}"));
            }
            if arg != "--full" {
                raw.next();
            }
        } else {
            let Some(&entry) = ALL.iter().find(|(name, _)| name == arg) else {
                let names = ALL.map(|(name, _)| name);
                return Err(format!(
                    "unknown experiment {arg:?}; the twelve are {names:?}"
                ));
            };
            chosen.push(entry);
        }
    }
    Ok(if chosen.is_empty() {
        ALL.to_vec()
    } else {
        chosen
    })
}

/// Run `chosen` with `args`, `jobs` at a time, in order. An experiment
/// that panics (a failed assert) is `None`; the panic hook has already
/// printed why.
pub fn run(chosen: &[(&'static str, Run)], args: &Args, jobs: usize) -> Vec<Option<Output>> {
    crate::par_map_with(jobs, chosen, |(_, run)| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(args))).ok()
    })
}
