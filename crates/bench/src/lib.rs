//! The paper's evaluation as library functions, plus the plumbing the
//! `cx-bench` binaries share.
//!
//! Every table and figure of the paper's evaluation is a module of
//! [`experiments`], registered in paper order in [`experiments::ALL`], and
//! run by one binary:
//!
//! ```text
//! cargo run --release -p cx-bench --bin experiments -- [names…] [--scale f|--full] [--jobs n]
//! ```
//!
//! | experiment | paper artifact |
//! |---|---|
//! | `table2_conflict_ratio` | Table II — conflict ratios in six workloads |
//! | `figure4_op_distribution` | Figure 4 — metadata operation mixes |
//! | `figure5_trace_replay` | Figure 5 — trace replay times, OFS vs OFS-batched vs OFS-Cx |
//! | `table4_message_overhead` | Table IV — message counts and Cx overhead |
//! | `figure6_metarates_scaling` | Figure 6 — Metarates throughput vs cluster size |
//! | `figure7_log_size` | Figure 7 — log-limit sensitivity + valid-record timeline |
//! | `figure8_conflict_ratio` | Figure 8 — injected-conflict sensitivity |
//! | `figure9_batch_strategies` | Figure 9 — timeout/threshold trigger sweeps |
//! | `table5_recovery` | Table V — recovery time vs valid-record volume |
//! | `ablation_group_commit` | DESIGN.md §5.3 — group commit on/off |
//! | `ablation_writeback_merge` | DESIGN.md §5.3 — elevator merging on/off |
//! | `ablation_log_organization` | DESIGN.md §5.2 — log-structured file vs log records in the database |
//!
//! Two binaries stay apart, each for a reason of its own. `heap_peak`
//! owns a `#[global_allocator]`: it replays a benchmark input under a
//! counting allocator and prints the peak live heap by size class — where
//! a footprint claim starts. `cx_net_server` must be an OS process of its
//! own; this crate's `tests/multiproc.rs` spawns one per server. Speed,
//! latency and memory are read from `benchmark/` (`BENCHMARK.json`).
//!
//! Experiments accept `--scale <f64>` (trace fraction; each default keeps
//! the run under ~a minute) and `--full` (paper scale: every operation of
//! Table II). Results print as aligned tables and are also written as JSON
//! under `target/experiments/`.

use serde::Serialize;
use std::cell::Cell;
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Launch config for the `cx_net_server` binary: everything one server
/// process needs to join a multi-process TCP cluster. The coordinator
/// (this crate's `tests/multiproc.rs`) writes one of these per
/// server, spawns the binary with `--config <path>`, and reads the
/// `LISTEN <addr>` line the server prints once bound. The server writes no
/// file of its own: its stats, protocol series and wire telemetry travel
/// back in its `StopResp`, and reach the coordinator's registry from
/// there, once.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct NetServerConfig {
    pub cfg: cx_types::ClusterConfig,
    /// Which `ServerId` this process is.
    pub me: u32,
    /// The workload's namespace seeds (identical on every server).
    pub seeds: Vec<cx_workloads::SeedEntry>,
    /// Run a shard-mode observability sink in this process: stamp op
    /// phases on the local wall clock, record wire flush spans, and ship
    /// everything back in the `StopResp` for offset-corrected stitching.
    pub obs: bool,
}

pub mod experiments;

thread_local! {
    /// Set on the threads [`par_map_with`] spawns: a [`par_map`] inside
    /// one of them runs inline, so an outer fan-out (the `experiments`
    /// binary's `--jobs`) does not multiply with each experiment's sweep.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker count for a top-level [`par_map`]: the machine's available
/// parallelism.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map over a slice — the shared sweep helper for
/// the experiments. Work is handed out item-at-a-time so uneven sweep
/// points (e.g. different cluster sizes) balance across workers. Called
/// from a [`par_map_with`] worker, it runs inline on that worker.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if IN_WORKER.get() { 1 } else { bench_threads() };
    par_map_with(threads, items, f)
}

/// [`par_map`] with an explicit worker count (clamped to at least one).
/// The `experiments` binary uses this to fan whole experiments across
/// cores with `--jobs`.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_WORKER.set(true);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&items[i]);
                    *slots[i].lock().unwrap() = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// Parse `--scale <f64>`, `--full`, `--servers <n>` style flags.
#[derive(Debug)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Arguments given in code, as they would follow the binary's name.
    pub fn of(raw: &[&str]) -> Self {
        Self {
            raw: raw.iter().map(|a| a.to_string()).collect(),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value after `name`, or `None` when the flag is absent. A flag
    /// that is present with no value, or with one that does not parse,
    /// panics naming both: `--ceiling-mib 10,67` must not run ungated.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let at = self.raw.iter().position(|a| a == name)?;
        let text = self
            .raw
            .get(at + 1)
            .unwrap_or_else(|| panic!("{name}: no value follows the flag"));
        Some(
            text.parse()
                .unwrap_or_else(|_| panic!("{name}: cannot parse {text:?}")),
        )
    }

    /// Trace scale: `--full` → 1.0, else `--scale` or the default.
    pub fn scale(&self, default: f64) -> f64 {
        if self.flag("--full") {
            1.0
        } else {
            self.value("--scale").unwrap_or(default)
        }
    }
}

/// Append an aligned table to `out`.
pub fn write_table(
    out: &mut String,
    headers: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        writeln!(out, "{}", s.trim_end()).expect("a String takes every write");
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row);
    }
}

/// Percent improvement of `new` over `old` (lower is better).
pub fn improvement(old: f64, new: f64) -> f64 {
    (1.0 - new / old) * 100.0
}

/// Percent gain of `new` over `old` (higher is better).
pub fn gain(old: f64, new: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_and_gain() {
        assert!((improvement(2.0, 1.0) - 50.0).abs() < 1e-9);
        assert!((gain(100.0, 182.0) - 82.0).abs() < 1e-9);
    }

    #[test]
    fn par_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..37).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..37).map(|x| x * 3).collect::<Vec<_>>());
        assert!(par_map(&Vec::<u64>::new(), |&x| x).is_empty());
    }

    #[test]
    fn a_par_map_inside_a_par_map_with_worker_runs_inline() {
        let inline = par_map_with(2, &[0u8, 1], |_| {
            let worker = std::thread::current().id();
            let ids = par_map(&[0u8; 8], |_| std::thread::current().id());
            ids.iter().all(|&id| id == worker)
        });
        assert_eq!(inline, [true, true]);
    }

    #[test]
    fn args_scale_logic() {
        let a = Args::of(&["--scale", "0.25"]);
        assert_eq!(a.scale(0.1), 0.25);
        let b = Args::of(&["--full"]);
        assert_eq!(b.scale(0.1), 1.0);
        let c = Args::of(&[]);
        assert_eq!(c.scale(0.1), 0.1);
        assert!(b.flag("--full") && !c.flag("--full"));
        assert_eq!(a.value::<u32>("--servers"), None);
    }

    /// What `value` panics with, or `None` if it returns.
    fn value_panic<T: std::str::FromStr>(raw: &[&str], name: &str) -> Option<String> {
        let args = Args::of(raw);
        let caught = std::panic::catch_unwind(|| args.value::<T>(name).is_some());
        caught
            .err()
            .map(|p| *p.downcast::<String>().expect("a formatted panic message"))
    }

    #[test]
    fn a_present_flag_with_a_bad_value_panics_naming_flag_and_text() {
        let heap_peak = ["--workload", "update", "--ceiling-mib", "10,67"];
        let msg = value_panic::<f64>(&heap_peak, "--ceiling-mib").expect("10,67 is no f64");
        assert!(
            msg.contains("--ceiling-mib") && msg.contains("10,67"),
            "{msg}"
        );
        assert_eq!(value_panic::<String>(&heap_peak, "--workload"), None);
        assert_eq!(value_panic::<u64>(&heap_peak, "--seed"), None, "absent");
        let msg = value_panic::<u32>(&["--full", "--servers"], "--servers").expect("no value");
        assert!(msg.contains("--servers"), "{msg}");
    }
}
