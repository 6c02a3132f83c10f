//! Run every paper experiment (the `EXPERIMENTS.md` regeneration driver).
//!
//!     cargo run --release -p cx-bench --bin all_experiments \
//!         [--scale f|--full] [--jobs n]
//!
//! Each experiment prints its table and writes JSON under
//! `target/experiments/`; this driver invokes them in paper order with
//! consistent flags. Experiments run **concurrently** (`--jobs`, default
//! one per core) with captured output, replayed in paper order as each
//! finishes — at `--full` scale the basket is dominated by a handful of
//! long traces×protocols sweeps, so fanning binaries across cores cuts
//! the wall-clock to roughly the longest single experiment. When more
//! than one job runs at a time, each child is pinned to one internal
//! worker (`CX_BENCH_THREADS=1`) so the fan-out doesn't oversubscribe
//! the machine with nested sweeps.
//!
//! `--obs` additionally runs the observability export (`perf_baseline
//! --obs`) after the basket, leaving a Perfetto trace + report under
//! `target/experiments/obs_home2.*` beside the JSON artifacts.

use std::process::Command;

const EXPERIMENTS: [&str; 12] = [
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

fn main() {
    let args = cx_bench::Args::parse();
    // A malformed `--scale` stops here, once, not in each of twelve children.
    let _ = args.scale(1.0);
    // Strip `--jobs <n>` from the forwarded flags (children don't know it).
    let fwd: Vec<String> = {
        let mut out = Vec::new();
        let mut skip_next = false;
        for a in std::env::args().skip(1) {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a == "--jobs" {
                skip_next = true;
                continue;
            }
            out.push(a);
        }
        out
    };
    let jobs: usize = args
        .value("--jobs")
        .unwrap_or_else(cx_bench::bench_threads)
        .max(1);
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    // Capture each child's output and replay it in paper order; stream
    // directly only when running sequentially.
    let results = cx_bench::par_map_with(jobs, &EXPERIMENTS, |name| {
        let bin = exe_dir.join(name);
        let mut cmd = Command::new(&bin);
        cmd.args(&fwd);
        if jobs > 1 {
            cmd.env("CX_BENCH_THREADS", "1");
        }
        let out = cmd
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", bin.display()));
        (out.status.success(), out.stdout, out.stderr)
    });

    // The obs export rides along after the basket: one home2 replay with
    // recording on, dumped under target/experiments/ with the rest of
    // the artifacts. The children already ignore the `--obs` flag.
    let obs_extra = args.flag("--obs").then(|| {
        let bin = exe_dir.join("perf_baseline");
        let mut cmd = Command::new(&bin);
        cmd.args(&fwd)
            .arg("--obs-out")
            .arg("target/experiments/obs_home2");
        cmd.output()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", bin.display()))
    });

    let mut failures = Vec::new();
    for (i, (name, (ok, stdout, stderr))) in EXPERIMENTS.iter().zip(&results).enumerate() {
        println!("\n======================================================================");
        println!("[{}/{}] {}", i + 1, EXPERIMENTS.len(), name);
        println!("======================================================================");
        print!("{}", String::from_utf8_lossy(stdout));
        if !stderr.is_empty() {
            eprint!("{}", String::from_utf8_lossy(stderr));
        }
        if !ok {
            failures.push(*name);
        }
    }
    if let Some(out) = &obs_extra {
        println!("\n======================================================================");
        println!("[extra] perf_baseline --obs");
        println!("======================================================================");
        print!("{}", String::from_utf8_lossy(&out.stdout));
        if !out.stderr.is_empty() {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
        }
        if !out.status.success() {
            failures.push("perf_baseline --obs");
        }
    }

    println!("\n======================================================================");
    if failures.is_empty() {
        println!(
            "all {} experiments completed ({} jobs)",
            EXPERIMENTS.len(),
            jobs
        );
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
