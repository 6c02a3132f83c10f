//! Run the paper's experiments (the `EXPERIMENTS.md` regeneration driver).
//!
//!     cargo run --release -p cx-bench --bin experiments -- \
//!         [names…] [--scale f|--full] [--jobs n] [--servers n] [--ops n] \
//!         [--max-servers n] [--period-ms n]
//!
//! With no names it runs all twelve in paper order. Experiments run in
//! this process, `--jobs` at a time (default one per core); each one's
//! text is printed in order once all have finished, and its JSON is
//! written to `target/experiments/<name>.json`. An unknown name or flag
//! exits 2 and lists the known ones; a failed experiment exits 1.

use cx_bench::{bench_threads, experiments, Args};
use std::path::PathBuf;
use std::process::ExitCode;

const RULE: &str = "======================================================================";

fn write_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = Args::parse();
    let chosen = match experiments::select(&args) {
        Ok(chosen) => chosen,
        Err(e) => {
            eprintln!("experiments: {e}");
            return ExitCode::from(2);
        }
    };
    // A malformed `--scale` stops here, once, not in every experiment.
    let _ = args.scale(1.0);
    let jobs: usize = args.value("--jobs").unwrap_or_else(bench_threads).max(1);
    let outputs = experiments::run(&chosen, &args, jobs);

    let mut failures = Vec::new();
    for (i, ((name, _), out)) in chosen.iter().zip(outputs).enumerate() {
        println!("\n{RULE}\n[{}/{}] {name}\n{RULE}", i + 1, chosen.len());
        let Some(out) = out else {
            failures.push(*name);
            continue;
        };
        print!("{}", out.text);
        match write_json(name, &out.json) {
            Ok(path) => println!("\n[json: {}]", path.display()),
            Err(e) => {
                eprintln!("experiments: {name}: cannot write its JSON: {e}");
                failures.push(*name);
            }
        }
    }

    println!("\n{RULE}");
    if failures.is_empty() {
        println!("all {} experiments completed ({jobs} jobs)", chosen.len());
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {failures:?}");
        ExitCode::FAILURE
    }
}
