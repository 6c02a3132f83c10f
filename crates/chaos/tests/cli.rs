//! The `cx-chaos` binary end to end, as a user runs it: the fixed-seed
//! explorer, the oracle's self-test against the broken recovery, the
//! doctor's slow-participant conviction, and the replay of a repro with
//! its obs report and post-mortem pair. Each runs the built binary with
//! the command line README documents and holds it to the exit-code
//! contract (0 = clean, caught, convicted or reproduced). What the CLI
//! leaves on disk is read back through the library calls `cx-obs` makes.
//! Every file goes to a fresh directory under the test target's tmpdir.

use cx_chaos::Repro;
use cx_obs::{blame_diff, ObsReport};
use std::path::{Path, PathBuf};
use std::process::Command;

/// An empty directory of this test's own: nothing a previous run left
/// behind can stand in for what this run writes.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cx-chaos")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    dir
}

/// Run `cx-chaos` with `args`; it must exit 0.
fn cx_chaos(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_cx-chaos"))
        .args(args)
        .output()
        .expect("spawn cx-chaos");
    assert!(
        out.status.success(),
        "cx-chaos {args:?} exited with {}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("a UTF-8 path")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn load_report(path: &Path) -> ObsReport {
    ObsReport::from_json(&read(path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Both protocol envelopes come out clean on the first 25 seeds.
#[test]
fn twenty_five_seeds_come_out_clean() {
    let dir = fresh_dir("seeds");
    cx_chaos(&["--seeds", "25", "--out-dir", arg(&dir)]);
}

/// The oracle catches the deliberately broken recovery and writes a
/// shrunken repro. Replaying it reproduces; its obs report passes the
/// phase-accounting check; and, since the repro crashes a server and
/// carries failures, the replay writes a non-empty post-mortem pair whose
/// trace carries the crashed server's liveness counter track.
#[test]
fn broken_recovery_is_caught_and_its_repro_replays_with_a_post_mortem() {
    let dir = fresh_dir("demo-broken");
    cx_chaos(&["--demo-broken", "--seeds", "5", "--out-dir", arg(&dir)]);
    let mut repros: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list the demo's directory")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("chaos-repro-cx-") && name.ends_with(".json")
        })
        .collect();
    repros.sort();
    let repro = repros.first().expect("the demo wrote a repro");

    cx_chaos(&[
        "--replay",
        arg(repro),
        "--obs-out",
        arg(&dir.join("chaos_replay.trace.json")),
        "--flight-out",
        arg(&dir.join("chaos_pm")),
    ]);
    // `cx-obs check`
    load_report(&dir.join("chaos_replay.trace.json.report.json"))
        .validate()
        .expect("the replay's phase accounting sums to client latency");
    let jsonl = read(&dir.join("chaos_pm.flight.jsonl"));
    assert!(!jsonl.is_empty(), "empty post-mortem JSONL");
    let trace = read(&dir.join("chaos_pm.flight.trace.json"));
    assert!(!trace.is_empty(), "empty post-mortem trace");
    let plan = Repro::from_json(&read(repro)).expect("repro parses").plan;
    let victim = plan
        .crashes
        .first()
        .expect("the repro crashes a server")
        .server;
    let track = format!("\"name\":\"liveness s{}\",\"ph\":\"C\"", victim.0);
    assert!(
        trace.contains(&track),
        "no {track} in the post-mortem trace"
    );
}

/// The doctor demo convicts its own stall in-binary (the execute segment,
/// the largest hop shift on the slowed server); read back from the two
/// reports it leaves, `cx-obs doctor slow --against base` must agree.
#[test]
fn the_doctor_convicts_the_slowed_participants_execute() {
    let dir = fresh_dir("doctor-demo");
    cx_chaos(&["--doctor-demo", "--out-dir", arg(&dir)]);
    let slow = load_report(&dir.join("doctor_slow.report.json"));
    let base = load_report(&dir.join("doctor_base.report.json"));
    let table = slow
        .doctor()
        .expect("every blamed op of the slowed run sums");
    let d = blame_diff(&base.blame(), &table);
    assert_eq!(d.verdict(), "prime suspect: execute", "{}", d.render());
}
