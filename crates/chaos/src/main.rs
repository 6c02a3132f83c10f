//! The schedule explorer CLI.
//!
//! ```text
//! cx-chaos --seeds 200                  # explore Cx and 2PC envelopes
//! cx-chaos --seeds 100 --protocol cx    # one protocol only
//! cx-chaos --demo-broken                # prove the oracle catches bugs
//! cx-chaos --doctor-demo                # slow one participant 5 ms and
//!                                       # prove cx-obs doctor convicts it
//! cx-chaos --replay repro.json          # re-run a recorded schedule
//! cx-chaos --replay repro.json --obs-out trace.json
//!                                       # …and dump a Perfetto trace of
//!                                       # the run around the fault
//! cx-chaos --replay repro.json --flight-out pm
//!                                       # post-mortem prefix: pm.flight.jsonl
//!                                       # + pm.flight.trace.json
//! ```
//!
//! Every `--replay` records into an obs sink, with or without
//! `--obs-out`; when the run crashes, wedges, fails a check, or diverges
//! from the recording, the sink's report is dumped as a post-mortem pair:
//! its JSONL stream and its Perfetto trace, where each crashed server's
//! liveness gauge marks the crash and the recovery and every stuck op is
//! an instant where it stalled.
//!
//! Exit status: 0 = no violations (or, under `--demo-broken`, the broken
//! variant *was* caught; or a `--replay` reproduced); 1 otherwise.

use cx_chaos::{
    explore, run_plan, run_plan_obs, ChaosScenario, CrashFault, CrashPoint, FaultPlan, NetAction,
    NetFault, Repro,
};
use cx_cluster::ObsSink;
use cx_obs::{blame_diff, Seg};
use cx_types::{MsgKind, Protocol, ServerId, DUR_MS};
use cx_wal::RecordFamily;
use std::process::ExitCode;

struct Args {
    seeds: u64,
    first_seed: u64,
    protocols: Vec<Protocol>,
    demo_broken: bool,
    /// `--doctor-demo`: run the same workload clean and with one slow
    /// participant (5 ms ExecDelay plan), write both obs reports to
    /// `--out-dir`, and assert the blame diff convicts the delayed
    /// server's execute segment.
    doctor_demo: bool,
    replay: Option<String>,
    out_dir: String,
    /// `--obs-out <path>`: with `--replay`, write the replay's Perfetto
    /// trace to `<path>` (report JSON beside it).
    obs_out: Option<String>,
    /// `--flight-out <prefix>`: with `--replay`, override where the
    /// post-mortem goes (`<prefix>.flight.jsonl` +
    /// `<prefix>.flight.trace.json`). Defaults to `<repro>.postmortem`.
    flight_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 50,
        first_seed: 0,
        protocols: vec![Protocol::Cx, Protocol::TwoPc],
        demo_broken: false,
        doctor_demo: false,
        replay: None,
        out_dir: ".".to_string(),
        obs_out: None,
        flight_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seeds" => {
                args.seeds = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--first-seed" => {
                args.first_seed = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--first-seed: {e}"))?
            }
            "--protocol" => {
                args.protocols = match value(&mut i)?.as_str() {
                    "cx" => vec![Protocol::Cx],
                    "2pc" | "twopc" => vec![Protocol::TwoPc],
                    "both" => vec![Protocol::Cx, Protocol::TwoPc],
                    other => return Err(format!("unknown protocol {other:?} (cx|2pc|both)")),
                }
            }
            "--demo-broken" => args.demo_broken = true,
            "--doctor-demo" => args.doctor_demo = true,
            "--replay" => args.replay = Some(value(&mut i)?),
            "--out-dir" => args.out_dir = value(&mut i)?,
            "--obs-out" => args.obs_out = Some(value(&mut i)?),
            "--flight-out" => args.flight_out = Some(value(&mut i)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

fn proto_tag(p: Protocol) -> &'static str {
    match p {
        Protocol::Cx => "cx",
        Protocol::TwoPc => "2pc",
        _ => "other",
    }
}

fn write_repro(dir: &str, repro: &Repro) -> String {
    let path = format!(
        "{dir}/chaos-repro-{}-{}.json",
        proto_tag(repro.scenario.protocol),
        repro.seed
    );
    std::fs::write(&path, repro.to_json()).expect("write repro file");
    path
}

fn replay(path: &str, obs_out: Option<&str>, flight_out: Option<&str>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let repro = match Repro::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Recording doesn't perturb the schedule, so the recorded replay
    // still has to reproduce the recorded digest below. The report is the
    // post-mortem's source too, so a replay always records.
    let sink = ObsSink::recording(proto_tag(repro.scenario.protocol));
    let run = run_plan_obs(&repro.scenario, &repro.plan, sink.clone());
    let report = sink.report().expect("recording sink yields a report");
    if let Some(out) = obs_out {
        if let Err(e) = report.validate() {
            eprintln!("obs: phase accounting broken: {e}");
            return ExitCode::FAILURE;
        }
        std::fs::write(out, report.to_chrome_trace()).expect("write obs trace");
        let report_path = format!("{out}.report.json");
        std::fs::write(&report_path, report.to_json()).expect("write obs report");
        println!(
            "obs: {} spans -> {out} (load at ui.perfetto.dev), report -> {report_path}",
            report.spans.len()
        );
    }
    println!("replayed seed {} ({} faults)", repro.seed, repro.plan.len());
    for f in &run.failures {
        println!("  {f}");
    }
    let reproduced = run.digest == repro.digest && run.failures == repro.failures;

    // Post-mortem triggers: a crash happened, an op wedged, an oracle or
    // namespace check failed, or the replay diverged from the recording.
    let f = &run.outcome.stats.faults;
    let trigger = if f.crashes > 0 {
        Some("crash")
    } else if !run.outcome.stats.stuck_ops.is_empty() || run.outcome.stats.ops_stuck > 0 {
        Some("stuck op")
    } else if f.oracle_violations > 0 || !run.failures.is_empty() {
        Some("failed check")
    } else if !reproduced {
        Some("digest mismatch")
    } else {
        None
    };
    if let Some(why) = trigger {
        let default_prefix = format!("{path}.postmortem");
        let prefix = flight_out.unwrap_or(&default_prefix);
        let (jsonl, trace) = (
            format!("{prefix}.flight.jsonl"),
            format!("{prefix}.flight.trace.json"),
        );
        let written = std::fs::write(&jsonl, report.to_jsonl())
            .and_then(|()| std::fs::write(&trace, report.to_chrome_trace()));
        match written {
            Ok(()) => println!(
                "post-mortem ({why}): {} spans ({} dropped), {} edges ({} dropped), \
                 {} gauges ({} dropped), {} stuck -> {trace} (load at ui.perfetto.dev), {jsonl}",
                report.spans.len(),
                report.dropped_spans,
                report.edges.len(),
                report.dropped_edges,
                report.gauges.len(),
                report.dropped_gauges,
                report.stuck.len(),
            ),
            Err(e) => eprintln!("post-mortem: write failed: {e}"),
        }
    }

    if reproduced {
        println!("reproduced: digest {} matches the recording", run.digest);
        ExitCode::SUCCESS
    } else {
        println!(
            "MISMATCH: digest {} vs recorded {} ({} vs {} failures)",
            run.digest,
            repro.digest,
            run.failures.len(),
            repro.failures.len()
        );
        ExitCode::FAILURE
    }
}

/// Prove the oracle has teeth: under `unsafe_skip_recovery_resume`, a
/// participant crash with commitments in flight must produce violations,
/// a shrunken repro, and a byte-identical replay.
fn demo_broken(args: &Args) -> ExitCode {
    let mut scn = ChaosScenario::new(Protocol::Cx);
    scn.broken = true;

    // Random exploration first — the generator's own envelope finds it.
    let out = explore(&scn, args.first_seed, args.seeds);
    let mut repros = out.repros;
    if !out.replay_mismatches.is_empty() {
        for m in &out.replay_mismatches {
            eprintln!("{m}");
        }
        return ExitCode::FAILURE;
    }
    if repros.is_empty() {
        // Fall back to a targeted sweep of participant crash points so the
        // demonstration stays robust at tiny seed budgets.
        'sweep: for server in 0..scn.servers {
            for nth in [3u64, 6, 10, 16, 24] {
                let plan = FaultPlan {
                    crashes: vec![CrashFault {
                        server: ServerId(server),
                        point: CrashPoint::WalAppend {
                            family: RecordFamily::Result,
                            nth,
                        },
                        torn_extra_bytes: 0,
                        detection_ns: 30 * DUR_MS,
                        reboot_ns: 15 * DUR_MS,
                    }],
                    ..FaultPlan::default()
                };
                let run = run_plan(&scn, &plan);
                if !run.failures.is_empty() {
                    let again = run_plan(&scn, &plan);
                    assert_eq!(run.digest, again.digest, "replay must be exact");
                    repros.push(Repro {
                        seed: args.first_seed,
                        scenario: scn,
                        plan,
                        failures: run.failures,
                        digest: run.digest,
                    });
                    break 'sweep;
                }
            }
        }
    }

    match repros.first() {
        Some(repro) => {
            let path = write_repro(&args.out_dir, repro);
            println!(
                "broken recovery caught: {} finding(s), {}-fault shrunken plan -> {path}",
                repro.failures.len(),
                repro.plan.len()
            );
            for f in repro.failures.iter().take(4) {
                println!("  {f}");
            }
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "oracle failed to catch the broken recovery in {} seeds + targeted sweep",
                args.seeds
            );
            ExitCode::FAILURE
        }
    }
}

/// Demonstrate the blame doctor end to end: the same workload runs twice,
/// once clean and once with server 2 sitting 5 ms on every sub-op it
/// receives (an `ExecDelay` plan — the wire stamps stay honest, only the
/// handling stalls). Both obs reports land in `--out-dir` so ci.sh can
/// point `cx-obs doctor --against` at them, and the in-binary diff must
/// already convict the delayed server's execute segment before the CLI
/// ever sees the files.
fn doctor_demo(out_dir: &str) -> ExitCode {
    const DELAY_NS: u64 = 5_000_000; // the injected 5 ms participant stall
    let slow = ServerId(2);
    let scn = ChaosScenario::new(Protocol::Cx);

    let clean_sink = ObsSink::recording("cx");
    let clean = run_plan_obs(&scn, &FaultPlan::default(), clean_sink.clone());

    // One single-shot fault per matching message: every fault counts the
    // same (SubOpReq → s2) stream, so nth = 1..=N stalls the first N
    // sub-ops the slow server receives; surplus faults never fire.
    let plan = FaultPlan {
        net: (1..=2_000)
            .map(|nth| NetFault {
                kind: MsgKind::SubOpReq,
                from: None,
                to: Some(slow),
                nth,
                action: NetAction::ExecDelay { ns: DELAY_NS },
            })
            .collect(),
        ..FaultPlan::default()
    };
    let slow_sink = ObsSink::recording("cx");
    let slowed = run_plan_obs(&scn, &plan, slow_sink.clone());

    for (run, label) in [(&clean, "clean"), (&slowed, "slowed")] {
        if !run.failures.is_empty() {
            eprintln!("doctor demo: {label} run failed checks: {:?}", run.failures);
            return ExitCode::FAILURE;
        }
    }
    let stalls = slowed.outcome.stats.faults.delays;
    if stalls == 0 {
        eprintln!("doctor demo: no sub-op ever reached server {}", slow.0);
        return ExitCode::FAILURE;
    }

    let mut paths = Vec::new();
    for (sink, name) in [(&clean_sink, "doctor_base"), (&slow_sink, "doctor_slow")] {
        let rep = sink.report().expect("recording sink yields a report");
        if let Err(e) = rep.validate() {
            eprintln!("doctor demo: {name} phase accounting broken: {e}");
            return ExitCode::FAILURE;
        }
        let path = format!("{out_dir}/{name}.report.json");
        std::fs::write(&path, rep.to_json()).expect("write obs report");
        paths.push(path);
    }

    // The conviction the acceptance criterion demands: the diff blames
    // the execute segment, and the largest hop shift names the server
    // that actually stalled.
    let base_rep = clean_sink.report().expect("report");
    let slow_rep = slow_sink.report().expect("report");
    let d = blame_diff(&base_rep.blame(), &slow_rep.blame());
    let Some(suspect) = d.prime_suspect() else {
        eprintln!("doctor demo: {stalls} injected stalls produced no significant segment");
        return ExitCode::FAILURE;
    };
    if suspect.seg != Seg::Execute {
        eprintln!(
            "doctor demo: prime suspect is {} (expected execute):\n{}",
            suspect.seg.name(),
            d.render()
        );
        return ExitCode::FAILURE;
    }
    let slow_key = format!("{} execute", cx_obs::FlowNode::Server(slow.0));
    if !d
        .hop_shifts
        .iter()
        .any(|(k, delta)| *k == slow_key && *delta > 0.0)
    {
        eprintln!(
            "doctor demo: no positive shift for {slow_key:?}:\n{}",
            d.render()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "doctor demo: s{} stalled {stalls} sub-ops 5 ms each; blame diff convicts \
         execute (+{:.1} µs/op, band {:.1} µs), hop shift {slow_key}",
        slow.0,
        suspect.delta_ns / 1_000.0,
        suspect.band_ns / 1_000.0,
    );
    println!("reports -> {} / {}", paths[0], paths[1]);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.replay {
        return replay(path, args.obs_out.as_deref(), args.flight_out.as_deref());
    }
    if args.demo_broken {
        return demo_broken(&args);
    }
    if args.doctor_demo {
        return doctor_demo(&args.out_dir);
    }

    let mut failed = false;
    for &protocol in &args.protocols {
        let scn = ChaosScenario::new(protocol);
        let out = explore(&scn, args.first_seed, args.seeds);
        let f = &out.faults;
        println!(
            "{}: {} seeds | drops {} delays {} dups {} dead {} | crashes {} (torn {}) recoveries {} | \
             oracle checks {} violations {} | wedged runs {}",
            proto_tag(protocol),
            out.seeds_run,
            f.drops,
            f.delays,
            f.dups,
            f.dead_drops,
            f.crashes,
            f.torn_crashes,
            f.recoveries,
            f.oracle_checks,
            f.oracle_violations,
            out.wedged,
        );
        for m in &out.replay_mismatches {
            eprintln!("  {m}");
            failed = true;
        }
        for repro in &out.repros {
            let path = write_repro(&args.out_dir, repro);
            eprintln!("  VIOLATION at seed {} -> {path}", repro.seed);
            for f in repro.failures.iter().take(4) {
                eprintln!("    {f}");
            }
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
