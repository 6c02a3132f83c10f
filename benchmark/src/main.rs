//! The repo's benchmark: one command for every runtime.
//!
//!     cx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!
//! runs one workload: reps of fixed size, each on a seed-generated input of
//! its own, until `--seconds` are used, every rep's outputs checked, every
//! metric printed by name with value, median, quartiles and sample count
//! (stderr), and one JSON object as the last line of stdout. `--trace 0`
//! measures the end-to-end metrics with tracing off; `--trace 1` measures
//! the per-layer metrics: the layer loops, counts read off untraced reps,
//! and traced reps interleaved with them. Without `--workload` every
//! workload runs in turn, each in a child process so peak RSS is its own.
//! `--quick` runs one rep at a twentieth of the size; `--self-check` runs
//! the workloads `BENCHMARK.json` lists twice back to back and fails if any
//! end-to-end value moved by more than its bound there. See
//! `benchmark/README.md`.

mod layers;
mod measure;
mod run;
mod spec;
mod trace;

use layers::{Layers, Sample};
use measure::{hist_quantile, loadavg, median, nproc, quartiles, Quartiles};
use run::{run_rep, Rep};
use spec::{Runtime, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

use cx_core::ObsSink;
use cx_obs::{BlameTable, Seg};

struct Args {
    workload: Option<&'static WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 30.0,
        trace: false,
        quick: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = match name.as_str() {
                    "all" => None,
                    name => Some(WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name:?}; one of {names:?}")
                    })?),
                }
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--self-check" => a.self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// DES digests of the first rep of `--seed 7` at full size, per workload.
/// Another seed regenerates the inputs and skips only this comparison.
const DIGEST_PINS: [(&str, u64); 3] = [
    ("des-home2", 13_242_818_352_360_829_697),
    ("des-update", 11_530_186_664_844_327_227),
    ("des-lowload", 9_859_696_256_004_564_632),
];

/// One metric of a run: the value reported, and how it spread over reps.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    over_reps: Quartiles,
}

/// One workload's result, metrics in spec order.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print_table(&self, spec: &WorkloadSpec) {
        eprintln!(
            "{:<38} {:>8} {:>14} {:>14} {:>14} {:>14} {:>3}",
            spec.name, "unit", "value", "median", "q1", "q3", "n"
        );
        for m in &self.metrics {
            let q = m.over_reps;
            eprintln!(
                "  {:<36} {:>8} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>3}",
                m.name, m.unit, m.value, q.median, q.q1, q.q3, q.n
            );
        }
    }
}

/// Every rep of a run has an input of its own, so a run's numbers cover a
/// dozen inputs instead of one a dozen times: rep `i` of `--seed s` is
/// generated from `1000 s + i`.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(rep as u64)
}

/// Reps until `seconds` are used: at least three, and no rep is started
/// that would overshoot the budget by more than half its expected length.
fn out_of_time(start: Instant, reps: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    reps >= 3 && elapsed + 0.5 * elapsed / reps as f64 > seconds
}

/// The DES is deterministic: the first rep of `--seed 7` at full size must
/// reproduce the pinned digest. Any other value is a behaviour change.
fn check_pin(spec: &WorkloadSpec, args: &Args, first: &Rep) -> Result<(), String> {
    if spec.runtime != Runtime::Des || args.seed != 7 || args.quick {
        return Ok(());
    }
    let digest = first.stats.digest();
    let pin = DIGEST_PINS.iter().find(|p| p.0 == spec.name).map(|p| p.1);
    if pin != Some(digest) {
        return Err(format!(
            "DES digest {digest} differs from the pin {pin:?} for seed 7"
        ));
    }
    Ok(())
}

fn end_to_end(spec: &WorkloadSpec, args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let root = tracer.begin("workload", 0);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep = run_rep(
            spec,
            rep_seed(args.seed, reps.len()),
            args.quick,
            ObsSink::Off,
            &mut tracer,
            root,
        )?;
        eprintln!(
            "  rep {:>2}: {:>9.0} ops/s of host time  setup {:.4}s  rss {:.1} MiB  load {}",
            reps.len() + 1,
            rep.ops_per_s(),
            rep.setup_s,
            rep.peak_rss_mb,
            loadavg()
        );
        reps.push(rep);
        if args.quick || out_of_time(start, reps.len(), args.seconds) {
            break;
        }
    }
    check_pin(spec, args, &reps[0])?;
    let over = |f: fn(&Rep) -> Option<f64>| {
        let values: Vec<f64> = reps.iter().filter_map(f).collect();
        (!values.is_empty()).then(|| quartiles(&values))
    };
    // Work per second is taken over the whole run — all ops over all the
    // cluster's seconds — because replay time is set by the slowest
    // process and falls into two groups by input; the median of a dozen
    // reps jumps between them. The others report the median rep.
    let ops: u64 = reps.iter().map(|r| r.stats.ops_total).sum();
    let cluster_s: f64 = reps
        .iter()
        .map(|r| r.stats.ops_total as f64 / r.cluster_ops_per_s)
        .sum();
    let values: BTreeMap<&str, (Option<f64>, Option<Quartiles>)> = [
        // Set-up is short and the host only ever slows it down: the
        // fastest of a run's set-ups is what the code costs.
        (
            "setup_s",
            (
                reps.iter().map(|r| r.setup_s).min_by(f64::total_cmp),
                over(|r| Some(r.setup_s)),
            ),
        ),
        (
            "cluster_ops_per_s",
            (
                Some(ops as f64 / cluster_s),
                over(|r| Some(r.cluster_ops_per_s)),
            ),
        ),
        ("lat_p50_us", (None, over(|r| Some(r.lat_p50_ns / 1e3)))),
        ("lat_p99_us", (None, over(|r| Some(r.lat_p99_ns / 1e3)))),
        (
            "cross_lat_p50_us",
            (None, over(|r| Some(r.cross_lat_p50_ns? / 1e3))),
        ),
        ("peak_rss_mb", (None, over(|r| Some(r.peak_rss_mb)))),
    ]
    .into();
    eprintln!(
        "  host, not gated: {:.0} ops/s, {:.3} us CPU per op (medians of {} reps)",
        median(&reps.iter().map(Rep::ops_per_s).collect::<Vec<_>>()),
        median(
            &reps
                .iter()
                .map(|r| r.cpu_s * 1e6 / r.stats.ops_total as f64)
                .collect::<Vec<_>>()
        ),
        reps.len()
    );
    Ok(Outcome {
        attempted: ops,
        failed: reps.iter().map(|r| r.stats.ops_failed).sum(),
        metrics: END_TO_END
            .iter()
            .filter_map(|&(name, unit)| {
                let (value, over_reps) = values[name];
                let over_reps = over_reps?;
                Some(Metric {
                    name,
                    unit,
                    value: value.unwrap_or(over_reps.median),
                    over_reps,
                })
            })
            .collect(),
    })
}

/// Counts one untraced rep contributes to the per-layer table, per client
/// op where the name says so. A layer the runtime does not cross reads 0.
fn rep_counts(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let s = &rep.stats;
    let ops = s.ops_total as f64;
    let rounds = s.proto.immediate_commitments + s.proto.batched_commitments;
    let mut m: BTreeMap<&'static str, f64> = [
        ("host.ops_per_s", rep.ops_per_s()),
        ("sim.events_per_op", s.events as f64 / ops),
        ("sim.events_per_s", s.events as f64 / rep.timed_s),
        ("simio.appends_per_flush", s.disk.appends_per_flush()),
        ("simio.pages_per_run", s.disk.pages_per_run()),
        ("wal.appends_per_op", s.disk.log_appends as f64 / ops),
        ("wal.bytes_per_op", s.disk.log_bytes as f64 / ops),
        (
            "mdstore.applies_per_op",
            s.server_stats.subops_executed as f64 / ops,
        ),
        (
            "mdstore.reads_per_op",
            s.server_stats.reads_served as f64 / ops,
        ),
        ("protocol.msgs_per_op", s.total_msgs() as f64 / ops),
        (
            "protocol.batch_size_p50",
            s.proto.batch_size.percentile(50.0) as f64,
        ),
        (
            "protocol.immediate_commit_share",
            s.proto.immediate_commitments as f64 / rounds.max(1) as f64,
        ),
        ("protocol.conflict_share", s.conflict_ratio()),
        ("protocol.failed_share", s.ops_failed as f64 / ops),
        ("cluster.cpu_ns_per_op", rep.cpu_s * 1e9 / ops),
        ("cluster.lat_p999_us", rep.lat_p999_ns / 1e3),
        ("cluster.drain_s", rep.drain_s),
    ]
    .into();
    let (wire, telem) = rep.wire.clone().unwrap_or_default();
    m.extend([
        ("net.conn.frames_per_op", wire.frames as f64 / ops),
        ("net.conn.bytes_per_op", wire.bytes as f64 / ops),
        (
            "net.conn.frames_per_flush",
            wire.frames as f64 / wire.flushes.max(1) as f64,
        ),
        (
            "net.conn.flush_latency_p50_ns",
            telem.flush_latency_ns.percentile(50.0) as f64,
        ),
        (
            "net.conn.queue_depth_p99",
            telem.queue_depth.percentile(99.0) as f64,
        ),
        ("net.conn.stall_ns_per_op", telem.stall_ns.sum as f64 / ops),
    ]);
    m
}

/// Σ(layer ns per call × calls per op) ÷ measured CPU per op, over the
/// layers that compute: generation, placement, the engines (timed on the
/// testkit, which already runs WAL and store inside them), the simulator
/// kernel and disk model on DES rows, the codec on TCP rows. What is left
/// is thread hand-off, syscalls and scheduling, which the `net.conn.*` and
/// `chan.*` latencies describe but do not add up to CPU.
fn accounted_share(
    spec: &WorkloadSpec,
    sample: &Sample,
    layer: &BTreeMap<&'static str, f64>,
    counts: &BTreeMap<&'static str, f64>,
    rep: &Rep,
) -> f64 {
    let n = sample.plans.len() as f64;
    let mutations = sample.plans.iter().filter(|p| p.op.is_mutation()).count() as f64 / n;
    let mut ns = layer["workloads.gen_ns_per_op"]
        + layer["types.placement_plan_ns"]
        + mutations * layer["protocol.engine_ns_per_create.cx"]
        + (1.0 - mutations) * layer["protocol.engine_ns_per_read"];
    match spec.runtime {
        Runtime::Des => {
            let wb_pages = rep.stats.disk.wb_pages as f64 / rep.stats.ops_total as f64;
            ns += counts["sim.events_per_op"] * layer["sim.schedule_pop_ns"]
                + counts["wal.appends_per_op"] * layer["simio.log_submit_ns"]
                + wb_pages * layer["simio.writeback_ns_per_page"];
        }
        Runtime::Tcp => {
            ns += counts["net.conn.frames_per_op"]
                * (layer["net.wire.encode_ns_per_frame"] + layer["net.wire.decode_ns_per_frame"]);
        }
        Runtime::Threaded => {}
    }
    ns / counts["cluster.cpu_ns_per_op"]
}

fn blame_rows(blame: &BlameTable, out: &mut BTreeMap<&'static str, f64>) {
    let p50_us = |seg: Seg| blame.segs[seg.index()].hist.percentile(50.0) as f64 / 1e3;
    out.extend([
        ("trace.issue_queue_p50_us", p50_us(Seg::IssueQueue)),
        ("trace.dispatch_p50_us", p50_us(Seg::Dispatch)),
        ("trace.req_wire_p50_us", p50_us(Seg::ReqWire)),
        ("trace.execute_p50_us", p50_us(Seg::Execute)),
        ("trace.commit_on_path_p50_us", p50_us(Seg::CommitOnPath)),
        ("trace.reply_wire_p50_us", p50_us(Seg::ReplyWire)),
        ("trace.reply_deliver_p50_us", p50_us(Seg::ReplyDeliver)),
        ("trace.vote_launch_p50_us", p50_us(Seg::VoteLaunch)),
        ("trace.vote_round_p50_us", p50_us(Seg::VoteRound)),
        ("trace.decision_round_p50_us", p50_us(Seg::DecisionRound)),
    ]);
    // Medians of parts do not add up to the median of the whole; the
    // table's invariant is on sums: the client-visible segments of every
    // blamed op telescope to its issued→replied window exactly.
    let parts: u64 = Seg::CLIENT
        .iter()
        .map(|s| blame.segs[s.index()].hist.sum)
        .sum();
    out.insert(
        "trace.client_sum_ratio",
        parts as f64 / blame.client_total.sum.max(1) as f64,
    );
}

/// Where the traced run's files go: `benchmark/out/` of the checkout the
/// command runs in (the package's own directory when run from elsewhere).
fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    let dir = if here.is_dir() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    dir.join("out")
}

fn per_layer(spec: &WorkloadSpec, args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let root = tracer.begin("workload", 0);
    let start = Instant::now();

    // An untraced rep first: its message mix shapes the layer loops' input.
    let mut plain = vec![run_rep(
        spec,
        rep_seed(args.seed, 0),
        args.quick,
        ObsSink::Off,
        &mut tracer,
        root,
    )?];
    let sample = Sample::draw(spec, rep_seed(args.seed, 0), args.quick, &plain[0].stats);
    let layers_span = tracer.begin("layers", root);
    let mut layers = Layers::new(&mut tracer, layers_span, args.quick);
    layers.run(&sample);
    let mut values = layers.out;
    tracer.end(layers_span);

    // Traced and untraced reps interleaved, rep `i` of each on the same
    // input, so host drift hits both sides of `obs.span_on_ratio` alike.
    // Traced reps never feed a count.
    let mut traced: Vec<Rep> = Vec::new();
    let mut blame: Option<BlameTable> = None;
    let last_sink = loop {
        let sink = ObsSink::recording("cx");
        let seed = rep_seed(args.seed, traced.len());
        let rep = run_rep(spec, seed, args.quick, sink.clone(), &mut tracer, root)?;
        let table = rep
            .stats
            .blame
            .clone()
            .ok_or("traced rep has no blame table")?;
        match &mut blame {
            Some(b) => b.merge(&table),
            None => blame = Some(table),
        }
        traced.push(rep);
        if args.quick {
            break sink;
        }
        plain.push(run_rep(
            spec,
            rep_seed(args.seed, plain.len()),
            args.quick,
            ObsSink::Off,
            &mut tracer,
            root,
        )?);
        if out_of_time(start, plain.len() + traced.len(), args.seconds) {
            break sink;
        }
    };
    check_pin(spec, args, &plain[0])?;
    if spec.runtime == Runtime::Des {
        // Tracing must not change what the simulator computes.
        for (p, t) in plain.iter().zip(&traced) {
            if p.stats.digest() != t.stats.digest() {
                return Err(format!(
                    "DES digest differs traced vs untraced: {} vs {}",
                    t.stats.digest(),
                    p.stats.digest()
                ));
            }
        }
    }

    let per_rep: Vec<_> = plain.iter().map(rep_counts).collect();
    let counts: BTreeMap<&'static str, f64> = per_rep[0]
        .keys()
        .map(|&k| (k, median(&per_rep.iter().map(|m| m[k]).collect::<Vec<_>>())))
        .collect();
    let accounted = accounted_share(spec, &sample, &values, &counts, &plain[0]);
    values.extend(counts);
    values.insert("cluster.accounted_share", accounted);
    let ratios: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| t.ops_per_s() / p.ops_per_s())
        .collect();
    values.insert("obs.span_on_ratio", median(&ratios));

    let blame = blame.expect("at least one traced rep");
    blame_rows(&blame, &mut values);
    if (values["trace.client_sum_ratio"] - 1.0).abs() > 0.031 {
        return Err(format!(
            "client-visible blame segments sum to {:.4} of the client window",
            values["trace.client_sum_ratio"]
        ));
    }
    let mut report = last_sink.report().ok_or("recording sink yields a report")?;
    values.insert(
        "trace.cross_lat_p50_us",
        hist_quantile(&report.client_cross, 50.0) / 1e3,
    );
    eprintln!(
        "  traced rep: lat p50 {:.1} us over {} ops, {} blamed; Σ client-segment p50s {:.1} us",
        hist_quantile(&report.client_all, 50.0) / 1e3,
        report.client_all.count,
        blame.ops,
        Seg::CLIENT
            .iter()
            .map(|s| blame.segs[s.index()].hist.percentile(50.0) as f64 / 1e3)
            .sum::<f64>()
    );

    // Written when the benchmark ends: the harness's spans and the
    // program's own sampled op spans (with wire flushes on TCP rows).
    tracer.end(root);
    if let Some((_, telem)) = &traced.last().expect("one traced rep").wire {
        report.flushes = telem.flush_spans.clone();
    }
    let dir = out_dir();
    let write = |suffix: &str, body: String| {
        let path = dir.join(format!("trace-{}.{suffix}.json", spec.name));
        std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, body))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("  [chrome trace: {}]", path.display());
        Ok::<(), String>(())
    };
    write("harness", tracer.to_chrome_json())?;
    write("program", report.to_chrome_trace())?;

    let n = plain.len() + traced.len();
    Ok(Outcome {
        attempted: plain.iter().chain(&traced).map(|r| r.stats.ops_total).sum(),
        failed: plain
            .iter()
            .chain(&traced)
            .map(|r| r.stats.ops_failed)
            .sum(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                Metric {
                    name,
                    unit,
                    value,
                    over_reps: Quartiles {
                        q1: value,
                        median: value,
                        q3: value,
                        n,
                    },
                }
            })
            .collect(),
    })
}

fn run_one(spec: &WorkloadSpec, args: &Args) -> ExitCode {
    eprintln!(
        "{}: seed {} (cluster seed {}), {} s, trace {}, nproc {}, load {}",
        spec.name,
        args.seed,
        spec::CLUSTER_SEED,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        loadavg()
    );
    let result = if args.trace {
        per_layer(spec, args)
    } else {
        end_to_end(spec, args)
    };
    match result {
        Ok(outcome) => {
            outcome.print_table(spec);
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{}: INVALID RUN: {why}", spec.name);
            ExitCode::FAILURE
        }
    }
}

/// Run every workload (`only`: those named), each as a child of this
/// command so its peak RSS is its own, passing the children's output
/// through. Returns each child's result line, or `None` if one failed.
fn run_all(args: &Args, only: Option<&[String]>) -> Option<Vec<(&'static str, String)>> {
    let exe = std::env::current_exe().expect("own path");
    let mut lines = Vec::new();
    let listed = |w: &&WorkloadSpec| only.is_none_or(|names| names.iter().any(|n| n == w.name));
    for w in WORKLOADS.iter().filter(listed) {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn child workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return None;
        }
        lines.push((
            w.name,
            stdout.lines().last().unwrap_or_default().to_string(),
        ));
    }
    Some(lines)
}

/// `--self-check`: two end-to-end sets of the workloads `BENCHMARK.json`
/// lists, back to back; every metric's second value must be within its
/// bound of the first, in the metric's worse direction.
fn self_check(args: &Args) -> ExitCode {
    let manifest = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--self-check reads ./BENCHMARK.json (run from the repo root): {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = serde_json::parse_value(&manifest).expect("BENCHMARK.json parses");
    let field = |v: &serde::Json, key: &str| match v {
        serde::Json::Object(o) => o.iter().find(|kv| kv.0 == key).map(|kv| kv.1.clone()),
        _ => None,
    };
    let number = |v: Option<serde::Json>| match v {
        Some(serde::Json::F64(f)) => f,
        Some(serde::Json::U64(u)) => u as f64,
        _ => f64::NAN,
    };
    let Some(serde::Json::Array(bounds)) = field(&manifest, "end_to_end") else {
        eprintln!("BENCHMARK.json has no end_to_end list");
        return ExitCode::FAILURE;
    };
    let Some(serde::Json::Array(listed)) = field(&manifest, "workloads") else {
        eprintln!("BENCHMARK.json has no workloads list");
        return ExitCode::FAILURE;
    };
    let listed: Vec<String> = listed
        .iter()
        .filter_map(|w| match field(w, "name") {
            Some(serde::Json::Str(name)) => Some(name),
            _ => None,
        })
        .collect();
    let (Some(first), Some(second)) = (run_all(args, Some(&listed)), run_all(args, Some(&listed)))
    else {
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        let (a, b) = (
            serde_json::parse_value(a).expect("result line parses"),
            serde_json::parse_value(b).expect("result line parses"),
        );
        for m in &bounds {
            let Some(serde::Json::Str(name)) = field(m, "name") else {
                continue;
            };
            let bound = number(field(m, "bound"));
            let lower_is_better = field(m, "better") == Some(serde::Json::Str("lower".into()));
            let value = |run: &serde::Json| {
                number(
                    field(run, "metrics")
                        .and_then(|ms| field(&ms, &name))
                        .and_then(|m| field(&m, "value")),
                )
            };
            let (va, vb) = (value(&a), value(&b));
            let worse = if lower_is_better {
                vb / va - 1.0
            } else {
                1.0 - vb / va
            };
            let verdict = if worse <= bound { "ok" } else { "MOVED" };
            eprintln!(
                "self-check {workload:<16} {name:<18} {va:>14.4} -> {vb:>14.4}  {:+.1}% (bound {:.0}%) {verdict}",
                worse * 100.0,
                bound * 100.0
            );
            // NaN (a missing metric) must fail too.
            ok &= worse <= bound;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("cx-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check(&args);
    }
    match args.workload {
        Some(spec) => run_one(spec, &args),
        None if run_all(&args, None).is_some() => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}
