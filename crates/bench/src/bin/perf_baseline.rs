//! Tracked performance baseline for the DES hot path.
//!
//! Runs a fixed basket and records wall-clock time and simulator
//! events/sec for each item:
//!
//! 1. `home2_replay_8s` — the home2 trace (lookup-heavy NFS) replayed on
//!    8 servers under Cx; the headline events/sec number.
//! 2. `metarates_update_8s` — update-dominated Metarates at 8 servers
//!    (mutation-heavy, exercises the protocol engines and WAL).
//! 3. `table5_recovery_160kb` — a crash at 160 KB of valid records plus
//!    full recovery (log scan + resumption); wall-clock only, since the
//!    run is dominated by fixed-size protocol work rather than a stream
//!    of events.
//! 4. `lair62b_full_replay` — the 11M-op lair62b trace generated and
//!    replayed end-to-end; its `peak_rss_kb` shows the streaming intake
//!    holding memory flat at full scale.
//!
//! 5. `home2_tcp_loopback_8s` / `home2_tcp_multiproc_8s` (with `--net
//!    tcp`) — the home2 prefix on the real-socket runtime (`cx-net`,
//!    DESIGN.md §9), in-process loopback and one-OS-process-per-server.
//!    Wall-clock-only (the wire plane has no simulator event counter),
//!    and measured on ONE box: coordinator, clients, and every server
//!    share its cores, so the numbers are wire-plane overhead, not
//!    cluster capacity. `home2_tcp_loopback_8s_obs` is the same loopback
//!    entry with full wall-clock tracing on (recording sink + flush-span
//!    capture); `--net-floor` holds it within 5% of the uninstrumented
//!    floor.
//!
//! Every entry records `peak_rss_kb` (VmHWM, reset per entry); wall-clock
//! entries that complete client ops (the net modes) record `ops_per_sec`
//! instead of a zero event rate. Results
//! merge into `--out` (default `target/bench.json`, untracked), keyed by
//! `--label` (e.g. `--label before` / `--label after`), so an optimization
//! PR measures both sides of the comparison with the same binary and names
//! its own `BENCH_PR<n>.json` explicitly. After the table, a comparison
//! against the most recent other `BENCH_PR*.json` at the repo root prints
//! in-run, so drift is visible without waiting for the `ci.sh` gate.
//!
//! `--smoke` runs none of the basket: it replays the golden-digest
//! scenario and asserts the pinned digest — the fixed-seed CI gate
//! (`ci.sh`).
//!
//! `--obs` runs the observability export instead of the basket: one home2
//! replay with lifecycle recording on, dashboard to stdout, Perfetto
//! trace + report + JSONL next to `--obs-out <prefix>`, and a digest
//! check that instrumentation didn't perturb the run.
//!
//! `--net-smoke` runs the loopback-TCP CI gate instead of the basket: a
//! small home2 prefix on the real-socket runtime must stay clean, agree
//! with the threaded runtime's tie-insensitive totals, and survive the
//! reconnect drill (every coordinator connection dropped mid-run)
//! losslessly with at least one re-dial.
//!
//! `--multiproc` runs the home2 prefix with one OS process per server
//! (the `cx_net_server` binary) and the coordinator connecting out over
//! real TCP. With `--metrics-out <prefix>` the live registry publishes
//! `.prom` / `.json` during the run, and each server process writes
//! `<prefix>_srv<N>.json` at exit — merge the lot with `cx-obs top
//! <prefix>.json <prefix>_srv*.json`. With `--obs-out <prefix>` every
//! process stamps op phases on its own wall clock (shard-mode sinks on
//! the servers), the coordinator stitches the shards with probe-measured
//! clock offsets, and `<prefix>.report.json` / `.trace.json` (Perfetto)
//! / `.net.json` (`cx-obs net`) land next to it; ≥99% of ops must come
//! back with a server-side Executed stamp.
//!
//! `--live` runs the home2 scenario on the *threaded* runtime with the
//! metric registry publishing live: `--metrics-out <prefix>` (default
//! `target/cx_metrics`) gets a `.prom` (Prometheus text) and `.json`
//! (registry snapshot) refreshed every 500 ms while the run executes —
//! watch it with `cx-obs top <prefix>.json`.
//!
//! `--against other.json` (with the basket) compares this run's home2
//! events/sec to the best rate in another report and fails below
//! `--tolerance` (default 0.80) — the `BENCH_PR4.json` vs
//! `BENCH_PR3.json` no-regression gate in `ci.sh`.
//!
//! Usage: `perf_baseline --label after [--iters 3] [--scale 0.05]
//!         [--filter home2] [--out path.json] [--smoke]
//!         [--obs [--obs-out prefix]] [--live [--metrics-out prefix]]
//!         [--net tcp [--net-scale f] [--net-floor ops_per_sec]]
//!         [--net-smoke]
//!         [--multiproc [--metrics-out prefix] [--obs-out prefix]]
//!         [--against path.json]`

use cx_core::{
    BatchTrigger, ClusterConfig, Experiment, LiveMetrics, MetaratesMix, MetricRegistry, ObsSink,
    Phase, Protocol, RecoveryExperiment, TcpCluster, TcpOptions, TcpRunResult, ThreadedCluster,
    Workload,
};
use cx_workloads::Trace;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One basket item's measurement. DES entries report `events` /
/// `events_per_sec`; wall-clock entries (the net modes, recovery) have no
/// simulator event counter and report `ops_per_sec` instead — the old
/// schema wrote a misleading `events: 0 / events_per_sec: 0.0` for them.
/// Serialization is hand-rolled (the workspace serde shim has no
/// `skip_serializing_if`): zero event counts and absent op rates are
/// *omitted*, and reads default every optional field, so reports from
/// either schema generation still parse for `--against`.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    ops_total: u64,
    /// Completed client operations per second, for entries whose unit of
    /// work is an op rather than a simulator event.
    ops_per_sec: Option<f64>,
    peak_rss_kb: Option<u64>,
}

impl Serialize for Entry {
    fn to_json(&self) -> serde::Json {
        let mut o: Vec<(String, serde::Json)> = vec![
            ("name".into(), self.name.to_json()),
            ("wall_secs".into(), self.wall_secs.to_json()),
        ];
        if self.events > 0 {
            o.push(("events".into(), self.events.to_json()));
            o.push(("events_per_sec".into(), self.events_per_sec.to_json()));
        }
        o.push(("ops_total".into(), self.ops_total.to_json()));
        if let Some(r) = self.ops_per_sec {
            o.push(("ops_per_sec".into(), r.to_json()));
        }
        if let Some(kb) = self.peak_rss_kb {
            o.push(("peak_rss_kb".into(), kb.to_json()));
        }
        serde::Json::Object(o)
    }
}

impl Deserialize for Entry {
    fn from_json(v: &serde::Json) -> Result<Self, String> {
        let serde::Json::Object(o) = v else {
            return Err("expected object for Entry".into());
        };
        let get = |k: &str| o.iter().find(|kv| kv.0 == k).map(|kv| &kv.1);
        let req = |k: &str| get(k).ok_or_else(|| format!("missing field `{k}` in Entry"));
        Ok(Entry {
            name: Deserialize::from_json(req("name")?)?,
            wall_secs: Deserialize::from_json(req("wall_secs")?)?,
            events: match get("events") {
                Some(v) => Deserialize::from_json(v)?,
                None => 0,
            },
            events_per_sec: match get("events_per_sec") {
                Some(v) => Deserialize::from_json(v)?,
                None => 0.0,
            },
            ops_total: Deserialize::from_json(req("ops_total")?)?,
            ops_per_sec: match get("ops_per_sec") {
                Some(v) => Deserialize::from_json(v)?,
                None => None,
            },
            peak_rss_kb: match get("peak_rss_kb") {
                Some(v) => Deserialize::from_json(v)?,
                None => None,
            },
        })
    }
}

/// All measurements taken under one `--label`.
#[derive(Debug, Clone)]
struct LabeledRun {
    label: String,
    iters: u32,
    /// Hardware threads available when the run was taken. Honest-labeling
    /// context for the wall-clock rates: numbers from a 1-thread box are
    /// not comparable to multi-core runs of the same basket. Absent in
    /// reports written before this field existed.
    hw_threads: Option<u32>,
    entries: Vec<Entry>,
}

impl Serialize for LabeledRun {
    fn to_json(&self) -> serde::Json {
        let mut o: Vec<(String, serde::Json)> = vec![
            ("label".into(), self.label.to_json()),
            ("iters".into(), self.iters.to_json()),
        ];
        if let Some(t) = self.hw_threads {
            o.push(("hw_threads".into(), t.to_json()));
        }
        o.push(("entries".into(), self.entries.to_json()));
        serde::Json::Object(o)
    }
}

impl Deserialize for LabeledRun {
    fn from_json(v: &serde::Json) -> Result<Self, String> {
        let serde::Json::Object(o) = v else {
            return Err("expected object for LabeledRun".into());
        };
        let get = |k: &str| o.iter().find(|kv| kv.0 == k).map(|kv| &kv.1);
        let req = |k: &str| get(k).ok_or_else(|| format!("missing field `{k}` in LabeledRun"));
        Ok(LabeledRun {
            label: Deserialize::from_json(req("label")?)?,
            iters: Deserialize::from_json(req("iters")?)?,
            hw_threads: match get("hw_threads") {
                Some(v) => Some(Deserialize::from_json(v)?),
                None => None,
            },
            entries: Deserialize::from_json(req("entries")?)?,
        })
    }
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Report {
    runs: Vec<LabeledRun>,
}

/// Best-of-N wall time for one run closure returning (events, ops_total).
/// Every entry samples peak RSS: the watermark is reset before the first
/// iteration and read after the last, so each basket item reports its own
/// high-water mark instead of inheriting an earlier item's.
fn measure(name: &str, iters: u32, mut run: impl FnMut() -> (u64, u64)) -> Entry {
    cx_bench::reset_peak_rss();
    let mut best = f64::INFINITY;
    let (mut events, mut ops_total) = (0, 0);
    for _ in 0..iters {
        let t0 = Instant::now();
        let (e, o) = run();
        let secs = t0.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
        (events, ops_total) = (e, o);
    }
    Entry {
        name: name.to_string(),
        wall_secs: best,
        events,
        events_per_sec: if events > 0 {
            events as f64 / best
        } else {
            0.0
        },
        ops_total,
        // Wall-clock entries that complete client ops rate those instead
        // of pretending to an event rate of zero.
        ops_per_sec: (events == 0 && ops_total > 0 && best > 0.0).then(|| ops_total as f64 / best),
        peak_rss_kb: Some(cx_bench::peak_rss_kb()).filter(|&kb| kb > 0),
    }
}

/// Golden-digest gate: the pinned home2 scenario must replay to the
/// digest `tests/determinism_and_recovery.rs` pins. Panics (non-zero
/// exit) on any drift, so `ci.sh` catches behavioral changes before the
/// full test suite even builds.
fn smoke() {
    const GOLDEN_HOME2_DIGEST: u64 = 4_199_832_947_163_537_151;
    let r = Experiment::new(Workload::trace("home2").scale(0.005).seed(7))
        .servers(8)
        .protocol(Protocol::Cx)
        .seed(42)
        .run();
    assert!(r.is_consistent(), "smoke: home2 replay inconsistent");
    assert_eq!(
        r.stats.digest(),
        GOLDEN_HOME2_DIGEST,
        "smoke: digest drifted from the golden pin"
    );
    println!("smoke ok: home2 digest {GOLDEN_HOME2_DIGEST}");
}

/// `--obs`: replay the home2 scenario once with the observability plane
/// recording and export the run as `<prefix>.report.json` (full
/// [`cx_core::ObsReport`]), `<prefix>.trace.json` (Chrome-trace-event /
/// Perfetto), and `<prefix>.jsonl` (event stream), then print the text
/// dashboard. A second, uninstrumented replay of the same configuration
/// asserts the digest is untouched — the zero-overhead-when-disabled
/// contract, checked on every `--obs` invocation.
fn obs_run(args: &cx_bench::Args) {
    let scale = args.scale(0.02);
    let servers: u32 = args.value("--servers").unwrap_or(8);
    let prefix: String = args
        .value("--obs-out")
        .unwrap_or_else(|| "target/obs_home2".into());
    let e = Experiment::new(Workload::trace("home2").scale(scale).seed(7))
        .servers(servers)
        .protocol(Protocol::Cx)
        .seed(42);
    let sink = ObsSink::recording("cx");
    let r = e.run_obs(sink.clone());
    assert!(r.is_consistent(), "obs: home2 replay inconsistent");
    let report = sink.report().expect("recording sink yields a report");
    report
        .validate()
        .expect("obs: phase accounting must sum to client latency");

    if let Some(dir) = std::path::Path::new(&prefix).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(format!("{prefix}.report.json"), report.to_json()).expect("write obs report");
    std::fs::write(format!("{prefix}.trace.json"), report.to_chrome_trace())
        .expect("write obs trace");
    std::fs::write(format!("{prefix}.jsonl"), report.to_jsonl()).expect("write obs jsonl");

    println!("{}", report.render_dashboard());
    // The blame doctor's headline: where the critical-path time went.
    // `cx-obs doctor <prefix>.report.json` prints the full table.
    let blame = report.blame();
    if blame.ops > 0 {
        let total: u64 = blame.client_total.sum + blame.commit_total.sum;
        print!("top blame segments ({} ops decomposed):", blame.ops);
        for (seg, hist) in blame.top_segments().into_iter().take(3) {
            let share = if total > 0 {
                100.0 * hist.sum as f64 / total as f64
            } else {
                0.0
            };
            print!(" {}={:.1}%", seg.name(), share);
        }
        println!();
    }
    println!(
        "[obs: {prefix}.report.json | {prefix}.trace.json ({} spans, load at ui.perfetto.dev) | {prefix}.jsonl | cx-obs doctor {prefix}.report.json]",
        report.spans.len()
    );

    let plain = e.run();
    assert_eq!(
        plain.stats.digest(),
        r.stats.digest(),
        "--obs must not perturb the replay digest"
    );
    println!(
        "digest {} identical with and without --obs",
        plain.stats.digest()
    );
}

/// `--live`: run the home2 scenario on the threaded runtime with live
/// metric exposition. Client threads bump the registry as ops complete;
/// a monitor thread refreshes `<prefix>.prom` / `<prefix>.json` every
/// 500 ms (`cx-obs top <prefix>.json` renders the latter); engines fold
/// their protocol series in at stop. Prints the final snapshot's top
/// view and where the files landed.
fn live_run(args: &cx_bench::Args) {
    let scale = args.scale(0.02);
    let servers: u32 = args.value("--servers").unwrap_or(8);
    let prefix: String = args
        .value("--metrics-out")
        .unwrap_or_else(|| "target/cx_metrics".into());
    let e = Experiment::new(Workload::trace("home2").scale(scale).seed(7))
        .servers(servers)
        .protocol(Protocol::Cx)
        .seed(42);
    if let Some(dir) = std::path::Path::new(&prefix).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut live = LiveMetrics::new(MetricRegistry::new());
    live.out = Some(std::path::PathBuf::from(&prefix));
    let registry = live.registry.clone();
    let st = e.workload.stream(&e.cfg);
    let r = ThreadedCluster::run_stream_live(e.cfg.clone(), st, ObsSink::Off, live);
    assert!(r.violations.is_empty(), "--live: home2 run inconsistent");
    let snap = registry.snapshot();
    println!("{}", snap.render_top());
    assert_eq!(
        snap.value("cx_ops_issued_total"),
        Some(r.stats.ops_total),
        "--live: registry ops_issued must match RunStats"
    );
    println!(
        "[live metrics: {prefix}.prom (Prometheus text) | {prefix}.json \
         (watch with: cx-obs top {prefix}.json)]"
    );
}

/// Wall-clock-safe triggers for the real-socket runtime: the default
/// batch trigger is ~10 *virtual* seconds, which a wall-clock runtime
/// would serve as an actual ten-second stall per batch. Same idiom as
/// the threaded runtime's tests.
fn wall_clock(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5_000_000, // 5 ms
    };
    cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
    cfg
}

/// The home2 prefix the net modes share, on a wall-clock-safe config.
fn net_scenario(servers: u32, scale: f64) -> (ClusterConfig, Trace) {
    let mut cfg = ClusterConfig::new(servers, Protocol::Cx);
    cfg.seed = 42;
    let cfg = wall_clock(cfg);
    let trace = Workload::trace("home2").scale(scale).seed(7).build(&cfg);
    (cfg, trace)
}

/// Spawn one `cx_net_server` OS process per server (the binary sits next
/// to this one in the target dir), wait for each `LISTEN <addr>` line,
/// drive the run as the external coordinator, then reap the children —
/// they exit on their own after answering `Stop`.
fn run_multiproc(
    cfg: &ClusterConfig,
    trace: &Trace,
    opts: TcpOptions,
    server_obs: bool,
    server_metrics: Option<&str>,
) -> TcpRunResult {
    let bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("cx_net_server")))
        .expect("cx_net_server sits next to perf_baseline");
    let _ = std::fs::create_dir_all("target");
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for s in 0..cfg.servers {
        let path = format!("target/cx_net_server_{s}.json");
        let nsc = cx_bench::NetServerConfig {
            cfg: cfg.clone(),
            me: s,
            seeds: trace.seeds.clone(),
            obs: server_obs,
            metrics_out: server_metrics.map(|p| format!("{p}_srv{s}")),
        };
        std::fs::write(
            &path,
            serde_json::to_string(&nsc).expect("config serializes"),
        )
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
        let mut child = std::process::Command::new(&bin)
            .arg("--config")
            .arg(&path)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let mut line = String::new();
        std::io::BufRead::read_line(
            &mut std::io::BufReader::new(child.stdout.take().expect("stdout piped")),
            &mut line,
        )
        .expect("read LISTEN line");
        let addr = line
            .strip_prefix("LISTEN ")
            .unwrap_or_else(|| panic!("server {s}: expected `LISTEN <addr>`, got {line:?}"))
            .trim()
            .parse()
            .expect("socket addr parses");
        addrs.push(addr);
        children.push(child);
    }
    let r = TcpCluster::run_external(cfg.clone(), trace.to_stream(), &addrs, opts);
    for (s, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait for server process");
        assert!(status.success(), "server process {s} exited with {status}");
    }
    r
}

/// `--net-smoke`: the loopback-TCP CI gate. A small home2 prefix on the
/// real-socket runtime must (a) stay atomicity-clean, (b) finish every
/// op, (c) agree with the threaded runtime on the tie-insensitive totals
/// (`ops_total`, `cross_ops`, the applied+failed closure), and (d)
/// survive the reconnect drill — every coordinator connection dropped
/// mid-run — losslessly, with at least one re-dial.
fn net_smoke(args: &cx_bench::Args) {
    let scale = args.scale(0.0005);
    let servers: u32 = args.value("--servers").unwrap_or(4);
    let (cfg, trace) = net_scenario(servers, scale);

    let tcp = TcpCluster::run(cfg.clone(), &trace);
    assert!(tcp.violations.is_empty(), "net smoke: TCP run inconsistent");
    assert_eq!(
        tcp.stats.ops_total,
        trace.ops.len() as u64,
        "net smoke: ops lost on the wire"
    );
    assert_eq!(
        tcp.stats.ops_applied + tcp.stats.ops_failed,
        tcp.stats.ops_total,
        "net smoke: op accounting must close"
    );

    let thr = ThreadedCluster::run(cfg.clone(), &trace);
    assert_eq!(
        tcp.stats.ops_total, thr.stats.ops_total,
        "net smoke: ops_total drifted vs threaded"
    );
    assert_eq!(
        tcp.stats.cross_ops, thr.stats.cross_ops,
        "net smoke: cross_ops drifted vs threaded"
    );

    let opts = TcpOptions {
        drop_conns_after_ops: Some(trace.ops.len() as u64 / 4),
        ..TcpOptions::default()
    };
    let drill = TcpCluster::run_stream_opts(cfg, trace.to_stream(), opts);
    assert!(
        drill.violations.is_empty(),
        "net smoke: reconnect run inconsistent"
    );
    assert!(
        drill.reconnects >= 1,
        "net smoke: drill must force a re-dial"
    );
    assert_eq!(
        drill.stats.ops_total,
        trace.ops.len() as u64,
        "net smoke: reconnect lost ops"
    );
    println!(
        "net smoke ok: {} ops over loopback TCP ({} server + {} client frames), \
         totals match threaded; reconnect drill re-dialed {}x and stayed lossless",
        tcp.stats.ops_total, tcp.stats.server_msgs, tcp.stats.client_msgs, drill.reconnects
    );
}

/// `--multiproc`: one OS process per server (`cx_net_server`), the
/// coordinator connecting out over real TCP — the smallest honest
/// deployment shape. With `--metrics-out <prefix>` the live registry
/// publishes `.prom` / `.json` while the run executes, which makes the
/// exposition a genuine cross-process ops surface instead of a
/// same-process convenience.
fn multiproc_run(args: &cx_bench::Args) {
    let scale = args.scale(0.002);
    let servers: u32 = args.value("--servers").unwrap_or(4);
    let (cfg, trace) = net_scenario(servers, scale);
    let mut opts = TcpOptions::default();
    let live_out = args.value::<String>("--metrics-out").map(|prefix| {
        if let Some(dir) = std::path::Path::new(&prefix).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut live = LiveMetrics::new(MetricRegistry::new());
        live.out = Some(std::path::PathBuf::from(&prefix));
        let registry = live.registry.clone();
        opts.live = Some(live);
        (prefix, registry)
    });
    // `--obs-out <prefix>`: wall-clock tracing across every process. The
    // coordinator records; each server runs a shard-mode sink and ships
    // its stamps back in `StopResp` for offset-corrected stitching.
    let obs_prefix: Option<String> = args.value("--obs-out");
    let sink = ObsSink::recording("cx");
    if obs_prefix.is_some() {
        opts.obs = sink.clone();
        opts.net.record_flush_spans = true;
    }

    let t0 = Instant::now();
    let r = run_multiproc(
        &cfg,
        &trace,
        opts,
        obs_prefix.is_some(),
        live_out.as_ref().map(|(p, _)| p.as_str()),
    );
    let wall = t0.elapsed().as_secs_f64();
    assert!(r.violations.is_empty(), "--multiproc: run inconsistent");
    assert_eq!(
        r.stats.ops_total,
        trace.ops.len() as u64,
        "--multiproc: ops lost on the wire"
    );
    assert_eq!(
        r.stats.ops_applied + r.stats.ops_failed,
        r.stats.ops_total,
        "--multiproc: op accounting must close"
    );
    println!(
        "multiproc ok: {} ops across {} server processes in {wall:.2}s \
         ({:.0} ops/s on one box), {} server + {} client frames",
        r.stats.ops_total,
        cfg.servers,
        r.stats.ops_total as f64 / wall,
        r.stats.server_msgs,
        r.stats.client_msgs,
    );
    if let Some((prefix, registry)) = live_out {
        let snap = registry.snapshot();
        assert_eq!(
            snap.value("cx_ops_issued_total"),
            Some(r.stats.ops_total),
            "--multiproc: registry ops_issued must match RunStats"
        );
        println!(
            "[live metrics: {prefix}.prom (Prometheus text) | {prefix}.json \
             (merge all processes with: cx-obs top {prefix}.json {prefix}_srv*.json)]"
        );
    }
    if let Some(prefix) = obs_prefix {
        if let Some(dir) = std::path::Path::new(&prefix).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut report = sink.report().expect("recording sink yields a report");
        report.flushes = r.telem.flush_spans.clone();
        report
            .validate()
            .expect("--multiproc --obs-out: phase accounting must hold on stitched spans");
        let stitched = report
            .spans
            .iter()
            .filter(|s| s.at(Phase::Executed).is_some())
            .count();
        assert!(
            stitched * 100 >= report.spans.len() * 99,
            "--multiproc --obs-out: only {stitched}/{} spans stitched a server-side \
             Executed stamp",
            report.spans.len()
        );
        std::fs::write(format!("{prefix}.report.json"), report.to_json())
            .expect("write multiproc obs report");
        std::fs::write(format!("{prefix}.trace.json"), report.to_chrome_trace())
            .expect("write multiproc obs trace");
        std::fs::write(format!("{prefix}.net.json"), r.net.to_json())
            .expect("write multiproc net table");
        println!(
            "stitched {stitched}/{} spans across {} server processes \
             (offsets: {})",
            report.spans.len(),
            cfg.servers,
            r.health
                .iter()
                .map(|(n, h)| format!("{n} {:+}ns", h.clock_offset_ns))
                .collect::<Vec<_>>()
                .join(", "),
        );
        println!(
            "[obs: {prefix}.report.json | {prefix}.trace.json (load at ui.perfetto.dev) \
             | {prefix}.net.json (render with: cx-obs net {prefix}.net.json)]"
        );
    }
}

/// `--against <report.json>`: compare this run's home2 events/sec with
/// the best home2 rate in a previous report (any label). Exits non-zero
/// below `--tolerance` (default 0.80 — best-of-N on shared CI hardware
/// jitters, and real regressions from accidental instrumentation on the
/// hot path are far larger than 20%).
fn check_against(report: &Report, label: &str, baseline_path: &str, tolerance: f64) {
    let home2 = |r: &LabeledRun| {
        r.entries
            .iter()
            .find(|e| e.name == "home2_replay_8s")
            .map(|e| e.events_per_sec)
    };
    let baseline: Report = serde_json::from_str(
        &std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("--against {baseline_path}: {e}")),
    )
    .unwrap_or_else(|e| panic!("--against {baseline_path}: bad report: {e:?}"));
    let best = baseline
        .runs
        .iter()
        .filter_map(home2)
        .fold(0.0f64, f64::max);
    let cur = report
        .runs
        .iter()
        .find(|r| r.label == label)
        .and_then(home2)
        .unwrap_or(0.0);
    if best <= 0.0 || cur <= 0.0 {
        println!("--against: no home2_replay_8s entry on one side, skipping comparison");
        return;
    }
    let ratio = cur / best;
    println!(
        "home2 events/sec vs {baseline_path}: {cur:.0} / {best:.0} = {ratio:.2}x \
         (tolerance {tolerance:.2})"
    );
    assert!(
        ratio >= tolerance,
        "throughput regression: {ratio:.2}x of the {baseline_path} baseline \
         is below the {tolerance:.2} floor"
    );
}

/// Where the tracked `BENCH_PR*.json` history lives; reports are only
/// written there when `--out` names one.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Print an in-run comparison of this run's entries against the most
/// recent *other* `BENCH_PR*.json` at the repo root, so drift is
/// visible the moment the basket finishes instead of only when the
/// `ci.sh` gate fires. Best-effort: silently skips when no previous
/// report exists.
fn print_previous_comparison(entries: &[Entry], out: &str) {
    let out_name = std::path::Path::new(out).file_name();
    // Highest PR number wins (numeric, so PR10 sorts after PR9).
    let Some((_, prev_path)) = std::fs::read_dir(REPO_ROOT)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.file_name() != out_name)
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            let pr: u32 = name
                .strip_prefix("BENCH_PR")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((pr, p))
        })
        .max_by_key(|(pr, _)| *pr)
    else {
        return;
    };
    let Some(prev) = std::fs::read_to_string(&prev_path)
        .ok()
        .and_then(|s| serde_json::from_str::<Report>(&s).ok())
    else {
        return;
    };
    // Per entry name, the best rate any labeled run in the previous
    // report achieved (matches the `--against` gate's view).
    let prev_best = |name: &str| {
        prev.runs
            .iter()
            .flat_map(|r| &r.entries)
            .filter(|e| e.name == name && e.events_per_sec > 0.0)
            .map(|e| e.events_per_sec)
            .fold(f64::NAN, f64::max)
    };
    let rows: Vec<Vec<String>> = entries
        .iter()
        .filter(|e| e.events_per_sec > 0.0)
        .filter_map(|e| {
            let best = prev_best(&e.name);
            best.is_finite().then(|| {
                vec![
                    e.name.clone(),
                    format!("{:.0}", best),
                    format!("{:.0}", e.events_per_sec),
                    format!("{:.2}x", e.events_per_sec / best),
                ]
            })
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    println!("\nvs {} (best of its runs):", prev_path.display());
    cx_bench::print_table(&["item", "prev ev/s", "now ev/s", "ratio"], &rows);
}

fn main() {
    let args = cx_bench::Args::parse();
    if args.flag("--smoke") {
        smoke();
        return;
    }
    if args.flag("--obs") {
        obs_run(&args);
        return;
    }
    if args.flag("--live") {
        live_run(&args);
        return;
    }
    if args.flag("--net-smoke") {
        net_smoke(&args);
        return;
    }
    if args.flag("--multiproc") {
        multiproc_run(&args);
        return;
    }
    let label: String = args.value("--label").unwrap_or_else(|| "current".into());
    // At least one iteration, or best-of-N is `inf` and the JSON row is junk.
    let iters: u32 = args.value("--iters").unwrap_or(3).max(1);
    let scale = args.scale(0.05);
    let filter: Option<String> = args.value("--filter");
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| format!("{REPO_ROOT}/target/bench.json"));
    let wants = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));

    let mut entries = Vec::new();

    // Traces are built once, outside the timed region: the basket measures
    // the DES hot path (event queue, protocol engines, WAL, disk model),
    // not workload generation.
    if wants("home2_replay_8s") {
        let e = Experiment::new(Workload::trace("home2").scale(scale))
            .servers(8)
            .protocol(Protocol::Cx);
        let trace = e.workload.build(&e.cfg);
        entries.push(measure("home2_replay_8s", iters, || {
            let (stats, violations) = cx_core::run_trace(e.cfg.clone(), &trace);
            assert!(violations.is_empty(), "home2 replay must stay consistent");
            (stats.events, stats.ops_total)
        }));
    }

    if wants("metarates_update_8s") {
        let e = Experiment::new(Workload::metarates(MetaratesMix::UpdateDominated))
            .servers(8)
            .protocol(Protocol::Cx);
        let trace = e.workload.build(&e.cfg);
        entries.push(measure("metarates_update_8s", iters, || {
            let (stats, violations) = cx_core::run_trace(e.cfg.clone(), &trace);
            assert!(violations.is_empty(), "metarates must stay consistent");
            (stats.events, stats.ops_total)
        }));
    }

    // Full scale measures the end-to-end pipeline (generation + replay)
    // in one pass.
    if wants("lair62b_full_replay") {
        let e = Experiment::new(Workload::trace("lair62b"))
            .servers(8)
            .protocol(Protocol::Cx);
        entries.push(measure("lair62b_full_replay", 1, || {
            let r = e.run();
            assert!(r.is_consistent(), "lair62b replay dirty");
            (r.stats.events, r.stats.ops_total)
        }));
    }

    // `--net tcp`: the home2 prefix on the real-socket runtime, loopback
    // (server threads in this process) and multi-process (one OS process
    // per server). Wall-clock-only entries — the wire plane has no
    // simulator event counter — at their own default scale: synchronous
    // clients over real sockets are orders of magnitude slower per op
    // than the DES, and these entries measure wire-plane overhead on ONE
    // box (every server shares this machine's cores), not cluster
    // capacity.
    if args.value::<String>("--net").as_deref() == Some("tcp") {
        let net_scale = args.value("--net-scale").unwrap_or(0.002);
        let (net_cfg, net_trace) = net_scenario(8, net_scale);
        let client_threads: Option<usize> = args.value("--client-threads");
        let net_opts = move || {
            let mut o = TcpOptions::default();
            if let Some(t) = client_threads {
                o.client_threads = t;
            }
            o
        };
        if wants("home2_tcp_loopback_8s") {
            let wire = std::cell::Cell::new(cx_core::WireTotals::default());
            entries.push(measure("home2_tcp_loopback_8s", iters, || {
                let r =
                    TcpCluster::run_stream_opts(net_cfg.clone(), net_trace.to_stream(), net_opts());
                assert!(r.violations.is_empty(), "tcp loopback replay dirty");
                wire.set(r.wire);
                (0, r.stats.ops_total)
            }));
            let w = wire.get();
            if w.flushes > 0 {
                println!(
                    "loopback wire: {} frames in {} flushes ({:.1} frames/flush), {} bytes",
                    w.frames,
                    w.flushes,
                    w.frames as f64 / w.flushes as f64,
                    w.bytes
                );
            }
        }
        if wants("home2_tcp_loopback_8s_obs") {
            // The same loopback entry with the full tracing plane on —
            // recording sink on every engine, flush-span capture in the
            // wire queues. `--net-floor` holds this within 5% of the
            // uninstrumented floor: tracing must be cheap enough to leave
            // on.
            entries.push(measure("home2_tcp_loopback_8s_obs", iters, || {
                let mut o = net_opts();
                o.obs = ObsSink::recording("cx");
                o.net.record_flush_spans = true;
                let r = TcpCluster::run_stream_opts(net_cfg.clone(), net_trace.to_stream(), o);
                assert!(r.violations.is_empty(), "tcp loopback obs replay dirty");
                (0, r.stats.ops_total)
            }));
        }
        if wants("home2_tcp_multiproc_8s") {
            entries.push(measure("home2_tcp_multiproc_8s", 1, || {
                let r = run_multiproc(&net_cfg, &net_trace, TcpOptions::default(), false, None);
                assert!(r.violations.is_empty(), "tcp multiproc replay dirty");
                (0, r.stats.ops_total)
            }));
        }
        println!(
            "net entries: single-box wall-clock (all {} servers + clients share \
             this machine); compare tcp entries to each other, not to DES rates",
            net_cfg.servers
        );
    }

    if wants("table5_recovery_160kb") {
        entries.push(measure("table5_recovery_160kb", iters, || {
            let row = RecoveryExperiment {
                servers: 8,
                trace_scale: 0.02,
                detection_ms: 200,
                reboot_ms: 100,
                ..Default::default()
            }
            .with_target(160 << 10)
            .run()
            .expect("160 KB of valid records accumulates");
            assert!(row.recovery_secs > 0.0);
            (0, 0)
        }));
    }

    cx_bench::print_table(
        &[
            "item",
            "wall s",
            "events",
            "events/s",
            "ops",
            "ops/s",
            "peak RSS KiB",
        ],
        &entries
            .iter()
            .map(|e| {
                vec![
                    e.name.clone(),
                    format!("{:.3}", e.wall_secs),
                    e.events.to_string(),
                    format!("{:.0}", e.events_per_sec),
                    e.ops_total.to_string(),
                    match e.ops_per_sec {
                        Some(r) => format!("{r:.0}"),
                        None => "-".into(),
                    },
                    match e.peak_rss_kb {
                        Some(kb) => kb.to_string(),
                        None => "-".into(),
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );

    print_previous_comparison(&entries, &out);

    // Merge into the tracked report: replace any prior run with this label.
    let mut report: Report = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    report.runs.retain(|r| r.label != label);
    report.runs.push(LabeledRun {
        label: label.clone(),
        iters,
        hw_threads: std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u32),
        entries,
    });

    // Report the headline speedup whenever both sides are present.
    let rate = |lbl: &str| {
        report
            .runs
            .iter()
            .find(|r| r.label == lbl)
            .and_then(|r| r.entries.iter().find(|e| e.name == "home2_replay_8s"))
            .map(|e| e.events_per_sec)
    };
    if let (Some(before), Some(after)) = (rate("before"), rate("after")) {
        println!(
            "\nhome2 events/sec: before {:.0} -> after {:.0} ({:.2}x)",
            before,
            after,
            after / before
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write benchmark report");
    println!("[json: {out}]  (label: {label})");

    if let Some(baseline_path) = args.value::<String>("--against") {
        let tolerance: f64 = args.value("--tolerance").unwrap_or(0.80);
        check_against(&report, &label, &baseline_path, tolerance);
    }

    // `--net-floor <ops/s>`: hard throughput gate on the loopback TCP
    // entry — the wire plane must beat a pinned ops/s on this box. The
    // instrumented entry, when present, gets 95% of the same floor: the
    // telemetry-overhead gate.
    if let Some(floor) = args.value::<f64>("--net-floor") {
        let entry_rate = |name: &str| {
            report
                .runs
                .iter()
                .find(|r| r.label == label)
                .and_then(|r| r.entries.iter().find(|e| e.name == name))
                .and_then(|e| e.ops_per_sec)
        };
        let cur = entry_rate("home2_tcp_loopback_8s").unwrap_or(0.0);
        println!("net floor: home2_tcp_loopback_8s {cur:.0} ops/s vs floor {floor:.0}");
        assert!(
            cur >= floor,
            "wire-plane throughput regression: {cur:.0} ops/s is below the \
             {floor:.0} ops/s floor (single-box loopback)"
        );
        if let Some(obs_rate) = entry_rate("home2_tcp_loopback_8s_obs") {
            let obs_floor = floor * 0.95;
            println!(
                "net floor: home2_tcp_loopback_8s_obs {obs_rate:.0} ops/s vs floor \
                 {obs_floor:.0} (spans + flush telemetry on)"
            );
            assert!(
                obs_rate >= obs_floor,
                "telemetry overhead regression: {obs_rate:.0} ops/s with tracing on \
                 is below {obs_floor:.0} (95% of the {floor:.0} floor)"
            );
        }
    }
}
