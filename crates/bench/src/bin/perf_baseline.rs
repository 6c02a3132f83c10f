//! The observability export driver: one home2 run per mode, leaving the
//! artefacts `cx-obs` reads. It times nothing and gates nothing — speed,
//! latency and memory are `benchmark/`'s job (`BENCHMARK.json`), behaviour
//! is `cargo test`'s; the name is history.
//!
//! `--obs` replays home2 on the DES with lifecycle recording on: dashboard
//! to stdout, `<prefix>.report.json` / `.trace.json` (Perfetto) / `.jsonl`
//! next to `--obs-out <prefix>` (default `target/obs_home2`), and a second,
//! uninstrumented replay asserting the digest did not move.
//!
//! `--live` runs home2 on the threaded runtime with the metric registry
//! publishing: `--metrics-out <prefix>` (default `target/cx_metrics`) gets a
//! `.prom` (Prometheus text) and `.json` (registry snapshot) refreshed every
//! 500 ms while the run executes — watch it with `cx-obs top <prefix>.json`.
//!
//! `--multiproc` runs a home2 prefix with one OS process per server (the
//! `cx_net_server` binary) and the coordinator connecting out over real
//! TCP. With `--metrics-out <prefix>` the live registry publishes `.prom` /
//! `.json` during the run. That is the one snapshot of every process: each
//! server's stats, protocol series and wire histograms reach the
//! coordinator's registry once, in its `StopResp` (asserted per wire
//! series); read it with `cx-obs top <prefix>.json`. With `--obs-out
//! <prefix>` every process stamps op phases on its own wall clock, the
//! coordinator stitches the shards with probe-measured clock offsets, and
//! `<prefix>.report.json` / `.trace.json` / `.net.json` (`cx-obs net`)
//! land next to it; ≥99% of ops must come back with a server-side
//! Executed stamp.

use cx_core::{
    BatchTrigger, ClusterConfig, Experiment, LiveMetrics, MetricRegistry, ObsSink, Phase, Protocol,
    TcpCluster, TcpOptions, ThreadedCluster, Workload,
};
use cx_workloads::SeedEntry;
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: perf_baseline --obs       [--scale f|--full] [--servers n] [--obs-out prefix]
       perf_baseline --live      [--scale f|--full] [--servers n] [--metrics-out prefix]
       perf_baseline --multiproc [--scale f|--full] [--servers n] [--metrics-out prefix] [--obs-out prefix]
to time or size a run: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload des-home2|des-update|tcp-home2 [--trace 1]
to check behaviour: cargo test (golden digest: tests/determinism_and_recovery.rs; loopback TCP, reconnect drill: tests/tcp_equivalence.rs)";

/// The flags of the timed basket, its gates and the two smoke modes this
/// binary used to have. Still recognised, so that an old command line fails
/// with a pointer to the successor instead of running some other mode.
const RETIRED: &str = "--label --iters --filter --out --net --net-scale --client-threads \
                       --against --tolerance --net-floor --smoke --net-smoke";

/// Why this command line cannot run, if it cannot: it names a retired flag,
/// or no mode at all. `has` answers "is this flag present".
fn usage_error(has: impl Fn(&str) -> bool) -> Option<String> {
    let retired = RETIRED.split_whitespace().find(|flag| has(flag));
    if retired.is_none() && ["--obs", "--live", "--multiproc"].iter().any(|m| has(m)) {
        return None;
    }
    let what = retired.map_or("no mode given".into(), |flag| format!("{flag} is retired"));
    Some(format!("perf_baseline: {what}\n{USAGE}"))
}

/// The home2 replay `--obs` and `--live` share (seeds of the golden pin).
fn home2(args: &cx_bench::Args) -> Experiment {
    Experiment::new(Workload::trace("home2").scale(args.scale(0.02)).seed(7))
        .servers(args.value("--servers").unwrap_or(8))
        .protocol(Protocol::Cx)
        .seed(42)
}

fn make_parent_dir(path: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
}

fn write(path: &str, text: String) {
    make_parent_dir(path);
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// A live exposition writing `<prefix>.prom` / `.json`, and its registry.
fn live_to(prefix: &str) -> (LiveMetrics, MetricRegistry) {
    make_parent_dir(prefix);
    let mut live = LiveMetrics::new(MetricRegistry::new());
    live.out = Some(std::path::PathBuf::from(prefix));
    let registry = live.registry.clone();
    (live, registry)
}

/// `--obs`: the zero-overhead-when-disabled contract is checked on every
/// invocation by the second, uninstrumented replay.
fn obs_run(args: &cx_bench::Args) {
    let prefix: String = args
        .value("--obs-out")
        .unwrap_or_else(|| "target/obs_home2".into());
    let e = home2(args);
    let sink = ObsSink::recording("cx");
    let r = e.run_obs(sink.clone());
    assert!(r.is_consistent(), "obs: home2 replay inconsistent");
    let report = sink.report().expect("recording sink yields a report");
    report
        .validate()
        .expect("obs: phase accounting must sum to client latency");

    write(&format!("{prefix}.report.json"), report.to_json());
    write(&format!("{prefix}.trace.json"), report.to_chrome_trace());
    write(&format!("{prefix}.jsonl"), report.to_jsonl());

    println!("{}", report.render_dashboard());
    // The blame doctor's headline: where the critical-path time went.
    // `cx-obs doctor <prefix>.report.json` prints the full table.
    let blame = report.blame();
    if blame.ops > 0 {
        let total: u64 = blame.client_total.sum + blame.commit_total.sum;
        print!("top blame segments ({} ops decomposed):", blame.ops);
        for (seg, hist) in blame.top_segments().into_iter().take(3) {
            let share = 100.0 * hist.sum as f64 / total.max(1) as f64;
            print!(" {}={share:.1}%", seg.name());
        }
        println!();
    }
    println!(
        "[obs: {prefix}.report.json | {prefix}.trace.json ({} spans, load at ui.perfetto.dev) | {prefix}.jsonl | cx-obs doctor {prefix}.report.json]",
        report.spans.len()
    );

    let digest = e.run().stats.digest();
    assert_eq!(digest, r.stats.digest(), "--obs moved the replay digest");
    println!("digest {digest} identical with and without --obs");
}

/// `--live`: the client host bumps the registry as ops complete, a monitor
/// thread refreshes the files, engines fold their protocol series in at
/// stop; prints the final snapshot's top view.
fn live_run(args: &cx_bench::Args) {
    let prefix: String = args
        .value("--metrics-out")
        .unwrap_or_else(|| "target/cx_metrics".into());
    let e = home2(args);
    let (live, registry) = live_to(&prefix);
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

/// The spawned `cx_net_server` processes. Each exits on its own once it
/// has answered `Stop` and has no idle timeout otherwise, so whatever still
/// runs when this drops — a panic anywhere between the first spawn and the
/// reap — is killed and reaped here rather than left holding its port.
struct Servers(Vec<Child>);

impl Servers {
    /// Wait for every server to exit cleanly; `Err` names the first that
    /// failed, or that still runs at `deadline`.
    fn reap(&mut self, deadline: Instant) -> Result<(), String> {
        for (s, child) in self.0.iter_mut().enumerate() {
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break status,
                    Ok(None) if Instant::now() < deadline => sleep(Duration::from_millis(10)),
                    Ok(None) => return Err(format!("server process {s} did not exit")),
                    Err(e) => return Err(format!("wait for server process {s}: {e}")),
                }
            };
            if !status.success() {
                return Err(format!("server process {s} exited with {status}"));
            }
        }
        Ok(())
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // `kill` on a process already reaped is an error to ignore.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawn one `cx_net_server` per server (the binary sits next to this one
/// in the target dir) and collect the `LISTEN <addr>` line each prints.
fn spawn_servers(
    cfg: &ClusterConfig,
    seeds: &[SeedEntry],
    obs: bool,
) -> (Servers, Vec<std::net::SocketAddr>) {
    let bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("cx_net_server")))
        .expect("cx_net_server sits next to perf_baseline");
    let mut servers = Servers(Vec::new());
    let mut addrs = Vec::new();
    for s in 0..cfg.servers {
        let path = format!("target/cx_net_server_{s}.json");
        let config = cx_bench::NetServerConfig {
            cfg: cfg.clone(),
            me: s,
            seeds: seeds.to_vec(),
            obs,
        };
        let config = serde_json::to_string(&config).expect("config serializes");
        write(&path, config);
        let mut child = Command::new(&bin)
            .arg("--config")
            .arg(&path)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let stdout = child.stdout.take().expect("stdout piped");
        servers.0.push(child);
        let mut line = String::new();
        std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
            .expect("read LISTEN line");
        let addr = line
            .strip_prefix("LISTEN ")
            .unwrap_or_else(|| panic!("server {s}: expected `LISTEN <addr>`, got {line:?}"))
            .trim()
            .parse()
            .expect("socket addr parses");
        addrs.push(addr);
    }
    (servers, addrs)
}

/// `--multiproc`: the smallest honest deployment shape, and — with
/// `--metrics-out` — the exposition as a genuine cross-process ops surface
/// instead of a same-process convenience.
fn multiproc_run(args: &cx_bench::Args) {
    let mut cfg = ClusterConfig::new(args.value("--servers").unwrap_or(4), Protocol::Cx);
    cfg.seed = 42;
    // Wall-clock-safe triggers: the default batch trigger is ~10 *virtual*
    // seconds, which this runtime would serve as a real ten-second stall.
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5_000_000, // 5 ms
    };
    cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
    let scale = args.scale(0.002);
    let trace = Workload::trace("home2").scale(scale).seed(7).stream(&cfg);
    let expected = trace.total_ops_hint;
    let mut opts = TcpOptions::default();
    let live_out = args.value::<String>("--metrics-out").map(|prefix| {
        let (live, registry) = live_to(&prefix);
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
    let (mut servers, addrs) = spawn_servers(&cfg, &trace.seeds, obs_prefix.is_some());
    let r = TcpCluster::run_external(cfg.clone(), trace, &addrs, opts);
    // The run has spent its own drain budget (a missing `StopResp` is a
    // `leftovers` line after 30 s); a server that answered is already on
    // its way out, so a few seconds more settles it either way.
    servers
        .reap(Instant::now() + Duration::from_secs(5))
        .unwrap_or_else(|e| panic!("--multiproc: {e}; leftovers {:?}", r.stats.leftovers));
    let wall = t0.elapsed().as_secs_f64();
    assert!(r.violations.is_empty(), "--multiproc: run inconsistent");
    assert_eq!(
        r.stats.ops_total, expected,
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
        // One route: the registry took the host's and every server's wire
        // histograms once, merged, so each series counts what `telem` does.
        for (series, hist) in r.telem.series() {
            let row = snap.series.iter().find(|row| row.name == series.name());
            assert_eq!(
                row.map(|row| row.summary.count),
                Some(hist.count),
                "--multiproc: {} counts each flush once",
                series.name()
            );
        }
        println!(
            "[live metrics: {prefix}.prom (Prometheus text) | {prefix}.json \
             (every process, read with: cx-obs top {prefix}.json)]"
        );
    }
    if let Some(prefix) = obs_prefix {
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
        write(&format!("{prefix}.report.json"), report.to_json());
        write(&format!("{prefix}.trace.json"), report.to_chrome_trace());
        write(&format!("{prefix}.net.json"), r.net.to_json());
        println!(
            "stitched {stitched}/{} spans across {} server processes \
             (offsets: {})",
            report.spans.len(),
            cfg.servers,
            r.net
                .rows
                .iter()
                .filter(|row| row.rtt_samples > 0)
                .map(|row| format!("{} {:+}ns", row.peer, row.clock_offset_ns))
                .collect::<Vec<_>>()
                .join(", "),
        );
        println!(
            "[obs: {prefix}.report.json | {prefix}.trace.json (load at ui.perfetto.dev) \
             | {prefix}.net.json (render with: cx-obs net {prefix}.net.json)]"
        );
    }
}

fn main() {
    let args = cx_bench::Args::parse();
    if let Some(why) = usage_error(|flag| args.flag(flag)) {
        eprintln!("{why}");
        std::process::exit(2);
    }
    if args.flag("--obs") {
        obs_run(&args);
    } else if args.flag("--live") {
        live_run(&args);
    } else {
        multiproc_run(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mode_and_retired_flags_are_usage_errors_naming_the_successors() {
        let error_for = |cmdline: &[&str]| usage_error(|flag| cmdline.contains(&flag));
        let no_mode = error_for(&["--scale", "--servers"]).expect("a knob is not a mode");
        assert!(no_mode.contains("no mode given") && no_mode.contains("benchmark/Cargo.toml"));
        assert_eq!(RETIRED.split_whitespace().count(), 12);
        for flag in RETIRED.split_whitespace() {
            let why = error_for(&["--obs", flag]).expect("retired beats a live mode");
            assert!(why.contains(&format!("{flag} is retired")), "{why}");
            assert!(
                why.contains("--workload") && why.contains("cargo test"),
                "{why}"
            );
        }
        for mode in ["--obs", "--live", "--multiproc"] {
            assert_eq!(error_for(&[mode, "--obs-out", "--metrics-out"]), None);
        }
    }

    /// A server that never exits: `cx_net_server` with no `Stop` in sight.
    fn stuck() -> Child {
        let mut sleep = Command::new("sleep");
        sleep.arg("60").spawn().expect("spawn sleep")
    }

    #[test]
    fn dropping_the_guard_kills_and_reaps_what_still_runs() {
        let child = stuck();
        let proc_entry = format!("/proc/{}", child.id());
        assert!(std::path::Path::new(&proc_entry).exists());
        drop(Servers(vec![child]));
        // Killed alone would leave a zombie entry; reaped, it is gone.
        assert!(!std::path::Path::new(&proc_entry).exists());
    }

    #[test]
    fn reap_gives_up_at_the_deadline_naming_the_server() {
        let mut servers = Servers(vec![stuck(), stuck()]);
        let t0 = Instant::now();
        let err = servers
            .reap(t0 + Duration::from_millis(200))
            .expect_err("neither exits");
        assert!(err.contains("server process 0"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
        servers.0[0].kill().expect("kill");
        // A killed server is an unclean exit, still named.
        let err = servers.reap(Instant::now() + Duration::from_secs(5));
        assert!(err.expect_err("signal").contains("server process 0 exited"));
    }
}
