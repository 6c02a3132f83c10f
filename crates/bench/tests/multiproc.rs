//! The multi-process deployment end to end: one `cx_net_server` OS process
//! per server, the coordinator connecting out over real TCP, the run's
//! registry rendered as Prometheus text and as the `cx-obs top` screen once
//! the run ends, and wall-clock tracing on in every process — each stamps
//! op phases on its own clock and ships its shard back in `StopResp`, and
//! the coordinator stitches the shards with probe-measured clock offsets.
//! The servers' config files go under the test target's tmpdir.

use cx_core::{
    BatchTrigger, ClusterConfig, LiveMetrics, MetricRegistry, MetricsSnapshot, ObsSink, Phase,
    Protocol, TcpCluster, TcpOptions, Workload,
};
use cx_obs::{NetTable, ObsReport};
use cx_workloads::SeedEntry;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

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

/// Spawn one `cx_net_server` per server, its config written to `dir`, and
/// collect the `LISTEN <addr>` line each prints.
fn spawn_servers(
    dir: &Path,
    cfg: &ClusterConfig,
    seeds: &[SeedEntry],
    obs: bool,
) -> (Servers, Vec<std::net::SocketAddr>) {
    let bin = env!("CARGO_BIN_EXE_cx_net_server");
    let mut servers = Servers(Vec::new());
    let mut addrs = Vec::new();
    for s in 0..cfg.servers {
        let path = dir.join(format!("cx_net_server_{s}.json"));
        let config = cx_bench::NetServerConfig {
            cfg: cfg.clone(),
            me: s,
            seeds: seeds.to_vec(),
            obs,
        };
        let config = serde_json::to_string(&config).expect("config serializes");
        std::fs::write(&path, config).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        let mut child = Command::new(bin)
            .arg("--config")
            .arg(&path)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
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

/// A home2 prefix across four server processes: every op answered and
/// accounted; the registry's counters equal `RunStats` and each wire
/// series counts each flush once; the registry's snapshot renders as
/// Prometheus text and, through its JSON, as `cx-obs top`; the stitched report
/// keeps its phase accounting, ≥ 99 % of its spans carry a server-side
/// `Executed` stamp, and the net table renders; every server exits clean.
#[test]
fn four_server_processes_answer_every_op_and_stitch_their_spans() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("multiproc");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("make the run's directory");

    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.seed = 42;
    // Wall-clock-safe triggers: the default batch trigger is ~10 *virtual*
    // seconds, which this runtime would serve as a real ten-second stall.
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5_000_000, // 5 ms
    };
    cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
    let trace = Workload::trace("home2").scale(0.0005).seed(7).stream(&cfg);
    let expected = trace.total_ops_hint;

    // The client host publishes each op into the registry; the run adds
    // its end-of-run totals when it ends.
    let live = LiveMetrics::new(MetricRegistry::new());
    let registry = live.registry.clone();
    // The coordinator records; each server runs a shard-mode sink and
    // ships its stamps back in `StopResp` for offset-corrected stitching.
    let sink = ObsSink::recording("cx");
    let mut opts = TcpOptions {
        live: Some(live),
        obs: sink.clone(),
        ..TcpOptions::default()
    };
    opts.net.record_flush_spans = true;

    let (mut servers, addrs) = spawn_servers(&dir, &cfg, &trace.seeds, true);
    let r = TcpCluster::run_external(cfg.clone(), trace, &addrs, opts);
    // The run has spent its own drain budget (a missing `StopResp` is a
    // `leftovers` line after 30 s); a server that answered is already on
    // its way out, so a few seconds more settles it either way.
    servers
        .reap(Instant::now() + Duration::from_secs(5))
        .unwrap_or_else(|e| panic!("{e}; leftovers {:?}", r.stats.leftovers));
    assert!(r.violations.is_empty(), "run inconsistent");
    assert_eq!(r.stats.ops_total, expected, "ops lost on the wire");
    assert_eq!(
        r.stats.ops_applied + r.stats.ops_failed,
        r.stats.ops_total,
        "op accounting must close"
    );

    let snap = registry.snapshot();
    assert_eq!(
        snap.value("cx_ops_issued_total"),
        Some(r.stats.ops_total),
        "registry ops_issued must match RunStats"
    );
    assert_eq!(
        snap.value("cx_messages_total"),
        Some(r.stats.total_msgs()),
        "the run published its end-of-run totals"
    );
    // One route: the registry took the host's and every server's wire
    // histograms once, merged, so each series counts what `telem` does.
    for (series, hist) in r.telem.series() {
        let row = snap.series.iter().find(|row| row.name == series.name());
        assert_eq!(
            row.map(|row| row.summary.count),
            Some(hist.count),
            "{} counts each flush once",
            series.name()
        );
    }
    let prom = snap.to_prometheus_text();
    assert!(
        prom.lines().any(|l| l.starts_with("cx_ops_issued_total ")),
        "no ops counter in the Prometheus text:\n{prom}"
    );
    // What `cx-obs top` reads: the snapshot's JSON.
    let top = MetricsSnapshot::from_json(&snap.to_json()).expect("the snapshot parses");
    assert!(!top.render_top().is_empty());

    let mut report = sink.report().expect("recording sink yields a report");
    report.flushes = r.telem.flush_spans.clone();
    report
        .validate()
        .expect("phase accounting must hold on stitched spans");
    let stitched = report
        .spans
        .iter()
        .filter(|s| s.at(Phase::Executed).is_some())
        .count();
    assert!(
        stitched * 100 >= report.spans.len() * 99,
        "only {stitched}/{} spans stitched a server-side Executed stamp",
        report.spans.len()
    );
    // What `cx-obs check` and `cx-obs net` read back from the run's files.
    ObsReport::from_json(&report.to_json())
        .expect("the stitched report reads back")
        .validate()
        .expect("the read-back report keeps its phase accounting");
    let net = NetTable::from_json(&r.net.to_json()).expect("the net table reads back");
    assert!(!net.render().is_empty());
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
    assert!(Path::new(&proc_entry).exists());
    drop(Servers(vec![child]));
    // Killed alone would leave a zombie entry; reaped, it is gone.
    assert!(!Path::new(&proc_entry).exists());
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
