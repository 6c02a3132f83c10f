//! One rep of one workload: build the input, run it on its runtime through
//! the public API, time the phases from outside, and check the outputs.

use crate::measure::{hist_quantile, peak_rss_mb, process_cpu_s, reset_peak_rss};
use crate::spec::{Runtime, WorkloadSpec};
use crate::trace::Tracer;
use cx_core::{
    DesCluster, LiveMetrics, MetricRegistry, ObsSink, RunStats, TcpCluster, TcpOptions,
    ThreadedCluster, Violation,
};
use cx_net::{WireTelemetry, WireTotals};
use cx_obs::registry::{Counter, Series};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one rep measured. Times are host wall-clock unless named virtual.
pub struct Rep {
    /// Input/stream construction + namespace seeding + thread spawn, bind,
    /// dial and Hello: everything before the first op completes.
    pub setup_s: f64,
    /// First completed op to last completed op (DES: `DesCluster::run`).
    pub timed_s: f64,
    /// Process user+sys CPU over the timed section.
    pub cpu_s: f64,
    /// Last completed op until the runtime hands back its result (quiesce
    /// rounds, stop, final-state collection, join). 0 for the DES, whose
    /// drain is virtual and inside `run`.
    pub drain_s: f64,
    /// Peak resident set of the process during this rep (the watermark is
    /// reset when the rep starts).
    pub peak_rss_mb: f64,
    /// Client-visible latency on the cluster's own clock, nanoseconds.
    pub lat_p50_ns: f64,
    pub lat_p99_ns: f64,
    pub lat_p999_ns: f64,
    /// p50 over cross-server mutations only. The wall-clock runtimes keep
    /// no such histogram with tracing off.
    pub cross_lat_p50_ns: Option<f64>,
    /// Ops per second on the cluster's own clock.
    pub cluster_ops_per_s: f64,
    pub stats: RunStats,
    /// Wire totals and telemetry (TCP rows only).
    pub wire: Option<(WireTotals, WireTelemetry)>,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.stats.ops_total as f64 / self.timed_s
    }
}

/// Watches a wall-clock run from outside through the live registry: the
/// runtimes bump `OpsIssued` as each op completes, so the first non-zero
/// read ends set-up and the read that reaches `total` ends the timed
/// section. Polls every 100 µs until the first op, then sleeps half the
/// projected remainder each time (a dozen wake-ups per rep), so watching
/// costs the run nothing measurable.
struct Watcher {
    handle: std::thread::JoinHandle<Option<(Instant, f64, Instant, f64)>>,
    abort: Arc<AtomicBool>,
}

impl Watcher {
    fn start(registry: MetricRegistry, total: u64) -> Self {
        let abort = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&abort);
        let handle = std::thread::Builder::new()
            .name("bench-watch".into())
            .spawn(move || {
                let done = || registry.get(Counter::OpsIssued);
                while done() == 0 {
                    if stop.load(Ordering::Relaxed) {
                        return None;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                let (first, first_cpu) = (Instant::now(), process_cpu_s());
                loop {
                    let n = done();
                    if n >= total {
                        return Some((first, first_cpu, Instant::now(), process_cpu_s()));
                    }
                    if stop.load(Ordering::Relaxed) {
                        return None;
                    }
                    let per_op = first.elapsed().as_secs_f64() / n as f64;
                    let left = per_op * (total - n) as f64;
                    std::thread::sleep(Duration::from_secs_f64((left / 2.0).clamp(100e-6, 20e-3)));
                }
            })
            .expect("spawn watcher");
        Self { handle, abort }
    }

    /// Join after the run returned. `None` when the run ended without
    /// completing `total` ops — the output check reports that.
    fn finish(self) -> Option<(Instant, f64, Instant, f64)> {
        self.abort.store(true, Ordering::Relaxed);
        self.handle.join().expect("watcher thread panicked")
    }
}

/// Run one rep. `obs` is `ObsSink::Off` for measured reps; the traced rep
/// passes a recording sink and gets the program's own spans and blame
/// table back through it. Harness spans land in `tracer` under `parent`.
pub fn run_rep(
    spec: &WorkloadSpec,
    seed: u64,
    quick: bool,
    obs: ObsSink,
    tracer: &mut Tracer,
    parent: u64,
) -> Result<Rep, String> {
    let cfg = spec.cfg();
    let traced = obs.enabled();
    reset_peak_rss();
    let t0 = Instant::now();
    let g = tracer.begin("generate", parent);
    let st = spec.stream(&cfg, seed, quick);
    tracer.end(g);
    let generated = st.total_ops_hint;

    let rep = match spec.runtime {
        Runtime::Des => {
            let s = tracer.begin("setup", parent);
            let cluster = DesCluster::new_stream(cfg, st).with_obs(obs);
            tracer.end(s);
            let setup_s = t0.elapsed().as_secs_f64();
            let r = tracer.begin("run", parent);
            let (cpu0, t1) = (process_cpu_s(), Instant::now());
            let (stats, violations) = cluster.run();
            let timed_s = t1.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s() - cpu0;
            tracer.end(r);
            check(&stats, &violations, generated)?;
            Rep {
                setup_s,
                timed_s,
                cpu_s,
                drain_s: 0.0,
                peak_rss_mb: peak_rss_mb(),
                lat_p50_ns: hist_quantile(&stats.latency_hist, 50.0),
                lat_p99_ns: hist_quantile(&stats.latency_hist, 99.0),
                lat_p999_ns: hist_quantile(&stats.latency_hist, 99.9),
                cross_lat_p50_ns: Some(hist_quantile(&stats.cross_latency_hist, 50.0)),
                cluster_ops_per_s: stats.throughput(),
                stats,
                wire: None,
            }
        }
        Runtime::Tcp | Runtime::Threaded => {
            // `out: None`: no monitor thread, no files; the registry is
            // only the counter the watcher reads and the latency series.
            let registry = MetricRegistry::new();
            let live = LiveMetrics::new(registry.clone());
            let watcher = Watcher::start(registry.clone(), generated);
            let call = tracer.begin("call", parent);
            let (stats, violations, wire) = if spec.runtime == Runtime::Tcp {
                let mut opts = TcpOptions {
                    obs,
                    live: Some(live),
                    client_threads: 0,
                    ..TcpOptions::default()
                };
                opts.net.record_flush_spans = traced;
                let r = TcpCluster::run_stream_opts(cfg, st, opts);
                (r.stats, r.violations, Some((r.wire, r.telem)))
            } else {
                let r = ThreadedCluster::run_stream_live(cfg, st, obs, live);
                (r.stats, r.violations, None)
            };
            let returned = Instant::now();
            tracer.end(call);
            let watched = watcher.finish();
            check(&stats, &violations, generated)?;
            let (first, first_cpu, last, last_cpu) =
                watched.ok_or("the live registry never counted every op")?;
            tracer.record("setup", parent, t0, first);
            tracer.record("run", parent, first, last);
            tracer.record("drain", parent, last, returned);
            let lat = registry
                .snapshot()
                .series
                .into_iter()
                .find(|s| s.name == Series::ClientLatencyNs.name())
                .expect("registry exposes the client-latency series")
                .summary;
            if lat.count != generated {
                return Err(format!(
                    "latency series holds {} samples for {generated} ops",
                    lat.count
                ));
            }
            let timed_s = (last - first).as_secs_f64();
            Rep {
                setup_s: (first - t0).as_secs_f64(),
                timed_s,
                cpu_s: last_cpu - first_cpu,
                drain_s: (returned - last).as_secs_f64(),
                peak_rss_mb: peak_rss_mb(),
                lat_p50_ns: lat.p50_ns as f64,
                lat_p99_ns: lat.p99_ns as f64,
                lat_p999_ns: lat.p999_ns as f64,
                cross_lat_p50_ns: None,
                cluster_ops_per_s: generated as f64 / timed_s,
                stats,
                wire,
            }
        }
    };
    Ok(rep)
}

/// Output checks every rep must pass; any failure makes the whole run
/// invalid rather than merely worse.
fn check(stats: &RunStats, violations: &[Violation], generated: u64) -> Result<(), String> {
    if !violations.is_empty() {
        return Err(format!(
            "{} cross-server invariant violations, first: {:?}",
            violations.len(),
            violations[0]
        ));
    }
    if stats.ops_total != generated {
        return Err(format!(
            "{} ops completed of {generated} generated",
            stats.ops_total
        ));
    }
    if stats.ops_applied + stats.ops_failed != stats.ops_total {
        return Err(format!(
            "open closure: {} applied + {} refused != {} total",
            stats.ops_applied, stats.ops_failed, stats.ops_total
        ));
    }
    if stats.ops_stuck != 0 || !stats.leftovers.is_empty() || !stats.stuck_ops.is_empty() {
        return Err(format!(
            "{} stuck ops, {} servers with leftovers",
            stats.ops_stuck.max(stats.stuck_ops.len() as u64),
            stats.leftovers.len()
        ));
    }
    Ok(())
}
