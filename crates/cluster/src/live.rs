//! Live metric exposition for a wall-clock run: the settings callers pass
//! in ([`LiveMetrics`]) and the monitor thread that keeps the on-disk
//! snapshot fresh, publishes wire-throughput gauges and watches for stuck
//! operations while the run executes.

use crate::transport::Transport;
use cx_net::WireTotals;
use cx_obs::registry::{Gauge, MetricRegistry};
use cx_obs::ObsSink;
use cx_types::OpId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Live-exposition settings for a wall-clock run: the client host publishes
/// into `registry` while the run executes, and — when `out`
/// is set — a monitor thread writes `<out>.prom` (Prometheus text) and
/// `<out>.json` (a [`cx_obs::MetricsSnapshot`], the input of `cx-obs top`)
/// every `PERIOD` (500 ms), plus once more after the final server state lands.
pub struct LiveMetrics {
    pub registry: MetricRegistry,
    pub out: Option<std::path::PathBuf>,
}

/// How often the monitor thread rewrites the snapshot files.
const PERIOD: Duration = Duration::from_millis(500);

impl LiveMetrics {
    pub fn new(registry: MetricRegistry) -> Self {
        Self {
            registry,
            out: None,
        }
    }

    pub(crate) fn write_files(registry: &MetricRegistry, out: &std::path::Path) {
        let snap = registry.snapshot();
        let _ = std::fs::write(out.with_extension("prom"), snap.to_prometheus_text());
        let _ = std::fs::write(out.with_extension("json"), snap.to_json());
    }
}

/// Frames/bytes/flushes summed over every socket plane among `nets`
/// (zero for a channel run).
pub(crate) fn sum_wire(nets: &[Arc<dyn Transport>]) -> WireTotals {
    let mut tot = WireTotals::default();
    for c in nets.iter().filter_map(|n| n.wire()) {
        tot.add(c.wire_totals());
    }
    tot
}

/// Publish `tot` over `secs` as the three wire-rate gauges.
pub(crate) fn set_wire_rates(reg: &MetricRegistry, tot: WireTotals, prev: WireTotals, secs: f64) {
    if secs > 0.0 {
        let rate = |cur: u64, old: u64| ((cur - old) as f64 / secs).round() as u64;
        reg.set_gauge(Gauge::WireFramesPerSec, rate(tot.frames, prev.frames));
        reg.set_gauge(Gauge::WireBytesPerSec, rate(tot.bytes, prev.bytes));
        reg.set_gauge(Gauge::WireFlushesPerSec, rate(tot.flushes, prev.flushes));
    }
}

/// The monitor thread of one run; [`Monitor::stop`] joins it.
pub(crate) struct Monitor {
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<()>,
}

impl Monitor {
    /// Start the periodic writer when `live` names an output prefix.
    /// `nets[0]` supplies the run clock, which times the periods too; every
    /// socket plane among `nets` feeds the per-period wire-rate gauges.
    pub(crate) fn spawn(
        live: &LiveMetrics,
        nets: Vec<Arc<dyn Transport>>,
        obs: ObsSink,
    ) -> Option<Monitor> {
        let out = live.out.clone()?;
        let reg = live.registry.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("cx-mon".into())
            .spawn(move || {
                let on_wire = nets.iter().any(|n| n.wire().is_some());
                let mut prev = WireTotals::default();
                let mut last = nets[0].now_ns();
                let mut watchdog = Watchdog::default();
                while !stopped.load(Ordering::Relaxed) {
                    let now = nets[0].now_ns();
                    if on_wire {
                        let tot = sum_wire(&nets);
                        set_wire_rates(&reg, tot, prev, (now - last) as f64 / 1e9);
                        prev = tot;
                        last = now;
                    }
                    if obs.enabled() {
                        watchdog.poll(&obs, &reg, now);
                    }
                    LiveMetrics::write_files(&reg, &out);
                    thread::sleep(PERIOD);
                }
            })
            .expect("spawn live monitor");
        Some(Monitor { stop, thread })
    }

    pub(crate) fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// Wall-clock stuck-op watchdog: the obs live map names every op still in
/// flight and the phase it stalled in; long-stalled ops get one line each,
/// with wall seconds since their last milestone.
#[derive(Default)]
struct Watchdog {
    /// Warning stage per op: 1 after the first line, 2 after the
    /// escalation — never re-warn per poll tick.
    warned: HashMap<OpId, u8>,
}

impl Watchdog {
    /// An op still shy of `Replied` after this much wall time earns a
    /// watchdog line.
    const WARN_NS: u64 = 5_000_000_000;
    /// …and one escalation if it is *still* stuck here (a client host that
    /// hears nothing at all gives its clients up after as long).
    const ESCALATE_NS: u64 = 30_000_000_000;

    fn poll(&mut self, obs: &ObsSink, reg: &MetricRegistry, now_ns: u64) {
        let stuck = obs.stuck_report();
        reg.set_gauge(Gauge::OpsInFlight, stuck.len() as u64);
        // Ops that finally replied leave the stage map so a long run's
        // watchdog state stays bounded.
        self.warned
            .retain(|op, _| stuck.iter().any(|s| s.op == *op));
        for s in &stuck {
            let age = now_ns.saturating_sub(s.since.0);
            let stage = self.warned.entry(s.op).or_insert(0);
            if *stage == 0 && age > Self::WARN_NS {
                *stage = 1;
                eprintln!("[cx-mon] {s} ({:.1}s wall)", age as f64 / 1e9);
            } else if *stage == 1 && age > Self::ESCALATE_NS {
                *stage = 2;
                eprintln!(
                    "[cx-mon] STILL STUCK: {s} ({:.1}s wall; client host backstop imminent)",
                    age as f64 / 1e9
                );
            }
        }
    }
}
