//! Typed metric registry: the fixed schema of Cx-specific counters,
//! gauges and histograms, with Prometheus-text and JSON exposition.
//!
//! The registry is a cheap `Arc` handle over atomic counters, so a
//! wall-clock run's client host can publish while another thread reads a
//! counter, and the run adds its end-of-run totals once it ends; a
//! snapshot's JSON is what `cx-obs top` reads. The DES never touches it: a caller
//! may publish a finished run's `RunStats` into one afterwards. Protocol
//! code never consults the registry, so it cannot perturb a replay (the
//! golden-digest tests pin this).

use crate::hist::{fmt_ns_f, HistSummary, LogHistogram};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Every counter series the plane exposes. Names follow the Prometheus
/// convention (`*_total` for monotone counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    OpsIssued,
    OpsApplied,
    OpsFailed,
    CrossOps,
    Messages,
    ConflictsOrdered,
    ConflictsDisordered,
    HintResolved,
    ImmediateCommitments,
    BatchedCommitments,
    BatchedOps,
    Aborts,
    RecoveryCycles,
    ResumedCommitments,
    WalTruncations,
}

impl Counter {
    pub const COUNT: usize = 15;
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::OpsIssued,
        Counter::OpsApplied,
        Counter::OpsFailed,
        Counter::CrossOps,
        Counter::Messages,
        Counter::ConflictsOrdered,
        Counter::ConflictsDisordered,
        Counter::HintResolved,
        Counter::ImmediateCommitments,
        Counter::BatchedCommitments,
        Counter::BatchedOps,
        Counter::Aborts,
        Counter::RecoveryCycles,
        Counter::ResumedCommitments,
        Counter::WalTruncations,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Counter::OpsIssued => "cx_ops_issued_total",
            Counter::OpsApplied => "cx_ops_applied_total",
            Counter::OpsFailed => "cx_ops_failed_total",
            Counter::CrossOps => "cx_cross_ops_total",
            Counter::Messages => "cx_messages_total",
            Counter::ConflictsOrdered => "cx_conflicts_ordered_total",
            Counter::ConflictsDisordered => "cx_conflicts_disordered_total",
            Counter::HintResolved => "cx_hint_resolved_total",
            Counter::ImmediateCommitments => "cx_immediate_commitments_total",
            Counter::BatchedCommitments => "cx_batched_commitments_total",
            Counter::BatchedOps => "cx_batched_ops_total",
            Counter::Aborts => "cx_aborts_total",
            Counter::RecoveryCycles => "cx_recovery_cycles_total",
            Counter::ResumedCommitments => "cx_resumed_commitments_total",
            Counter::WalTruncations => "cx_wal_truncations_total",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Counter::OpsIssued => "Operations issued by client processes",
            Counter::OpsApplied => "Operations acknowledged Applied",
            Counter::OpsFailed => "Operations acknowledged Failed",
            Counter::CrossOps => "Operations whose sub-ops span two servers",
            Counter::Messages => "Network messages sent",
            Counter::ConflictsOrdered => {
                "Conflicts where both servers saw the executions in the same order"
            }
            Counter::ConflictsDisordered => {
                "Conflicts resolved by invalidating a disordered execution"
            }
            Counter::HintResolved => "Executions released via a conflict hint",
            Counter::ImmediateCommitments => "Commitment rounds launched immediately on conflict",
            Counter::BatchedCommitments => "Lazy (batched) commitment rounds",
            Counter::BatchedOps => "Operations carried by lazy commitment rounds",
            Counter::Aborts => "Cross-server operations aborted",
            Counter::RecoveryCycles => "Crash/recovery cycles completed",
            Counter::ResumedCommitments => "Half-completed commitments resumed from the log",
            Counter::WalTruncations => "WAL tail truncations on crash",
        }
    }
}

/// Instantaneous values (last-write-wins, or high-water via
/// [`MetricRegistry::gauge_max`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    WalPeakValidBytes,
    OpsInFlight,
    WireFramesPerSec,
    WireBytesPerSec,
    WireFlushesPerSec,
}

impl Gauge {
    pub const COUNT: usize = 5;
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::WalPeakValidBytes,
        Gauge::OpsInFlight,
        Gauge::WireFramesPerSec,
        Gauge::WireBytesPerSec,
        Gauge::WireFlushesPerSec,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Gauge::WalPeakValidBytes => "cx_wal_peak_valid_bytes",
            Gauge::OpsInFlight => "cx_ops_in_flight",
            Gauge::WireFramesPerSec => "cx_wire_frames_per_sec",
            Gauge::WireBytesPerSec => "cx_wire_bytes_per_sec",
            Gauge::WireFlushesPerSec => "cx_wire_flushes_per_sec",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Gauge::WalPeakValidBytes => "Peak unpruned log bytes on any server",
            Gauge::OpsInFlight => "Issued operations not yet replied",
            Gauge::WireFramesPerSec => "Wire frames written per second (all peers, last period)",
            Gauge::WireBytesPerSec => "Encoded wire bytes written per second (last period)",
            Gauge::WireFlushesPerSec => {
                "Coalesced write_all flushes per second (frames/flushes = batch size)"
            }
        }
    }
}

/// Histogram series (exposed as Prometheus summaries with fixed
/// quantiles — the underlying [`LogHistogram`] merges exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    BatchSize,
    BatchAgeNs,
    ClientLatencyNs,
    WireQueueDepth,
    WireFlushFrames,
    WireFlushLatencyNs,
    WireStallNs,
    /// Blame plane (PR 10): critical-path time per coarse segment family.
    BlameIssueQueueNs,
    BlameDispatchNs,
    BlameWireNs,
    BlameExecuteNs,
    BlameCommitOnPathNs,
    BlameCommitOffPathNs,
}

impl Series {
    pub const COUNT: usize = 13;
    pub const ALL: [Series; Series::COUNT] = [
        Series::BatchSize,
        Series::BatchAgeNs,
        Series::ClientLatencyNs,
        Series::WireQueueDepth,
        Series::WireFlushFrames,
        Series::WireFlushLatencyNs,
        Series::WireStallNs,
        Series::BlameIssueQueueNs,
        Series::BlameDispatchNs,
        Series::BlameWireNs,
        Series::BlameExecuteNs,
        Series::BlameCommitOnPathNs,
        Series::BlameCommitOffPathNs,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Series::BatchSize => "cx_commitment_batch_size",
            Series::BatchAgeNs => "cx_commitment_batch_age_ns",
            Series::ClientLatencyNs => "cx_client_latency_ns",
            Series::WireQueueDepth => "cx_wire_queue_depth",
            Series::WireFlushFrames => "cx_wire_flush_frames",
            Series::WireFlushLatencyNs => "cx_wire_flush_latency_ns",
            Series::WireStallNs => "cx_wire_stall_ns",
            Series::BlameIssueQueueNs => "cx_blame_issue_queue_ns",
            Series::BlameDispatchNs => "cx_blame_dispatch_ns",
            Series::BlameWireNs => "cx_blame_wire_ns",
            Series::BlameExecuteNs => "cx_blame_execute_ns",
            Series::BlameCommitOnPathNs => "cx_blame_commit_onpath_ns",
            Series::BlameCommitOffPathNs => "cx_blame_commit_offpath_ns",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Series::BatchSize => "Operations per commitment round (occupancy)",
            Series::BatchAgeNs => "Age of the oldest op when its batch launched",
            Series::ClientLatencyNs => "Client-visible latency (issued to replied)",
            Series::WireQueueDepth => "Outbound frames queued per peer at each flush gather",
            Series::WireFlushFrames => "Frames coalesced into each write_all",
            Series::WireFlushLatencyNs => "Wall time of each coalesced write_all",
            Series::WireStallNs => "Sender wall time blocked on a full peer queue",
            Series::BlameIssueQueueNs => "Critical-path client issue queueing per op",
            Series::BlameDispatchNs => "Critical-path coordinator dispatch time per op",
            Series::BlameWireNs => "Critical-path wire transit (request + reply) per op",
            Series::BlameExecuteNs => "Critical-path participant execution per op",
            Series::BlameCommitOnPathNs => "Commitment work the client waited for per op",
            Series::BlameCommitOffPathNs => "Commitment work behind the reply per op",
        }
    }
}

struct RegistryInner {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hists: Mutex<Vec<LogHistogram>>,
}

/// The shared registry handle. Cloning bumps an `Arc`; counter updates
/// are relaxed atomics, so concurrent publishers merge to exact totals.
#[derive(Clone)]
pub struct MetricRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricRegistry {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: Mutex::new(vec![LogHistogram::new(); Series::COUNT]),
            }),
        }
    }

    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        self.inner.counters[c.index()].fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.inner.counters[c.index()].load(Ordering::Relaxed)
    }

    pub fn set_gauge(&self, g: Gauge, value: u64) {
        self.inner.gauges[g.index()].store(value, Ordering::Relaxed);
    }

    /// High-water-mark update: keeps the maximum ever set.
    pub fn gauge_max(&self, g: Gauge, value: u64) {
        self.inner.gauges[g.index()].fetch_max(value, Ordering::Relaxed);
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.inner.gauges[g.index()].load(Ordering::Relaxed)
    }

    pub fn observe(&self, s: Series, value: u64) {
        self.inner.hists.lock().expect("registry hists")[s.index()].record(value);
    }

    /// Merge a whole pre-aggregated histogram into a series.
    pub fn observe_hist(&self, s: Series, h: &LogHistogram) {
        self.inner.hists.lock().expect("registry hists")[s.index()].merge(h);
    }

    /// A consistent point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let hists = self.inner.hists.lock().expect("registry hists").clone();
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| CounterRow {
                    name: c.name().to_string(),
                    help: c.help().to_string(),
                    value: self.get(c),
                })
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| CounterRow {
                    name: g.name().to_string(),
                    help: g.help().to_string(),
                    value: self.gauge(g),
                })
                .collect(),
            series: Series::ALL
                .iter()
                .zip(&hists)
                .map(|(&s, h)| SeriesRow {
                    name: s.name().to_string(),
                    help: s.help().to_string(),
                    summary: h.summary(),
                })
                .collect(),
        }
    }
}

/// One exported scalar row (counter or gauge).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterRow {
    pub name: String,
    pub help: String,
    pub value: u64,
}

/// One exported histogram row, as its fixed-quantile summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesRow {
    pub name: String,
    pub help: String,
    pub summary: HistSummary,
}

/// A serializable snapshot of the registry — its JSON is what `cx-obs top`
/// reads back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterRow>,
    pub gauges: Vec<CounterRow>,
    pub series: Vec<SeriesRow>,
}

impl MetricsSnapshot {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad metrics snapshot: {e:?}"))
    }

    /// Look up a scalar by its exposition name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .chain(&self.gauges)
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// Prometheus text exposition (version 0.0.4): counters and gauges as
    /// single samples, histogram series as summaries with fixed quantiles.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for r in &self.counters {
            out.push_str(&format!(
                "# HELP {0} {1}\n# TYPE {0} counter\n{0} {2}\n",
                r.name, r.help, r.value
            ));
        }
        for r in &self.gauges {
            out.push_str(&format!(
                "# HELP {0} {1}\n# TYPE {0} gauge\n{0} {2}\n",
                r.name, r.help, r.value
            ));
        }
        for s in &self.series {
            out.push_str(&format!(
                "# HELP {0} {1}\n# TYPE {0} summary\n",
                s.name, s.help
            ));
            for (q, v) in [
                ("0.5", s.summary.p50_ns),
                ("0.9", s.summary.p90_ns),
                ("0.99", s.summary.p99_ns),
                ("0.999", s.summary.p999_ns),
            ] {
                out.push_str(&format!("{0}{{quantile=\"{q}\"}} {v}\n", s.name));
            }
            out.push_str(&format!(
                "{0}_sum {1}\n{0}_count {2}\n",
                s.name,
                (s.summary.mean_ns * s.summary.count as f64).round() as u64,
                s.summary.count
            ));
        }
        out
    }

    /// The `cx-obs top` dashboard: the protocol-internal quantities the
    /// paper's argument rests on, one screen.
    pub fn render_top(&self) -> String {
        let v = |name: &str| self.value(name).unwrap_or(0);
        let mut out = String::new();
        let issued = v("cx_ops_issued_total");
        let applied = v("cx_ops_applied_total");
        let failed = v("cx_ops_failed_total");
        let cross = v("cx_cross_ops_total");
        out.push_str("== cx metrics ==\n");
        out.push_str(&format!(
            "ops        issued={issued} applied={applied} failed={failed} \
             in-flight={}\n",
            v("cx_ops_in_flight")
        ));
        let pct = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64 * 100.0
            }
        };
        let conflicts = v("cx_conflicts_ordered_total") + v("cx_conflicts_disordered_total");
        out.push_str(&format!(
            "cross      {cross} ({:.1}% of ops), conflicts {conflicts} \
             ({:.2}% of ops, {:.2}% of cross) [ordered {} / disordered {}]\n",
            pct(cross, issued),
            pct(conflicts, issued),
            pct(conflicts, cross),
            v("cx_conflicts_ordered_total"),
            v("cx_conflicts_disordered_total"),
        ));
        out.push_str(&format!(
            "commitment immediate={} batched={} (carrying {} ops) \
             hint-resolved={} aborts={}\n",
            v("cx_immediate_commitments_total"),
            v("cx_batched_commitments_total"),
            v("cx_batched_ops_total"),
            v("cx_hint_resolved_total"),
            v("cx_aborts_total"),
        ));
        out.push_str(&format!(
            "wal        peak={}B truncations={}  recovery cycles={} \
             resumed commitments={}\n",
            v("cx_wal_peak_valid_bytes"),
            v("cx_wal_truncations_total"),
            v("cx_recovery_cycles_total"),
            v("cx_resumed_commitments_total"),
        ));
        out.push_str(&format!("messages   {}\n", v("cx_messages_total")));
        let wire_frames = v("cx_wire_frames_per_sec");
        let wire_flushes = v("cx_wire_flushes_per_sec");
        if wire_frames > 0 || wire_flushes > 0 {
            out.push_str(&format!(
                "wire       {wire_frames} frames/s  {} B/s  {wire_flushes} flushes/s \
                 (coalescing {:.1} frames/flush)\n",
                v("cx_wire_bytes_per_sec"),
                if wire_flushes == 0 {
                    0.0
                } else {
                    wire_frames as f64 / wire_flushes as f64
                },
            ));
        }
        for s in &self.series {
            if s.summary.count == 0 {
                continue;
            }
            let is_ns = s.name.ends_with("_ns");
            let f = |x: u64| {
                if is_ns {
                    fmt_ns_f(x as f64)
                } else {
                    x.to_string()
                }
            };
            out.push_str(&format!(
                "  {:<28} n={:<8} mean={:<9} p50={:<9} p90={:<9} p99={:<9} p99.9={}\n",
                s.name,
                s.summary.count,
                if is_ns {
                    fmt_ns_f(s.summary.mean_ns)
                } else {
                    format!("{:.1}", s.summary.mean_ns)
                },
                f(s.summary.p50_ns),
                f(s.summary.p90_ns),
                f(s.summary.p99_ns),
                f(s.summary.p999_ns),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_increments_merge_exactly() {
        let reg = MetricRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        reg.inc(Counter::OpsIssued);
                        reg.add(Counter::Messages, 3);
                    }
                });
            }
        });
        assert_eq!(reg.get(Counter::OpsIssued), 80_000);
        assert_eq!(reg.get(Counter::Messages), 240_000);
    }

    #[test]
    fn exposition_round_trips() {
        let reg = MetricRegistry::new();
        reg.add(Counter::ConflictsOrdered, 4);
        reg.add(Counter::ConflictsDisordered, 1);
        reg.set_gauge(Gauge::OpsInFlight, 4096);
        reg.gauge_max(Gauge::WalPeakValidBytes, 9000);
        reg.gauge_max(Gauge::WalPeakValidBytes, 100);
        for v in [3u64, 7, 12] {
            reg.observe(Series::BatchSize, v);
        }
        let snap = reg.snapshot();
        let text = snap.to_prometheus_text();
        assert!(text.contains("cx_conflicts_ordered_total 4"));
        assert!(text.contains("cx_conflicts_disordered_total 1"));
        assert!(text.contains("# TYPE cx_ops_in_flight gauge"));
        assert!(text.contains("cx_wal_peak_valid_bytes 9000"));
        assert!(text.contains("cx_commitment_batch_size_count 3"));
        assert!(text.contains("cx_commitment_batch_size{quantile=\"0.5\"} 7"));
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.value("cx_conflicts_ordered_total"), Some(4));
        assert_eq!(back.value("cx_ops_in_flight"), Some(4096));
        let top = back.render_top();
        assert!(top.contains("conflicts 5"));
        assert!(top.contains("in-flight=4096"));
        assert!(top.contains("wal        peak=9000B"));
        assert!(top.contains("cx_commitment_batch_size"));
    }

    #[test]
    fn wire_gauges_render_in_top() {
        let reg = MetricRegistry::new();
        // No wire traffic → no wire line (DES runs never set these).
        assert!(!reg.snapshot().render_top().contains("frames/s"));
        reg.set_gauge(Gauge::WireFramesPerSec, 1000);
        reg.set_gauge(Gauge::WireBytesPerSec, 64_000);
        reg.set_gauge(Gauge::WireFlushesPerSec, 100);
        let top = reg.snapshot().render_top();
        assert!(top.contains("1000 frames/s"));
        assert!(top.contains("64000 B/s"));
        assert!(top.contains("coalescing 10.0 frames/flush"));
    }

    #[test]
    fn enum_indices_match_all_ordering() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, s) in Series::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
