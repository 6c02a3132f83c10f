//! Statistics collected from a cluster run.

use cx_obs::registry::{Counter, Gauge, MetricRegistry, Series};
use cx_obs::{BlameTable, LogHistogram, StuckOp};
use cx_protocol::{MsgCounts, ProtoMetrics, ServerStats};
use cx_simio::DiskStats;
use cx_types::{FsOp, MsgKind, OpId, OpOutcome, Protocol, ServerId, SimTime};
use std::collections::BTreeMap;

/// Timing of one crash/recovery cycle. Multi-crash schedules accumulate a
/// `Vec` of these (the one-crash Table V experiment reads the first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCycle {
    pub server: ServerId,
    pub crashed_at: SimTime,
    pub valid_bytes_at_crash: u64,
    /// When the rebooted server began its log scan.
    pub recovery_started: SimTime,
    /// When the server resumed serving requests.
    pub recovery_finished: SimTime,
    pub scanned_bytes: u64,
    /// Half-completed commitments the §III-D scan resumed, cumulative for
    /// the recovering engine at the moment this cycle finished.
    pub resumed_commitments: u64,
}

impl RecoveryCycle {
    /// The paper's recovery time: crash to serving again.
    pub fn recovery_secs(&self) -> f64 {
        (self.recovery_finished.0 - self.crashed_at.0) as f64 / 1e9
    }

    /// Protocol-only portion (log scan + resumption, excluding detection
    /// and reboot).
    pub fn protocol_secs(&self) -> f64 {
        (self.recovery_finished.0 - self.recovery_started.0) as f64 / 1e9
    }
}

/// One client-visible operation completion, recorded when fault injection
/// is active. The durability oracle replays these against the post-crash
/// namespace: every acked `Applied` mutation must survive, every acked
/// `Failed` one must have left no partial state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckRecord {
    pub op: OpId,
    pub fs_op: FsOp,
    pub outcome: OpOutcome,
    pub at: SimTime,
}

/// Per-run fault-injection counters. All zero on uninstrumented runs, and
/// deliberately excluded from [`RunStats::digest`] so chaos bookkeeping can
/// never perturb the pinned golden digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages discarded by the injector (counted by the engine host, on
    /// every runtime, like the next two).
    pub drops: u64,
    /// Messages delivered late.
    pub delays: u64,
    /// Messages delivered twice.
    pub dups: u64,
    /// Messages that arrived at a crashed (down) server and were lost.
    pub dead_drops: u64,
    /// Server crashes executed.
    pub crashes: u64,
    /// Crashes that kept a torn (partially flushed) log tail.
    pub torn_crashes: u64,
    /// Recoveries that ran to completion.
    pub recoveries: u64,
    /// Oracle passes executed (one per recovery plus the end-of-run pass).
    pub oracle_checks: u64,
    /// Violations those passes reported.
    pub oracle_violations: u64,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub protocol: Protocol,
    pub servers: u32,
    pub processes: u32,

    pub ops_total: u64,
    pub ops_applied: u64,
    pub ops_failed: u64,
    /// Operations that never completed (indicates a protocol hang).
    pub ops_stuck: u64,

    /// Virtual time at which the last operation response arrived — the
    /// paper's "replay time".
    pub replay: SimTime,
    /// Virtual time at which the cluster fully quiesced (all lazy
    /// commitments and write-backs done).
    pub drained: SimTime,

    /// Messages by kind (Table IV counts their total).
    pub msgs: BTreeMap<MsgKind, u64>,
    /// Server-to-server messages (commitment traffic).
    pub server_msgs: u64,
    /// Client-to-server and server-to-client messages.
    pub client_msgs: u64,

    pub disk: DiskStats,
    pub server_stats: ServerStats,

    /// Client-observed operation latency: exact count, sum and max, and
    /// log buckets for percentiles. [`RunStats::digest`] renders only the
    /// first three.
    pub latency_hist: LogHistogram,
    /// The same for cross-server mutations only.
    pub cross_latency_hist: LogHistogram,
    /// Cross-server operations issued.
    pub cross_ops: u64,

    /// Peak valid-record bytes on any server. Figure 7b's samples are the
    /// obs plane's `GaugeKind::ValidLogBytes` stream.
    pub peak_valid_bytes: u64,

    /// Simulator events processed (complexity metric).
    pub events: u64,

    /// Per-server unfinished-state descriptions when the run failed to
    /// quiesce (hang diagnostics; empty on clean runs).
    pub leftovers: Vec<String>,
    /// Structured hang diagnostics from the obs plane: which op is stuck,
    /// in which lifecycle phase, on which server, since when. Populated
    /// only on recorded runs (the recorder's live-op map is the source);
    /// complements the free-text `leftovers`.
    pub stuck_ops: Vec<StuckOp>,
    /// Final namespace size across all servers (inode rows).
    pub final_inodes: u64,
    /// Final namespace size across all servers (directory entries).
    pub final_dentries: u64,

    /// Fault-injection counters (all zero when no injector is installed).
    pub faults: FaultStats,
    /// Completed crash/recovery cycles, in completion order.
    pub recovery_cycles: Vec<RecoveryCycle>,

    /// Protocol-internal introspection counters, merged across servers.
    /// Like `faults`, excluded from [`RunStats::digest`]: the digest
    /// renders only the named historical fields.
    pub proto: ProtoMetrics,

    /// Critical-path blame attribution over the sampled spans (recorded
    /// runs only). Excluded from [`RunStats::digest`] like `proto`.
    pub blame: Option<BlameTable>,
}

impl RunStats {
    pub fn new(protocol: Protocol, servers: u32, processes: u32) -> Self {
        Self {
            protocol,
            servers,
            processes,
            ops_total: 0,
            ops_applied: 0,
            ops_failed: 0,
            ops_stuck: 0,
            replay: SimTime::ZERO,
            drained: SimTime::ZERO,
            msgs: BTreeMap::new(),
            server_msgs: 0,
            client_msgs: 0,
            disk: DiskStats::default(),
            server_stats: ServerStats::default(),
            latency_hist: LogHistogram::new(),
            cross_latency_hist: LogHistogram::new(),
            cross_ops: 0,
            peak_valid_bytes: 0,
            events: 0,
            leftovers: Vec::new(),
            stuck_ops: Vec::new(),
            final_inodes: 0,
            final_dentries: 0,
            faults: FaultStats::default(),
            recovery_cycles: Vec::new(),
            proto: ProtoMetrics::default(),
            blame: None,
        }
    }

    /// FNV-1a over a stable rendering of the run's key statistics — the
    /// reproducibility fingerprint. Identical configuration must yield an
    /// identical digest; the golden-digest tests and the chaos replay
    /// checks pin on it. Fault counters are deliberately *not* rendered:
    /// the digest describes simulator behavior, and instrumentation
    /// bookkeeping must never perturb it.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write;
        let mut text = String::new();
        write!(
            text,
            "{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}|{}|{}|{}",
            self.replay,
            self.drained,
            self.msgs,
            self.events,
            self.ops_total,
            self.ops_applied,
            self.ops_failed,
            self.disk,
            self.server_stats,
            // Spelled as the retired `LatencyStat`'s `Debug` output: the
            // pinned digests (golden, baselines, the benchmark's seed-7
            // pins) hash exactly these bytes.
            format_args!(
                "LatencyStat {{ count: {}, sum_ns: {}, max_ns: {} }}",
                self.latency_hist.count, self.latency_hist.sum, self.latency_hist.max
            ),
            self.cross_ops,
            self.peak_valid_bytes,
        )
        .expect("write to String");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    pub fn total_msgs(&self) -> u64 {
        self.msgs.values().sum()
    }

    /// A client issued an operation. With [`RunStats::note_finished`], the
    /// whole of the client-side accounting, on every runtime.
    pub fn note_issued(&mut self, cross: bool) {
        self.ops_total += 1;
        self.cross_ops += cross as u64;
    }

    /// A client heard its operation's outcome, `latency_ns` after issuing it.
    pub fn note_finished(&mut self, outcome: OpOutcome, cross: bool, latency_ns: u64) {
        self.latency_hist.record(latency_ns);
        if cross {
            self.cross_latency_hist.record(latency_ns);
        }
        match outcome {
            OpOutcome::Applied => self.ops_applied += 1,
            OpOutcome::Failed => self.ops_failed += 1,
        }
    }

    /// The run's send totals, by kind and by end, and the message faults
    /// the engine host carried out.
    pub(crate) fn set_msgs(&mut self, sent: &MsgCounts) {
        self.msgs = sent.iter().collect();
        self.server_msgs = sent.server_msgs;
        self.client_msgs = sent.client_msgs;
        self.faults.drops = sent.drops;
        self.faults.delays = sent.delays;
        self.faults.dups = sent.dups;
    }

    /// Replay time in seconds (Figure 5's metric).
    pub fn replay_secs(&self) -> f64 {
        self.replay.as_secs_f64()
    }

    /// Aggregated throughput in operations/second (Figure 6's metric).
    pub fn throughput(&self) -> f64 {
        let t = self.replay.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.ops_total as f64 / t
        }
    }

    /// Fixed-quantile digest (p50/p90/p99/p99.9/max) of the client-visible
    /// latency histogram — what the figure/table binaries print next to
    /// the paper-parity mean.
    pub fn latency_summary(&self) -> cx_obs::HistSummary {
        self.latency_hist.summary()
    }

    /// Measured conflict ratio over *all* operations (Table II's metric:
    /// "the ratio of the concurrent operations with conflicts ... is less
    /// than 4%" — the paper's denominator is every replayed operation).
    pub fn conflict_ratio(&self) -> f64 {
        if self.ops_total == 0 {
            0.0
        } else {
            self.server_stats.conflicts as f64 / self.ops_total as f64
        }
    }

    /// Conflict ratio over cross-server operations only — the stricter
    /// denominator: only cross-server operations can conflict under Cx, so
    /// this is the fraction of commitment-bearing work that hit the
    /// blocking path.
    pub fn cross_conflict_ratio(&self) -> f64 {
        if self.cross_ops == 0 {
            0.0
        } else {
            self.server_stats.conflicts as f64 / self.cross_ops as f64
        }
    }

    /// Publish a finished run's totals into a metric registry — the bridge
    /// from the per-run accounting to the exposition formats (`cx-obs top`,
    /// Prometheus text). No runtime calls this: it is for a caller holding
    /// the stats of a run that had no live registry (any DES run).
    pub fn publish(&self, reg: &MetricRegistry) {
        reg.add(Counter::OpsIssued, self.ops_total);
        reg.add(Counter::OpsApplied, self.ops_applied);
        reg.add(Counter::OpsFailed, self.ops_failed);
        reg.add(Counter::CrossOps, self.cross_ops);
        reg.observe_hist(Series::ClientLatencyNs, &self.latency_hist);
        self.publish_end_of_run(reg);
    }

    /// The half of [`RunStats::publish`] known only once a run is over. A
    /// live wall-clock run publishes exactly this when it ends: its
    /// client host tapped the other half (the four op counters and the
    /// client latency) into the registry per completed op.
    pub fn publish_end_of_run(&self, reg: &MetricRegistry) {
        reg.add(Counter::Messages, self.total_msgs());
        reg.add(Counter::RecoveryCycles, self.recovery_cycles.len() as u64);
        reg.gauge_max(Gauge::WalPeakValidBytes, self.peak_valid_bytes);
        reg.set_gauge(Gauge::OpsInFlight, self.ops_stuck);
        self.proto.publish(reg);
        if let Some(b) = &self.blame {
            // Coarse segment families only; the full per-hop table lives in
            // the blame table itself (doctor), this is the `cx-obs top`
            // headline.
            use cx_obs::blame::Seg;
            let fold = |segs: &[Seg]| {
                let mut h = LogHistogram::new();
                for s in segs {
                    h.merge(&b.segs[s.index()].hist);
                }
                h
            };
            reg.observe_hist(Series::BlameIssueQueueNs, &fold(&[Seg::IssueQueue]));
            reg.observe_hist(Series::BlameDispatchNs, &fold(&[Seg::Dispatch]));
            reg.observe_hist(Series::BlameWireNs, &fold(&[Seg::ReqWire, Seg::ReplyWire]));
            reg.observe_hist(Series::BlameExecuteNs, &fold(&[Seg::Execute]));
            reg.observe_hist(Series::BlameCommitOnPathNs, &fold(&[Seg::CommitOnPath]));
            reg.observe_hist(Series::BlameCommitOffPathNs, &fold(&Seg::SUFFIX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_ratios() {
        let mut s = RunStats::new(Protocol::Cx, 8, 256);
        s.ops_total = 1000;
        s.replay = SimTime::from_secs(2);
        assert_eq!(s.throughput(), 500.0);
        s.server_stats.conflicts = 10;
        assert!((s.conflict_ratio() - 0.01).abs() < 1e-12);
        s.note_finished(OpOutcome::Applied, false, 10);
        s.note_finished(OpOutcome::Failed, true, 30);
        assert_eq!((s.ops_applied, s.ops_failed), (1, 1));
        assert_eq!((s.latency_hist.count, s.cross_latency_hist.sum), (2, 30));
    }

    #[test]
    fn zero_replay_throughput_is_zero() {
        let s = RunStats::new(Protocol::Se, 4, 16);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.conflict_ratio(), 0.0);
    }
}
