//! # cx-core — the public face of the Cx reproduction
//!
//! This crate reproduces *Cx: Concurrent Execution for the Cross-Server
//! Operations in a Distributed File System* (IEEE CLUSTER 2012): a
//! protocol that lets the two servers of a cross-server metadata operation
//! execute their halves **concurrently**, answers the client immediately,
//! and **delays and batches** the commitment — falling back to an
//! immediate commitment only on conflicts or disagreement.
//!
//! ## Quick start
//!
//! ```
//! use cx_core::{Experiment, Protocol, Workload};
//!
//! // Replay a small slice of the paper's CTH trace on 8 servers under Cx
//! // and under the OrangeFS baseline, and compare replay times.
//! let cx = Experiment::new(Workload::trace("CTH").scale(0.001))
//!     .servers(8)
//!     .protocol(Protocol::Cx)
//!     .run();
//! let ofs = Experiment::new(Workload::trace("CTH").scale(0.001))
//!     .servers(8)
//!     .protocol(Protocol::Se)
//!     .run();
//! assert!(cx.is_consistent());
//! assert!(cx.stats.replay < ofs.stats.replay, "Cx beats serial execution");
//! ```
//!
//! ## Workloads
//!
//! A [`Workload`] names a trace profile or Metarates; each run pulls a
//! fresh [`StreamTrace`] from it, whose ops are generated as clients issue
//! them. `StreamTrace` is the one workload representation: the DES
//! ([`DesCluster::new_stream`]), the threaded runtime and the TCP runtime
//! all take one, so replaying one workload on several runtimes pulls one
//! stream per run from the same [`Workload`] or [`TraceBuilder`].
//!
//! ## Layout
//!
//! | crate | contents |
//! |---|---|
//! | `cx-types` | ids, operations, Table I sub-op split, Table III messages |
//! | `cx-protocol` | the Cx engine + SE / SE-batched / 2PC / CE baselines |
//! | `cx-wal` | Result/Commit/Abort/Complete records, pruning, durability |
//! | `cx-mdstore` | per-server metadata rows + cross-server consistency checks |
//! | `cx-simio` | disk model: group commit, elevator merging |
//! | `cx-cluster` | deterministic simulation + threaded + TCP runtimes |
//! | `cx-workloads` | the six Table II trace profiles + Metarates |
//! | `cx-chaos` | fault plans, the durability oracle, the Table V crash/recovery experiment |

pub use cx_cluster::{
    AckRecord, ChaosOutcome, ClusterSnapshot, CrashCmd, DesCluster, FaultEvent, FaultInjector,
    FaultStats, LiveMetrics, MsgFate, RecoveryCycle, RunStats, TcpCluster, TcpOptions,
    TcpRunResult, ThreadedCluster, WireTotals,
};
pub use cx_mdstore::Violation;
pub use cx_obs::{
    fmt_ns_f, HistSummary, LogHistogram, MetricRegistry, MetricsSnapshot, ObsReport, ObsSink,
    Phase, StuckOp,
};
pub use cx_protocol::{ClientOp, CxServer, ProtoMetrics, ServerEngine, ServerStats};
pub use cx_types::{
    BatchTrigger, ClusterConfig, CxConfig, DiskConfig, FsOp, MsgKind, NetConfig, OpClass,
    OpOutcome, Placement, Protocol, SimTime, DUR_MS, DUR_SEC, DUR_US,
};
pub use cx_workloads::{
    ClassMix, Metarates, MetaratesMix, OpStream, StreamTrace, TraceBuilder, TraceProfile, PROFILES,
};

/// A workload specification for [`Experiment`]: every run pulls a fresh
/// [`StreamTrace`] from it ([`Workload::stream`]).
#[derive(Debug, Clone)]
pub enum Workload {
    /// One of the six Table II trace profiles, possibly tweaked.
    TraceProfile {
        profile: TraceProfile,
        scale: f64,
        seed: u64,
        /// Extra conflicting lookups relative to trace size (Figure 8).
        inject_conflicts: f64,
    },
    /// The Metarates benchmark (§IV-B).
    Metarates {
        mix: MetaratesMix,
        ops_per_proc: u32,
        files_per_server: u32,
    },
}

impl Workload {
    /// Start from a named trace profile (CTH, s3d, alegra, home2,
    /// deasna2, lair62b).
    pub fn trace(name: &str) -> Self {
        let profile =
            TraceProfile::by_name(name).unwrap_or_else(|| panic!("unknown trace profile {name:?}"));
        Workload::TraceProfile {
            profile: *profile,
            scale: 1.0,
            seed: 0x7ace,
            inject_conflicts: 0.0,
        }
    }

    pub fn metarates(mix: MetaratesMix) -> Self {
        Workload::Metarates {
            mix,
            ops_per_proc: 400,
            files_per_server: 4_000,
        }
    }

    /// Scale a trace profile's operation count.
    pub fn scale(mut self, s: f64) -> Self {
        if let Workload::TraceProfile { scale, .. } = &mut self {
            *scale = s;
        }
        self
    }

    /// Inject conflicting lookups (Figure 8's knob).
    pub fn inject_conflicts(mut self, ratio: f64) -> Self {
        if let Workload::TraceProfile {
            inject_conflicts, ..
        } = &mut self
        {
            *inject_conflicts = ratio;
        }
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        if let Workload::TraceProfile { seed, .. } = &mut self {
            *seed = s;
        }
        self
    }

    /// Adjust a trace profile's (copied) parameters, e.g. its sharing
    /// probability (Figure 8's second knob).
    pub fn tweak(mut self, f: impl FnOnce(&mut TraceProfile)) -> Self {
        if let Workload::TraceProfile { profile, .. } = &mut self {
            f(profile);
        }
        self
    }

    /// The workload for `cfg`, generated lazily: memory is independent
    /// of the op count. Conflict injection first runs a counting pass over
    /// a second generator stream to normalize its rate — CPU for memory.
    pub fn stream(&self, cfg: &ClusterConfig) -> StreamTrace {
        match self {
            Workload::TraceProfile {
                profile,
                scale,
                seed,
                inject_conflicts,
            } => {
                let builder = TraceBuilder::new(profile).scale(*scale).seed(*seed);
                if *inject_conflicts > 0.0 {
                    let (total, injectable) =
                        cx_workloads::injection_counts(builder.clone().stream());
                    builder.stream().inject_conflicting_lookups(
                        *inject_conflicts,
                        *seed,
                        total,
                        injectable,
                    )
                } else {
                    builder.stream()
                }
            }
            Workload::Metarates {
                mix,
                ops_per_proc,
                files_per_server,
            } => Metarates::new(*mix, cfg.total_processes())
                .seed_files(files_per_server * cfg.servers)
                .ops_per_proc(*ops_per_proc)
                .stream(),
        }
    }
}

/// Builder for one simulated cluster run.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub cfg: ClusterConfig,
    pub workload: Workload,
}

impl Experiment {
    pub fn new(workload: Workload) -> Self {
        Self {
            cfg: ClusterConfig::default(),
            workload,
        }
    }

    pub fn servers(mut self, n: u32) -> Self {
        let protocol = self.cfg.protocol;
        let seed = self.cfg.seed;
        let mut cfg = ClusterConfig::new(n, protocol);
        cfg.seed = seed;
        cfg.cx = self.cfg.cx;
        cfg.disk = self.cfg.disk;
        cfg.net = self.cfg.net;
        cfg.cpu = self.cfg.cpu;
        cfg.failure = self.cfg.failure;
        self.cfg = cfg;
        self
    }

    pub fn protocol(mut self, p: Protocol) -> Self {
        self.cfg.protocol = p;
        self
    }

    pub fn trigger(mut self, t: BatchTrigger) -> Self {
        self.cfg.cx.trigger = t;
        self
    }

    pub fn log_limit(mut self, limit: Option<u64>) -> Self {
        self.cfg.cx.log_limit_bytes = limit;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    pub fn configure(mut self, f: impl FnOnce(&mut ClusterConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Run on the deterministic simulator. The workload streams into the
    /// replay (ops generated as clients issue them), which keeps peak
    /// memory flat even at `--full` scale.
    pub fn run(&self) -> ExperimentResult {
        let st = self.workload.stream(&self.cfg);
        let (stats, violations) = DesCluster::new_stream(self.cfg.clone(), st).run();
        ExperimentResult { stats, violations }
    }

    /// Like [`Experiment::run`], with observability recording into `sink`.
    /// Recording never perturbs the simulation — the stats digest is
    /// identical to an uninstrumented run — so this is the `--obs` path of
    /// the experiment binaries. Read the trace/report off the sink after.
    pub fn run_obs(&self, sink: ObsSink) -> ExperimentResult {
        let st = self.workload.stream(&self.cfg);
        let cluster = DesCluster::new_stream(self.cfg.clone(), st).with_obs(sink);
        let (stats, violations) = cluster.run();
        ExperimentResult { stats, violations }
    }

    /// Run on the multi-threaded runtime (correctness under real
    /// concurrency; no timing model).
    pub fn run_threaded(&self) -> ExperimentResult {
        let st = self.workload.stream(&self.cfg);
        let res = ThreadedCluster::run_stream(self.cfg.clone(), st);
        ExperimentResult {
            stats: res.stats,
            violations: res.violations,
        }
    }
}

/// Outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub stats: RunStats,
    pub violations: Vec<Violation>,
}

impl ExperimentResult {
    /// The paper's correctness goal: no dangling entries, orphans, or
    /// nlink mismatches across servers after the run drained.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_builder_round_trip() {
        let e = Experiment::new(Workload::trace("CTH").scale(0.0005))
            .servers(4)
            .protocol(Protocol::Cx)
            .trigger(BatchTrigger::Threshold { pending_ops: 64 })
            .log_limit(None)
            .seed(7);
        assert_eq!(e.cfg.servers, 4);
        assert_eq!(e.cfg.clients, 16, "4 clients per server");
        assert_eq!(e.cfg.seed, 7);
        let r = e.run();
        assert!(r.is_consistent());
        assert!(r.stats.ops_total > 0);
    }

    #[test]
    #[should_panic(expected = "unknown trace profile")]
    fn unknown_profile_panics_early() {
        let _ = Workload::trace("nope");
    }

    #[test]
    fn conflict_injection_increases_conflicts() {
        let base = Experiment::new(Workload::trace("home2").scale(0.002))
            .servers(4)
            .run();
        let injected =
            Experiment::new(Workload::trace("home2").scale(0.002).inject_conflicts(0.05))
                .servers(4)
                .run();
        assert!(injected.is_consistent());
        assert!(
            injected.stats.server_stats.conflicts > base.stats.server_stats.conflicts,
            "injected lookups must raise the conflict count: {} vs {}",
            injected.stats.server_stats.conflicts,
            base.stats.server_stats.conflicts
        );
    }

    #[test]
    fn metarates_workload_runs() {
        let r = Experiment::new(Workload::Metarates {
            mix: MetaratesMix::UpdateDominated,
            ops_per_proc: 20,
            files_per_server: 50,
        })
        .servers(2)
        .run();
        assert!(r.is_consistent());
        assert_eq!(r.stats.ops_total, (2 * 4 * 8 * 20) as u64);
    }
}
