//! One fault-injected run: scenario × plan → outcome; and the Table V
//! crash/recovery measurement, a one-crash plan.

use crate::inject::PlanInjector;
use crate::plan::{CrashFault, CrashPoint, FaultPlan};
use cx_cluster::{ChaosOutcome, DesCluster, ObsSink};
use cx_types::{BatchTrigger, ClusterConfig, Protocol, ServerId, DUR_MS};
use cx_workloads::{StreamTrace, TraceBuilder, TraceProfile};
use serde::{Deserialize, Serialize};

/// Everything that determines a chaos run besides the fault plan. The
/// whole struct serializes into repro files, so a failing schedule is
/// replayable from the JSON alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosScenario {
    pub protocol: Protocol,
    pub servers: u32,
    pub trace_scale: f64,
    pub workload_seed: u64,
    /// Commitment re-drive period; gives Cx liveness when a VOTE or its
    /// answer dies with a crashed participant.
    pub commit_retry_ms: u64,
    /// Run the deliberately broken recovery (skip §III-D resumption) so
    /// the oracle's teeth can be demonstrated. Never set outside tests.
    pub broken: bool,
}

impl ChaosScenario {
    pub fn new(protocol: Protocol) -> Self {
        Self {
            protocol,
            servers: 4,
            trace_scale: 0.002,
            workload_seed: 1,
            commit_retry_ms: 40,
            broken: false,
        }
    }

    /// The driving workload (CTH mix: mutation-heavy, lots of
    /// cross-server creates) as a lazy stream: ops are generated as the
    /// replay pulls them.
    pub fn stream(&self) -> StreamTrace {
        TraceBuilder::new(TraceProfile::by_name("CTH").expect("profile exists"))
            .scale(self.trace_scale)
            .seed(self.workload_seed)
            .stream()
    }

    fn config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(self.servers, self.protocol);
        cfg.seed = 42;
        cfg.cx.commit_retry_timeout_ns = Some(self.commit_retry_ms * DUR_MS);
        cfg.cx.unsafe_skip_recovery_resume = self.broken;
        cfg
    }
}

/// One Table V measurement (§IV-E): "To simulate a server crash, we
/// killed the processes on a server after it has accepted a specific size
/// of valid-records." home2 replays under Cx with lazy commitments
/// suppressed and sharing disabled (a conflict forces an immediate
/// commitment, which would prune the very records that should
/// accumulate), and `victim` crashes at the first append that leaves it
/// holding `valid_bytes_target` bytes of valid records. The recovery is
/// timed: failure detection, reboot, the sequential log scan, cold-cache
/// re-reads of the affected rows, and the resumption of every
/// half-completed commitment. The run goes on to its end under the
/// durability oracle.
#[derive(Debug, Clone)]
pub struct RecoveryExperiment {
    /// Metadata servers in the cluster.
    pub servers: u32,
    /// Which server to kill.
    pub victim: u32,
    /// Valid-record volume (bytes) at which the victim dies.
    pub valid_bytes_target: u64,
    /// Failure-detection delay (heartbeat timeout).
    pub detection_ms: u64,
    /// Server process restart time.
    pub reboot_ms: u64,
    /// Trace scale driving the cluster while records accumulate.
    pub trace_scale: f64,
    pub seed: u64,
}

impl Default for RecoveryExperiment {
    fn default() -> Self {
        Self {
            servers: 8,
            victim: 0,
            valid_bytes_target: 100 << 10,
            detection_ms: 2_000,
            reboot_ms: 800,
            trace_scale: 0.05,
            seed: 0xEC0,
        }
    }
}

/// Result row for Table V.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RecoveryRow {
    pub target_kb: u64,
    pub valid_kb_at_crash: u64,
    /// Total recovery time (crash to serving again), the paper's metric.
    pub recovery_secs: f64,
    /// Protocol-only portion (scan + resumption).
    pub protocol_secs: f64,
    pub scanned_bytes: u64,
    /// Half-completed commitments the scan found and re-drove (§III-D).
    pub resumed_commitments: u64,
}

impl RecoveryExperiment {
    pub fn with_target(mut self, bytes: u64) -> Self {
        self.valid_bytes_target = bytes;
        self
    }

    /// The whole run: the crash, its recovery, and the rest of the replay.
    pub fn outcome(&self) -> ChaosOutcome {
        let st = TraceBuilder::new(TraceProfile::by_name("home2").expect("profile exists"))
            .scale(self.trace_scale)
            .seed(self.seed)
            .tweak(|p| p.shared_access_prob = 0.0)
            .stream();
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                server: ServerId(self.victim),
                point: CrashPoint::ValidBytes {
                    at_least: self.valid_bytes_target,
                },
                torn_extra_bytes: 0,
                detection_ns: self.detection_ms * DUR_MS,
                reboot_ns: self.reboot_ms * DUR_MS,
            }],
            ..FaultPlan::default()
        };
        let injector = PlanInjector::with_seeds(plan, &st.seeds);
        let mut cfg = ClusterConfig::new(self.servers, Protocol::Cx);
        cfg.cx.trigger = BatchTrigger::Never;
        cfg.cx.log_limit_bytes = None; // the crash target controls volume
        cfg.seed = self.seed;
        DesCluster::new_stream(cfg, st)
            .with_injector(Box::new(injector))
            .run_chaos()
    }

    /// The first crash/recovery cycle as a Table V row; `None` when the
    /// workload never accumulated enough valid records. Panics if the
    /// oracle finds an acked operation lost or a partial one left behind.
    pub fn run(&self) -> Option<RecoveryRow> {
        let outcome = self.outcome();
        assert!(
            outcome.oracle_report.is_empty(),
            "Table V run failed the durability oracle: {:?}",
            outcome.oracle_report
        );
        let cycle = outcome.stats.recovery_cycles.first()?;
        Some(RecoveryRow {
            target_kb: self.valid_bytes_target >> 10,
            valid_kb_at_crash: cycle.valid_bytes_at_crash >> 10,
            recovery_secs: cycle.recovery_secs(),
            protocol_secs: cycle.protocol_secs(),
            scanned_bytes: cycle.scanned_bytes,
            resumed_commitments: cycle.resumed_commitments,
        })
    }
}

/// Result of one run, with the failure list the explorer/shrinker key on.
pub struct ChaosRun {
    /// The shared reproducibility fingerprint (`RunStats::digest`); equal
    /// digests mean the runs were observably identical.
    pub digest: u64,
    /// Namespace violations (prefixed `namespace:`) plus every oracle
    /// finding. Empty = the run passed.
    pub failures: Vec<String>,
    pub outcome: ChaosOutcome,
}

/// Execute `plan` under `scn` on the deterministic simulator.
pub fn run_plan(scn: &ChaosScenario, plan: &FaultPlan) -> ChaosRun {
    run_plan_obs(scn, plan, ObsSink::Off)
}

/// [`run_plan`] with an observability sink attached, so a fault-injected
/// replay can dump the op lifecycles surrounding the injected fault as a
/// Perfetto trace (`cx-chaos --replay`'s post-mortem and `--obs-out`),
/// with each crashed server's liveness gauge beside them. Recording never
/// perturbs the schedule: the digest is identical to an `Off` run, which
/// is exactly what lets an instrumented replay still claim "reproduced".
pub fn run_plan_obs(scn: &ChaosScenario, plan: &FaultPlan, obs: ObsSink) -> ChaosRun {
    let st = scn.stream();
    let injector = PlanInjector::with_seeds(plan.clone(), &st.seeds);
    let cluster = DesCluster::new_stream(scn.config(), st)
        .with_obs(obs)
        .with_injector(Box::new(injector));
    finish(cluster.run_chaos())
}

fn finish(outcome: ChaosOutcome) -> ChaosRun {
    let mut failures: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| format!("namespace: {v}"))
        .collect();
    failures.extend(outcome.oracle_report.iter().cloned());
    ChaosRun {
        digest: outcome.stats.digest(),
        failures,
        outcome,
    }
}

/// A reproducible failing schedule: seed + scenario + (shrunken) plan,
/// plus what it produced when found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Repro {
    /// The explorer seed that generated the original plan.
    pub seed: u64,
    pub scenario: ChaosScenario,
    pub plan: FaultPlan,
    pub failures: Vec<String>,
    /// Event digest of the failing run; replays must reproduce it.
    pub digest: u64,
}

impl Repro {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("repro serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad repro file: {e:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_recovery_experiment_completes() {
        let exp = RecoveryExperiment {
            servers: 4,
            trace_scale: 0.004,
            valid_bytes_target: 5 << 10,
            detection_ms: 100,
            reboot_ms: 50,
            ..Default::default()
        };
        let row = exp.run().expect("5 KB of valid records accumulate");
        assert!(row.valid_kb_at_crash >= 5);
        assert!(row.recovery_secs > 0.15, "includes detection+reboot");
        assert!(row.protocol_secs > 0.0);
        assert!(row.scanned_bytes > 0, "durable prefix was scanned");
    }

    #[test]
    fn recovery_time_grows_with_valid_records() {
        let small = RecoveryExperiment {
            servers: 4,
            trace_scale: 0.01,
            detection_ms: 100,
            reboot_ms: 50,
            ..Default::default()
        };
        let r1 = small.clone().with_target(5 << 10).run().unwrap();
        let r2 = small.with_target(80 << 10).run().unwrap();
        assert!(
            r2.protocol_secs > r1.protocol_secs,
            "more records, longer recovery: {} vs {}",
            r2.protocol_secs,
            r1.protocol_secs
        );
        // …but total recovery time is sublinear (Table V's observation):
        // the fixed detection/reboot/scan overheads and batched resumption
        // amortize across records.
        assert!(
            r2.recovery_secs < r1.recovery_secs * 16.0,
            "{} vs {}",
            r2.recovery_secs,
            r1.recovery_secs
        );
    }

    #[test]
    fn unreachable_target_returns_none() {
        let exp = RecoveryExperiment {
            servers: 4,
            trace_scale: 0.0005,
            valid_bytes_target: 100 << 20, // 100 MB never accumulates
            ..Default::default()
        };
        assert!(exp.run().is_none());
    }
}
