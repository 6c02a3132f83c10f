//! One fault-injected run: scenario × plan → outcome.

use crate::inject::PlanInjector;
use crate::plan::FaultPlan;
use cx_cluster::{ChaosOutcome, DesCluster, FlightRecorder, ObsSink};
use cx_types::{ClusterConfig, Protocol, DUR_MS};
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
/// Perfetto trace (`cx-chaos --replay --obs-out`). Recording never
/// perturbs the schedule: the digest is identical to an `Off` run, which
/// is exactly what lets an instrumented replay still claim "reproduced".
pub fn run_plan_obs(scn: &ChaosScenario, plan: &FaultPlan, obs: ObsSink) -> ChaosRun {
    run_plan_flight(scn, plan, obs, None)
}

/// [`run_plan_obs`] with an always-on flight recorder fed by the run —
/// the caller keeps a clone of the ring and dumps the post-mortem when
/// the outcome warrants one (crash, stuck op, digest or oracle failure).
/// The recorder sits outside the simulation like the sink, so the digest
/// contract is the same: feeding it never changes the schedule.
pub fn run_plan_flight(
    scn: &ChaosScenario,
    plan: &FaultPlan,
    obs: ObsSink,
    flight: Option<FlightRecorder>,
) -> ChaosRun {
    let st = scn.stream();
    let injector = PlanInjector::with_seeds(plan.clone(), &st.seeds);
    let mut cluster = DesCluster::new_stream(scn.config(), st)
        .with_obs(obs)
        .with_injector(Box::new(injector));
    if let Some(fl) = flight {
        cluster = cluster.with_flight(fl);
    }
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
