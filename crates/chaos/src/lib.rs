//! # cx-chaos — deterministic fault injection for the Cx reproduction
//!
//! A fault plane over the DES cluster, hung off exactly two choke points
//! (message delivery and the WAL append path — see `cx-cluster::fault`),
//! so the protocol engines carry zero fault code:
//!
//! * [`FaultPlan`] — declarative schedules: drop/duplicate/delay the Nth
//!   message of a kind between servers, timed partition windows, and
//!   multi-crash schedules keyed on protocol events (append/flush of a
//!   WAL record family, a message delivery, a write-back, a valid-record
//!   volume reached), optionally with torn log tails.
//! * [`PlanInjector`] — interprets a plan against the DES hooks and runs
//!   the [`oracle`] after every recovery: every acked operation survives
//!   crash + recovery, aborted operations leave no partial state, and the
//!   namespace is atomic once quiesced.
//! * [`explore`] — seeded random schedule search over a budget of seeds;
//!   failing schedules are greedily shrunk and emitted as replayable
//!   repro files (seed + scenario + plan as JSON).
//! * [`RecoveryExperiment`] — Table V (§IV-E): one crash at a target
//!   valid-record volume, its recovery timed, the run under the oracle.
//!
//! ```text
//! cargo run -p cx-chaos --release -- --seeds 200
//! cargo run -p cx-chaos --release -- --demo-broken   # oracle self-test
//! cargo run -p cx-chaos --release -- --replay chaos-repro-cx-17.json
//! ```

pub mod explore;
pub mod inject;
pub mod oracle;
pub mod plan;
pub mod runner;

pub use explore::{explore, generate_plan, shrink, ExploreOutcome};
pub use inject::PlanInjector;
pub use oracle::{check_snapshot, ModelFs};
pub use plan::{CrashFault, CrashPoint, FaultPlan, NetAction, NetFault, Partition};
pub use runner::{
    run_plan, run_plan_obs, ChaosRun, ChaosScenario, RecoveryExperiment, RecoveryRow, Repro,
};
