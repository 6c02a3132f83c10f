//! Cluster assembly: the two runtimes that interpret the sans-IO protocol
//! engines.
//!
//! * [`des`] — the deterministic discrete-event simulation used for every
//!   paper experiment: a network model (latency + bandwidth), per-server
//!   CPU queues, and the `cx-simio` disk model (group commit, elevator
//!   merging). Replays a [`cx_workloads::Trace`] and produces a
//!   [`RunStats`] with everything the paper's tables and figures report.
//! * [`threaded`] — a real multi-threaded runtime (one OS thread per
//!   metadata server, crossbeam channels as the network) exercising the
//!   same engines under true concurrency; used by the integration tests
//!   and the Criterion micro-benchmarks.
//! * [`tcp`] — the same engines over real loopback TCP via `cx-net`
//!   (length-prefixed wire frames, reconnecting connection managers,
//!   per-peer health); runs in-process or one OS process per server,
//!   with the DES as its oracle for the run totals.

pub mod des;
pub mod fault;
pub mod feed;
mod seed;
pub mod stats;
pub mod tcp;
pub mod threaded;

pub use cx_net::WireTotals;
pub use cx_obs::{FlightRecorder, MetricRegistry, ObsConfig, ObsReport, ObsSink};
pub use des::{run_stream_trace, run_trace, ChaosOutcome, CrashPlan, DesCluster, RecoveryReport};
pub use fault::{ClusterSnapshot, CrashCmd, FaultEvent, FaultInjector, MsgFate, NoFaults};
pub use feed::OpFeed;
pub use stats::{AckRecord, FaultStats, LatencyStat, RecoveryCycle, RunStats, TimelineSample};
pub use tcp::{serve_one, serve_one_opts, ServeOptions, TcpCluster, TcpOptions, TcpRunResult};
pub use threaded::{LiveMetrics, ThreadedCluster, ThreadedRunResult};
