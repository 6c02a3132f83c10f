//! Cluster assembly: the two runtimes that interpret the sans-IO protocol
//! engines.
//!
//! Both run one engine host (`cx_protocol::host`), each with its own
//! ports, and one client table (`feed::ClientTable`).
//!
//! * [`des`] — the deterministic discrete-event simulation used for every
//!   paper experiment: a network model (latency + bandwidth), per-server
//!   CPU queues, and the `cx-simio` disk model (group commit, elevator
//!   merging). Replays a [`cx_workloads::Trace`] and produces a
//!   [`RunStats`] with everything the paper's tables and figures report.
//! * `wall` — the wall-clock runtime: one OS thread per node (on sockets,
//!   its I/O thread), each metadata server one node and every client on
//!   the client host's, real concurrency, the DES as its oracle for the
//!   run totals. It moves
//!   frames through a `Transport` and has two entry points, one per
//!   transport: [`threaded`] (in-process channels) and [`tcp`] (loopback
//!   sockets via `cx-net`, in-process or one OS process per server).

pub mod des;
pub mod fault;
#[cfg(test)]
mod faulty;
pub mod feed;
mod live;
mod seed;
pub mod stats;
pub mod tcp;
pub mod threaded;
mod transport;
mod wall;

pub use cx_net::WireTotals;
pub use cx_obs::{FlightRecorder, MetricRegistry, ObsConfig, ObsReport, ObsSink};
pub use des::{run_stream_trace, run_trace, ChaosOutcome, DesCluster};
pub use fault::{ClusterSnapshot, CrashCmd, FaultEvent, FaultInjector, MsgFate};
pub use feed::OpFeed;
pub use live::LiveMetrics;
pub use stats::{AckRecord, FaultStats, RecoveryCycle, RunStats};
pub use tcp::{serve_one, serve_one_opts, ServeOptions, TcpCluster, TcpOptions, TcpRunResult};
pub use threaded::{ThreadedCluster, ThreadedRunResult};
