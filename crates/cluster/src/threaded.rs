//! The wall-clock runtime over in-process channels.
//!
//! The same server nodes, client host and drain as a TCP run
//! ([`crate::wall`]), with `Frame` values handed across `std::sync::mpsc` channels
//! instead of encoded onto sockets ([`channel_fabric`]): real threads and
//! real interleavings without the wire. Each node runs on a loop thread of
//! its own (`cx-srv<i>`, `cx-host`). Timers run at wall-clock rate, so
//! tests configure short trigger periods.

use crate::tcp::{LiveMetrics, TcpOptions, TcpRunResult};
use crate::transport::channel_fabric;
use crate::wall::{run_wired, NodeIo, Wired};
use cx_types::ClusterConfig;
use cx_workloads::StreamTrace;
use std::time::Instant;

/// Result of a threaded run: what [`run_wired`] builds for either carrier
/// (its wire fields stay zero and empty on channels).
pub type ThreadedRunResult = TcpRunResult;

/// The multi-threaded cluster.
pub struct ThreadedCluster;

impl ThreadedCluster {
    /// Run `st` on real threads; returns aggregated stats and the
    /// consistency check result. Clients pull their next op from a shared
    /// [`crate::OpFeed`] over the workload stream, so memory stays flat
    /// regardless of trace length.
    pub fn run_stream(cfg: ClusterConfig, st: StreamTrace) -> ThreadedRunResult {
        Self::run_stream_obs(cfg, st, cx_obs::ObsSink::Off)
    }

    /// Like [`ThreadedCluster::run_stream`] with an observability sink
    /// installed into every engine and carried by the client host (the sink
    /// is `Arc<Mutex<…>>`-backed, so one recorder serves them all). Stamps
    /// are nanoseconds of wall clock since the run began.
    pub fn run_stream_obs(
        cfg: ClusterConfig,
        st: StreamTrace,
        obs: cx_obs::ObsSink,
    ) -> ThreadedRunResult {
        Self::run_stream_inner(cfg, st, obs, None)
    }

    /// Like [`ThreadedCluster::run_stream_obs`], additionally publishing
    /// into `live.registry`: the client host bumps its atomic counters as
    /// operations complete, and the run adds the engines' protocol series
    /// and its other end-of-run totals when it ends. Read the result with
    /// `registry.snapshot()` (Prometheus text, or JSON for `cx-obs top`).
    pub fn run_stream_live(
        cfg: ClusterConfig,
        st: StreamTrace,
        obs: cx_obs::ObsSink,
        live: LiveMetrics,
    ) -> ThreadedRunResult {
        Self::run_stream_inner(cfg, st, obs, Some(live))
    }

    fn run_stream_inner(
        cfg: ClusterConfig,
        st: StreamTrace,
        obs: cx_obs::ObsSink,
        live: Option<LiveMetrics>,
    ) -> ThreadedRunResult {
        let epoch = Instant::now();
        let opts = TcpOptions {
            obs,
            live,
            ..TcpOptions::default()
        };
        let wired = wire_channels(cfg.servers, epoch);
        run_wired(cfg, st, opts, wired)
    }
}

/// `servers` server nodes and the client host on one channel fabric.
pub(crate) fn wire_channels(servers: u32, epoch: Instant) -> Wired {
    let mut nodes: Vec<NodeIo> = channel_fabric(servers, epoch)
        .into_iter()
        .map(|(net, inbound)| NodeIo { net, inbound })
        .collect();
    let host = nodes.pop().expect("the fabric ends with the client host");
    Wired {
        host,
        servers: nodes,
        faults: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{BatchTrigger, Protocol};
    use cx_workloads::{Metarates, MetaratesMix, TraceBuilder, TraceProfile};

    fn fast_cfg(servers: u32, protocol: Protocol) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(servers, protocol);
        // wall-clock triggers must be short in tests
        cfg.cx.trigger = BatchTrigger::Timeout {
            period_ns: 5_000_000, // 5 ms
        };
        cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
        cfg
    }

    #[test]
    fn threaded_trace_replay_is_consistent() {
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap()).scale(0.001);
        for protocol in [Protocol::Cx, Protocol::Se, Protocol::SeBatched] {
            let st = trace.clone().stream();
            let expected = st.total_ops_hint;
            let res = ThreadedCluster::run_stream(fast_cfg(4, protocol), st);
            assert_eq!(res.violations, vec![], "{protocol:?}");
            assert_eq!(res.stats.ops_total, expected, "{protocol:?}");
        }
    }

    #[test]
    fn threaded_metarates_under_contention() {
        let trace = Metarates::new(MetaratesMix::UpdateDominated, 8)
            .seed_files(64)
            .ops_per_proc(50)
            .stream();
        let res = ThreadedCluster::run_stream(fast_cfg(2, Protocol::Cx), trace);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, 8 * 50);
        // real concurrency must still commit everything
        assert!(res.stats.server_stats.ops_committed > 0);
    }

    #[test]
    fn threaded_twopc_and_ce_complete() {
        let trace = TraceBuilder::new(TraceProfile::by_name("home2").unwrap()).scale(0.0002);
        for protocol in [Protocol::TwoPc, Protocol::Ce] {
            let st = trace.clone().stream();
            let expected = st.total_ops_hint;
            let res = ThreadedCluster::run_stream(fast_cfg(4, protocol), st);
            assert_eq!(res.violations, vec![], "{protocol:?}");
            assert_eq!(res.stats.ops_total, expected, "{protocol:?}");
        }
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use cx_types::{BatchTrigger, Protocol};
    use cx_workloads::{TraceBuilder, TraceProfile};

    /// Heavier concurrency: a conflict-rich slice with short wall-clock
    /// triggers, checking that invalidations/immediate commitments under
    /// true parallelism still converge to a consistent namespace.
    #[test]
    fn threaded_conflict_storm_converges() {
        let trace = TraceBuilder::new(TraceProfile::by_name("deasna2").unwrap())
            .scale(0.0006)
            .tweak(|p| p.shared_access_prob = 0.3)
            .stream();
        let expected = trace.total_ops_hint;
        let mut cfg = ClusterConfig::new(4, Protocol::Cx);
        cfg.cx.trigger = BatchTrigger::Timeout {
            period_ns: 3_000_000, // 3 ms wall clock
        };
        cfg.cx.hint_mismatch_timeout_ns = 15_000_000;
        cfg.cx.presumed_abort_timeout_ns = 30_000_000;
        let res = ThreadedCluster::run_stream(cfg, trace);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, expected);
        assert!(
            res.stats.server_stats.conflicts > 0,
            "the storm must actually produce conflicts"
        );
    }

    /// The same engines under failure injection and real threads.
    #[test]
    fn threaded_failure_injection_stays_atomic() {
        let trace = TraceBuilder::new(TraceProfile::by_name("s3d").unwrap())
            .scale(0.0008)
            .stream();
        let expected = trace.total_ops_hint;
        let mut cfg = ClusterConfig::new(4, Protocol::Cx);
        cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: 16 };
        cfg.failure.subop_fail_prob = 0.03;
        let res = ThreadedCluster::run_stream(cfg, trace);
        assert_eq!(res.violations, vec![]);
        assert!(res.stats.ops_failed > 0, "injected failures surface");
        assert_eq!(res.stats.ops_total, expected);
    }
}
