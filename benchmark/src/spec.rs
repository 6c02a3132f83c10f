//! The benchmark's fixed vocabulary: the workloads and every metric name
//! with its unit. `BENCHMARK.json` at the repo root lists the workloads
//! whose end-to-end metrics are held to bounds — the two DES rows; on a
//! shared two-core host the wall-clock rows' own clock spreads by half its
//! median between runs — and repeats the metric names; `tests/smoke.rs`
//! fails when the two drift apart.

use cx_core::{
    BatchTrigger, ClusterConfig, Metarates, MetaratesMix, Protocol, StreamTrace, TraceBuilder,
    TraceProfile,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Deterministic discrete-event simulation (`DesCluster`).
    Des,
    /// Loopback sockets through `cx-net` (`TcpCluster`).
    Tcp,
    /// Channels instead of sockets (`ThreadedCluster`).
    Threaded,
}

#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// The home2 NFS trace profile's op mix (read-dominated), at this scale
    /// of its 2,720,599 ops; 96 closed-loop processes, each reading only
    /// files of its own (`shared_access_prob` 0). The profile's reads of
    /// other processes' fresh files race with their creation when the
    /// processes run concurrently, and about 1.3% of ops are then answered
    /// "no such file"; the benchmark runs inputs on which every op applies.
    Home2 { scale: f64 },
    /// Metarates update-dominated (80% create/remove in one shared
    /// directory, 20% stat), this many ops per process.
    Update { ops_per_proc: u32 },
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub runtime: Runtime,
    pub servers: u32,
    /// `(clients, procs_per_client)` override; `None` keeps the paper's
    /// 4 clients per server × 8 processes.
    pub procs: Option<(u32, u32)>,
    pub input: Input,
}

/// One rep of every workload is sized to about a second on a quiet 2-core
/// box, so a 30-second run holds two dozen reps, half that on a busy host.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "des-home2",
        runtime: Runtime::Des,
        servers: 8,
        procs: None,
        input: Input::Home2 { scale: 0.32 },
    },
    WorkloadSpec {
        name: "des-update",
        runtime: Runtime::Des,
        servers: 8,
        procs: None,
        input: Input::Update {
            ops_per_proc: 1_280,
        },
    },
    WorkloadSpec {
        name: "des-lowload",
        runtime: Runtime::Des,
        servers: 8,
        procs: Some((1, 1)),
        input: Input::Update {
            ops_per_proc: 300_000,
        },
    },
    WorkloadSpec {
        name: "tcp-home2",
        runtime: Runtime::Tcp,
        servers: 4,
        procs: None,
        input: Input::Home2 { scale: 0.05 },
    },
    WorkloadSpec {
        name: "tcp-update",
        runtime: Runtime::Tcp,
        servers: 4,
        procs: None,
        input: Input::Update { ops_per_proc: 900 },
    },
    WorkloadSpec {
        name: "tcp-lowload",
        runtime: Runtime::Tcp,
        servers: 4,
        procs: Some((1, 1)),
        input: Input::Update {
            ops_per_proc: 7_000,
        },
    },
    WorkloadSpec {
        name: "threaded-update",
        runtime: Runtime::Threaded,
        servers: 4,
        procs: None,
        input: Input::Update { ops_per_proc: 500 },
    },
];

/// Seed of the cluster itself (failure injection, engine rngs); `--seed`
/// drives only the generated input.
pub const CLUSTER_SEED: u64 = 42;

impl WorkloadSpec {
    /// `quick` shrinks the input to a twentieth (the smoke test's size).
    pub fn input(&self, quick: bool) -> Input {
        let div = if quick { 20.0 } else { 1.0 };
        match self.input {
            Input::Home2 { scale } => Input::Home2 { scale: scale / div },
            Input::Update { ops_per_proc } => Input::Update {
                ops_per_proc: ((ops_per_proc as f64 / div) as u32).max(8),
            },
        }
    }

    pub fn cfg(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(self.servers, Protocol::Cx);
        cfg.seed = CLUSTER_SEED;
        if let Some((clients, procs_per_client)) = self.procs {
            cfg.clients = clients;
            cfg.procs_per_client = procs_per_client;
        }
        if self.runtime == Runtime::Des {
            // Under the default 10 s trigger an update-heavy run commits
            // only when the 1 MB log fills, and a local mutation that meets
            // the full log is applied, parked and applied again: the client
            // is told "entry exists" for a create that took effect (2 of
            // 163,840 ops at 256 procs × 640). A 20 ms (virtual) trigger keeps
            // the log under a fifth of its limit, so every op applies.
            cfg.cx.trigger = BatchTrigger::Timeout {
                period_ns: 20_000_000,
            };
        } else {
            // Ten *virtual* seconds would be served as a real stall by a
            // wall-clock runtime. Same values `perf_baseline` and the
            // runtime tests use.
            cfg.cx.trigger = BatchTrigger::Timeout {
                period_ns: 5_000_000,
            };
            cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
        }
        cfg
    }

    /// The workload's op stream for `seed`. home2 generates lazily as
    /// clients pull; Metarates materialises inside `stream()` (its ranks
    /// draw sequentially), which lands in set-up time.
    pub fn stream(&self, cfg: &ClusterConfig, seed: u64, quick: bool) -> StreamTrace {
        match self.input(quick) {
            Input::Home2 { scale } => {
                let profile = TraceProfile::by_name("home2").expect("home2 is a Table II profile");
                TraceBuilder::new(profile)
                    .tweak(|p| p.shared_access_prob = 0.0)
                    .scale(scale)
                    .seed(seed)
                    .stream()
            }
            Input::Update { ops_per_proc } => {
                let mut m = Metarates::new(MetaratesMix::UpdateDominated, cfg.total_processes())
                    .seed_files(4_000 * cfg.servers)
                    .ops_per_proc(ops_per_proc);
                m.seed = seed;
                m.stream()
            }
        }
    }
}

/// End-to-end metrics, printed with `--trace 0`: set-up time and memory of
/// the host process, and what a client of the cluster sees on the
/// cluster's own clock — virtual time on the DES rows, where the values are
/// exact per seed; wall time on the ungated rows, which record no
/// cross-server latency untraced and leave `cross_lat_p50_us` out.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cluster_ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("cross_lat_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// a workload does not cross reads 0 for its counts.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("host.ops_per_s", "1/s"),
    ("workloads.gen_ns_per_op", "ns"),
    ("types.placement_plan_ns", "ns"),
    ("sim.schedule_pop_ns", "ns"),
    ("sim.timerqueue_push_pop_ns", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_s", "1/s"),
    ("simio.log_submit_ns", "ns"),
    ("simio.writeback_ns_per_page", "ns"),
    ("simio.appends_per_flush", "count"),
    ("simio.pages_per_run", "count"),
    ("wal.append_ns", "ns"),
    ("wal.prune_ns", "ns"),
    ("wal.encode_decode_ns", "ns"),
    ("wal.appends_per_op", "count"),
    ("wal.bytes_per_op", "count"),
    ("mdstore.apply_ns", "ns"),
    ("mdstore.undo_ns", "ns"),
    ("mdstore.lookup_ns", "ns"),
    ("mdstore.take_dirty_ns_per_page", "ns"),
    ("mdstore.applies_per_op", "count"),
    ("mdstore.reads_per_op", "count"),
    ("protocol.engine_ns_per_create.cx", "ns"),
    ("protocol.engine_ns_per_create.se", "ns"),
    ("protocol.engine_ns_per_create.twopc", "ns"),
    ("protocol.engine_ns_per_read", "ns"),
    ("protocol.msgs_per_op", "count"),
    ("protocol.batch_size_p50", "count"),
    ("protocol.immediate_commit_share", "ratio"),
    ("protocol.conflict_share", "ratio"),
    ("protocol.failed_share", "ratio"),
    ("net.wire.encode_ns_per_frame", "ns"),
    ("net.wire.decode_ns_per_frame", "ns"),
    ("net.wire.bytes_per_frame", "count"),
    ("net.conn.pingpong_rtt_p50_ns", "ns"),
    ("net.conn.stream_ns_per_frame", "ns"),
    ("net.conn.frames_per_op", "count"),
    ("net.conn.bytes_per_op", "count"),
    ("net.conn.frames_per_flush", "count"),
    ("net.conn.flush_latency_p50_ns", "ns"),
    ("net.conn.queue_depth_p99", "count"),
    ("net.conn.stall_ns_per_op", "ns"),
    ("chan.handoff_rtt_p50_ns", "ns"),
    ("obs.stamp_ns_per_op", "ns"),
    ("obs.registry_observe_ns", "ns"),
    ("obs.hist_record_ns", "ns"),
    ("obs.span_on_ratio", "ratio"),
    ("cluster.cpu_ns_per_op", "ns"),
    ("cluster.lat_p999_us", "us"),
    ("cluster.drain_s", "s"),
    ("cluster.accounted_share", "ratio"),
    ("trace.issue_queue_p50_us", "us"),
    ("trace.dispatch_p50_us", "us"),
    ("trace.req_wire_p50_us", "us"),
    ("trace.execute_p50_us", "us"),
    ("trace.commit_on_path_p50_us", "us"),
    ("trace.reply_wire_p50_us", "us"),
    ("trace.reply_deliver_p50_us", "us"),
    ("trace.vote_launch_p50_us", "us"),
    ("trace.vote_round_p50_us", "us"),
    ("trace.decision_round_p50_us", "us"),
    ("trace.cross_lat_p50_us", "us"),
    ("trace.client_sum_ratio", "ratio"),
];
