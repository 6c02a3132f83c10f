//! Configuration for clusters, devices and protocols.
//!
//! Defaults reflect the paper's testbed (§IV-B): dual quad-core 2.83 GHz
//! Xeons, 10 GigE through Catalyst-3750 switches, one 7200 rpm SATA disk per
//! metadata server with the database on ext3, a 1 MB log per server, and a
//! 10-second timeout trigger for lazy commitments.

use crate::time::{DUR_MS, DUR_SEC, DUR_US};
use serde::{Deserialize, Serialize};

/// Which cross-server protocol a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// The paper's contribution: concurrent execution, lazy batched
    /// commitment, conflict hints.
    Cx,
    /// OrangeFS/PVFS2 serial execution with synchronous database writes
    /// ("OFS" in the evaluation).
    Se,
    /// Serial execution with logged sub-ops and batched database
    /// write-back ("OFS-batched").
    SeBatched,
    /// Classic two-phase commit (Slice, IFS, Farsite, DCFS).
    TwoPc,
    /// Central execution by object migration (Ursa Minor).
    Ce,
}

impl Protocol {
    pub const ALL: [Protocol; 5] = [
        Protocol::Cx,
        Protocol::Se,
        Protocol::SeBatched,
        Protocol::TwoPc,
        Protocol::Ce,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Cx => "OFS-Cx",
            Protocol::Se => "OFS",
            Protocol::SeBatched => "OFS-batched",
            Protocol::TwoPc => "2PC",
            Protocol::Ce => "CE",
        }
    }
}

/// Network model: per-message one-way latency plus size/bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Fixed one-way latency (switching + protocol stack), ns.
    pub one_way_ns: u64,
    /// Link bandwidth in bytes/second (10 GigE).
    pub bandwidth_bps: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            one_way_ns: 60 * DUR_US,
            bandwidth_bps: 1_250_000_000,
        }
    }
}

/// Disk model for one 7200 rpm SATA drive holding both the operation log
/// (a log-structured file, §IV-A) and the metadata database.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskConfig {
    /// Overhead of one synchronous log flush (group commit covers every
    /// append queued while the previous flush was in flight).
    pub log_flush_ns: u64,
    /// Sequential bandwidth, bytes/second.
    pub seq_bw_bps: u64,
    /// Per-flush overhead of a synchronous database commit (ext3 journal
    /// commit: rotational wait + journal descriptor blocks). Concurrent
    /// sync writes group-commit into one flush, as ext3 does.
    pub db_sync_write_ns: u64,
    /// Additional cost per sync write within a group commit: the in-place
    /// B-tree page write the database must force alongside the journal.
    pub db_sync_per_write_ns: u64,
    /// Seek from the log region into the database region, paid once per
    /// write-back batch.
    pub wb_batch_seek_ns: u64,
    /// Seek between non-adjacent key runs within a write-back batch.
    pub wb_run_seek_ns: u64,
    /// Keys within this distance merge into one run ("possibility of
    /// merging disk requests in kernel's IO scheduler", §IV-C1).
    pub merge_gap: u64,
    /// Cold-cache read of one database row (recovery re-reads the rows of
    /// every half-completed operation: a dependent B-tree point lookup —
    /// seek + rotation + inner-node reads — that cannot be merged).
    pub cold_read_run_ns: u64,
    /// Group commit for log appends and sync writes (ablation knob:
    /// disabling it makes every append pay a full flush).
    pub group_commit: bool,
}

impl Default for DiskConfig {
    fn default() -> Self {
        Self {
            log_flush_ns: 1_400 * DUR_US,
            seq_bw_bps: 100_000_000,
            db_sync_write_ns: 1_600 * DUR_US,
            db_sync_per_write_ns: 260 * DUR_US,
            wb_batch_seek_ns: 1_200 * DUR_US,
            wb_run_seek_ns: 700 * DUR_US,
            merge_gap: 16,
            cold_read_run_ns: 1_300 * DUR_US,
            group_commit: true,
        }
    }
}

/// CPU costs of the metadata server's request path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerCpuConfig {
    /// Handling one incoming or outgoing message.
    pub per_msg_ns: u64,
    /// Executing one sub-operation against the in-memory store.
    pub per_subop_ns: u64,
    /// Serving one cached read (stat/lookup/readdir).
    pub per_read_ns: u64,
}

impl Default for ServerCpuConfig {
    fn default() -> Self {
        Self {
            per_msg_ns: 15 * DUR_US,
            per_subop_ns: 25 * DUR_US,
            per_read_ns: 20 * DUR_US,
        }
    }
}

/// When the permitted lazy commitments are batched and launched (§IV-A,
/// "Batched commitments").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatchTrigger {
    /// Fires when this much time has elapsed since the last commitment.
    Timeout { period_ns: u64 },
    /// Fires when this many operations are pending since the last
    /// commitment.
    Threshold { pending_ops: u64 },
    /// Extension (the paper's future work): fires when the server has been
    /// idle for `idle_ns`. No timeout backs it up: a server that is never
    /// idle commits under log pressure.
    Idle { idle_ns: u64 },
    /// Never fires: commitments happen only on conflicts, log pressure or
    /// disagreement. Used to find the optimum in Figure 9(a).
    Never,
}

impl Default for BatchTrigger {
    fn default() -> Self {
        // "we ... employed the timeout trigger ... with a timeout value of
        // 10 seconds" (§IV-B)
        BatchTrigger::Timeout {
            period_ns: 10 * DUR_SEC,
        }
    }
}

/// Cx-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CxConfig {
    pub trigger: BatchTrigger,
    /// Upper limit of the log size per server; `None` = unlimited
    /// (sensitivity study, Figure 7). Default 1 MB (§IV-B).
    pub log_limit_bytes: Option<u64>,
    /// Largest number of operations in one batched commitment message.
    pub commit_batch_max: usize,
    /// How long a client waits on mismatched conflict hints before forcing
    /// an immediate commitment (DESIGN.md §5.8).
    pub hint_mismatch_timeout_ns: u64,
    /// Grace period before a coordinator presumes an operation it has no
    /// record of (but whose commitment a participant requested) was
    /// orphaned by a dead client and aborts it.
    pub presumed_abort_timeout_ns: u64,
    /// Store log records as rows in the database instead of the
    /// log-structured file — the alternative the paper considered and
    /// rejected ("Log records can be stored in the BDB or can be organized
    /// as a log-structured file. We choose the latter approach to exploit
    /// more disk bandwidth", §IV-A). Kept as an ablation knob.
    pub log_in_database: bool,
    /// Re-drive an unfinished commitment batch (re-send VOTE or
    /// COMMIT-REQ) after this long without progress. `None` — the paper's
    /// behavior — never retransmits: fine when servers don't fail, but a
    /// participant that crashed with the VOTE in flight would wedge the
    /// batch forever. The chaos harness turns this on.
    pub commit_retry_timeout_ns: Option<u64>,
    /// Deliberately broken recovery: skip resuming half-completed
    /// commitments after the log scan (the §III-D resumption step). Exists
    /// so the chaos oracle can prove it catches real atomicity and
    /// durability violations; never enable outside that self-test.
    pub unsafe_skip_recovery_resume: bool,
}

impl Default for CxConfig {
    fn default() -> Self {
        Self {
            trigger: BatchTrigger::default(),
            log_limit_bytes: Some(1 << 20),
            commit_batch_max: 4096,
            hint_mismatch_timeout_ns: 50 * DUR_MS,
            presumed_abort_timeout_ns: 200 * DUR_MS,
            log_in_database: false,
            commit_retry_timeout_ns: None,
            unsafe_skip_recovery_resume: false,
        }
    }
}

/// Fault injection for tests and the disagreement paths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureInjection {
    /// Probability that a sub-op execution fails (votes "NO") even though
    /// it is semantically valid. Drives the disagreement path.
    pub subop_fail_prob: f64,
}

impl Default for FailureInjection {
    fn default() -> Self {
        Self {
            subop_fail_prob: 0.0,
        }
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    pub servers: u32,
    /// "the number of load-generating clients is four times of that of
    /// servers" (§IV-B).
    pub clients: u32,
    /// "our configuration uses 8 processes per client" (§IV-C2).
    pub procs_per_client: u32,
    pub protocol: Protocol,
    pub net: NetConfig,
    pub disk: DiskConfig,
    pub cpu: ServerCpuConfig,
    pub cx: CxConfig,
    pub failure: FailureInjection,
    pub seed: u64,
}

impl ClusterConfig {
    pub fn new(servers: u32, protocol: Protocol) -> Self {
        Self {
            servers,
            clients: servers * 4,
            procs_per_client: 8,
            protocol,
            net: NetConfig::default(),
            disk: DiskConfig::default(),
            cpu: ServerCpuConfig::default(),
            cx: CxConfig::default(),
            failure: FailureInjection::default(),
            seed: 0xC0FFEE,
        }
    }

    pub fn total_processes(&self) -> u32 {
        self.clients * self.procs_per_client
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::new(8, Protocol::Cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ClusterConfig::default();
        assert_eq!(c.servers, 8);
        assert_eq!(c.clients, 32, "4 clients per server");
        assert_eq!(c.procs_per_client, 8);
        assert_eq!(c.total_processes(), 256);
        assert_eq!(c.cx.log_limit_bytes, Some(1 << 20), "1 MB log");
        match c.cx.trigger {
            BatchTrigger::Timeout { period_ns } => assert_eq!(period_ns, 10 * DUR_SEC),
            other => panic!("default trigger must be 10 s timeout, got {other:?}"),
        }
    }

    #[test]
    fn protocol_names_match_the_paper() {
        assert_eq!(Protocol::Cx.name(), "OFS-Cx");
        assert_eq!(Protocol::Se.name(), "OFS");
        assert_eq!(Protocol::SeBatched.name(), "OFS-batched");
    }

    #[test]
    fn config_serializes() {
        let c = ClusterConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let base = ClusterConfig::default();
        let seeded = base.clone().with_seed(42);
        assert_eq!(seeded.seed, 42);
        assert_eq!(seeded.servers, base.servers);
    }
}
