//! Trace analysis: the summary statistics the paper reports about its
//! workloads (total operations, per-class mix, cross-server share,
//! sharing structure) folded op by op over a generated [`StreamTrace`].

use crate::stream::StreamTrace;
use crate::trace::{TraceOp, SHARED_DIR};
use cx_types::{FsOp, Placement};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Summary of one trace.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub name: String,
    pub total_ops: u64,
    pub processes: u32,
    /// Operations per class, normalized.
    pub class_shares: BTreeMap<&'static str, f64>,
    /// Fraction of operations that are Table I mutations.
    pub mutation_share: f64,
    /// Fraction of operations that become cross-server at `servers`.
    pub cross_server_share: f64,
    /// Fraction of mutations that target the common (shared) directory.
    pub shared_mutation_share: f64,
    /// Distinct files touched.
    pub distinct_files: u64,
    /// Fraction of files accessed by more than one process.
    pub multi_process_files: f64,
    /// Largest per-process share of the operations (load skew probe).
    pub max_process_share: f64,
}

/// Streaming accumulator behind [`TraceSummary::analyze`]: one pass, one
/// op at a time, so full traces never need materializing.
struct SummaryAcc {
    placement: Placement,
    class_counts: BTreeMap<&'static str, u64>,
    total: u64,
    mutations: u64,
    cross: u64,
    shared_mutations: u64,
    per_proc: HashMap<u32, u64>,
    file_users: HashMap<u64, HashSet<u32>>,
}

impl SummaryAcc {
    fn new(servers: u32) -> Self {
        Self {
            placement: Placement::new(servers),
            class_counts: BTreeMap::new(),
            total: 0,
            mutations: 0,
            cross: 0,
            shared_mutations: 0,
            per_proc: HashMap::new(),
            file_users: HashMap::new(),
        }
    }

    fn push(&mut self, t: &TraceOp) {
        self.total += 1;
        *self.class_counts.entry(t.op.class().name()).or_insert(0) += 1;
        *self.per_proc.entry(t.proc.client.0).or_insert(0) += 1;
        if t.op.is_mutation() {
            self.mutations += 1;
            if self.placement.plan(t.op).is_cross_server() {
                self.cross += 1;
            }
        }
        let (target, parent) = target_of(&t.op);
        if let Some(ino) = target {
            self.file_users
                .entry(ino)
                .or_default()
                .insert(t.proc.client.0);
        }
        if t.op.is_mutation() && parent == Some(SHARED_DIR.0) {
            self.shared_mutations += 1;
        }
    }

    fn finish(self, name: String, processes: u32) -> TraceSummary {
        let total = self.total;
        let multi = self.file_users.values().filter(|u| u.len() > 1).count() as f64;
        TraceSummary {
            name,
            total_ops: total,
            processes,
            class_shares: self
                .class_counts
                .into_iter()
                .map(|(c, n)| (c, n as f64 / total as f64))
                .collect(),
            mutation_share: self.mutations as f64 / total as f64,
            cross_server_share: self.cross as f64 / total as f64,
            shared_mutation_share: if self.mutations == 0 {
                0.0
            } else {
                self.shared_mutations as f64 / self.mutations as f64
            },
            distinct_files: self.file_users.len() as u64,
            multi_process_files: if self.file_users.is_empty() {
                0.0
            } else {
                multi / self.file_users.len() as f64
            },
            max_process_share: self
                .per_proc
                .values()
                .map(|n| *n as f64 / total as f64)
                .fold(0.0, f64::max),
        }
    }
}

impl TraceSummary {
    /// Analyze `trace` as placed on `servers` metadata servers, draining
    /// its stream.
    pub fn analyze(mut trace: StreamTrace, servers: u32) -> TraceSummary {
        let mut acc = SummaryAcc::new(servers);
        while let Some(t) = trace.ops.next_op() {
            acc.push(&t);
        }
        acc.finish(trace.name, trace.processes)
    }
}

/// The file inode an operation targets, and the parent directory it
/// mutates (if any).
fn target_of(op: &FsOp) -> (Option<u64>, Option<u64>) {
    match *op {
        FsOp::Create { parent, ino, .. }
        | FsOp::Remove { parent, ino, .. }
        | FsOp::Mkdir { parent, ino, .. }
        | FsOp::Rmdir { parent, ino, .. } => (Some(ino.0), Some(parent.0)),
        FsOp::Link { parent, target, .. } | FsOp::Unlink { parent, target, .. } => {
            (Some(target.0), Some(parent.0))
        }
        FsOp::Stat { ino }
        | FsOp::Getattr { ino }
        | FsOp::Access { ino }
        | FsOp::Setattr { ino } => (Some(ino.0), None),
        FsOp::Lookup { .. } | FsOp::Readdir { .. } => (None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;
    use crate::trace::TraceBuilder;
    use cx_types::OpClass;

    fn summary(name: &str) -> TraceSummary {
        let trace = TraceBuilder::new(TraceProfile::by_name(name).unwrap())
            .scale(0.01)
            .stream();
        TraceSummary::analyze(trace, 8)
    }

    #[test]
    fn cross_server_shares_match_the_paper_text() {
        // "about 35% of metadata requests are cross-server operations" on
        // CTH; "about 48%" on s3d (§IV-C1), at 8 servers.
        let cth = summary("CTH");
        assert!(
            (0.30..=0.40).contains(&cth.cross_server_share),
            "CTH cross share {}",
            cth.cross_server_share
        );
        let s3d = summary("s3d");
        assert!(
            (0.43..=0.53).contains(&s3d.cross_server_share),
            "s3d cross share {}",
            s3d.cross_server_share
        );
    }

    #[test]
    fn class_shares_sum_to_one() {
        let s = summary("home2");
        let total: f64 = s.class_shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(
            s.class_shares[OpClass::Lookup.name()] > 0.2,
            "NFS is lookup-heavy"
        );
    }

    #[test]
    fn exclusive_access_dominates() {
        // §II-C: "a state file is normally exclusively accessed by the
        // process which created it" — most files have one user.
        for name in ["CTH", "home2"] {
            let s = summary(name);
            assert!(
                s.multi_process_files < 0.2,
                "{name}: {:.3} of files are shared",
                s.multi_process_files
            );
        }
    }

    #[test]
    fn load_is_spread_over_processes() {
        let s = summary("deasna2");
        assert!(s.processes >= 64);
        assert!(
            s.max_process_share < 4.0 / s.processes as f64,
            "no process dominates the trace"
        );
    }

    #[test]
    fn checkpointing_mutates_the_shared_directory() {
        let cth = summary("CTH");
        let home2 = summary("home2");
        assert!(
            cth.shared_mutation_share > home2.shared_mutation_share,
            "checkpointing concentrates creates in the common directory"
        );
    }
}
