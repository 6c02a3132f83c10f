//! The correctness oracle for fault-injected runs.
//!
//! Two client-visible guarantees are checked against the sequential model
//! of the namespace (`cx_workloads::NamespaceModel`) replayed from the ack
//! stream in ack order:
//!
//! * **Durability** — every operation acked `Applied` survives any later
//!   crash + recovery: its entry/inode must exist in the merged view.
//! * **No partial state** — objects no acked-applied operation created
//!   must not exist (an aborted or never-acked operation left debris).
//!
//! Objects touched by in-flight (issued-but-unacked) operations are
//! *tainted* and exempt — the cluster may legitimately hold their state
//! half-built. Outside quiescence, acked-`Failed` operations taint too
//! (their abort may still be traveling). The whole-namespace atomicity
//! invariants (dangling entries, orphan inodes, nlink counts) are checked
//! separately by `GlobalView::check` once the run quiesces.

use cx_cluster::ClusterSnapshot;
use cx_mdstore::GlobalView;
use cx_types::{FsOp, InodeNo, Name, OpId, OpOutcome};
use cx_workloads::NamespaceModel;
use std::collections::BTreeSet;

/// The entry and inode a mutation touches (for tainting).
fn objects(op: &FsOp) -> Option<((InodeNo, Name), InodeNo)> {
    match *op {
        FsOp::Create { parent, name, ino }
        | FsOp::Mkdir { parent, name, ino }
        | FsOp::Remove { parent, name, ino }
        | FsOp::Rmdir { parent, name, ino }
        | FsOp::Link {
            parent,
            name,
            target: ino,
        }
        | FsOp::Unlink {
            parent,
            name,
            target: ino,
        } => Some(((parent, name), ino)),
        _ => None,
    }
}

/// Run the durability + partial-state checks against a cluster snapshot.
/// `strict` says the cluster is quiesced, so even acked-`Failed`
/// operations must have left zero state behind.
pub fn check_snapshot(
    base: &NamespaceModel,
    snap: &ClusterSnapshot<'_>,
    strict: bool,
) -> Vec<String> {
    let mut model = base.clone();
    let (mut tainted_dentries, mut tainted_inodes) = (BTreeSet::new(), BTreeSet::new());
    let mut taint = |op: &FsOp| {
        if let Some((dentry, ino)) = objects(op) {
            tainted_dentries.insert(dentry);
            tainted_inodes.insert(ino);
        }
    };

    let acked: BTreeSet<OpId> = snap.acks.iter().map(|a| a.op).collect();
    for (id, op) in snap.issued {
        if op.is_mutation() && !acked.contains(id) {
            taint(op);
        }
    }
    for ack in snap.acks {
        if !ack.fs_op.is_mutation() {
            continue;
        }
        match ack.outcome {
            OpOutcome::Applied => {
                if model.apply(&ack.fs_op).is_err() {
                    // The ack order disagrees with some serialization the
                    // cluster chose; don't judge these objects.
                    taint(&ack.fs_op);
                }
            }
            OpOutcome::Failed => {
                if !strict {
                    taint(&ack.fs_op);
                }
            }
        }
    }

    let view = GlobalView::merge(snap.stores.iter().copied());
    let mut out = Vec::new();

    for ((parent, name), child) in model.dentries() {
        if tainted_dentries.contains(&(parent, name)) {
            continue;
        }
        match view.dentry(parent, name) {
            None => out.push(format!(
                "durability: acked entry {}/{:x} -> {} lost",
                parent.0, name.0, child.0
            )),
            Some(got) if got != child && !tainted_inodes.contains(&child) => out.push(format!(
                "divergence: entry {}/{:x} -> {} but the acked history says {}",
                parent.0, name.0, got.0, child.0
            )),
            Some(_) => {}
        }
    }
    for (parent, name, child) in view.dentries() {
        if tainted_dentries.contains(&(parent, name)) {
            continue;
        }
        if model.dentry(parent, name).is_none() {
            out.push(format!(
                "partial-state: entry {}/{:x} -> {} exists but no acked op created it",
                parent.0, name.0, child.0
            ));
        }
    }
    for (ino, (kind, nlink)) in model.inodes() {
        if tainted_inodes.contains(&ino) {
            continue;
        }
        match view.inode(ino) {
            None => out.push(format!("durability: acked inode {} lost", ino.0)),
            Some((k, _)) if k != kind => out.push(format!(
                "divergence: inode {} is {:?}, acked history says {:?}",
                ino.0, k, kind
            )),
            Some((_, n)) if n != nlink => out.push(format!(
                "divergence: inode {} has nlink {}, acked history says {}",
                ino.0, n, nlink
            )),
            Some(_) => {}
        }
    }
    for (ino, _, _) in view.inodes() {
        if !tainted_inodes.contains(&ino) && model.inode(ino).is_none() {
            out.push(format!(
                "partial-state: inode {} exists but was never acked",
                ino.0
            ));
        }
    }
    out
}
