//! The correctness oracle for fault-injected runs.
//!
//! Two client-visible guarantees are checked against a model filesystem
//! replayed from the ack stream:
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
use cx_types::{FileKind, FsOp, InodeNo, Name, OpId, OpOutcome};
use cx_workloads::SeedEntry;
use std::collections::{BTreeMap, BTreeSet};

/// A sequential model of the namespace: what the cluster *should* hold
/// given the acked operations, replayed in ack order.
#[derive(Debug, Clone, Default)]
pub struct ModelFs {
    dentries: BTreeMap<(InodeNo, Name), InodeNo>,
    inodes: BTreeMap<InodeNo, (FileKind, u32)>,
}

impl ModelFs {
    /// The pre-run state: the workload's seed directories and files.
    pub fn from_seed_entries(seeds: &[SeedEntry]) -> Self {
        let mut m = ModelFs::default();
        for seed in seeds {
            match *seed {
                SeedEntry::Dir { ino } => {
                    m.inodes.insert(ino, (FileKind::Directory, 1));
                }
                SeedEntry::File { parent, name, ino } => {
                    m.dentries.insert((parent, name), ino);
                    m.inodes.insert(ino, (FileKind::Regular, 1));
                }
            }
        }
        m
    }

    pub fn dentry(&self, parent: InodeNo, name: Name) -> Option<InodeNo> {
        self.dentries.get(&(parent, name)).copied()
    }

    pub fn contains_inode(&self, ino: InodeNo) -> bool {
        self.inodes.contains_key(&ino)
    }

    /// Apply one mutation, mirroring the stores' semantics. An `Err` means
    /// the operation could not have applied cleanly on this model state —
    /// the caller taints its objects instead of judging them.
    pub fn apply(&mut self, op: &FsOp) -> Result<(), &'static str> {
        match *op {
            FsOp::Create { parent, name, ino } => self.insert(parent, name, ino, FileKind::Regular),
            FsOp::Mkdir { parent, name, ino } => {
                self.insert(parent, name, ino, FileKind::Directory)
            }
            FsOp::Remove { parent, name, ino } | FsOp::Rmdir { parent, name, ino } => {
                self.unlink(parent, name, ino)
            }
            FsOp::Link {
                parent,
                name,
                target,
            } => {
                if self.dentries.contains_key(&(parent, name)) {
                    return Err("link: entry exists");
                }
                let Some(inode) = self.inodes.get_mut(&target) else {
                    return Err("link: target missing");
                };
                inode.1 += 1;
                self.dentries.insert((parent, name), target);
                Ok(())
            }
            FsOp::Unlink {
                parent,
                name,
                target,
            } => self.unlink(parent, name, target),
            _ => Ok(()), // reads don't change the namespace
        }
    }

    fn insert(
        &mut self,
        parent: InodeNo,
        name: Name,
        ino: InodeNo,
        kind: FileKind,
    ) -> Result<(), &'static str> {
        if self.dentries.contains_key(&(parent, name)) {
            return Err("create: entry exists");
        }
        if self.inodes.contains_key(&ino) {
            return Err("create: inode exists");
        }
        self.dentries.insert((parent, name), ino);
        self.inodes.insert(ino, (kind, 1));
        Ok(())
    }

    fn unlink(&mut self, parent: InodeNo, name: Name, ino: InodeNo) -> Result<(), &'static str> {
        match self.dentries.get(&(parent, name)) {
            Some(&child) if child == ino => {}
            Some(_) => return Err("remove: entry points elsewhere"),
            None => return Err("remove: entry missing"),
        }
        self.dentries.remove(&(parent, name));
        let Some(inode) = self.inodes.get_mut(&ino) else {
            return Err("remove: inode missing");
        };
        inode.1 = inode.1.saturating_sub(1);
        if inode.1 == 0 {
            self.inodes.remove(&ino);
        }
        Ok(())
    }
}

/// The entry and inode a mutation touches (for tainting).
fn objects(op: &FsOp) -> (Option<(InodeNo, Name)>, Option<InodeNo>) {
    match *op {
        FsOp::Create { parent, name, ino }
        | FsOp::Mkdir { parent, name, ino }
        | FsOp::Remove { parent, name, ino }
        | FsOp::Rmdir { parent, name, ino } => (Some((parent, name)), Some(ino)),
        FsOp::Link {
            parent,
            name,
            target,
        }
        | FsOp::Unlink {
            parent,
            name,
            target,
        } => (Some((parent, name)), Some(target)),
        _ => (None, None),
    }
}

/// Run the durability + partial-state checks against a cluster snapshot.
/// `strict` says the cluster is quiesced, so even acked-`Failed`
/// operations must have left zero state behind.
pub fn check_snapshot(base: &ModelFs, snap: &ClusterSnapshot<'_>, strict: bool) -> Vec<String> {
    let mut model = base.clone();
    let mut tainted_dentries: BTreeSet<(InodeNo, Name)> = BTreeSet::new();
    let mut tainted_inodes: BTreeSet<InodeNo> = BTreeSet::new();
    let taint = |op: &FsOp, td: &mut BTreeSet<(InodeNo, Name)>, ti: &mut BTreeSet<InodeNo>| {
        let (dentry, ino) = objects(op);
        if let Some(d) = dentry {
            td.insert(d);
        }
        if let Some(i) = ino {
            ti.insert(i);
        }
    };

    let acked: BTreeSet<OpId> = snap.acks.iter().map(|a| a.op).collect();
    for (id, op) in snap.issued {
        if op.is_mutation() && !acked.contains(id) {
            taint(op, &mut tainted_dentries, &mut tainted_inodes);
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
                    taint(&ack.fs_op, &mut tainted_dentries, &mut tainted_inodes);
                }
            }
            OpOutcome::Failed => {
                if !strict {
                    taint(&ack.fs_op, &mut tainted_dentries, &mut tainted_inodes);
                }
            }
        }
    }

    let view = GlobalView::merge(snap.stores.iter().copied());
    let mut out = Vec::new();

    for (&(parent, name), &child) in &model.dentries {
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
    for (&ino, &(kind, nlink)) in &model.inodes {
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
        if !tainted_inodes.contains(&ino) && !model.contains_inode(ino) {
            out.push(format!(
                "partial-state: inode {} exists but was never acked",
                ino.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_mirrors_store_semantics() {
        let mut m = ModelFs::default();
        let (root, f, name) = (InodeNo(1), InodeNo(10), Name(7));
        m.inodes.insert(root, (FileKind::Directory, 1));
        m.apply(&FsOp::Create {
            parent: root,
            name,
            ino: f,
        })
        .unwrap();
        assert_eq!(m.dentry(root, name), Some(f));
        assert!(m
            .apply(&FsOp::Create {
                parent: root,
                name,
                ino: InodeNo(11),
            })
            .is_err());
        m.apply(&FsOp::Link {
            parent: root,
            name: Name(8),
            target: f,
        })
        .unwrap();
        assert_eq!(m.inodes[&f].1, 2);
        m.apply(&FsOp::Unlink {
            parent: root,
            name: Name(8),
            target: f,
        })
        .unwrap();
        m.apply(&FsOp::Remove {
            parent: root,
            name,
            ino: f,
        })
        .unwrap();
        assert!(!m.contains_inode(f));
    }
}
