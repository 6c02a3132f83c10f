//! OrangeFS-style namespace placement.
//!
//! "In OFS, to create a new file, a directory entry is assigned to a server
//! based on its name hash value, and the file's metadata object (inode) is
//! randomly created on one server in the cluster" (§IV-A). We make the
//! "random" inode placement a deterministic hash of the inode number so that
//! every component of the system (clients, servers, generators) agrees on
//! placement without coordination.

use crate::ids::{mix64, InodeNo, Name, ServerId};
use crate::op::{FileKind, FsOp};
use crate::subop::{OpPlan, SubOp};

/// Salt distinguishing the inode-placement hash from the dentry hash, so a
/// file's dentry and inode land on independent servers.
const INO_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Number of metadata servers in the cluster.
    pub servers: u32,
}

impl Placement {
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "cluster needs at least one metadata server");
        Self { servers }
    }

    /// Server owning the directory-entry partition for (dir, name).
    pub fn dentry_server(&self, dir: InodeNo, name: Name) -> ServerId {
        ServerId((mix64(dir.0, name.0) % self.servers as u64) as u32)
    }

    /// Server owning an inode.
    pub fn inode_server(&self, ino: InodeNo) -> ServerId {
        ServerId((mix64(ino.0, INO_SALT) % self.servers as u64) as u32)
    }

    /// Split an operation into its per-server sub-operations (Table I) and
    /// decide coordinator/participant.
    pub fn plan(&self, op: FsOp) -> OpPlan {
        match op {
            FsOp::Create { parent, name, ino } => self.mutation(
                op,
                parent,
                name,
                SubOp::InsertEntry {
                    parent,
                    name,
                    child: ino,
                    kind: FileKind::Regular,
                },
                ino,
                SubOp::CreateInode {
                    ino,
                    kind: FileKind::Regular,
                },
            ),
            FsOp::Mkdir { parent, name, ino } => self.mutation(
                op,
                parent,
                name,
                SubOp::InsertEntry {
                    parent,
                    name,
                    child: ino,
                    kind: FileKind::Directory,
                },
                ino,
                SubOp::CreateInode {
                    ino,
                    kind: FileKind::Directory,
                },
            ),
            FsOp::Remove { parent, name, ino } | FsOp::Rmdir { parent, name, ino } => self
                .mutation(
                    op,
                    parent,
                    name,
                    SubOp::RemoveEntry {
                        parent,
                        name,
                        child: ino,
                    },
                    ino,
                    SubOp::ReleaseInode { ino },
                ),
            FsOp::Link {
                parent,
                name,
                target,
            } => self.mutation(
                op,
                parent,
                name,
                SubOp::InsertEntry {
                    parent,
                    name,
                    child: target,
                    kind: FileKind::Regular,
                },
                target,
                SubOp::IncNlink { ino: target },
            ),
            FsOp::Unlink {
                parent,
                name,
                target,
            } => self.mutation(
                op,
                parent,
                name,
                SubOp::RemoveEntry {
                    parent,
                    name,
                    child: target,
                },
                target,
                SubOp::DecNlink { ino: target },
            ),
            FsOp::Stat { ino } | FsOp::Getattr { ino } | FsOp::Access { ino } => {
                self.single(op, self.inode_server(ino), SubOp::ReadInode { ino })
            }
            FsOp::Setattr { ino } => {
                self.single(op, self.inode_server(ino), SubOp::TouchInode { ino })
            }
            FsOp::Lookup { parent, name } => self.single(
                op,
                self.dentry_server(parent, name),
                SubOp::ReadEntry { parent, name },
            ),
            FsOp::Readdir { dir } => {
                self.single(op, self.inode_server(dir), SubOp::ReadDir { dir })
            }
        }
    }

    fn mutation(
        &self,
        op: FsOp,
        parent: InodeNo,
        name: Name,
        coord_subop: SubOp,
        target: InodeNo,
        parti_subop: SubOp,
    ) -> OpPlan {
        let coordinator = self.dentry_server(parent, name);
        let parti_server = self.inode_server(target);
        if coordinator == parti_server {
            OpPlan {
                op,
                coordinator,
                coord_subop,
                participant: None,
                colocated: Some(parti_subop),
            }
        } else {
            OpPlan {
                op,
                coordinator,
                coord_subop,
                participant: Some((parti_server, parti_subop)),
                colocated: None,
            }
        }
    }

    fn single(&self, op: FsOp, server: ServerId, subop: SubOp) -> OpPlan {
        OpPlan {
            op,
            coordinator: server,
            coord_subop: subop,
            participant: None,
            colocated: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ROOT_INO;

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let p = Placement::new(8);
        for i in 0..1000u64 {
            let s1 = p.inode_server(InodeNo(i));
            let s2 = p.inode_server(InodeNo(i));
            assert_eq!(s1, s2);
            assert!(s1.0 < 8);
            let d = p.dentry_server(ROOT_INO, Name(i));
            assert!(d.0 < 8);
        }
    }

    #[test]
    fn placement_is_roughly_balanced() {
        let p = Placement::new(8);
        let mut counts = [0u32; 8];
        for i in 0..80_000u64 {
            counts[p.inode_server(InodeNo(i)).0 as usize] += 1;
        }
        for c in counts {
            // within 10% of the mean of 10_000
            assert!((9_000..11_000).contains(&c), "imbalanced placement: {c}");
        }
    }

    #[test]
    fn cross_server_fraction_close_to_one_minus_one_over_n() {
        let p = Placement::new(8);
        let mut cross = 0;
        let total = 20_000;
        for i in 0..total {
            let plan = p.plan(FsOp::Create {
                parent: ROOT_INO,
                name: Name(i),
                ino: InodeNo(1000 + i),
            });
            if plan.is_cross_server() {
                cross += 1;
            }
        }
        let frac = cross as f64 / total as f64;
        assert!(
            (frac - 0.875).abs() < 0.02,
            "expected ~7/8 cross-server with 8 servers, got {frac}"
        );
    }

    #[test]
    fn create_plan_matches_table1() {
        let p = Placement::new(4);
        let plan = p.plan(FsOp::Create {
            parent: ROOT_INO,
            name: Name(3),
            ino: InodeNo(42),
        });
        assert!(matches!(plan.coord_subop, SubOp::InsertEntry { .. }));
        match (plan.participant, plan.colocated) {
            (Some((_, SubOp::CreateInode { .. })), None) => {}
            (None, Some(SubOp::CreateInode { .. })) => {}
            other => panic!("unexpected plan halves: {other:?}"),
        }
    }

    #[test]
    fn unlink_plan_decrements_nlink_on_participant_side() {
        let p = Placement::new(4);
        let plan = p.plan(FsOp::Unlink {
            parent: ROOT_INO,
            name: Name(3),
            target: InodeNo(42),
        });
        assert!(matches!(plan.coord_subop, SubOp::RemoveEntry { .. }));
        let second = plan.participant.map(|(_, s)| s).or(plan.colocated).unwrap();
        assert_eq!(second, SubOp::DecNlink { ino: InodeNo(42) });
    }

    #[test]
    fn reads_are_single_server() {
        let p = Placement::new(8);
        for op in [
            FsOp::Stat { ino: InodeNo(5) },
            FsOp::Lookup {
                parent: ROOT_INO,
                name: Name(1),
            },
            FsOp::Readdir { dir: ROOT_INO },
            FsOp::Setattr { ino: InodeNo(5) },
        ] {
            let plan = p.plan(op);
            assert!(!plan.is_cross_server());
            assert!(plan.colocated.is_none());
            assert_eq!(plan.assignments().len(), 1);
        }
    }

    #[test]
    fn single_server_cluster_never_cross_server() {
        let p = Placement::new(1);
        for i in 0..100 {
            let plan = p.plan(FsOp::Create {
                parent: ROOT_INO,
                name: Name(i),
                ino: InodeNo(100 + i),
            });
            assert!(!plan.is_cross_server());
            assert!(plan.colocated.is_some());
        }
    }

    #[test]
    fn assignments_cover_both_halves() {
        let p = Placement::new(16);
        let plan = p.plan(FsOp::Mkdir {
            parent: ROOT_INO,
            name: Name(77),
            ino: InodeNo(200),
        });
        let asg = plan.assignments();
        assert_eq!(asg.len(), 2);
        assert_eq!(asg[0].2, crate::subop::Role::Coordinator);
        assert_eq!(asg[1].2, crate::subop::Role::Participant);
    }
}
