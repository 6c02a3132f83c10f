//! Sub-operations: the per-server halves of a file operation (Table I).
//!
//! | Op     | Coordinator sub-op                          | Participant sub-op |
//! |--------|---------------------------------------------|--------------------|
//! | create | insert entry in parent dir, update parent   | add inode, flag regular |
//! | remove | remove entry from parent dir, update parent | free inode if nlink reaches 0 |
//! | mkdir  | insert entry in parent dir, update parent   | add inode, flag dir, allocate entry space |
//! | rmdir  | remove entry from parent dir, update parent | free inode if nlink reaches 0 |
//! | link   | insert entry in parent dir, update parent   | increase nlink |
//! | unlink | remove entry from dir, update parent        | decrease nlink |

use crate::ids::{InodeNo, Name, ObjectId, ServerId};
use crate::op::{FileKind, FsOp};

/// The role a server plays for one cross-server operation (§II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Owns the parent-directory side (entry insert/remove).
    Coordinator,
    /// Owns the target inode side.
    Participant,
}

impl Role {
    pub fn peer(&self) -> Role {
        match self {
            Role::Coordinator => Role::Participant,
            Role::Participant => Role::Coordinator,
        }
    }
}

/// One server-local half of a file operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubOp {
    /// Coordinator: insert a new entry in the parent dir and update the
    /// parent inode (create/mkdir/link).
    InsertEntry {
        parent: InodeNo,
        name: Name,
        child: InodeNo,
        kind: FileKind,
    },
    /// Coordinator: remove the entry from the parent dir and update the
    /// parent inode (remove/rmdir/unlink).
    RemoveEntry {
        parent: InodeNo,
        name: Name,
        child: InodeNo,
    },
    /// Participant: add an inode and set its kind flag; for directories
    /// this also allocates the entry space (mkdir row of Table I).
    CreateInode { ino: InodeNo, kind: FileKind },
    /// Participant: decrement nlink and free the inode if it reaches 0
    /// (remove/rmdir rows of Table I).
    ReleaseInode { ino: InodeNo },
    /// Participant: increase the nlink of the file inode (link).
    IncNlink { ino: InodeNo },
    /// Participant: decrease the nlink of the file inode (unlink).
    DecNlink { ino: InodeNo },
    /// Single-server read of inode attributes (stat/getattr/access).
    ReadInode { ino: InodeNo },
    /// Single-server read of a directory entry (lookup).
    ReadEntry { parent: InodeNo, name: Name },
    /// Single-server directory enumeration.
    ReadDir { dir: InodeNo },
    /// Single-server in-place attribute update (setattr).
    TouchInode { ino: InodeNo },
}

impl SubOp {
    /// The metadata objects this sub-op reads or writes on its server.
    /// These are the objects that become *active* between execution and
    /// commitment and against which conflicts are detected (§III-B/C).
    ///
    /// The "parent inode" object on the coordinator is the per-server
    /// partition of the directory (OrangeFS distributes a directory's
    /// entries over servers by name hash; each partition carries its own
    /// attribute row, which is what the coordinator sub-op updates).
    pub fn objects(&self) -> ObjSet {
        match *self {
            SubOp::InsertEntry { parent, name, .. } | SubOp::RemoveEntry { parent, name, .. } => {
                ObjSet::two(ObjectId::Inode(parent), ObjectId::Dentry(parent, name))
            }
            SubOp::CreateInode { ino, .. }
            | SubOp::ReleaseInode { ino }
            | SubOp::IncNlink { ino }
            | SubOp::DecNlink { ino }
            | SubOp::ReadInode { ino }
            | SubOp::TouchInode { ino } => ObjSet::one(ObjectId::Inode(ino)),
            SubOp::ReadEntry { parent, name } => ObjSet::one(ObjectId::Dentry(parent, name)),
            SubOp::ReadDir { dir } => ObjSet::one(ObjectId::Inode(dir)),
        }
    }

    /// The object against which conflicts are detected — the one whose
    /// *value* other operations observe. Every sub-op has exactly one: an
    /// entry sub-op's dentry, otherwise its inode. This excludes the parent
    /// directory's partition-attribute row: its updates (entry counts,
    /// timestamps) are commutative blind writes, so concurrent creates in
    /// one common directory do not conflict with each other — exactly why
    /// the checkpointing workloads of Table II show conflict ratios near
    /// 0.1% even though every process creates in the same directory.
    pub fn conflict_object(&self) -> ObjectId {
        match *self {
            SubOp::InsertEntry { parent, name, .. }
            | SubOp::RemoveEntry { parent, name, .. }
            | SubOp::ReadEntry { parent, name } => ObjectId::Dentry(parent, name),
            SubOp::CreateInode { ino, .. }
            | SubOp::ReleaseInode { ino }
            | SubOp::IncNlink { ino }
            | SubOp::DecNlink { ino }
            | SubOp::ReadInode { ino }
            | SubOp::TouchInode { ino } => ObjectId::Inode(ino),
            SubOp::ReadDir { dir } => ObjectId::Inode(dir),
        }
    }

    /// True if the sub-op modifies metadata (and therefore must be logged
    /// and eventually written back to the database).
    pub fn is_write(&self) -> bool {
        !matches!(
            self,
            SubOp::ReadInode { .. } | SubOp::ReadEntry { .. } | SubOp::ReadDir { .. }
        )
    }

    /// Approximate encoded size in bytes of the updated objects, used for
    /// log-record and message sizing.
    pub fn write_bytes(&self) -> u32 {
        match self {
            SubOp::InsertEntry { .. } => 176, // dentry row + parent attr update
            SubOp::RemoveEntry { .. } => 112,
            SubOp::CreateInode { kind, .. } => match kind {
                FileKind::Regular => 128,
                FileKind::Directory => 192, // + entry-space allocation
            },
            SubOp::ReleaseInode { .. } => 96,
            SubOp::IncNlink { .. } | SubOp::DecNlink { .. } => 64,
            SubOp::TouchInode { .. } => 96,
            _ => 0,
        }
    }
}

/// A tiny fixed-capacity set of object ids (a sub-op touches at most two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjSet {
    objs: [Option<ObjectId>; 2],
}

impl ObjSet {
    pub fn one(a: ObjectId) -> Self {
        Self {
            objs: [Some(a), None],
        }
    }
    pub fn two(a: ObjectId, b: ObjectId) -> Self {
        Self {
            objs: [Some(a), Some(b)],
        }
    }
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objs.iter().flatten().copied()
    }
    pub fn contains(&self, o: &ObjectId) -> bool {
        self.objs.iter().flatten().any(|x| x == o)
    }
}

/// How an [`FsOp`] maps onto servers after placement.
///
/// * Single-server reads and setattr: `participant == None`,
///   `colocated == None`.
/// * Cross-server mutation: `participant == Some(..)`.
/// * Mutation whose two halves happen to land on the same server
///   (probability 1/N under OrangeFS placement): `colocated == Some(..)` and
///   the coordinator executes both halves locally in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpPlan {
    pub op: FsOp,
    pub coordinator: ServerId,
    pub coord_subop: SubOp,
    /// Second half when it lives on a different server.
    pub participant: Option<(ServerId, SubOp)>,
    /// Second half when it happens to live on the coordinator.
    pub colocated: Option<SubOp>,
}

impl OpPlan {
    /// True if this plan spans two servers (the paper's cross-server case).
    pub fn is_cross_server(&self) -> bool {
        self.participant.is_some()
    }

    /// All (server, sub-op) pairs of the plan.
    pub fn assignments(&self) -> Vec<(ServerId, SubOp, Role)> {
        let mut v = Vec::with_capacity(2);
        v.push((self.coordinator, self.coord_subop, Role::Coordinator));
        if let Some(extra) = self.colocated {
            v.push((self.coordinator, extra, Role::Participant));
        }
        if let Some((s, sub)) = self.participant {
            v.push((s, sub, Role::Participant));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_entry_touches_parent_inode_and_dentry() {
        let s = SubOp::InsertEntry {
            parent: InodeNo(1),
            name: Name(7),
            child: InodeNo(2),
            kind: FileKind::Regular,
        };
        let objs: Vec<_> = s.objects().iter().collect();
        assert_eq!(
            objs,
            vec![
                ObjectId::Inode(InodeNo(1)),
                ObjectId::Dentry(InodeNo(1), Name(7))
            ]
        );
        assert!(s.is_write());
        assert!(s.write_bytes() > 0);
    }

    #[test]
    fn reads_are_not_writes_and_have_zero_write_bytes() {
        for s in [
            SubOp::ReadInode { ino: InodeNo(2) },
            SubOp::ReadEntry {
                parent: InodeNo(1),
                name: Name(7),
            },
            SubOp::ReadDir { dir: InodeNo(1) },
        ] {
            assert!(!s.is_write(), "{s:?}");
            assert_eq!(s.write_bytes(), 0);
        }
    }

    #[test]
    fn objset_contains() {
        let set = ObjSet::two(ObjectId::Inode(InodeNo(1)), ObjectId::Inode(InodeNo(2)));
        assert!(set.contains(&ObjectId::Inode(InodeNo(1))));
        assert!(!set.contains(&ObjectId::Inode(InodeNo(3))));
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn role_peer_is_involutive() {
        assert_eq!(Role::Coordinator.peer(), Role::Participant);
        assert_eq!(Role::Participant.peer().peer(), Role::Participant);
    }

    #[test]
    fn mkdir_participant_allocates_entry_space() {
        let dir = SubOp::CreateInode {
            ino: InodeNo(5),
            kind: FileKind::Directory,
        };
        let file = SubOp::CreateInode {
            ino: InodeNo(5),
            kind: FileKind::Regular,
        };
        assert!(
            dir.write_bytes() > file.write_bytes(),
            "directory creation also allocates the entry space (Table I)"
        );
    }
}
