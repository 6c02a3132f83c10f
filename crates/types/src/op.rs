//! File-system metadata operations.
//!
//! The paper optimizes the cross-server operations of Table I (create,
//! remove, mkdir, rmdir, link, unlink) and leaves single-server operations
//! (stat, lookup, getattr, setattr, readdir, access) untouched; both kinds
//! appear in the trace mixes of Figure 4, so both are modelled.

use crate::ids::{InodeNo, Name};
use serde::{Deserialize, Serialize};

/// Whether an inode refers to a regular file or a directory ("set a flag to
/// indicate it is a regular file / a directory", Table I).
///
/// One byte, `Regular` = 0: a zeroed metadata row slot reads as a regular
/// file's (see `cx_mdstore::RowTable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FileKind {
    Regular,
    Directory,
}

/// A metadata operation as issued by an application process.
///
/// Operations are path-free: the workload generator resolves names up front
/// and references parent directories and target files by inode number, which
/// is how replayed traces drive the servers in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsOp {
    /// Create a regular file `name` in `parent`, allocating inode `ino`.
    Create {
        parent: InodeNo,
        name: Name,
        ino: InodeNo,
    },
    /// Remove the file `name` from `parent`; `ino` is the file's inode.
    Remove {
        parent: InodeNo,
        name: Name,
        ino: InodeNo,
    },
    /// Create directory `name` in `parent` with inode `ino`.
    Mkdir {
        parent: InodeNo,
        name: Name,
        ino: InodeNo,
    },
    /// Remove directory `name` from `parent`; `ino` is the dir's inode.
    Rmdir {
        parent: InodeNo,
        name: Name,
        ino: InodeNo,
    },
    /// Add a hard link `name` in `parent` to existing inode `target`.
    Link {
        parent: InodeNo,
        name: Name,
        target: InodeNo,
    },
    /// Remove link `name` from `parent`; decrements `target`'s nlink.
    Unlink {
        parent: InodeNo,
        name: Name,
        target: InodeNo,
    },
    /// Read the attributes of `ino`.
    Stat { ino: InodeNo },
    /// Resolve `name` within `parent` (touches the dentry).
    Lookup { parent: InodeNo, name: Name },
    /// Read inode attributes (alias class of stat kept separate so trace
    /// mixes can distinguish the two, as Figure 4 does).
    Getattr { ino: InodeNo },
    /// Update inode attributes in place (chmod/chown/utimes).
    Setattr { ino: InodeNo },
    /// Enumerate a directory (touches the directory inode).
    Readdir { dir: InodeNo },
    /// Permission check on `ino`.
    Access { ino: InodeNo },
}

/// Operation classes used for reporting the Figure 4 distribution and for
/// Metarates' update/stat accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    Create,
    Remove,
    Mkdir,
    Rmdir,
    Link,
    Unlink,
    Stat,
    Lookup,
    Getattr,
    Setattr,
    Readdir,
    Access,
}

impl OpClass {
    pub const COUNT: usize = 12;

    pub const ALL: [OpClass; 12] = [
        OpClass::Create,
        OpClass::Remove,
        OpClass::Mkdir,
        OpClass::Rmdir,
        OpClass::Link,
        OpClass::Unlink,
        OpClass::Stat,
        OpClass::Lookup,
        OpClass::Getattr,
        OpClass::Setattr,
        OpClass::Readdir,
        OpClass::Access,
    ];

    /// Dense index into per-class tables (`0..COUNT`, the `ALL` order).
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Create => "create",
            OpClass::Remove => "remove",
            OpClass::Mkdir => "mkdir",
            OpClass::Rmdir => "rmdir",
            OpClass::Link => "link",
            OpClass::Unlink => "unlink",
            OpClass::Stat => "stat",
            OpClass::Lookup => "lookup",
            OpClass::Getattr => "getattr",
            OpClass::Setattr => "setattr",
            OpClass::Readdir => "readdir",
            OpClass::Access => "access",
        }
    }

    /// True for the namespace-mutating classes of Table I, the only ones
    /// that can become cross-server operations.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            OpClass::Create
                | OpClass::Remove
                | OpClass::Mkdir
                | OpClass::Rmdir
                | OpClass::Link
                | OpClass::Unlink
        )
    }
}

impl FsOp {
    pub fn class(&self) -> OpClass {
        match self {
            FsOp::Create { .. } => OpClass::Create,
            FsOp::Remove { .. } => OpClass::Remove,
            FsOp::Mkdir { .. } => OpClass::Mkdir,
            FsOp::Rmdir { .. } => OpClass::Rmdir,
            FsOp::Link { .. } => OpClass::Link,
            FsOp::Unlink { .. } => OpClass::Unlink,
            FsOp::Stat { .. } => OpClass::Stat,
            FsOp::Lookup { .. } => OpClass::Lookup,
            FsOp::Getattr { .. } => OpClass::Getattr,
            FsOp::Setattr { .. } => OpClass::Setattr,
            FsOp::Readdir { .. } => OpClass::Readdir,
            FsOp::Access { .. } => OpClass::Access,
        }
    }

    /// True for Table I operations (potentially cross-server).
    pub fn is_mutation(&self) -> bool {
        self.class().is_mutation()
    }

    /// True if the operation only reads metadata.
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            FsOp::Stat { .. }
                | FsOp::Lookup { .. }
                | FsOp::Getattr { .. }
                | FsOp::Readdir { .. }
                | FsOp::Access { .. }
        )
    }
}

/// Final outcome of an operation as observed by the issuing process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpOutcome {
    /// All sub-operations succeeded; the operation took effect.
    Applied,
    /// All sub-operations failed, or the executions disagreed and the
    /// immediate commitment aborted every successful one ("ALL-NO").
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{InodeNo, Name};

    fn sample_mutations() -> Vec<FsOp> {
        let (p, n, i) = (InodeNo(1), Name(42), InodeNo(2));
        vec![
            FsOp::Create {
                parent: p,
                name: n,
                ino: i,
            },
            FsOp::Remove {
                parent: p,
                name: n,
                ino: i,
            },
            FsOp::Mkdir {
                parent: p,
                name: n,
                ino: i,
            },
            FsOp::Rmdir {
                parent: p,
                name: n,
                ino: i,
            },
            FsOp::Link {
                parent: p,
                name: n,
                target: i,
            },
            FsOp::Unlink {
                parent: p,
                name: n,
                target: i,
            },
        ]
    }

    #[test]
    fn table1_ops_are_mutations() {
        for op in sample_mutations() {
            assert!(op.is_mutation(), "{op:?} must be a Table I mutation");
            assert!(!op.is_read_only());
        }
    }

    #[test]
    fn read_ops_are_read_only_and_not_mutations() {
        let reads = [
            FsOp::Stat { ino: InodeNo(2) },
            FsOp::Lookup {
                parent: InodeNo(1),
                name: Name(42),
            },
            FsOp::Getattr { ino: InodeNo(2) },
            FsOp::Readdir { dir: InodeNo(1) },
            FsOp::Access { ino: InodeNo(2) },
        ];
        for op in reads {
            assert!(op.is_read_only(), "{op:?}");
            assert!(!op.is_mutation(), "{op:?}");
        }
        // setattr mutates an inode in place but is single-server: not a
        // Table I mutation and not read-only.
        let sa = FsOp::Setattr { ino: InodeNo(2) };
        assert!(!sa.is_read_only() && !sa.is_mutation());
    }

    #[test]
    fn class_names_are_unique() {
        let mut names: Vec<_> = OpClass::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), OpClass::ALL.len());
    }

    #[test]
    fn class_round_trip() {
        for op in sample_mutations() {
            assert!(op.class().is_mutation());
        }
        assert_eq!(FsOp::Stat { ino: InodeNo(9) }.class(), OpClass::Stat);
    }
}
