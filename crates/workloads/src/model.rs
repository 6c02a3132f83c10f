//! The sequential model of the namespace: the specification every
//! correctness check replays ops against.

use crate::trace::SeedEntry;
use cx_types::{FileKind, FsOp, InodeNo, Name};
use std::collections::BTreeMap;

/// Which entries and inodes exist, and each inode's kind and link count,
/// given ops applied one at a time. The chaos oracle replays acked ops
/// into it, the property tests take its answers as the expected outcomes,
/// and the generator tests replay whole workloads through it (the
/// generators keep no model). Rows read back in key order, so whatever is
/// built from them (a report, a draw) repeats from run to run.
#[derive(Debug, Clone, Default)]
pub struct NamespaceModel {
    dentries: BTreeMap<(InodeNo, Name), InodeNo>,
    inodes: BTreeMap<InodeNo, (FileKind, u32)>,
}

impl NamespaceModel {
    /// The pre-run state: the workload's seed directories and files.
    pub fn from_seeds(seeds: &[SeedEntry]) -> Self {
        let mut m = NamespaceModel::default();
        for seed in seeds {
            match *seed {
                SeedEntry::Dir { ino } => m.inodes.insert(ino, (FileKind::Directory, 1)),
                SeedEntry::File { parent, name, ino } => {
                    m.dentries.insert((parent, name), ino);
                    m.inodes.insert(ino, (FileKind::Regular, 1))
                }
            };
        }
        m
    }

    pub fn dentry(&self, parent: InodeNo, name: Name) -> Option<InodeNo> {
        self.dentries.get(&(parent, name)).copied()
    }

    /// An inode's kind and link count.
    pub fn inode(&self, ino: InodeNo) -> Option<(FileKind, u32)> {
        self.inodes.get(&ino).copied()
    }

    /// Every entry, `((parent, name), child)`, by parent and then name.
    pub fn dentries(&self) -> impl Iterator<Item = ((InodeNo, Name), InodeNo)> + '_ {
        self.dentries.iter().map(|(&key, &child)| (key, child))
    }

    /// The entries of directory `dir`, `(name, child)`, by name.
    pub fn entries(&self, dir: InodeNo) -> impl Iterator<Item = (Name, InodeNo)> + '_ {
        let keys = (dir, Name(0))..=(dir, Name(u64::MAX));
        self.dentries
            .range(keys)
            .map(|(&(_, name), &child)| (name, child))
    }

    /// Every inode with its kind and link count, by number.
    pub fn inodes(&self) -> impl Iterator<Item = (InodeNo, (FileKind, u32))> + '_ {
        self.inodes.iter().map(|(&ino, &row)| (ino, row))
    }

    /// Apply one op with the stores' all-or-nothing semantics: `Ok` if it
    /// applied, `Err` naming why not, and then the model is unchanged. A
    /// read applies when what it reads exists.
    pub fn apply(&mut self, op: &FsOp) -> Result<(), &'static str> {
        match *op {
            FsOp::Create { parent, name, ino } | FsOp::Mkdir { parent, name, ino } => {
                holds(self.dentry(parent, name).is_none(), "create: entry exists")?;
                holds(self.inode(ino).is_none(), "create: inode exists")?;
                let kind = match op {
                    FsOp::Mkdir { .. } => FileKind::Directory,
                    _ => FileKind::Regular,
                };
                self.dentries.insert((parent, name), ino);
                self.inodes.insert(ino, (kind, 1));
            }
            FsOp::Link {
                parent,
                name,
                target,
            } => {
                holds(self.dentry(parent, name).is_none(), "link: entry exists")?;
                let row = self.inodes.get_mut(&target).ok_or("link: target missing")?;
                row.1 += 1;
                self.dentries.insert((parent, name), target);
            }
            FsOp::Remove { parent, name, ino }
            | FsOp::Rmdir { parent, name, ino }
            | FsOp::Unlink {
                parent,
                name,
                target: ino,
            } => {
                holds(self.dentry(parent, name) == Some(ino), "remove: no entry")?;
                let row = self.inodes.get_mut(&ino).ok_or("remove: inode missing")?;
                row.1 -= 1;
                if row.1 == 0 {
                    self.inodes.remove(&ino);
                }
                self.dentries.remove(&(parent, name));
            }
            FsOp::Stat { ino }
            | FsOp::Getattr { ino }
            | FsOp::Access { ino }
            | FsOp::Setattr { ino } => holds(self.inode(ino).is_some(), "inode missing")?,
            FsOp::Lookup { parent, name } => {
                holds(self.dentry(parent, name).is_some(), "lookup: entry missing")?
            }
            FsOp::Readdir { .. } => {}
        }
        Ok(())
    }
}

/// `Ok` where `condition` holds, else `Err(otherwise)`.
fn holds(condition: bool, otherwise: &'static str) -> Result<(), &'static str> {
    condition.then_some(()).ok_or(otherwise)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: InodeNo = InodeNo(1);

    fn rooted() -> NamespaceModel {
        NamespaceModel::from_seeds(&[SeedEntry::Dir { ino: ROOT }])
    }

    #[test]
    fn lifecycle() {
        let mut m = rooted();
        let (ino, name) = (InodeNo(1001), Name(2));
        m.apply(&FsOp::Create {
            parent: ROOT,
            name,
            ino,
        })
        .unwrap();
        assert_eq!(m.inode(ino), Some((FileKind::Regular, 1)));
        assert_eq!(m.dentry(ROOT, name), Some(ino));
        assert_eq!(m.entries(ROOT).count(), 1);
        m.apply(&FsOp::Remove {
            parent: ROOT,
            name,
            ino,
        })
        .unwrap();
        assert_eq!(m.inode(ino), None);
        assert_eq!(m.entries(ROOT).count(), 0);
    }

    #[test]
    fn link_counts() {
        let mut m = rooted();
        let (ino, n1, n2) = (InodeNo(1001), Name(2), Name(3));
        m.apply(&FsOp::Create {
            parent: ROOT,
            name: n1,
            ino,
        })
        .unwrap();
        m.apply(&FsOp::Link {
            parent: ROOT,
            name: n2,
            target: ino,
        })
        .unwrap();
        assert_eq!(m.inode(ino), Some((FileKind::Regular, 2)));
        m.apply(&FsOp::Unlink {
            parent: ROOT,
            name: n1,
            target: ino,
        })
        .unwrap();
        assert_eq!(
            m.inode(ino),
            Some((FileKind::Regular, 1)),
            "one link remains"
        );
        m.apply(&FsOp::Unlink {
            parent: ROOT,
            name: n2,
            target: ino,
        })
        .unwrap();
        assert_eq!(m.inode(ino), None);
    }

    #[test]
    fn model_mirrors_store_semantics() {
        let mut m = rooted();
        let (f, name) = (InodeNo(10), Name(7));
        let create = |ino| FsOp::Create {
            parent: ROOT,
            name,
            ino,
        };
        m.apply(&create(f)).unwrap();
        assert_eq!(m.dentry(ROOT, name), Some(f));
        assert_eq!(m.apply(&create(InodeNo(11))), Err("create: entry exists"));
        let mkdir = FsOp::Mkdir {
            parent: ROOT,
            name: Name(9),
            ino: f,
        };
        assert_eq!(m.apply(&mkdir), Err("create: inode exists"));
        let link = FsOp::Link {
            parent: ROOT,
            name: Name(8),
            target: InodeNo(12),
        };
        assert_eq!(m.apply(&link), Err("link: target missing"));
        // A remove of the wrong inode, or of no entry, changes nothing.
        let remove = |ino| FsOp::Remove {
            parent: ROOT,
            name,
            ino,
        };
        assert_eq!(m.apply(&remove(InodeNo(11))), Err("remove: no entry"));
        m.apply(&remove(f)).unwrap();
        assert_eq!(m.apply(&remove(f)), Err("remove: no entry"));
        assert_eq!(m.inode(f), None);
        assert_eq!(m.dentries().count(), 0);
        assert_eq!(
            m.inodes().collect::<Vec<_>>(),
            [(ROOT, (FileKind::Directory, 1))]
        );
    }

    /// An invalid op is refused, and leaves every row as it was.
    #[test]
    fn invalid_remove_is_refused_and_changes_nothing() {
        let mut m = NamespaceModel::from_seeds(&[
            SeedEntry::Dir { ino: ROOT },
            SeedEntry::File {
                parent: ROOT,
                name: Name(1),
                ino: InodeNo(2),
            },
        ]);
        let rows = |m: &NamespaceModel| {
            (
                m.dentries().collect::<Vec<_>>(),
                m.inodes().collect::<Vec<_>>(),
            )
        };
        let before = rows(&m);
        for (parent, name, ino) in [
            (ROOT, Name(1), InodeNo(3)),
            (ROOT, Name(2), InodeNo(2)),
            (InodeNo(5), Name(1), InodeNo(2)),
        ] {
            assert!(m.apply(&FsOp::Remove { parent, name, ino }).is_err());
            assert_eq!(rows(&m), before);
        }
    }

    /// A read applies when what it reads exists, and changes nothing.
    #[test]
    fn reads_answer_by_existence() {
        let (file, name) = (InodeNo(2), Name(1));
        let mut m = NamespaceModel::from_seeds(&[
            SeedEntry::Dir { ino: ROOT },
            SeedEntry::File {
                parent: ROOT,
                name,
                ino: file,
            },
        ]);
        let before = m.clone();
        let reads = |ino| {
            [
                FsOp::Stat { ino },
                FsOp::Getattr { ino },
                FsOp::Access { ino },
                FsOp::Setattr { ino },
            ]
        };
        for op in reads(ROOT).into_iter().chain(reads(file)) {
            assert_eq!(m.apply(&op), Ok(()), "{op:?}");
        }
        for op in reads(InodeNo(3)) {
            assert_eq!(m.apply(&op), Err("inode missing"), "{op:?}");
        }
        assert_eq!(m.apply(&FsOp::Lookup { parent: ROOT, name }), Ok(()));
        for (parent, name) in [(ROOT, Name(2)), (file, name)] {
            let lookup = FsOp::Lookup { parent, name };
            assert_eq!(m.apply(&lookup), Err("lookup: entry missing"));
        }
        assert_eq!(m.apply(&FsOp::Readdir { dir: InodeNo(3) }), Ok(()));
        assert!(m.dentries().eq(before.dentries()));
        assert!(m.inodes().eq(before.inodes()));
    }
}
