//! The namespace oracle that generated streams are checked against.

use cx_types::{FsOp, FxHashMap, InodeNo, Name};

/// Which files, entries and directories exist, so a test can replay a
/// workload's seeds and ops in order and panic on the first op that could
/// not succeed (trace replays in the paper replay what real applications
/// actually did, so failures are negligible). The generators keep no such
/// model: they emit only fresh identities and entries from their own
/// per-process lists, and the tests replay their streams through this one.
#[derive(Debug, Default, Clone)]
pub struct NamespaceModel {
    /// file inode → nlink
    files: FxHashMap<InodeNo, u32>,
    dirs: FxHashMap<InodeNo, u32>, // dir → live entry count
    dentries: FxHashMap<(InodeNo, Name), InodeNo>,
}

impl NamespaceModel {
    pub fn add_dir(&mut self, ino: InodeNo) {
        self.dirs.insert(ino, 0);
    }

    pub fn exists(&self, ino: InodeNo) -> bool {
        self.files.contains_key(&ino) || self.dirs.contains_key(&ino)
    }

    pub fn entry(&self, dir: InodeNo, name: Name) -> Option<InodeNo> {
        self.dentries.get(&(dir, name)).copied()
    }

    pub fn dir_entries(&self, dir: InodeNo) -> u32 {
        self.dirs.get(&dir).copied().unwrap_or(0)
    }

    /// Apply an operation to the model. Panics on an invalid one: the
    /// generators must only produce valid operations.
    pub fn apply(&mut self, op: &FsOp) {
        match *op {
            FsOp::Create { parent, name, ino } => {
                assert!(self.dentries.insert((parent, name), ino).is_none());
                assert!(self.files.insert(ino, 1).is_none());
                *self.dirs.get_mut(&parent).expect("dir exists") += 1;
            }
            FsOp::Mkdir { parent, name, ino } => {
                assert!(self.dentries.insert((parent, name), ino).is_none());
                assert!(self.dirs.insert(ino, 0).is_none());
                *self.dirs.get_mut(&parent).expect("dir exists") += 1;
            }
            FsOp::Remove { parent, name, ino } => {
                assert_eq!(self.dentries.remove(&(parent, name)), Some(ino));
                let n = self.files.get_mut(&ino).expect("file exists");
                if *n <= 1 {
                    self.files.remove(&ino);
                } else {
                    *n -= 1;
                }
                *self.dirs.get_mut(&parent).expect("dir exists") -= 1;
            }
            FsOp::Rmdir { parent, name, ino } => {
                assert_eq!(self.dentries.remove(&(parent, name)), Some(ino));
                assert_eq!(self.dirs.remove(&ino), Some(0), "rmdir of empty dir");
                *self.dirs.get_mut(&parent).expect("dir exists") -= 1;
            }
            FsOp::Link {
                parent,
                name,
                target,
            } => {
                assert!(self.dentries.insert((parent, name), target).is_none());
                *self.files.get_mut(&target).expect("target exists") += 1;
                *self.dirs.get_mut(&parent).expect("dir exists") += 1;
            }
            FsOp::Unlink {
                parent,
                name,
                target,
            } => {
                assert_eq!(self.dentries.remove(&(parent, name)), Some(target));
                let n = self.files.get_mut(&target).expect("target exists");
                if *n <= 1 {
                    self.files.remove(&target);
                } else {
                    *n -= 1;
                }
                *self.dirs.get_mut(&parent).expect("dir exists") -= 1;
            }
            // reads change nothing
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut m = NamespaceModel::default();
        let root = InodeNo(1);
        m.add_dir(root);
        let (ino, name) = (InodeNo(1001), Name(2));
        m.apply(&FsOp::Create {
            parent: root,
            name,
            ino,
        });
        assert!(m.exists(ino));
        assert_eq!(m.entry(root, name), Some(ino));
        assert_eq!(m.dir_entries(root), 1);
        m.apply(&FsOp::Remove {
            parent: root,
            name,
            ino,
        });
        assert!(!m.exists(ino));
        assert_eq!(m.dir_entries(root), 0);
    }

    #[test]
    fn link_counts() {
        let mut m = NamespaceModel::default();
        let root = InodeNo(1);
        m.add_dir(root);
        let (ino, n1, n2) = (InodeNo(1001), Name(2), Name(3));
        m.apply(&FsOp::Create {
            parent: root,
            name: n1,
            ino,
        });
        m.apply(&FsOp::Link {
            parent: root,
            name: n2,
            target: ino,
        });
        m.apply(&FsOp::Unlink {
            parent: root,
            name: n1,
            target: ino,
        });
        assert!(m.exists(ino), "one link remains");
        m.apply(&FsOp::Unlink {
            parent: root,
            name: n2,
            target: ino,
        });
        assert!(!m.exists(ino));
    }

    #[test]
    #[should_panic]
    fn invalid_remove_panics() {
        let mut m = NamespaceModel::default();
        m.apply(&FsOp::Remove {
            parent: InodeNo(1),
            name: Name(1),
            ino: InodeNo(2),
        });
    }
}
