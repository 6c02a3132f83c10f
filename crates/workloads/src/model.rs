//! Namespace bookkeeping used while generating valid operation streams.

use cx_types::{FsOp, InodeNo, Name};
use std::collections::HashMap;

/// Tracks which files and directories exist so the generator only emits
/// operations that will succeed (trace replays in the paper replay what
/// real applications actually did, so failures are negligible).
#[derive(Debug, Default, Clone)]
pub struct NamespaceModel {
    /// file inode → nlink
    files: HashMap<InodeNo, u32>,
    dirs: HashMap<InodeNo, u32>, // dir → live entry count
    dentries: HashMap<(InodeNo, Name), InodeNo>,
    next_ino: u64,
    next_name: u64,
}

impl NamespaceModel {
    pub fn new() -> Self {
        Self {
            next_ino: 1000,
            next_name: 1,
            ..Self::default()
        }
    }

    pub fn fresh_ino(&mut self) -> InodeNo {
        self.next_ino += 1;
        InodeNo(self.next_ino)
    }

    pub fn fresh_name(&mut self) -> Name {
        self.next_name += 1;
        Name(self.next_name)
    }

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

    /// Apply a known-valid operation to the model. Panics on an invalid
    /// one — the generator must only produce valid operations.
    pub fn apply(&mut self, op: &FsOp) {
        match *op {
            FsOp::Create { parent, name, ino } => {
                assert!(self.dentries.insert((parent, name), ino).is_none());
                assert!(self.files.insert(ino, 1).is_none());
                *self.dirs.entry(parent).or_insert(0) += 1;
            }
            FsOp::Mkdir { parent, name, ino } => {
                assert!(self.dentries.insert((parent, name), ino).is_none());
                self.dirs.insert(ino, 0);
                *self.dirs.entry(parent).or_insert(0) += 1;
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
                *self.dirs.entry(parent).or_insert(0) += 1;
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
        let mut m = NamespaceModel::new();
        let root = InodeNo(1);
        m.add_dir(root);
        let ino = m.fresh_ino();
        let name = m.fresh_name();
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
        let mut m = NamespaceModel::new();
        let root = InodeNo(1);
        m.add_dir(root);
        let ino = m.fresh_ino();
        let n1 = m.fresh_name();
        let n2 = m.fresh_name();
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
        let mut m = NamespaceModel::new();
        m.apply(&FsOp::Remove {
            parent: InodeNo(1),
            name: Name(1),
            ino: InodeNo(2),
        });
    }
}
