//! In-memory metadata rows, sub-op execution, undo, and dirty tracking.

use crate::rows::{storable, RowTable};
use cx_simio::object_page;
use cx_types::{CxError, CxResult, FileKind, InodeNo, Name, ObjectId, SubOp};
use std::collections::BTreeSet;

/// An inode row: 8 bytes, so a table slot with its `InodeNo` key is 16.
/// Attribute changes (`TouchInode`, "update parent inode" in Table I) are
/// modelled by dirtying the row's page, not by a field in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inode {
    pub kind: FileKind,
    /// Link count. Files and directories start at 1 (we do not model the
    /// "." / ".." self-links); `ReleaseInode`/`DecNlink` free the inode
    /// when it reaches 0 (Table I).
    pub nlink: u32,
}

/// Inverse of one applied sub-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Undo {
    /// Nothing to roll back (reads).
    Nothing,
    RemoveDentry {
        parent: InodeNo,
        name: Name,
    },
    RestoreDentry {
        parent: InodeNo,
        name: Name,
        child: InodeNo,
    },
    RemoveInode {
        ino: InodeNo,
    },
    /// Restores an inode freed (or decremented) by Release/DecNlink.
    RestoreInode {
        ino: InodeNo,
        inode: Inode,
    },
    DecNlink {
        ino: InodeNo,
    },
    /// Inverse of `TouchInode`: the row is as it was, but the rollback
    /// dirties it again like any other.
    Retouch {
        ino: InodeNo,
    },
}

impl Undo {
    /// What this token holds beyond the sub-op it undoes: the inode row a
    /// release or dec-nlink replaced. Every other token is a function of
    /// its sub-op alone.
    pub fn prior_row(&self) -> Option<Inode> {
        match *self {
            Undo::RestoreInode { inode, .. } => Some(inode),
            _ => None,
        }
    }

    /// The token [`MetaStore::apply`] returned for `subop`, rebuilt from
    /// the sub-op and that token's [`Undo::prior_row`].
    pub fn rebuild(subop: &SubOp, prior_row: Option<Inode>) -> Undo {
        match *subop {
            SubOp::InsertEntry { parent, name, .. } => Undo::RemoveDentry { parent, name },
            SubOp::RemoveEntry {
                parent,
                name,
                child,
            } => Undo::RestoreDentry {
                parent,
                name,
                child,
            },
            SubOp::CreateInode { ino, .. } => Undo::RemoveInode { ino },
            SubOp::ReleaseInode { ino } | SubOp::DecNlink { ino } => Undo::RestoreInode {
                ino,
                inode: prior_row.expect("a release or dec-nlink keeps the prior row"),
            },
            SubOp::IncNlink { ino } => Undo::DecNlink { ino },
            SubOp::TouchInode { ino } => Undo::Retouch { ino },
            SubOp::ReadInode { .. } | SubOp::ReadEntry { .. } | SubOp::ReadDir { .. } => {
                Undo::Nothing
            }
        }
    }
}

/// Cumulative store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub applies: u64,
    pub undos: u64,
    pub reads: u64,
    pub writeback_objects: u64,
}

/// One server's metadata rows: inodes and directory entries. A
/// directory's attributes ("update parent inode" on the coordinator) have
/// no row of their own; an entry insert or remove dirties
/// `ObjectId::Inode(parent)`, which is what reaches the disk.
///
/// The rows live in two [`RowTable`]s, 16 B an inode slot and 24 B an
/// entry slot, sized to about 4/3 of the rows they hold. Nothing
/// behavioral reads them in iteration order ([`GlobalView`] borrows them
/// and sorts whatever it lists or reports; the store prop tests sort their
/// snapshots). A table holds every row but its vacant slot's: inode 0 as a
/// regular file at nlink 0, and entry 0 of directory 0 naming inode 0
/// ([`MetaStore::can_hold_inode`]). The `dirty` set stays a `BTreeSet` on
/// purpose — its iteration order becomes the write-back page list, which
/// the disk model times, so it is load-bearing for determinism.
///
/// [`GlobalView`]: crate::GlobalView
#[derive(Debug, Clone, Default)]
pub struct MetaStore {
    inodes: RowTable<InodeNo, Inode>,
    dentries: RowTable<(InodeNo, Name), InodeNo>,
    dirty: BTreeSet<ObjectId>,
    stats: StoreStats,
}

impl MetaStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    // ---- queries ----

    pub fn inode(&self, ino: InodeNo) -> Option<&Inode> {
        self.inodes.get(&ino)
    }

    pub fn lookup(&self, parent: InodeNo, name: Name) -> Option<InodeNo> {
        self.dentries.get(&(parent, name)).copied()
    }

    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    pub fn dentry_count(&self) -> usize {
        self.dentries.len()
    }

    pub fn dentries(&self) -> impl Iterator<Item = (&(InodeNo, Name), &InodeNo)> {
        self.dentries.iter()
    }

    pub fn inodes(&self) -> impl Iterator<Item = (&InodeNo, &Inode)> {
        self.inodes.iter()
    }

    /// Size the row tables for this many more rows (workload setup knows
    /// the count before it inserts), so seeding never regrows a table.
    /// Reserving writes no slot itself: a table comes zeroed from the
    /// allocator.
    pub fn reserve_rows(&mut self, inodes: usize, dentries: usize) {
        self.inodes.reserve(inodes);
        self.dentries.reserve(dentries);
    }

    /// Whether a store can hold this inode row: any but inode 0 as a
    /// regular file at nlink 0, whose bytes are the vacant slot's.
    pub fn can_hold_inode(ino: InodeNo, inode: Inode) -> bool {
        storable(ino, inode)
    }

    /// Whether a store can hold this entry: any but entry 0 of directory 0
    /// naming inode 0, whose bytes are the vacant slot's.
    pub fn can_hold_dentry(parent: InodeNo, name: Name, child: InodeNo) -> bool {
        storable((parent, name), child)
    }

    /// Pre-populate an inode (workload setup: traces begin with existing
    /// directories and files). Panics on a row the store cannot hold.
    pub fn seed_inode(&mut self, ino: InodeNo, kind: FileKind, nlink: u32) {
        self.inodes.insert(ino, Inode { kind, nlink });
    }

    /// Pre-populate a dentry. Panics on a row the store cannot hold.
    pub fn seed_dentry(&mut self, parent: InodeNo, name: Name, child: InodeNo) {
        self.dentries.insert((parent, name), child);
    }

    // ---- execution ----

    /// Execute one sub-op against the in-memory rows. On success the
    /// touched objects become dirty and an [`Undo`] is returned; on error
    /// nothing changed.
    pub fn apply(&mut self, subop: &SubOp) -> CxResult<Undo> {
        let undo = self.apply_inner(subop)?;
        if subop.is_write() {
            for obj in subop.objects().iter() {
                self.dirty.insert(obj);
            }
            self.stats.applies += 1;
        } else {
            self.stats.reads += 1;
        }
        Ok(undo)
    }

    fn apply_inner(&mut self, subop: &SubOp) -> CxResult<Undo> {
        match *subop {
            SubOp::InsertEntry {
                parent,
                name,
                child,
                ..
            } => {
                if !self.dentries.insert_new((parent, name), child) {
                    return Err(CxError::EntryExists(ObjectId::Dentry(parent, name)));
                }
                Ok(Undo::RemoveDentry { parent, name })
            }
            SubOp::RemoveEntry {
                parent,
                name,
                child,
            } => {
                let key = (parent, name);
                match self.dentries.get(&key) {
                    Some(&c) if c == child => {
                        self.dentries.remove(&key);
                        Ok(Undo::RestoreDentry {
                            parent,
                            name,
                            child,
                        })
                    }
                    Some(_) => Err(CxError::WrongKind(ObjectId::Dentry(parent, name))),
                    None => Err(CxError::NotFound(ObjectId::Dentry(parent, name))),
                }
            }
            SubOp::CreateInode { ino, kind } => {
                if !self.inodes.insert_new(ino, Inode { kind, nlink: 1 }) {
                    return Err(CxError::EntryExists(ObjectId::Inode(ino)));
                }
                Ok(Undo::RemoveInode { ino })
            }
            SubOp::ReleaseInode { ino } | SubOp::DecNlink { ino } => {
                let inode = *self
                    .inodes
                    .get(&ino)
                    .ok_or(CxError::NotFound(ObjectId::Inode(ino)))?;
                if inode.nlink <= 1 {
                    // frees the inode if the nlink reaches 0 (Table I)
                    self.inodes.remove(&ino);
                } else {
                    let nlink = inode.nlink - 1;
                    self.inodes.insert(ino, Inode { nlink, ..inode });
                }
                Ok(Undo::RestoreInode { ino, inode })
            }
            SubOp::IncNlink { ino } => {
                let inode = *self
                    .inodes
                    .get(&ino)
                    .ok_or(CxError::NotFound(ObjectId::Inode(ino)))?;
                let nlink = inode.nlink + 1;
                self.inodes.insert(ino, Inode { nlink, ..inode });
                Ok(Undo::DecNlink { ino })
            }
            SubOp::TouchInode { ino } => {
                self.inodes
                    .get(&ino)
                    .ok_or(CxError::NotFound(ObjectId::Inode(ino)))?;
                Ok(Undo::Retouch { ino })
            }
            SubOp::ReadInode { ino } => {
                self.inodes
                    .get(&ino)
                    .ok_or(CxError::NotFound(ObjectId::Inode(ino)))?;
                Ok(Undo::Nothing)
            }
            SubOp::ReadEntry { parent, name } => {
                self.dentries
                    .get(&(parent, name))
                    .ok_or(CxError::NotFound(ObjectId::Dentry(parent, name)))?;
                Ok(Undo::Nothing)
            }
            SubOp::ReadDir { dir } => {
                // A directory partition may legitimately be empty; reading
                // it succeeds as long as the directory exists anywhere. We
                // accept locally-unknown directories, matching OrangeFS
                // semantics.
                let _ = dir;
                Ok(Undo::Nothing)
            }
        }
    }

    /// Roll back one applied sub-op (abort path). The touched objects are
    /// dirty again: the rollback itself must reach the database.
    pub fn undo(&mut self, undo: Undo) {
        match undo {
            Undo::Nothing => return,
            Undo::RemoveDentry { parent, name } => {
                self.dentries.remove(&(parent, name));
                self.dirty.insert(ObjectId::Dentry(parent, name));
                self.dirty.insert(ObjectId::Inode(parent));
            }
            Undo::RestoreDentry {
                parent,
                name,
                child,
            } => {
                self.dentries.insert((parent, name), child);
                self.dirty.insert(ObjectId::Dentry(parent, name));
                self.dirty.insert(ObjectId::Inode(parent));
            }
            Undo::RemoveInode { ino } => {
                self.inodes.remove(&ino);
                self.dirty.insert(ObjectId::Inode(ino));
            }
            Undo::RestoreInode { ino, inode } => {
                self.inodes.insert(ino, inode);
                self.dirty.insert(ObjectId::Inode(ino));
            }
            Undo::DecNlink { ino } => {
                if let Some(&inode) = self.inodes.get(&ino) {
                    let nlink = inode.nlink - 1;
                    self.inodes.insert(ino, Inode { nlink, ..inode });
                }
                self.dirty.insert(ObjectId::Inode(ino));
            }
            Undo::Retouch { ino } => {
                self.dirty.insert(ObjectId::Inode(ino));
            }
        }
        self.stats.undos += 1;
    }

    // ---- write-back ----

    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Drain the dirty set as disk pages for a write-back batch.
    pub fn take_dirty_pages(&mut self) -> Vec<u64> {
        let pages: Vec<u64> = self.dirty.iter().map(object_page).collect();
        self.stats.writeback_objects += self.dirty.len() as u64;
        self.dirty.clear();
        pages
    }

    /// Drain the dirty pages of the given objects only (per-operation
    /// write-back used by the SE baseline's synchronous path).
    pub fn take_dirty_pages_of(&mut self, objs: impl IntoIterator<Item = ObjectId>) -> Vec<u64> {
        let mut pages = Vec::new();
        for obj in objs {
            if self.dirty.remove(&obj) {
                self.stats.writeback_objects += 1;
                pages.push(object_page(&obj));
            }
        }
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MetaStore {
        /// Row-table capacities, `(inodes, dentries)`.
        fn row_capacity(&self) -> (usize, usize) {
            (self.inodes.capacity(), self.dentries.capacity())
        }
    }

    fn create(ino: u64) -> SubOp {
        SubOp::CreateInode {
            ino: InodeNo(ino),
            kind: FileKind::Regular,
        }
    }

    fn insert(parent: u64, name: u64, child: u64) -> SubOp {
        SubOp::InsertEntry {
            parent: InodeNo(parent),
            name: Name(name),
            child: InodeNo(child),
            kind: FileKind::Regular,
        }
    }

    #[test]
    fn create_then_stat_then_release() {
        let mut s = MetaStore::new();
        s.apply(&create(10)).unwrap();
        assert_eq!(s.inode(InodeNo(10)).unwrap().nlink, 1);
        s.apply(&SubOp::ReadInode { ino: InodeNo(10) }).unwrap();
        s.apply(&SubOp::ReleaseInode { ino: InodeNo(10) }).unwrap();
        assert!(s.inode(InodeNo(10)).is_none(), "freed at nlink 0");
    }

    #[test]
    fn duplicate_create_fails_cleanly() {
        let mut s = MetaStore::new();
        s.apply(&create(10)).unwrap();
        let err = s.apply(&create(10)).unwrap_err();
        assert!(matches!(err, CxError::EntryExists(_)));
        assert_eq!(s.inode_count(), 1);
    }

    #[test]
    fn insert_remove_entry_round_trip() {
        let mut s = MetaStore::new();
        s.apply(&insert(1, 5, 10)).unwrap();
        assert_eq!(s.lookup(InodeNo(1), Name(5)), Some(InodeNo(10)));
        assert!(matches!(
            s.apply(&insert(1, 5, 11)).unwrap_err(),
            CxError::EntryExists(_)
        ));
        s.apply(&SubOp::RemoveEntry {
            parent: InodeNo(1),
            name: Name(5),
            child: InodeNo(10),
        })
        .unwrap();
        assert_eq!(s.lookup(InodeNo(1), Name(5)), None);
    }

    #[test]
    fn remove_entry_checks_child_identity() {
        let mut s = MetaStore::new();
        s.apply(&insert(1, 5, 10)).unwrap();
        let err = s
            .apply(&SubOp::RemoveEntry {
                parent: InodeNo(1),
                name: Name(5),
                child: InodeNo(99),
            })
            .unwrap_err();
        assert!(matches!(err, CxError::WrongKind(_)));
    }

    #[test]
    fn undo_reverses_every_mutation() {
        let mut s = MetaStore::new();

        let u = s.apply(&insert(1, 5, 10)).unwrap();
        s.undo(u);
        assert_eq!(s.lookup(InodeNo(1), Name(5)), None);

        let u = s.apply(&create(10)).unwrap();
        s.undo(u);
        assert!(s.inode(InodeNo(10)).is_none());

        s.apply(&create(10)).unwrap();
        let u = s.apply(&SubOp::IncNlink { ino: InodeNo(10) }).unwrap();
        s.undo(u);
        assert_eq!(s.inode(InodeNo(10)).unwrap().nlink, 1);

        let u = s.apply(&SubOp::ReleaseInode { ino: InodeNo(10) }).unwrap();
        assert!(s.inode(InodeNo(10)).is_none());
        s.undo(u);
        assert_eq!(s.inode(InodeNo(10)).unwrap().nlink, 1);

        s.take_dirty_pages();
        let before = (*s.inode(InodeNo(10)).unwrap(), s.stats().undos);
        let u = s.apply(&SubOp::TouchInode { ino: InodeNo(10) }).unwrap();
        s.take_dirty_pages();
        s.undo(u);
        assert_eq!(
            (*s.inode(InodeNo(10)).unwrap(), s.stats().undos),
            (before.0, before.1 + 1),
            "a touch's undo leaves the row and counts"
        );
        assert_eq!(s.dirty_count(), 1, "the rollback reaches the database");
    }

    /// An engine keeps an undo token as its sub-op plus the token's prior
    /// row; for every mutating sub-op (a release and a dec-nlink both
    /// freeing and decrementing) the rebuilt token is the one `apply`
    /// returned.
    #[test]
    fn rebuilt_undo_equals_the_applied_token() {
        let ino = InodeNo(10);
        let remove = SubOp::RemoveEntry {
            parent: InodeNo(1),
            name: Name(5),
            child: ino,
        };
        let cases = [
            (vec![], insert(1, 5, 10)),
            (vec![insert(1, 5, 10)], remove),
            (vec![], create(10)),
            (vec![create(10)], SubOp::ReleaseInode { ino }),
            (
                vec![create(10), SubOp::IncNlink { ino }],
                SubOp::ReleaseInode { ino },
            ),
            (vec![create(10)], SubOp::DecNlink { ino }),
            (
                vec![create(10), SubOp::IncNlink { ino }],
                SubOp::DecNlink { ino },
            ),
            (vec![create(10)], SubOp::IncNlink { ino }),
            (vec![create(10)], SubOp::TouchInode { ino }),
        ];
        for (setup, subop) in cases {
            assert!(subop.is_write());
            let mut s = MetaStore::new();
            for op in &setup {
                s.apply(op).unwrap();
            }
            let token = s.apply(&subop).unwrap();
            assert_eq!(Undo::rebuild(&subop, token.prior_row()), token, "{subop:?}");
        }
        let read = SubOp::ReadDir { dir: InodeNo(1) };
        assert_eq!(Undo::rebuild(&read, None), Undo::Nothing);
    }

    #[test]
    fn nlink_chain_link_unlink() {
        let mut s = MetaStore::new();
        s.apply(&create(10)).unwrap();
        s.apply(&SubOp::IncNlink { ino: InodeNo(10) }).unwrap();
        assert_eq!(s.inode(InodeNo(10)).unwrap().nlink, 2);
        s.apply(&SubOp::DecNlink { ino: InodeNo(10) }).unwrap();
        assert_eq!(s.inode(InodeNo(10)).unwrap().nlink, 1);
        s.apply(&SubOp::DecNlink { ino: InodeNo(10) }).unwrap();
        assert!(s.inode(InodeNo(10)).is_none(), "last unlink frees");
    }

    #[test]
    fn reads_fail_on_missing_objects() {
        let mut s = MetaStore::new();
        assert!(s.apply(&SubOp::ReadInode { ino: InodeNo(9) }).is_err());
        assert!(s
            .apply(&SubOp::ReadEntry {
                parent: InodeNo(1),
                name: Name(2),
            })
            .is_err());
        assert_eq!(s.stats().reads, 0, "failed reads are not counted");
    }

    #[test]
    fn dirty_tracking_and_writeback() {
        let mut s = MetaStore::new();
        s.apply(&insert(1, 5, 10)).unwrap();
        s.apply(&create(10)).unwrap();
        assert_eq!(s.dirty_count(), 3); // dentry + parent inode + inode
        let pages = s.take_dirty_pages();
        assert_eq!(pages.len(), 3);
        assert_eq!(s.dirty_count(), 0);
        // reads never dirty anything
        s.apply(&SubOp::ReadInode { ino: InodeNo(10) }).unwrap();
        assert_eq!(s.dirty_count(), 0);
    }

    #[test]
    fn selective_writeback_for_sync_path() {
        let mut s = MetaStore::new();
        s.apply(&create(10)).unwrap();
        s.apply(&create(11)).unwrap();
        let pages = s.take_dirty_pages_of([ObjectId::Inode(InodeNo(10))]);
        assert_eq!(pages.len(), 1);
        assert_eq!(s.dirty_count(), 1, "other object stays dirty");
    }

    #[test]
    fn failed_apply_leaves_no_dirt() {
        let mut s = MetaStore::new();
        let _ = s.apply(&SubOp::IncNlink { ino: InodeNo(9) });
        assert_eq!(s.dirty_count(), 0);
    }

    #[test]
    fn seeding_supports_pre_populated_namespaces() {
        let mut s = MetaStore::new();
        s.seed_inode(InodeNo(1), FileKind::Directory, 1);
        s.seed_dentry(InodeNo(1), Name(7), InodeNo(10));
        s.seed_inode(InodeNo(10), FileKind::Regular, 1);
        assert_eq!(s.lookup(InodeNo(1), Name(7)), Some(InodeNo(10)));
        assert_eq!(s.dirty_count(), 0, "seeding is clean");
    }

    /// What seeding pays per inode row: key and row inline, 16 bytes a
    /// slot and about 4/3 of a slot a row.
    #[test]
    fn an_inode_row_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<(InodeNo, Inode)>(), 16);
    }

    /// A table reserved for `n` rows takes `n` rows without growing, at
    /// every size seeding meets: a benchmark server's share of 32,000
    /// files, home2's few hundred, the whole namespace on one server.
    #[test]
    fn reserved_tables_hold_their_rows() {
        for (inodes, dentries) in [(0, 0), (1, 0), (98, 131), (4_002, 4_000), (32_002, 32_000)] {
            let mut s = MetaStore::new();
            s.reserve_rows(inodes, dentries);
            let reserved = s.row_capacity();
            assert!(reserved.0 >= inodes && reserved.1 >= dentries);
            for i in 0..inodes as u64 {
                s.seed_inode(InodeNo(i), FileKind::Regular, 1);
            }
            for i in 0..dentries as u64 {
                s.seed_dentry(InodeNo(1), Name(i), InodeNo(i));
            }
            assert_eq!(s.row_capacity(), reserved, "{inodes}/{dentries} rows");
        }
    }
}
