//! Cluster-wide consistency checking.
//!
//! The paper's correctness goal: "the whole system should either see the
//! outcomes of all sub-ops of a cross-server operation, or none of them.
//! Hence, the metadata cross servers are consistent after the execution of
//! a cross-server operation" (§II-A). [`GlobalView`] reads every server's
//! store as one namespace and verifies exactly that, once the cluster has
//! quiesced (no pending commitments).

use crate::store::MetaStore;
use cx_types::{FileKind, InodeNo, Name};

/// A detected cross-server inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A directory entry references an inode that exists on no server.
    DanglingEntry {
        parent: InodeNo,
        name: Name,
        child: InodeNo,
    },
    /// An inode's nlink disagrees with the number of entries referencing
    /// it.
    NlinkMismatch {
        ino: InodeNo,
        nlink: u32,
        referenced: u32,
    },
    /// An inode no entry references (orphan). Roots are exempt.
    OrphanInode { ino: InodeNo },
    /// The same inode exists on two servers (placement violation).
    DuplicateInode { ino: InodeNo },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DanglingEntry {
                parent,
                name,
                child,
            } => write!(
                f,
                "dangling entry {}/{:x} -> missing inode {}",
                parent.0, name.0, child.0
            ),
            Violation::NlinkMismatch {
                ino,
                nlink,
                referenced,
            } => write!(
                f,
                "inode {} has nlink {} but {} referencing entries",
                ino.0, nlink, referenced
            ),
            Violation::OrphanInode { ino } => write!(f, "orphan inode {}", ino.0),
            Violation::DuplicateInode { ino } => write!(f, "inode {} on two servers", ino.0),
        }
    }
}

/// All servers' stores, read as one namespace.
///
/// The view borrows the stores and copies no row: the rows already sit in
/// the servers' tables, and on a Metarates run they are the process's
/// working set. A point lookup probes the stores' own hash tables; the
/// ordered listings and [`GlobalView::check`] sort what they need when
/// asked. No query consults the placement function — a row counts wherever
/// it sits — so a row on the wrong server is still seen, and reported.
///
/// Where a key is held by several stores (a directory's partition rows sit
/// on every server), the row of the store merged last is the one the view
/// shows, as if the stores had been inserted into one map in merge order.
#[derive(Debug)]
pub struct GlobalView<'a> {
    stores: Vec<&'a MetaStore>,
}

impl<'a> GlobalView<'a> {
    /// View the given stores (one per server) as one namespace.
    pub fn merge(stores: impl IntoIterator<Item = &'a MetaStore>) -> Self {
        Self {
            stores: stores.into_iter().collect(),
        }
    }

    /// Entry rows in merge order, without those a later store overrides.
    fn entry_rows(&self) -> impl Iterator<Item = (InodeNo, Name, InodeNo)> + '_ {
        self.stores.iter().enumerate().flat_map(move |(i, store)| {
            let later = &self.stores[i + 1..];
            store
                .dentries()
                .filter(move |(&(parent, name), _)| {
                    !later.iter().any(|s| s.lookup(parent, name).is_some())
                })
                .map(|(&(parent, name), &child)| (parent, name, child))
        })
    }

    /// Inode rows in merge order, without those a later store overrides.
    fn inode_rows(&self) -> impl Iterator<Item = (InodeNo, FileKind, u32)> + '_ {
        self.stores.iter().enumerate().flat_map(move |(i, store)| {
            let later = &self.stores[i + 1..];
            store
                .inodes()
                .filter(move |(&ino, _)| !later.iter().any(|s| s.inode(ino).is_some()))
                .map(|(&ino, inode)| (ino, inode.kind, inode.nlink))
        })
    }

    /// Inodes a store repeats from a store merged before it, in merge
    /// order (an inode on three servers is listed twice).
    fn duplicates(&self) -> Vec<InodeNo> {
        let mut duplicates = Vec::new();
        for (i, store) in self.stores.iter().enumerate() {
            let earlier = &self.stores[..i];
            for (&ino, _) in store.inodes() {
                if earlier.iter().any(|s| s.inode(ino).is_some()) {
                    duplicates.push(ino);
                }
            }
        }
        duplicates
    }

    /// Distinct inodes (walks every store).
    pub fn inode_count(&self) -> usize {
        self.inode_rows().count()
    }

    /// Distinct directory entries (walks every store).
    pub fn dentry_count(&self) -> usize {
        self.entry_rows().count()
    }

    pub fn contains_dentry(&self, parent: InodeNo, name: Name) -> bool {
        self.dentry(parent, name).is_some()
    }

    pub fn contains_inode(&self, ino: InodeNo) -> bool {
        self.inode(ino).is_some()
    }

    /// The inode a directory entry points at, if the entry exists.
    pub fn dentry(&self, parent: InodeNo, name: Name) -> Option<InodeNo> {
        self.stores
            .iter()
            .rev()
            .find_map(|s| s.lookup(parent, name))
    }

    /// An inode's kind and link count, if it exists on any server.
    pub fn inode(&self, ino: InodeNo) -> Option<(FileKind, u32)> {
        self.stores
            .iter()
            .rev()
            .find_map(|s| s.inode(ino))
            .map(|inode| (inode.kind, inode.nlink))
    }

    /// All directory entries, in key order.
    pub fn dentries(&self) -> impl Iterator<Item = (InodeNo, Name, InodeNo)> + '_ {
        let mut rows: Vec<_> = self.entry_rows().collect();
        rows.sort_unstable();
        rows.into_iter()
    }

    /// All inodes, in key order.
    pub fn inodes(&self) -> impl Iterator<Item = (InodeNo, FileKind, u32)> + '_ {
        let mut rows: Vec<_> = self.inode_rows().collect();
        rows.sort_unstable_by_key(|&(ino, _, _)| ino);
        rows.into_iter()
    }

    /// Check the atomicity invariants. `roots` are inodes that legitimately
    /// have no referencing entry (the namespace roots seeded by the
    /// workload).
    ///
    /// Violations come out in a fixed order: duplicated inodes in merge
    /// order, dangling entries in key order, then orphans and link-count
    /// mismatches in inode order.
    pub fn check(&self, roots: &[InodeNo]) -> Vec<Violation> {
        let mut roots = roots.to_vec();
        roots.sort_unstable();
        let is_root = |ino: InodeNo| roots.binary_search(&ino).is_ok();

        // Directory roots legitimately appear on several servers: each
        // server holds a partition-attribute row for them.
        let mut violations: Vec<Violation> = self
            .duplicates()
            .into_iter()
            .filter(|&ino| !is_root(ino))
            .map(|ino| Violation::DuplicateInode { ino })
            .collect();

        // The referenced children, sorted, are all the link counting
        // needs: 8 bytes per entry, counted by binary search.
        let mut children = Vec::with_capacity(self.stores.iter().map(|s| s.dentry_count()).sum());
        let mut dangling = Vec::new();
        for (parent, name, child) in self.entry_rows() {
            if !self.contains_inode(child) {
                dangling.push((parent, name, child));
            }
            children.push(child);
        }
        children.sort_unstable();
        dangling.sort_unstable();
        violations.extend(dangling.into_iter().map(|(parent, name, child)| {
            Violation::DanglingEntry {
                parent,
                name,
                child,
            }
        }));

        let mut offenders = Vec::new();
        for (ino, _, nlink) in self.inode_rows() {
            if is_root(ino) {
                continue;
            }
            let first = children.partition_point(|&c| c < ino);
            let referenced = children[first..].partition_point(|&c| c == ino) as u32;
            if referenced == 0 || referenced != nlink {
                offenders.push((ino, nlink, referenced));
            }
        }
        offenders.sort_unstable();
        violations.extend(offenders.into_iter().map(|(ino, nlink, referenced)| {
            if referenced == 0 {
                Violation::OrphanInode { ino }
            } else {
                Violation::NlinkMismatch {
                    ino,
                    nlink,
                    referenced,
                }
            }
        }));
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{FsOp, Placement, SubOp};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The oracle's oracle: the copying view [`GlobalView`] was until it
    /// became a borrowed one, `merge` and `check` verbatim. Every row of
    /// every store goes into two `BTreeMap`s (a later store's row replaces
    /// an earlier one's) and `check` builds a third for reference counts.
    #[derive(Debug, Default)]
    struct RefView {
        inodes: BTreeMap<InodeNo, (FileKind, u32)>,
        dentries: BTreeMap<(InodeNo, Name), InodeNo>,
        duplicates: Vec<InodeNo>,
    }

    impl RefView {
        /// Merge the given stores (one per server).
        fn merge<'a>(stores: impl IntoIterator<Item = &'a MetaStore>) -> Self {
            let mut view = RefView::default();
            for store in stores {
                for (ino, inode) in store.inodes() {
                    if view
                        .inodes
                        .insert(*ino, (inode.kind, inode.nlink))
                        .is_some()
                    {
                        view.duplicates.push(*ino);
                    }
                }
                for (&(parent, name), &child) in store.dentries() {
                    view.dentries.insert((parent, name), child);
                }
            }
            view
        }

        fn inode_count(&self) -> usize {
            self.inodes.len()
        }

        fn dentry_count(&self) -> usize {
            self.dentries.len()
        }

        fn contains_dentry(&self, parent: InodeNo, name: Name) -> bool {
            self.dentries.contains_key(&(parent, name))
        }

        fn contains_inode(&self, ino: InodeNo) -> bool {
            self.inodes.contains_key(&ino)
        }

        /// The inode a directory entry points at, if the entry exists.
        fn dentry(&self, parent: InodeNo, name: Name) -> Option<InodeNo> {
            self.dentries.get(&(parent, name)).copied()
        }

        /// An inode's kind and link count, if it exists on any server.
        fn inode(&self, ino: InodeNo) -> Option<(FileKind, u32)> {
            self.inodes.get(&ino).copied()
        }

        /// All directory entries, in key order.
        fn dentries(&self) -> impl Iterator<Item = (InodeNo, Name, InodeNo)> + '_ {
            self.dentries
                .iter()
                .map(|(&(parent, name), &child)| (parent, name, child))
        }

        /// All inodes, in key order.
        fn inodes(&self) -> impl Iterator<Item = (InodeNo, FileKind, u32)> + '_ {
            self.inodes
                .iter()
                .map(|(&ino, &(kind, nlink))| (ino, kind, nlink))
        }

        /// Check the atomicity invariants. `roots` are inodes that legitimately
        /// have no referencing entry (the namespace roots seeded by the
        /// workload).
        fn check(&self, roots: &[InodeNo]) -> Vec<Violation> {
            let mut violations = Vec::new();
            for &ino in &self.duplicates {
                // Directory roots legitimately appear on several servers: each
                // server holds a partition-attribute row for them.
                if !roots.contains(&ino) {
                    violations.push(Violation::DuplicateInode { ino });
                }
            }

            let mut refs: BTreeMap<InodeNo, u32> = BTreeMap::new();
            for (&(parent, name), &child) in &self.dentries {
                if !self.inodes.contains_key(&child) {
                    violations.push(Violation::DanglingEntry {
                        parent,
                        name,
                        child,
                    });
                }
                *refs.entry(child).or_insert(0) += 1;
            }

            for (&ino, &(_, nlink)) in &self.inodes {
                let referenced = refs.get(&ino).copied().unwrap_or(0);
                if roots.contains(&ino) {
                    continue;
                }
                if referenced == 0 {
                    violations.push(Violation::OrphanInode { ino });
                } else if referenced != nlink {
                    violations.push(Violation::NlinkMismatch {
                        ino,
                        nlink,
                        referenced,
                    });
                }
            }
            violations
        }
    }

    fn consistent_pair() -> (MetaStore, MetaStore) {
        // server 0 holds the dentry, server 1 holds the inode
        let mut s0 = MetaStore::new();
        let mut s1 = MetaStore::new();
        s0.apply(&SubOp::InsertEntry {
            parent: InodeNo(1),
            name: Name(7),
            child: InodeNo(10),
            kind: FileKind::Regular,
        })
        .unwrap();
        s1.apply(&SubOp::CreateInode {
            ino: InodeNo(10),
            kind: FileKind::Regular,
        })
        .unwrap();
        (s0, s1)
    }

    #[test]
    fn consistent_cross_server_create_passes() {
        let (s0, s1) = consistent_pair();
        let view = GlobalView::merge([&s0, &s1]);
        assert_eq!(view.check(&[]), vec![]);
        assert_eq!(view.inode_count(), 1);
        assert_eq!(view.dentry_count(), 1);
    }

    #[test]
    fn half_applied_create_is_detected_both_ways() {
        // Entry without inode: dangling.
        let (s0, _) = consistent_pair();
        let empty = MetaStore::new();
        let view = GlobalView::merge([&s0, &empty]);
        assert!(matches!(
            view.check(&[])[0],
            Violation::DanglingEntry { .. }
        ));

        // Inode without entry: orphan.
        let (_, s1) = consistent_pair();
        let view = GlobalView::merge([&empty, &s1]);
        assert!(matches!(view.check(&[])[0], Violation::OrphanInode { .. }));
    }

    #[test]
    fn nlink_mismatch_detected() {
        let (s0, mut s1) = consistent_pair();
        // a second link exists only as nlink bump, no second entry
        s1.apply(&SubOp::IncNlink { ino: InodeNo(10) }).unwrap();
        let view = GlobalView::merge([&s0, &s1]);
        assert!(matches!(
            view.check(&[])[0],
            Violation::NlinkMismatch {
                nlink: 2,
                referenced: 1,
                ..
            }
        ));
    }

    #[test]
    fn roots_are_exempt_from_orphan_check() {
        let mut s = MetaStore::new();
        s.seed_inode(InodeNo(1), FileKind::Directory, 1);
        let view = GlobalView::merge([&s]);
        assert_eq!(view.check(&[InodeNo(1)]), vec![]);
        assert_eq!(view.check(&[]).len(), 1);
    }

    #[test]
    fn duplicate_inode_across_servers_detected() {
        let mut s0 = MetaStore::new();
        let mut s1 = MetaStore::new();
        s0.seed_inode(InodeNo(5), FileKind::Regular, 1);
        s1.seed_inode(InodeNo(5), FileKind::Regular, 1);
        let view = GlobalView::merge([&s0, &s1]);
        assert!(view
            .check(&[])
            .iter()
            .any(|v| matches!(v, Violation::DuplicateInode { .. })));
        // …but declared roots (directory partitions) are exempt.
        assert!(!view
            .check(&[InodeNo(5)])
            .iter()
            .any(|v| matches!(v, Violation::DuplicateInode { .. })));
    }

    #[test]
    fn full_plan_application_is_consistent() {
        // Apply every Table I operation through its plan on a 4-server
        // layout and verify global consistency afterwards.
        let placement = Placement::new(4);
        let mut stores: Vec<MetaStore> = (0..4).map(|_| MetaStore::new()).collect();
        let root = InodeNo(1);

        let apply = |stores: &mut Vec<MetaStore>, op: FsOp| {
            let plan = placement.plan(op);
            for (server, subop, _) in plan.assignments() {
                stores[server.0 as usize].apply(&subop).unwrap();
            }
        };

        apply(
            &mut stores,
            FsOp::Create {
                parent: root,
                name: Name(1),
                ino: InodeNo(10),
            },
        );
        apply(
            &mut stores,
            FsOp::Mkdir {
                parent: root,
                name: Name(2),
                ino: InodeNo(11),
            },
        );
        apply(
            &mut stores,
            FsOp::Link {
                parent: root,
                name: Name(3),
                target: InodeNo(10),
            },
        );
        apply(
            &mut stores,
            FsOp::Unlink {
                parent: root,
                name: Name(3),
                target: InodeNo(10),
            },
        );
        apply(
            &mut stores,
            FsOp::Remove {
                parent: root,
                name: Name(1),
                ino: InodeNo(10),
            },
        );
        apply(
            &mut stores,
            FsOp::Rmdir {
                parent: root,
                name: Name(2),
                ino: InodeNo(11),
            },
        );

        let view = GlobalView::merge(stores.iter());
        assert_eq!(view.check(&[root]), vec![]);
        assert_eq!(view.inode_count(), 0, "everything was removed again");
        assert_eq!(view.dentry_count(), 0);
    }

    /// One injected inconsistency; indices wrap around the row lists.
    #[derive(Debug, Clone)]
    enum Fault {
        DropInode(usize),
        DropDentry(usize),
        /// Bump or zero a link count.
        SetNlink(usize, u32),
        /// The same inode on one more server, possibly with another count.
        CopyInode {
            row: usize,
            to: usize,
            nlink: u32,
        },
        /// The same entry key on one more server, possibly pointing at
        /// another child (`shift` 0 keeps it).
        CopyDentry {
            row: usize,
            to: usize,
            shift: u64,
        },
    }

    fn fault() -> impl Strategy<Value = Fault> {
        prop_oneof![
            any::<usize>().prop_map(Fault::DropInode),
            any::<usize>().prop_map(Fault::DropDentry),
            (any::<usize>(), 0u32..5).prop_map(|(row, n)| Fault::SetNlink(row, n)),
            (any::<usize>(), 0usize..8, 0u32..4).prop_map(|(row, to, nlink)| Fault::CopyInode {
                row,
                to,
                nlink
            }),
            (any::<usize>(), 0usize..8, 0u64..3).prop_map(|(row, to, shift)| Fault::CopyDentry {
                row,
                to,
                shift
            }),
        ]
    }

    type InodeRow = (usize, InodeNo, FileKind, u32);
    type EntryRow = (usize, InodeNo, Name, InodeNo);

    /// A consistent namespace over `used` of the stores — `dirs` directory
    /// roots with a partition row on each, every file hard-linked
    /// `links[i]` times across the roots — then the faults.
    fn faulty_rows(
        used: usize,
        dirs: u64,
        links: &[u32],
        faults: &[Fault],
    ) -> (Vec<InodeRow>, Vec<EntryRow>) {
        let mut inodes = Vec::new();
        let mut entries = Vec::new();
        for d in 1..=dirs {
            for s in 0..used {
                inodes.push((s, InodeNo(d), FileKind::Directory, 1));
            }
        }
        for (i, &nlink) in links.iter().enumerate() {
            let ino = InodeNo(10 + i as u64);
            inodes.push((ino.0 as usize * 7 % used, ino, FileKind::Regular, nlink));
            for l in 0..nlink as u64 {
                let name = Name(4 * i as u64 + l);
                let parent = InodeNo(1 + (i as u64 + l) % dirs);
                entries.push((name.0 as usize * 13 % used, parent, name, ino));
            }
        }
        for f in faults {
            match *f {
                Fault::DropInode(row) if !inodes.is_empty() => {
                    inodes.remove(row % inodes.len());
                }
                Fault::DropDentry(row) if !entries.is_empty() => {
                    entries.remove(row % entries.len());
                }
                Fault::SetNlink(row, n) if !inodes.is_empty() => {
                    let row = row % inodes.len();
                    inodes[row].3 = n;
                }
                Fault::CopyInode { row, to, nlink } if !inodes.is_empty() => {
                    let (_, ino, kind, _) = inodes[row % inodes.len()];
                    inodes.push((to, ino, kind, nlink));
                }
                Fault::CopyDentry { row, to, shift } if !entries.is_empty() => {
                    let (_, parent, name, child) = entries[row % entries.len()];
                    entries.push((to, parent, name, InodeNo(child.0 + shift)));
                }
                _ => {}
            }
        }
        (inodes, entries)
    }

    proptest! {
        /// The borrowed view answers every query the copying one did, with
        /// the same rows in the same order, on consistent namespaces and on
        /// broken ones: inodes and entries lost, link counts bumped or
        /// zeroed, a row on two or three servers (roots and non-roots),
        /// hard links, stores left empty.
        #[test]
        fn borrowed_view_equals_the_copying_reference(
            servers in 1usize..9,
            used in 1usize..9,
            dirs in 1u64..4,
            links in prop::collection::vec(1u32..4, 0..24),
            faults in prop::collection::vec(fault(), 0..6),
            root_mask in 0u8..32,
        ) {
            let used = used.min(servers);
            let (inodes, entries) = faulty_rows(used, dirs, &links, &faults);
            let mut stores: Vec<MetaStore> = (0..servers).map(|_| MetaStore::new()).collect();
            for &(s, ino, kind, nlink) in &inodes {
                stores[s % servers].seed_inode(ino, kind, nlink);
            }
            for &(s, parent, name, child) in &entries {
                stores[s % servers].seed_dentry(parent, name, child);
            }
            // Some directories declared roots, some not, and now and then
            // a file: bits 0..3 pick directories, bits 3..5 files.
            let roots: Vec<InodeNo> = (0..5u64)
                .filter(|b| root_mask >> b & 1 == 1)
                .map(|b| if b < 3 { InodeNo(1 + b) } else { InodeNo(7 + b) })
                .collect();

            let want = RefView::merge(stores.iter());
            let got = GlobalView::merge(stores.iter());
            prop_assert_eq!(got.check(&roots), want.check(&roots));
            prop_assert_eq!(got.check(&[]), want.check(&[]));
            prop_assert_eq!(got.inode_count(), want.inode_count());
            prop_assert_eq!(got.dentry_count(), want.dentry_count());
            prop_assert_eq!(
                got.dentries().collect::<Vec<_>>(),
                want.dentries().collect::<Vec<_>>()
            );
            prop_assert_eq!(
                got.inodes().collect::<Vec<_>>(),
                want.inodes().collect::<Vec<_>>()
            );
            // Point lookups, on keys that exist and keys that do not.
            for ino in (0..40).map(InodeNo) {
                prop_assert_eq!(got.inode(ino), want.inode(ino));
                prop_assert_eq!(got.contains_inode(ino), want.contains_inode(ino));
            }
            for parent in (0..5).map(InodeNo) {
                for name in (0..100).map(Name) {
                    prop_assert_eq!(got.dentry(parent, name), want.dentry(parent, name));
                    prop_assert_eq!(
                        got.contains_dentry(parent, name),
                        want.contains_dentry(parent, name)
                    );
                }
            }
        }
    }
}
