//! Property-based tests of the metadata store: apply/undo inversion and
//! dirty-tracking discipline.

use cx_mdstore::MetaStore;
use cx_types::{FileKind, FsOp, InodeNo, Name, Placement, SubOp};
use proptest::prelude::*;

fn subop_strategy() -> impl Strategy<Value = SubOp> {
    let ino = (2u64..40).prop_map(InodeNo);
    let name = (1u64..40).prop_map(Name);
    prop_oneof![
        (name.clone(), ino.clone(), any::<bool>()).prop_map(|(name, child, dir)| {
            SubOp::InsertEntry {
                parent: InodeNo(1),
                name,
                child,
                kind: if dir {
                    FileKind::Directory
                } else {
                    FileKind::Regular
                },
            }
        }),
        (name.clone(), ino.clone()).prop_map(|(name, child)| SubOp::RemoveEntry {
            parent: InodeNo(1),
            name,
            child,
        }),
        (ino.clone(), any::<bool>()).prop_map(|(i, dir)| SubOp::CreateInode {
            ino: i,
            kind: if dir {
                FileKind::Directory
            } else {
                FileKind::Regular
            },
        }),
        ino.clone().prop_map(|i| SubOp::ReleaseInode { ino: i }),
        ino.clone().prop_map(|i| SubOp::IncNlink { ino: i }),
        ino.clone().prop_map(|i| SubOp::DecNlink { ino: i }),
        ino.clone().prop_map(|i| SubOp::TouchInode { ino: i }),
        (name, ino.clone()).prop_map(|(name, _)| SubOp::ReadEntry {
            parent: InodeNo(1),
            name,
        }),
        ino.prop_map(|i| SubOp::ReadInode { ino: i }),
    ]
}

type InodeRows = Vec<(InodeNo, FileKind, u32)>;
type DentryRows = Vec<((InodeNo, Name), InodeNo)>;

fn snapshot(store: &MetaStore) -> (InodeRows, DentryRows) {
    // Sort: the store's row tables iterate in slot order, not key order.
    let mut inodes: Vec<_> = store.inodes().map(|(i, n)| (*i, n.kind, n.nlink)).collect();
    inodes.sort_by_key(|(i, _, _)| i.0);
    let mut dentries: Vec<_> = store.dentries().map(|(k, v)| (*k, *v)).collect();
    dentries.sort_by_key(|((p, n), _)| (p.0, n.0));
    (inodes, dentries)
}

proptest! {
    /// Applying any sub-op and undoing it restores the exact prior state
    /// (modulo attribute version counters, which carry no semantics).
    #[test]
    fn undo_is_exact_inverse(
        setup in prop::collection::vec(subop_strategy(), 0..30),
        probe in subop_strategy(),
    ) {
        let mut store = MetaStore::new();
        store.seed_inode(InodeNo(1), FileKind::Directory, 1);
        for s in &setup {
            let _ = store.apply(s); // failures are fine; they change nothing
        }
        let before = snapshot(&store);
        if let Ok(undo) = store.apply(&probe) {
            store.undo(undo);
        }
        prop_assert_eq!(snapshot(&store), before);
    }

    /// A failed apply leaves the store untouched and dirties nothing.
    #[test]
    fn failed_apply_is_a_noop(
        setup in prop::collection::vec(subop_strategy(), 0..30),
        probe in subop_strategy(),
    ) {
        let mut store = MetaStore::new();
        store.seed_inode(InodeNo(1), FileKind::Directory, 1);
        for s in &setup {
            let _ = store.apply(s);
        }
        store.take_dirty_pages();
        let before = snapshot(&store);
        if store.apply(&probe).is_err() {
            prop_assert_eq!(snapshot(&store), before);
            prop_assert_eq!(store.dirty_count(), 0);
        }
    }

    /// Dirty pages drain exactly once: a second take returns nothing.
    #[test]
    fn dirty_drains_once(ops in prop::collection::vec(subop_strategy(), 1..30)) {
        let mut store = MetaStore::new();
        store.seed_inode(InodeNo(1), FileKind::Directory, 1);
        for s in &ops {
            let _ = store.apply(s);
        }
        let first = store.take_dirty_pages();
        let second = store.take_dirty_pages();
        prop_assert!(second.is_empty());
        // every successful write dirtied at least one page
        if ops.iter().any(|s| s.is_write()) {
            // (possible that all writes failed; then first can be empty)
            prop_assert!(first.len() <= 3 * ops.len());
        }
    }

    /// Placement planning is total and consistent: every op yields a plan
    /// whose assignments cover the op's sub-ops on the right servers.
    #[test]
    fn plans_are_consistent(servers in 1u32..33, name in 1u64..10_000, ino in 2u64..10_000) {
        let placement = Placement::new(servers);
        let ops = [
            FsOp::Create { parent: InodeNo(1), name: Name(name), ino: InodeNo(ino) },
            FsOp::Remove { parent: InodeNo(1), name: Name(name), ino: InodeNo(ino) },
            FsOp::Link { parent: InodeNo(1), name: Name(name), target: InodeNo(ino) },
            FsOp::Stat { ino: InodeNo(ino) },
            FsOp::Lookup { parent: InodeNo(1), name: Name(name) },
        ];
        for op in ops {
            let plan = placement.plan(op);
            prop_assert!(plan.coordinator.0 < servers);
            if let Some((s, _)) = plan.participant {
                prop_assert!(s.0 < servers);
                prop_assert_ne!(s, plan.coordinator, "cross-server means two servers");
            }
            if op.is_mutation() {
                prop_assert_eq!(
                    plan.participant.is_none(),
                    plan.colocated.is_some(),
                    "a mutation has exactly two halves"
                );
                prop_assert_eq!(
                    plan.coordinator,
                    placement.dentry_server(InodeNo(1), Name(name)),
                    "the coordinator owns the parent entry"
                );
            } else {
                prop_assert!(plan.participant.is_none() && plan.colocated.is_none());
            }
        }
    }
}
