//! Property-based tests of the metadata store: apply/undo inversion and
//! dirty-tracking discipline.

use cx_mdstore::MetaStore;
use cx_types::check::{check, Gen};
use cx_types::{FileKind, FsOp, InodeNo, Name, Placement, SubOp};

fn arb_subop(g: &mut Gen) -> SubOp {
    let (which, parent) = (g.gen_range(0..9), InodeNo(1));
    let (name, ino) = (Name(g.gen_range(1..40)), InodeNo(g.gen_range(2..40)));
    let kind = *g.choose(&[FileKind::Regular, FileKind::Directory]).unwrap();
    match which {
        0 => SubOp::InsertEntry {
            parent,
            name,
            child: ino,
            kind,
        },
        1 => SubOp::RemoveEntry {
            parent,
            name,
            child: ino,
        },
        2 => SubOp::CreateInode { ino, kind },
        3 => SubOp::ReleaseInode { ino },
        4 => SubOp::IncNlink { ino },
        5 => SubOp::DecNlink { ino },
        6 => SubOp::TouchInode { ino },
        7 => SubOp::ReadEntry { parent, name },
        _ => SubOp::ReadInode { ino },
    }
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

/// Applying any sub-op and undoing it restores the exact prior state
/// (modulo attribute version counters, which carry no semantics).
#[test]
fn undo_is_exact_inverse() {
    check("undo_is_exact_inverse", 48, |g| {
        let (setup, probe) = (g.vec(0..30, arb_subop), arb_subop(g));
        let mut store = MetaStore::new();
        store.seed_inode(InodeNo(1), FileKind::Directory, 1);
        for s in &setup {
            let _ = store.apply(s); // failures are fine; they change nothing
        }
        let before = snapshot(&store);
        if let Ok(undo) = store.apply(&probe) {
            store.undo(undo);
        }
        assert_eq!(snapshot(&store), before);
    });
}

/// A failed apply leaves the store untouched and dirties nothing.
#[test]
fn failed_apply_is_a_noop() {
    check("failed_apply_is_a_noop", 48, |g| {
        let (setup, probe) = (g.vec(0..30, arb_subop), arb_subop(g));
        let mut store = MetaStore::new();
        store.seed_inode(InodeNo(1), FileKind::Directory, 1);
        for s in &setup {
            let _ = store.apply(s);
        }
        store.take_dirty_pages();
        let before = snapshot(&store);
        if store.apply(&probe).is_err() {
            assert_eq!(snapshot(&store), before);
            assert_eq!(store.dirty_count(), 0);
        }
    });
}

/// Dirty pages drain exactly once: a second take returns nothing.
#[test]
fn dirty_drains_once() {
    check("dirty_drains_once", 48, |g| {
        let ops = g.vec(1..30, arb_subop);
        let mut store = MetaStore::new();
        store.seed_inode(InodeNo(1), FileKind::Directory, 1);
        for s in &ops {
            let _ = store.apply(s);
        }
        let first = store.take_dirty_pages();
        let second = store.take_dirty_pages();
        assert!(second.is_empty());
        // every successful write dirtied at least one page
        if ops.iter().any(|s| s.is_write()) {
            // (possible that all writes failed; then first can be empty)
            assert!(first.len() <= 3 * ops.len());
        }
    });
}

/// Placement planning is total and consistent: every op yields a plan
/// whose assignments cover the op's sub-ops on the right servers.
#[test]
fn plans_are_consistent() {
    check("plans_are_consistent", 48, |g| {
        let servers = g.gen_range(1u32..33);
        let (name, ino) = (
            Name(g.gen_range(1..10_000)),
            InodeNo(g.gen_range(2..10_000)),
        );
        let (parent, target) = (InodeNo(1), ino);
        let placement = Placement::new(servers);
        let ops = [
            FsOp::Create { parent, name, ino },
            FsOp::Remove { parent, name, ino },
            FsOp::Link {
                parent,
                name,
                target,
            },
            FsOp::Stat { ino },
            FsOp::Lookup { parent, name },
        ];
        for op in ops {
            let plan = placement.plan(op);
            assert!(plan.coordinator.0 < servers);
            if let Some((s, _)) = plan.participant {
                assert!(s.0 < servers);
                assert_ne!(s, plan.coordinator, "cross-server means two servers");
            }
            if op.is_mutation() {
                assert_eq!(
                    plan.participant.is_none(),
                    plan.colocated.is_some(),
                    "a mutation has exactly two halves"
                );
                assert_eq!(
                    plan.coordinator,
                    placement.dentry_server(InodeNo(1), name),
                    "the coordinator owns the parent entry"
                );
            } else {
                assert!(plan.participant.is_none() && plan.colocated.is_none());
            }
        }
    });
}
