//! Property-based protocol tests.
//!
//! * `sequential_oracle`: random operation sequences, executed one at a
//!   time, must produce exactly the outcomes and final namespace of a
//!   simple sequential reference model — for **every** protocol and
//!   cluster size. This is the cross-protocol equivalence property of
//!   DESIGN.md §6.
//! * `concurrent_chaos`: random operations from several processes with
//!   randomly held-and-released messages (Cx only). Every operation must
//!   eventually complete and the cluster must quiesce into a consistent
//!   state — conflicts, invalidations and forced commitments included.

mod kit;

use cx_protocol::testkit::Envelope;
use cx_types::check::{check, Gen};
use cx_types::{FileKind, FsOp, InodeNo, Name, OpOutcome, ProcId, Protocol};
use kit::*;
use std::collections::HashMap;

/// Sequential reference model of the namespace.
#[derive(Default, Clone)]
struct Model {
    inodes: HashMap<InodeNo, (FileKind, u32)>,
    dentries: HashMap<(InodeNo, Name), InodeNo>,
}

impl Model {
    fn seed_root(&mut self) {
        self.inodes.insert(ROOT, (FileKind::Directory, 1));
    }

    /// Apply `op` with all-or-nothing semantics; returns the outcome.
    fn apply(&mut self, op: FsOp) -> OpOutcome {
        let ok = match op {
            FsOp::Create { parent, name, ino } | FsOp::Mkdir { parent, name, ino } => {
                let kind = if matches!(op, FsOp::Mkdir { .. }) {
                    FileKind::Directory
                } else {
                    FileKind::Regular
                };
                if self.dentries.contains_key(&(parent, name)) || self.inodes.contains_key(&ino) {
                    false
                } else {
                    self.dentries.insert((parent, name), ino);
                    self.inodes.insert(ino, (kind, 1));
                    true
                }
            }
            FsOp::Remove { parent, name, ino } | FsOp::Rmdir { parent, name, ino } => {
                if self.dentries.get(&(parent, name)) == Some(&ino)
                    && self.inodes.contains_key(&ino)
                {
                    self.dentries.remove(&(parent, name));
                    let e = self.inodes.get_mut(&ino).expect("checked");
                    if e.1 <= 1 {
                        self.inodes.remove(&ino);
                    } else {
                        e.1 -= 1;
                    }
                    true
                } else {
                    false
                }
            }
            FsOp::Link {
                parent,
                name,
                target,
            } => {
                if !self.dentries.contains_key(&(parent, name)) && self.inodes.contains_key(&target)
                {
                    self.dentries.insert((parent, name), target);
                    self.inodes.get_mut(&target).expect("checked").1 += 1;
                    true
                } else {
                    false
                }
            }
            FsOp::Unlink {
                parent,
                name,
                target,
            } => {
                if self.dentries.get(&(parent, name)) == Some(&target)
                    && self.inodes.contains_key(&target)
                {
                    self.dentries.remove(&(parent, name));
                    let e = self.inodes.get_mut(&target).expect("checked");
                    if e.1 <= 1 {
                        self.inodes.remove(&target);
                    } else {
                        e.1 -= 1;
                    }
                    true
                } else {
                    false
                }
            }
            FsOp::Stat { ino }
            | FsOp::Getattr { ino }
            | FsOp::Access { ino }
            | FsOp::Setattr { ino } => self.inodes.contains_key(&ino),
            FsOp::Lookup { parent, name } => self.dentries.contains_key(&(parent, name)),
            FsOp::Readdir { .. } => true,
        };
        if ok {
            OpOutcome::Applied
        } else {
            OpOutcome::Failed
        }
    }
}

/// Operation generator over a compact namespace so collisions (and thus
/// failures and reuse) are common: names 1..24 and inodes 100..124 in the
/// root. Drawn uniformly, they rarely line up into create → link → remove
/// → stat of one inode, so half the time the name and inode are a live
/// entry's of `model` (the namespace the op will run against) and a
/// quarter of the time the inode is a live one, hard links included.
/// Against an empty model it draws exactly what the uniform draw does.
fn arb_op(g: &mut Gen, model: &Model) -> FsOp {
    let (which, parent) = (g.gen_range(0..8), ROOT);
    let (mut name, mut ino) = (Name(g.gen_range(1..24)), InodeNo(g.gen_range(100..124)));
    let mut entries: Vec<(Name, InodeNo)> = model
        .dentries
        .iter()
        .map(|(&(_, name), &child)| (name, child))
        .collect();
    entries.sort_unstable();
    if !entries.is_empty() && g.gen_bool(0.5) {
        (name, ino) = *g.choose(&entries).expect("non-empty");
    }
    let mut inodes: Vec<InodeNo> = model
        .inodes
        .keys()
        .copied()
        .filter(|&i| i != ROOT)
        .collect();
    inodes.sort_unstable();
    if !inodes.is_empty() && g.gen_bool(0.25) {
        ino = *g.choose(&inodes).expect("non-empty");
    }
    let target = ino;
    match which {
        0 => FsOp::Create { parent, name, ino },
        1 => FsOp::Remove { parent, name, ino },
        2 => FsOp::Mkdir { parent, name, ino },
        3 => FsOp::Link {
            parent,
            name,
            target,
        },
        4 => FsOp::Unlink {
            parent,
            name,
            target,
        },
        5 => FsOp::Stat { ino },
        6 => FsOp::Lookup { parent, name },
        _ => FsOp::Setattr { ino },
    }
}

#[test]
fn sequential_oracle() {
    check("sequential_oracle", 64, |g| {
        let protocol = *g.choose(&Protocol::ALL).unwrap();
        let servers = *g.choose(&[1u32, 2, 4, 8]).unwrap();
        // Each op is drawn against the namespace the ones before it leave,
        // and the model applies it: its outcome is the expected one.
        let mut model = Model::default();
        model.seed_root();
        let n = g.gen_range(1..60);
        let ops: Vec<(FsOp, OpOutcome)> = (0..n)
            .map(|_| {
                let op = arb_op(g, &model);
                (op, model.apply(op))
            })
            .collect();
        let mut kit = kit_never(servers, protocol);
        seed_namespace(&mut kit, &[]);

        for (i, &(op, expected)) in ops.iter().enumerate() {
            let id = kit.run_op(ProcId::new((i % 3) as u32, 0), op);
            kit.fire_timers();
            kit.run();
            assert_eq!(
                kit.outcome(id),
                Some(expected),
                "op {i} = {op:?} under {protocol:?}/{servers} servers"
            );
        }
        kit.quiesce();
        assert_eq!(kit.check_consistency(&roots()), vec![]);

        // The final namespace must match the model row for row.
        let view = cx_mdstore::GlobalView::merge(kit.servers.iter().map(|s| s.store()));
        let at = format!("after {n} ops under {protocol:?}/{servers} servers");
        assert_eq!(view.dentry_count(), model.dentries.len(), "dentries {at}");
        for (&(parent, name), &child) in &model.dentries {
            assert_eq!(
                view.dentry(parent, name),
                Some(child),
                "entry {name:?} in {parent:?} {at}"
            );
        }
        assert_eq!(view.inode_count(), model.inodes.len(), "inodes {at}");
        for (&ino, &row) in &model.inodes {
            assert_eq!(view.inode(ino), Some(row), "inode {ino:?} {at}");
        }
    });
}

#[test]
fn concurrent_chaos() {
    check("concurrent_chaos", 48, |g| {
        // Uniform draws: biased toward live rows, this property finds an op
        // that never completes (CHANGES.md, FOUND on presumed aborts).
        let ops = g.vec(4..40, |g| arb_op(g, &Model::default()));
        let servers = *g.choose(&[2u32, 4, 8]).unwrap();
        let (mask, release_every) = (g.gen::<u64>(), g.gen_range(1usize..5));
        let mut kit = kit_never(servers, Protocol::Cx);
        seed_namespace(&mut kit, &[]);

        // Randomly hold a fraction of server-bound messages to create
        // unusual interleavings, releasing them periodically.
        let counter = std::cell::Cell::new(0u64);
        kit.hold_if(move |_env: &Envelope| {
            let c = counter.get();
            counter.set(c.wrapping_add(1));
            (mask >> (c % 61)) & 1 == 1
        });

        let mut ids = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            // 4 processes issue operations round-robin; a process only
            // issues when its previous op finished (sequential semantics),
            // otherwise the op is skipped.
            let proc = ProcId::new((i % 4) as u32, 0);
            let busy = kit
                .clients
                .get(&proc)
                .map(|c| !c.is_done())
                .unwrap_or(false);
            if busy {
                continue;
            }
            ids.push(kit.start_op(proc, *op));
            if i % release_every == 0 {
                kit.run();
                kit.release_held();
                kit.run();
                kit.fire_timers();
            }
        }
        // Drain everything.
        kit.stop_holding();
        for _ in 0..20 {
            kit.release_held();
            kit.run();
            kit.fire_timers();
            kit.run();
            if ids.iter().all(|id| kit.outcome(*id).is_some()) {
                break;
            }
        }
        for id in &ids {
            assert!(
                kit.outcome(*id).is_some(),
                "operation {id} must eventually complete"
            );
        }
        kit.quiesce();
        assert_eq!(kit.check_consistency(&roots()), vec![]);
        assert!(kit.servers.iter().all(|s| s.is_quiesced()));
    });
}
