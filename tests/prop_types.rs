//! Property-based tests of the core vocabulary: placement, plans,
//! messages and configuration.

use cx_types::{
    check::check, ClusterConfig, FileKind, FsOp, InodeNo, Name, OpId, Payload, Placement, ProcId,
    Protocol, SubOp, Verdict,
};

/// Placement is deterministic and balanced within a loose bound for
/// any cluster size.
#[test]
fn placement_balance() {
    check("placement_balance", 48, |g| {
        let (servers, salt) = (g.gen_range(1u32..33), g.gen::<u64>());
        let p = Placement::new(servers);
        let mut counts = vec![0u32; servers as usize];
        let n = 4_000u64;
        for i in 0..n {
            let ino = InodeNo(i.wrapping_mul(0x9E37_79B9).wrapping_add(salt));
            counts[p.inode_server(ino).0 as usize] += 1;
        }
        let mean = n as f64 / servers as f64;
        for c in counts {
            assert!(
                (c as f64) < mean * 1.6 + 24.0,
                "server holds {c} of {n} across {servers} servers"
            );
        }
    });
}

/// Every plan's assignments execute each half exactly once, and the
/// sub-ops' objects live on the servers they're assigned to.
#[test]
fn plan_assignments_are_complete() {
    check("plan_assignments_are_complete", 48, |g| {
        let servers = g.gen_range(1u32..33);
        let parent = InodeNo(g.gen_range(1u64..50));
        let name = Name(g.gen_range(1u64..10_000));
        let ino = InodeNo(g.gen_range(100u64..10_000));
        let p = Placement::new(servers);
        let ops = [
            FsOp::Create { parent, name, ino },
            FsOp::Mkdir { parent, name, ino },
            FsOp::Unlink {
                parent,
                name,
                target: ino,
            },
            FsOp::Rmdir { parent, name, ino },
        ];
        for op in ops {
            let plan = p.plan(op);
            let assignments = plan.assignments();
            let halves = 1 + (plan.participant.is_some() || plan.colocated.is_some()) as usize;
            assert_eq!(assignments.len(), halves);
            // the coordinator half is always an entry operation
            let coord_is_entry_op = matches!(
                plan.coord_subop,
                SubOp::InsertEntry { .. } | SubOp::RemoveEntry { .. }
            );
            assert!(coord_is_entry_op);
            for (server, subop, _) in assignments {
                // every object of the sub-op is owned by that server
                for obj in subop.objects().iter() {
                    let owner = match obj {
                        cx_types::ObjectId::Inode(i) => {
                            // the parent's partition row lives with the
                            // dentry; child inodes live at their home
                            if i == parent && subop.is_write() {
                                server
                            } else {
                                p.inode_server(i)
                            }
                        }
                        cx_types::ObjectId::Dentry(d, n) => p.dentry_server(d, n),
                    };
                    assert_eq!(owner, server, "{:?} of {:?}", obj, subop);
                }
            }
        }
    });
}

/// The conflict object is always one of the accessed objects.
#[test]
fn conflict_objects_subset() {
    check("conflict_objects_subset", 48, |g| {
        let parent = InodeNo(g.gen_range(1u64..50));
        let name = Name(g.gen_range(1u64..1000));
        let ino = InodeNo(g.gen_range(100u64..1000));
        let kind = FileKind::Regular;
        let subs = [
            SubOp::InsertEntry {
                parent,
                name,
                child: ino,
                kind,
            },
            SubOp::RemoveEntry {
                parent,
                name,
                child: ino,
            },
            SubOp::CreateInode { ino, kind },
            SubOp::ReleaseInode { ino },
            SubOp::ReadEntry { parent, name },
        ];
        for s in subs {
            assert!(s.objects().contains(&s.conflict_object()));
        }
    });
}

/// Message sizes grow monotonically with batch size and never
/// undershoot the header.
#[test]
fn message_sizes_are_sane() {
    check("message_sizes_are_sane", 48, |g| {
        let n = g.gen_range(1usize..200);
        let ops: Vec<OpId> = (0..n as u64)
            .map(|i| OpId::new(ProcId::new(0, 0), i))
            .collect();
        let msgs = [
            Payload::Vote {
                ops: ops.clone(),
                order_after: vec![],
            },
            Payload::VoteResult {
                results: ops.iter().map(|o| (*o, Verdict::Yes)).collect(),
            },
            Payload::CommitDecision {
                commits: ops.clone(),
                aborts: vec![],
            },
            Payload::Ack { ops: ops.clone() },
            Payload::QueryOutcome { ops },
        ];
        for m in msgs {
            let size = m.size_bytes();
            assert!(size >= 64, "{:?} smaller than a header", m.kind());
            // batched messages beat n singletons by a wide margin
            assert!(
                (size as usize) < 64 * n + 64 + 32 * n,
                "batching must be cheaper than per-op messages"
            );
        }
    });
}

/// Configurations survive a JSON round trip for every protocol and
/// cluster size.
#[test]
fn config_round_trips() {
    check("config_round_trips", 48, |g| {
        let (servers, seed) = (g.gen_range(1u32..64), g.gen::<u64>());
        for protocol in Protocol::ALL {
            let cfg = ClusterConfig::new(servers, protocol).with_seed(seed);
            let json = serde_json::to_string(&cfg).expect("serializes");
            let back: ClusterConfig = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(cfg, back);
        }
    });
}

/// Operation ids order lexicographically by (client, process, seq) —
/// the property the deterministic sweeps rely on.
#[test]
fn op_id_ordering() {
    check("op_id_ordering", 48, |g| {
        let (c1, p1, s1) = (g.gen_range(0..8), g.gen_range(0..4), g.gen_range(0..100));
        let (c2, p2, s2) = (g.gen_range(0..8), g.gen_range(0..4), g.gen_range(0..100));
        let a = OpId::new(ProcId::new(c1, p1), s1);
        let b = OpId::new(ProcId::new(c2, p2), s2);
        let expected = (c1, p1, s1).cmp(&(c2, p2, s2));
        assert_eq!(a.cmp(&b), expected);
    });
}
