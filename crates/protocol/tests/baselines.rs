//! The baseline protocols (SE, SE-batched, 2PC, CE): functional
//! correctness, protocol-specific message patterns, the SE orphan flaw,
//! and cross-protocol equivalence on conflict-free workloads.

mod common;

use common::*;
use cx_protocol::testkit::{Envelope, Kit};
use cx_protocol::Endpoint;
use cx_types::{
    BatchTrigger, ClusterConfig, FsOp, InodeNo, MsgKind, Name, OpOutcome, Payload, ProcId,
    Protocol, ServerId, SimTime,
};
use cx_wal::RecordFamily;

/// Every engine that logs and batches its write-back.
const BATCHING: [Protocol; 4] = [
    Protocol::SeBatched,
    Protocol::TwoPc,
    Protocol::Ce,
    Protocol::Cx,
];

fn proc(n: u32) -> ProcId {
    ProcId::new(n, 0)
}

fn run_standard_workload(protocol: Protocol) -> Kit {
    let mut kit = kit_never(4, protocol);
    seed_namespace(&mut kit, &[]);
    let placement = kit.placement;

    // A deterministic mixed workload: mkdir, creates, links, stats,
    // unlinks, removes — across several processes (sequentially issued,
    // so no conflicts arise and every protocol agrees).
    let dir = InodeNo(2);
    assert_eq!(
        kit.run_op(
            proc(0),
            FsOp::Mkdir {
                parent: ROOT,
                name: Name(1),
                ino: dir
            }
        ),
        kit.clients[&proc(0)].op_id
    );
    let mut files = Vec::new();
    for k in 0..6u64 {
        let (name, ino) = cross_server_pair(&placement, 1_000 + k * 37, 2_000 + k * 13);
        if files.iter().any(|(n, _)| *n == name) {
            continue;
        }
        kit.run_op(
            proc((k % 3) as u32),
            FsOp::Create {
                parent: ROOT,
                name,
                ino,
            },
        );
        files.push((name, ino));
    }
    // stats and lookups
    for (name, ino) in &files {
        kit.run_op(proc(0), FsOp::Stat { ino: *ino });
        kit.run_op(
            proc(1),
            FsOp::Lookup {
                parent: ROOT,
                name: *name,
            },
        );
    }
    // link + unlink the first file
    if let Some(&(_, target)) = files.first() {
        let link_name = Name(90_001);
        kit.run_op(
            proc(2),
            FsOp::Link {
                parent: ROOT,
                name: link_name,
                target,
            },
        );
        kit.run_op(
            proc(2),
            FsOp::Unlink {
                parent: ROOT,
                name: link_name,
                target,
            },
        );
    }
    // remove the last file
    if let Some(&(name, ino)) = files.last() {
        kit.run_op(
            proc(0),
            FsOp::Remove {
                parent: ROOT,
                name,
                ino,
            },
        );
    }
    kit.fire_timers();
    kit.run();
    kit.quiesce();
    kit
}

#[test]
fn all_protocols_agree_on_conflict_free_workloads() {
    let reference = run_standard_workload(Protocol::Cx);
    let ref_violations = reference.check_consistency(&roots());
    assert_eq!(ref_violations, vec![]);
    let ref_inodes: usize = reference
        .servers
        .iter()
        .map(|s| s.store().inode_count())
        .sum();
    let ref_dentries: usize = reference
        .servers
        .iter()
        .map(|s| s.store().dentry_count())
        .sum();

    for protocol in [
        Protocol::Se,
        Protocol::SeBatched,
        Protocol::TwoPc,
        Protocol::Ce,
    ] {
        let kit = run_standard_workload(protocol);
        assert_eq!(
            kit.check_consistency(&roots()),
            vec![],
            "{protocol:?} must end consistent"
        );
        let inodes: usize = kit.servers.iter().map(|s| s.store().inode_count()).sum();
        let dentries: usize = kit.servers.iter().map(|s| s.store().dentry_count()).sum();
        assert_eq!(
            (inodes, dentries),
            (ref_inodes, ref_dentries),
            "{protocol:?}"
        );
        // every outcome matches the Cx run
        for (op, outcome) in &reference.outcomes {
            assert_eq!(kit.outcomes.get(op), Some(outcome), "{protocol:?} {op}");
        }
    }
}

#[test]
fn se_executes_serially_participant_first() {
    let mut kit = kit_never(4, Protocol::Se);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    // Serial execution: 2 requests, 2 responses, zero commitment traffic.
    assert_eq!(kit.msg_counts.get(&MsgKind::SubOpReq), Some(&2));
    assert_eq!(kit.msg_counts.get(&MsgKind::SubOpResp), Some(&2));
    assert_eq!(kit.msg_counts.get(&MsgKind::Vote), None);
    assert_eq!(kit.msg_counts.get(&MsgKind::Ack), None);
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

#[test]
fn se_clear_withdraws_participant_half() {
    // Coordinator fails (duplicate entry) after the participant succeeded:
    // the client sends CLEAR, which undoes the inode creation (§II-B).
    let mut kit = kit_never(4, Protocol::Se);
    let (name, seeded_ino) = cross_server_pair(&kit.placement, 100, 1000);
    seed_namespace(&mut kit, &[(name, seeded_ino)]);
    // fresh inode on a different server than the coordinator
    let coord = kit.placement.dentry_server(ROOT, name);
    let ino = (5_000..)
        .map(InodeNo)
        .find(|i| kit.placement.inode_server(*i) != coord && *i != seeded_ino)
        .unwrap();
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Failed));
    assert_eq!(kit.msg_counts.get(&MsgKind::Clear), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::ClearResp), Some(&1));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(
        kit.servers.iter().all(|s| s.store().inode(ino).is_none()),
        "CLEAR must remove the participant's inode"
    );
}

#[test]
fn se_client_failure_leaves_orphan_objects() {
    // The documented SE flaw: "if the client itself fails before sending
    // the CLEAR message out, metadata across servers may be inconsistent,
    // leaving orphan objects" (§II-B). We model the client dying between
    // the participant's execution and the coordinator request by holding
    // the coordinator-bound message forever.
    let mut kit = kit_never(4, Protocol::Se);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let coord = kit.placement.dentry_server(ROOT, name);
    let coord_ep = Endpoint::Server(coord);
    kit.hold_if(move |env: &Envelope| {
        matches!(env.payload, Payload::SubOpReq { .. }) && env.to == coord_ep
    });
    let op = kit.start_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    kit.run();
    assert_eq!(kit.outcome(op), None, "client died mid-operation");
    kit.quiesce();
    let violations = kit.check_consistency(&roots());
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, cx_mdstore::Violation::OrphanInode { .. })),
        "SE leaves an orphan inode: {violations:?}"
    );
}

#[test]
fn cx_does_not_leave_orphans_in_the_same_scenario() {
    // The same client failure under Cx: the participant's half is pending,
    // and any later access (or the coordinator-side recovery machinery)
    // resolves it. Here another process touches the object, forcing the
    // immediate commitment, which aborts the half-executed op.
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let coord = kit.placement.dentry_server(ROOT, name);
    let coord_ep = Endpoint::Server(coord);
    kit.hold_if(move |env: &Envelope| {
        matches!(env.payload, Payload::SubOpReq { .. }) && env.to == coord_ep
    });
    let op = kit.start_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    kit.run();
    assert_eq!(kit.outcome(op), None);
    kit.stop_holding();

    // Another process stats the orphan-to-be: conflict → C-REQ → the
    // coordinator (which never executed its half) is asked for the
    // outcome; the commitment votes NO on the coordinator side and the
    // participant half aborts.
    let b = kit.run_op(proc(1), FsOp::Stat { ino });
    kit.fire_timers();
    kit.run();
    kit.quiesce();
    let violations = kit.check_consistency(&roots());
    assert_eq!(violations, vec![], "Cx must not leave orphans");
    assert_eq!(
        kit.outcome(b),
        Some(OpOutcome::Failed),
        "the stat observes no file: the create never committed"
    );
}

#[test]
fn twopc_message_pattern_matches_figure_1a() {
    let mut kit = kit_never(4, Protocol::TwoPc);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    // REQ → VOTE → YES → COMMIT → ACK → RESP
    assert_eq!(kit.msg_counts.get(&MsgKind::OpReq), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::Vote), Some(&1)); // VoteExec
    assert_eq!(kit.msg_counts.get(&MsgKind::VoteResult), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::CommitReq), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::Ack), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::OpResp), Some(&1));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

#[test]
fn twopc_aborts_atomically_on_participant_failure() {
    let mut kit = kit_never(4, Protocol::TwoPc);
    let (existing, ino) = cross_server_pair(&kit.placement, 100, 1000);
    seed_namespace(&mut kit, &[(existing, ino)]);
    // create with a duplicate inode: participant votes NO
    let parti = kit.placement.inode_server(ino);
    let fresh = (200_000..)
        .map(Name)
        .find(|n| kit.placement.dentry_server(ROOT, *n) != parti)
        .unwrap();
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name: fresh,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Failed));
    assert_eq!(kit.msg_counts.get(&MsgKind::AbortReq), Some(&1));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit
        .servers
        .iter()
        .all(|s| s.store().lookup(ROOT, fresh).is_none()));
}

#[test]
fn ce_migrates_objects_and_executes_centrally() {
    let mut kit = kit_never(4, Protocol::Ce);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    // REQ → MIGRATION round trip → local txn → migrate back → RESP
    assert_eq!(kit.msg_counts.get(&MsgKind::Migrate), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::MigrateResp), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::MigrateBack), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::MigrateBackAck), Some(&1));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    // the inode lives on its placement-assigned home server
    let home = kit.placement.inode_server(ino);
    assert!(kit.servers[home.0 as usize].store().inode(ino).is_some());
}

#[test]
fn ce_aborts_cleanly_when_central_execution_fails() {
    let mut kit = kit_never(4, Protocol::Ce);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    seed_namespace(&mut kit, &[(name, ino)]); // duplicate entry
    let fresh_ino = InodeNo(ino.0 + 777);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name, // already exists → coordinator-side failure
            ino: fresh_ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Failed));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit
        .servers
        .iter()
        .all(|s| s.store().inode(fresh_ino).is_none()));
}

#[test]
fn twopc_blocks_conflicting_transactions() {
    let mut kit = kit_never(4, Protocol::TwoPc);
    seed_namespace(&mut kit, &[]);
    let (name, i1) = cross_server_pair(&kit.placement, 100, 1000);
    let a = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino: i1,
        },
    );
    // Same name from another proc: must fail (entry exists), not deadlock.
    let b = kit.run_op(
        proc(1),
        FsOp::Create {
            parent: ROOT,
            name,
            ino: InodeNo(i1.0 + 1),
        },
    );
    assert_eq!(kit.outcome(a), Some(OpOutcome::Applied));
    assert_eq!(kit.outcome(b), Some(OpOutcome::Failed));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// The baselines count write-back completions the way Cx does: batched
/// write-back in flight keeps a 2PC server busy until the last one lands.
#[test]
fn twopc_is_not_quiesced_until_its_last_writeback_completes() {
    let mut kit = kit_never(2, Protocol::TwoPc);
    seed_namespace(&mut kit, &[]);
    let server = ServerId(0);
    let mut tokens = Vec::new();
    for round in 0..2u64 {
        let (name, ino) = cross_server_pair(&kit.placement, 100 + round * 50, 1_000 + round * 50);
        let op = kit.run_op(
            proc(0),
            FsOp::Create {
                parent: ROOT,
                name,
                ino,
            },
        );
        assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
        tokens.extend(quiesce_holding_writebacks(&mut kit, server));
    }
    assert!(tokens.len() >= 2, "one write-back per flush");
    let last = tokens.pop().expect("checked");
    for token in tokens {
        assert!(!kit.servers[0].is_quiesced());
        kit.servers[0].on_disk_done(SimTime::ZERO, token, &mut Vec::new());
    }
    assert!(!kit.servers[0].is_quiesced(), "one is still in flight");
    kit.servers[0].on_disk_done(SimTime::ZERO, last, &mut Vec::new());
    assert!(kit.servers[0].is_quiesced());
    // Completing it again changes nothing.
    kit.servers[0].on_disk_done(SimTime::ZERO, last, &mut Vec::new());
    assert!(kit.servers[0].is_quiesced());
}

/// A trigger that fired starts counting again: under `Threshold{4}`, 12
/// single-server mutations on one server are three write-backs — on every
/// engine, so no baseline disagrees with Cx about what "fired" means.
#[test]
fn threshold_trigger_starts_over_after_it_fires() {
    for protocol in BATCHING {
        let mut cfg = ClusterConfig::new(2, protocol);
        cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: 4 };
        cfg.cx.log_limit_bytes = None;
        let mut kit = Kit::new(cfg);
        let mut files = Vec::new();
        let mut next = 1_000;
        for k in 0..12 {
            let ino = inode_on(&kit.placement, ServerId(0), next);
            next = ino.0 + 1;
            files.push((Name(k), ino));
        }
        seed_namespace(&mut kit, &files);
        for &(_, ino) in &files {
            let op = kit.run_op(proc(0), FsOp::Setattr { ino });
            assert_eq!(kit.outcome(op), Some(OpOutcome::Applied), "{protocol:?}");
        }
        assert_eq!(kit.servers[0].stats().writebacks, 3, "{protocol:?}");
    }
}

/// A refused single-server mutation is logged as aborted, not committed:
/// the record matches the verdict on every engine.
#[test]
fn a_refused_local_mutation_logs_abort() {
    for protocol in BATCHING {
        let mut kit = kit_never(2, protocol);
        let server = ServerId(0);
        let name = name_on(&kit.placement, server, 100);
        let taken = inode_on(&kit.placement, server, 1_000);
        let fresh = inode_on(&kit.placement, server, taken.0 + 1);
        seed_namespace(&mut kit, &[(name, taken)]);
        // Both halves live on server 0, and the entry already exists.
        let op = kit.run_op(
            proc(0),
            FsOp::Create {
                parent: ROOT,
                name,
                ino: fresh,
            },
        );
        assert_eq!(kit.outcome(op), Some(OpOutcome::Failed), "{protocol:?}");
        let appended = kit.servers[0].wal().expect("logs").appended_counts();
        assert_eq!(appended[RecordFamily::Abort.index()], 1, "{protocol:?}");
        assert_eq!(appended[RecordFamily::Commit.index()], 0, "{protocol:?}");
        assert_eq!(kit.check_consistency(&roots()), vec![]);
    }
}

/// `Locks` exempts the requester's own process (§III-B: a process's
/// operations are synchronous). A well-behaved 2PC or CE client never gets
/// there — both servers unlock before the reply leaves — so the kit starts
/// the second operation while the first one's last hop is held back.
#[test]
fn a_process_never_waits_behind_its_own_lock() {
    for (protocol, last_hop) in [
        (Protocol::TwoPc, MsgKind::Ack),
        (Protocol::Ce, MsgKind::MigrateBackAck),
    ] {
        let mut kit = kit_never(4, protocol);
        seed_namespace(&mut kit, &[]);
        let (name, ino) = cross_server_pair(&kit.placement, 100, 1_000);
        let coord = kit.placement.dentry_server(ROOT, name).0 as usize;
        kit.hold_if(move |env: &Envelope| env.payload.kind() == last_hop);
        let mut next_ino = ino;
        let mut create_same_name = |kit: &mut Kit, p: u32| {
            let (same, ino) = cross_server_pair(&kit.placement, name.0, next_ino.0);
            assert_eq!(same, name);
            next_ino = InodeNo(ino.0 + 1);
            let parent = ROOT;
            kit.run_op(proc(p), FsOp::Create { parent, name, ino });
        };
        create_same_name(&mut kit, 0);
        assert_eq!(kit.held_count(), 1, "{protocol:?}: the dentry stays locked");
        create_same_name(&mut kit, 0);
        assert_eq!(kit.servers[coord].stats().conflicts, 0, "{protocol:?}");
        create_same_name(&mut kit, 1);
        assert_eq!(kit.servers[coord].stats().conflicts, 1, "{protocol:?}");
    }
}
