//! Basic Cx protocol behaviour: gracious execution (Figure 2a),
//! disagreement and ALL-NO (Figure 2b), lazy batching, message counts.

mod kit;

use cx_protocol::testkit::Kit;
use cx_types::{BatchTrigger, ClusterConfig, FsOp, MsgKind, Name, OpOutcome, ProcId, Protocol};
use kit::*;

fn proc(n: u32) -> ProcId {
    ProcId::new(n, 0)
}

#[test]
fn gracious_cross_server_create_applies() {
    let mut kit = kit_never(4, Protocol::Cx);
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
    // Figure 2(a): the process completes before any commitment happened.
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    assert!(
        kit.servers.iter().any(|s| !s.is_quiesced()),
        "the operation must still be pending on the servers"
    );
    // No conflicts, no immediate commitments, nothing aborted.
    let conflicts: u64 = kit.servers.iter().map(|s| s.stats().conflicts).sum();
    assert_eq!(conflicts, 0);

    // The lazy commitment settles everything.
    kit.quiesce();
    assert!(kit.servers.iter().all(|s| s.is_quiesced()));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    let committed: u64 = kit.servers.iter().map(|s| s.stats().ops_committed).sum();
    assert_eq!(committed, 1);
}

#[test]
fn gracious_execution_message_pattern() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    // Execution phase: two requests, two responses (steps 1-2).
    assert_eq!(kit.msg_counts.get(&MsgKind::SubOpReq), Some(&2));
    assert_eq!(kit.msg_counts.get(&MsgKind::SubOpResp), Some(&2));
    assert_eq!(kit.msg_counts.get(&MsgKind::Vote), None);

    // Commitment phase: VOTE, YES/NO, COMMIT-REQ, ACK (steps 3-7a).
    kit.quiesce();
    assert_eq!(kit.msg_counts.get(&MsgKind::Vote), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::VoteResult), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::CommitReq), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::Ack), Some(&1));
    // Never any client-visible commitment traffic.
    assert_eq!(kit.msg_counts.get(&MsgKind::LCom), None);
    assert_eq!(kit.msg_counts.get(&MsgKind::AllNo), None);
}

#[test]
fn all_no_create_fails_without_side_effects() {
    // The file already exists on BOTH sides: both sub-ops vote NO; the
    // process completes (Failed) and the lazy commitment aborts.
    let mut kit = kit_never(4, Protocol::Cx);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    seed_namespace(&mut kit, &[(name, ino)]);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Failed));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    let aborted: u64 = kit.servers.iter().map(|s| s.stats().ops_aborted).sum();
    assert_eq!(aborted, 1);
}

#[test]
fn disagreement_triggers_lcom_and_all_no() {
    // The inode already exists (participant votes NO) but the entry does
    // not (coordinator votes YES): Figure 2(b).
    let mut kit = kit_never(4, Protocol::Cx);
    let (existing_name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    seed_namespace(&mut kit, &[(existing_name, ino)]);
    let fresh_name = {
        // a fresh name whose dentry lands on a different server than the
        // inode, so the create is genuinely cross-server
        let parti = kit.placement.inode_server(ino);
        (existing_name.0 + 123_456..)
            .map(Name)
            .find(|n| kit.placement.dentry_server(ROOT, *n) != parti)
            .unwrap()
    };
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name: fresh_name,
            ino, // duplicate inode → participant NO
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Failed));
    assert_eq!(kit.msg_counts.get(&MsgKind::LCom), Some(&1));
    assert_eq!(kit.msg_counts.get(&MsgKind::AllNo), Some(&1));
    // The immediate commitment aborted the coordinator's successful half.
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    let view_has_entry = kit
        .servers
        .iter()
        .any(|s| s.store().lookup(ROOT, fresh_name).is_some());
    assert!(!view_has_entry, "aborted entry must be rolled back");
}

#[test]
fn lazy_commitments_batch_many_ops_into_few_messages() {
    let mut kit = kit_never(2, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    // Many creates from one process, all coordinated by one server pair.
    let mut ops = Vec::new();
    for i in 0..50u64 {
        let (name, ino) = cross_server_pair(&kit.placement, 10_000 + i * 17, 20_000 + i * 13);
        if kit
            .servers
            .iter()
            .any(|s| s.store().lookup(ROOT, name).is_some())
        {
            continue;
        }
        ops.push(kit.run_op(
            proc(0),
            FsOp::Create {
                parent: ROOT,
                name,
                ino,
            },
        ));
    }
    let n = ops.len() as u64;
    assert!(n >= 40, "fixture should produce many distinct creates");
    for op in &ops {
        assert_eq!(kit.outcome(*op), Some(OpOutcome::Applied));
    }
    let votes_before = kit.msg_counts.get(&MsgKind::Vote).copied().unwrap_or(0);
    assert_eq!(votes_before, 0, "Never trigger: no commitments yet");
    kit.quiesce();
    let votes = kit.msg_counts.get(&MsgKind::Vote).copied().unwrap_or(0);
    assert!(
        votes <= 4,
        "batched commitment should need a handful of VOTE messages for {n} ops, used {votes}"
    );
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

#[test]
fn timeout_trigger_commits_without_quiesce() {
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 10_000_000,
    };
    let mut kit = Kit::new(cfg);
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
    assert!(!kit.timers.is_empty(), "timeout trigger must be armed");
    kit.fire_timers();
    assert!(
        kit.servers.iter().all(|s| s.is_quiesced()),
        "timer-driven lazy commitment must settle the op"
    );
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

#[test]
fn single_server_ops_complete_without_commitment_traffic() {
    let mut kit = kit_never(4, Protocol::Cx);
    let files: Vec<_> = (0..8u64)
        .map(|i| (Name(500 + i), cx_types::InodeNo(900 + i)))
        .collect();
    seed_namespace(&mut kit, &files);
    for (name, ino) in &files {
        let op = kit.run_op(proc(0), FsOp::Stat { ino: *ino });
        assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
        let op = kit.run_op(
            proc(0),
            FsOp::Lookup {
                parent: ROOT,
                name: *name,
            },
        );
        assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    }
    assert_eq!(kit.msg_counts.get(&MsgKind::Vote), None);
    // one request and one response per operation
    assert_eq!(
        kit.msg_counts.get(&MsgKind::SubOpReq),
        Some(&(files.len() as u64 * 2))
    );
}

#[test]
fn full_lifecycle_create_stat_remove() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let create = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    // Same process may access its own pending objects immediately.
    let stat = kit.run_op(proc(0), FsOp::Stat { ino });
    let remove = kit.run_op(
        proc(0),
        FsOp::Remove {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(create), Some(OpOutcome::Applied));
    assert_eq!(kit.outcome(stat), Some(OpOutcome::Applied));
    assert_eq!(kit.outcome(remove), Some(OpOutcome::Applied));
    let conflicts: u64 = kit.servers.iter().map(|s| s.stats().conflicts).sum();
    assert_eq!(conflicts, 0, "a process never conflicts with itself");
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit
        .servers
        .iter()
        .all(|s| s.store().lookup(ROOT, name).is_none()));
}

#[test]
fn failed_read_reports_failure() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let op = kit.run_op(
        proc(0),
        FsOp::Stat {
            ino: cx_types::InodeNo(4242),
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Failed));
}

#[test]
fn colocated_mutation_is_local_and_atomic() {
    // On a single-server cluster every mutation is colocated.
    let mut kit = kit_never(1, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name: Name(5),
            ino: cx_types::InodeNo(50),
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    assert_eq!(kit.msg_counts.get(&MsgKind::Vote), None);
    assert_eq!(
        kit.servers[0].stats().local_mutations,
        1,
        "colocated halves run as one local mutation"
    );
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}
