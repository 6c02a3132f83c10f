//! Edge cases of the Cx protocol: L-COM races, presumed-abort timers,
//! decided-batch recovery resumption, threshold triggers, and vote
//! re-driving.

mod common;

use common::*;
use cx_protocol::testkit::{Envelope, Kit};
use cx_protocol::Endpoint;
use cx_types::{
    BatchTrigger, ClusterConfig, FsOp, MsgKind, OpOutcome, Payload, ProcId, Protocol, ServerId,
    SimTime,
};

fn proc(n: u32) -> ProcId {
    ProcId::new(n, 0)
}

/// An L-COM that arrives after the lazy commitment already finished is
/// answered from the recent-outcome memory.
#[test]
fn lcom_race_with_finished_commitment() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let coord = kit.placement.dentry_server(ROOT, name);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    kit.quiesce(); // the commitment finishes and prunes

    // A straggler L-COM (e.g. from a retransmitting client) arrives now.
    kit.inject_actions(
        Endpoint::Proc(proc(0)),
        vec![cx_protocol::Action::Send {
            to: Endpoint::Server(coord),
            payload: Payload::LCom { op_id: op },
        }],
    );
    kit.run();
    assert_eq!(
        kit.msg_counts.get(&MsgKind::Committed),
        Some(&1),
        "the coordinator answers from its outcome memory"
    );
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// A client that dies after sending only the *participant* half leaves an
/// orphaned execution; the participant's log-pressure/conflict machinery
/// is never involved, but a later commitment request's grace timer
/// presumes abort and rolls it back.
#[test]
fn orphaned_participant_half_is_presumed_aborted() {
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
    assert_eq!(kit.outcome(op), None, "client died mid-operation");
    kit.stop_holding();

    // Another process touching the orphaned inode raises a conflict; the
    // C-REQ reaches a coordinator that never saw the op, which arms the
    // presumed-abort timer; firing it aborts the orphan.
    let b = kit.start_op(proc(1), FsOp::Stat { ino });
    kit.run();
    assert_eq!(kit.outcome(b), None, "blocked behind the orphan");
    kit.fire_timers();
    kit.run();
    kit.fire_timers(); // the re-dispatched read may need a second round
    kit.run();
    assert_eq!(
        kit.outcome(b),
        Some(OpOutcome::Failed),
        "the stat finds no file: the orphan was aborted"
    );
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit.servers.iter().all(|s| s.store().inode(ino).is_none()));
}

/// Crash the coordinator after its decision is durable but before the
/// ACK: recovery must resume at COMMIT-REQ, idempotently.
#[test]
fn recovery_resumes_a_decided_batch() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let coord = kit.placement.dentry_server(ROOT, name);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));

    // Let the commitment run, but hold the participant's ACK.
    kit.hold_if(|env: &Envelope| matches!(env.payload, Payload::Ack { .. }));
    kit.quiesce();
    assert_eq!(kit.held_count(), 1, "ack held; decision is durable");
    kit.stop_holding();

    // The coordinator dies before ever seeing the ACK.
    let idx = coord.0 as usize;
    kit.servers[idx].crash(SimTime::ZERO);
    // (the held ack would now be delivered to a dead server; drop it)
    kit.release_held();
    kit.run();
    let mut out = Vec::new();
    kit.servers[idx].recover(SimTime::ZERO, &mut out);
    kit.inject_actions(Endpoint::Server(coord), out);
    kit.run();
    kit.fire_timers();
    kit.run();

    assert!(kit.servers.iter().all(|s| s.is_quiesced()));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit
        .servers
        .iter()
        .any(|s| s.store().lookup(ROOT, name) == Some(ino)));
    // the decision was re-sent at least once
    assert!(
        kit.msg_counts
            .get(&MsgKind::CommitReq)
            .copied()
            .unwrap_or(0)
            >= 2
    );
}

/// The threshold trigger fires mid-stream once enough operations are
/// pending, without any quiesce call.
#[test]
fn threshold_trigger_fires_inline() {
    let mut cfg = ClusterConfig::new(2, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: 5 };
    cfg.cx.log_limit_bytes = None;
    let mut kit = Kit::new(cfg);
    seed_namespace(&mut kit, &[]);
    let mut launched = 0;
    for k in 0..24u64 {
        let (name, ino) = cross_server_pair(&kit.placement, 40_000 + k * 31, 50_000 + k * 7);
        if kit
            .servers
            .iter()
            .any(|s| s.store().lookup(ROOT, name).is_some())
        {
            continue;
        }
        kit.run_op(
            proc(0),
            FsOp::Create {
                parent: ROOT,
                name,
                ino,
            },
        );
        launched += 1;
    }
    assert!(launched >= 20);
    let lazy: u64 = kit.servers.iter().map(|s| s.stats().lazy_batches).sum();
    assert!(
        lazy >= 2,
        "threshold of 5 must have fired several times for {launched} ops (got {lazy})"
    );
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// A participant's re-queued (invalidated) execution that fails on retry
/// still resolves the client through the disagreement path.
#[test]
fn invalidated_reexecution_failure_resolves() {
    // Figure 3(b) fixture, but t has nlink 1 so the unlink's re-execution
    // (after the link commits) changes the outcome vs its first run.
    let mut kit = kit_never(4, Protocol::Cx);
    let placement = kit.placement;
    let n = cx_types::Name(7_000);
    let coord = placement.dentry_server(ROOT, n);
    let t = (9_000..)
        .map(cx_types::InodeNo)
        .find(|i| placement.inode_server(*i) != coord)
        .unwrap();
    let parti = placement.inode_server(t);
    for (i, server) in kit.servers.iter_mut().enumerate() {
        let store = server.store_mut();
        store.seed_inode(ROOT, cx_types::FileKind::Directory, 1);
        if placement.inode_server(t) == cx_types::ServerId(i as u32) {
            store.seed_inode(t, cx_types::FileKind::Regular, 2);
        }
        for pre in [cx_types::Name(91_001), cx_types::Name(91_002)] {
            if placement.dentry_server(ROOT, pre) == cx_types::ServerId(i as u32) {
                store.seed_dentry(ROOT, pre, t);
            }
        }
    }
    let (a_proc, b_proc) = (proc(0), proc(1));
    let (coord_ep, parti_ep) = (Endpoint::Server(coord), Endpoint::Server(parti));
    kit.hold_if(move |env: &Envelope| {
        if let Payload::SubOpReq { op_id, .. } = &env.payload {
            return (op_id.proc == a_proc && env.to == parti_ep)
                || (op_id.proc == b_proc && env.to == coord_ep);
        }
        false
    });
    let a = kit.start_op(
        a_proc,
        FsOp::Link {
            parent: ROOT,
            name: n,
            target: t,
        },
    );
    let b = kit.start_op(
        b_proc,
        FsOp::Unlink {
            parent: ROOT,
            name: n,
            target: t,
        },
    );
    kit.run();
    kit.stop_holding();
    kit.release_held();
    kit.run();
    kit.fire_timers();
    kit.run();
    kit.fire_timers();
    kit.run();
    // Both must terminate one way or the other, consistently.
    assert!(kit.outcome(a).is_some(), "A must resolve");
    assert!(kit.outcome(b).is_some(), "B must resolve");
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// Lazy batches to multiple participants go out as one VOTE per
/// participant, each carrying its share of the operations.
#[test]
fn lazy_batch_splits_per_participant() {
    let mut kit = kit_never(8, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    // ops from one proc whose coordinators coincide but participants vary
    let mut count = 0;
    for k in 0..60u64 {
        let (name, ino) = cross_server_pair(&kit.placement, 70_000 + k * 13, 80_000 + k * 11);
        if kit
            .servers
            .iter()
            .any(|s| s.store().lookup(ROOT, name).is_some())
        {
            continue;
        }
        kit.run_op(
            proc(0),
            FsOp::Create {
                parent: ROOT,
                name,
                ino,
            },
        );
        count += 1;
    }
    kit.quiesce();
    let votes = kit.msg_counts.get(&MsgKind::Vote).copied().unwrap_or(0);
    assert!(votes >= 2, "several participants → several votes");
    assert!(
        votes < count,
        "but far fewer votes ({votes}) than operations ({count})"
    );
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// Crash the participant while the coordinator's batch is mid-VOTE: the
/// rebooted participant's QueryOutcome must make the coordinator re-send
/// the VOTE (re-driving the Voting phase), and the operation commits.
#[test]
fn recovery_redrives_a_voting_batch() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let parti = kit.placement.inode_server(ino);
    let op = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));

    // Start the lazy commitment but swallow the participant's vote.
    kit.hold_if(|env: &Envelope| matches!(env.payload, Payload::VoteResult { .. }));
    kit.quiesce();
    assert_eq!(kit.held_count(), 1, "the vote is in flight");
    kit.stop_holding();

    // The participant dies; its in-flight vote dies with it.
    let idx = parti.0 as usize;
    kit.servers[idx].crash(SimTime::ZERO);
    kit.discard_held();
    kit.run();
    let mut out = Vec::new();
    kit.servers[idx].recover(SimTime::ZERO, &mut out);
    kit.inject_actions(Endpoint::Server(parti), out);
    kit.run();
    kit.fire_timers();
    kit.run();

    assert!(
        kit.servers.iter().all(|s| s.is_quiesced()),
        "the re-driven vote round must finish the batch"
    );
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit
        .servers
        .iter()
        .any(|s| s.store().lookup(ROOT, name) == Some(ino)));
    let votes = kit.msg_counts.get(&MsgKind::Vote).copied().unwrap_or(0);
    assert!(votes >= 2, "the VOTE was re-sent ({votes})");
}

/// A local mutation that finds the log full must park with nothing
/// applied: it is re-executed after pruning, and a store that already
/// held its effects would answer that re-execution `EntryExists` — the
/// client told a create failed that took effect, and counted twice.
#[test]
fn local_mutation_parked_on_full_log_applies_exactly_once() {
    // Four cross-server creates leave Result-Records on both servers and,
    // with the trigger off, nothing prunes them.
    let fill = |kit: &mut Kit| {
        seed_namespace(kit, &[]);
        for k in 0..4u64 {
            let (name, ino) = cross_server_pair(&kit.placement, 100 + k * 101, 1000 + k * 7);
            let op = kit.run_op(
                proc(0),
                FsOp::Create {
                    parent: ROOT,
                    name,
                    ino,
                },
            );
            assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
        }
    };
    // Measure the fuller log, then rebuild with the limit exactly there:
    // after the fill that server has no room for one more Result-Record.
    let mut probe = kit_never(2, Protocol::Cx);
    fill(&mut probe);
    let (idx, full) = (0..2)
        .map(|i| (i, probe.servers[i].valid_log_bytes()))
        .max_by_key(|&(_, bytes)| bytes)
        .unwrap();
    let mut cfg = ClusterConfig::new(2, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Never;
    cfg.cx.log_limit_bytes = Some(full);
    let mut kit = Kit::new(cfg);
    fill(&mut kit);
    assert_eq!(kit.servers[idx].stats().log_full_blocks, 0);

    // A create whose dentry and inode both live on the full server. Hold
    // the forced commitment's traffic so the parked state is observable.
    let server = cx_types::ServerId(idx as u32);
    let name = name_on(&kit.placement, server, 5_000);
    let ino = inode_on(&kit.placement, server, 6_000);
    kit.hold_if(|env: &Envelope| {
        matches!(env.from, Endpoint::Server(_)) && matches!(env.to, Endpoint::Server(_))
    });
    let op = kit.run_op(
        proc(1),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    let s = &kit.servers[idx];
    assert_eq!(s.stats().log_full_blocks, 1, "the create must park");
    assert_eq!(kit.outcome(op), None);
    assert_eq!(s.store().lookup(ROOT, name), None, "parked with effects");
    assert!(s.store().inode(ino).is_none(), "parked with effects");
    assert_eq!(s.stats().local_mutations, 0);

    // Commit + prune frees the log; the parked create runs, once.
    kit.stop_holding();
    kit.release_held();
    kit.run();
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    let s = &kit.servers[idx];
    assert_eq!(s.store().lookup(ROOT, name), Some(ino));
    assert_eq!(s.stats().local_mutations, 1);
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// `count` creates whose dentry and inode both live on `server`: local
/// mutations, written back by the next lazy batch.
fn local_creates(kit: &mut Kit, server: ServerId, from: u64, count: u64) {
    for k in 0..count {
        let name = name_on(&kit.placement, server, from + k * 101);
        let ino = inode_on(&kit.placement, server, 10 * from + k * 103);
        let op = kit.run_op(
            proc(0),
            FsOp::Create {
                parent: ROOT,
                name,
                ino,
            },
        );
        assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    }
}

fn disk_done(kit: &mut Kit, server: ServerId, token: u64) {
    let mut out = Vec::new();
    kit.servers[server.0 as usize].on_disk_done(SimTime::ZERO, token, &mut out);
    assert_eq!(out, vec![], "a write-back completion triggers nothing");
}

/// Write-back completions are counted, not stored: the server is busy
/// until the count is back to zero, whatever order the disk finishes in.
#[test]
fn outstanding_writebacks_keep_the_server_unquiesced_until_the_last_completion() {
    let mut kit = kit_never(2, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let server = ServerId(1);
    let idx = server.0 as usize;
    local_creates(&mut kit, server, 1_000, 4);
    let mut tokens = quiesce_holding_writebacks(&mut kit, server);
    local_creates(&mut kit, server, 2_000, 4);
    tokens.extend(quiesce_holding_writebacks(&mut kit, server));
    assert!(tokens.len() >= 2, "two lazy batches, two write-backs");
    assert!(
        kit.servers[idx]
            .debug_summary()
            .contains(&format!("writebacks={}", tokens.len())),
        "{}",
        kit.servers[idx].debug_summary()
    );

    // Newest first: nothing depends on the order of completions.
    let last = tokens.remove(0);
    for token in tokens.into_iter().rev() {
        assert!(!kit.servers[idx].is_quiesced());
        disk_done(&mut kit, server, token);
    }
    assert!(!kit.servers[idx].is_quiesced(), "one is still in flight");
    disk_done(&mut kit, server, last);
    assert!(kit.servers[idx].is_quiesced());
    assert_eq!(kit.servers[idx].debug_summary(), "");
}

/// A crash loses the queued write-backs with the disk: the count restarts
/// at zero, and a completion for a pre-crash token — one a runtime failed
/// to discard — neither finishes a post-crash write-back nor underflows.
#[test]
fn crash_resets_outstanding_writebacks_and_late_completions_are_ignored() {
    let mut kit = kit_never(2, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let server = ServerId(1);
    let idx = server.0 as usize;
    local_creates(&mut kit, server, 1_000, 4);
    let lost = quiesce_holding_writebacks(&mut kit, server);
    assert!(!lost.is_empty() && !kit.servers[idx].is_quiesced());

    kit.servers[idx].crash(SimTime::ZERO);
    disk_done(&mut kit, server, lost[0]); // dead servers hear nothing
    let mut out = Vec::new();
    kit.servers[idx].recover(SimTime::ZERO, &mut out);
    kit.inject_actions(Endpoint::Server(server), out);
    kit.run();
    assert!(!kit.servers[idx].is_recovering());
    assert!(
        kit.servers[idx].is_quiesced(),
        "the lost write-backs are not waited for: {}",
        kit.servers[idx].debug_summary()
    );
    for &token in &lost {
        disk_done(&mut kit, server, token); // nothing outstanding: no underflow
    }
    assert!(kit.servers[idx].is_quiesced());

    // New write-backs after the reboot; the late completions must not be
    // taken for theirs, however many arrive.
    local_creates(&mut kit, server, 3_000, 4);
    let fresh = quiesce_holding_writebacks(&mut kit, server);
    assert!(!fresh.is_empty());
    for _ in 0..2 {
        for &token in &lost {
            disk_done(&mut kit, server, token);
        }
    }
    assert!(
        kit.servers[idx]
            .debug_summary()
            .contains(&format!("writebacks={}", fresh.len())),
        "{}",
        kit.servers[idx].debug_summary()
    );
    for token in fresh {
        assert!(!kit.servers[idx].is_quiesced());
        disk_done(&mut kit, server, token);
    }
    assert!(kit.servers[idx].is_quiesced());
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}
