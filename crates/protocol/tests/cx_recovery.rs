//! Crash and recovery (§III-D): resuming half-completed commitments from
//! the durable log, in both the coordinator and the participant role, and
//! rollback of executions whose Result-Record never reached the disk.

mod common;

use common::*;
use cx_protocol::testkit::{Envelope, Kit};
use cx_protocol::{Action, CxServer, Endpoint, ServerEngine};
use cx_simio::DiskReq;
use cx_types::{
    ClusterConfig, FsOp, MsgKind, OpOutcome, Payload, ProcId, Protocol, ServerId, SimTime,
};

fn proc(n: u32) -> ProcId {
    ProcId::new(n, 0)
}

/// Crash `server` in the kit and run recovery to completion.
fn crash_and_recover(kit: &mut Kit, server: ServerId) {
    let idx = server.0 as usize;
    kit.servers[idx].crash(SimTime::ZERO);
    let mut out = Vec::new();
    kit.servers[idx].recover(SimTime::ZERO, &mut out);
    // Interpret recovery actions through the kit's queue: disk reads are
    // instant, messages flow to the peers.
    for a in out {
        kit.inject_actions(Endpoint::Server(server), vec![a]);
    }
    kit.run();
    // Grace timers (deferred votes / presumed aborts) resolve operations
    // whose requests died with a client; fire them and drain.
    kit.fire_timers();
    kit.run();
}

#[test]
fn coordinator_crash_before_commitment_resumes_and_commits() {
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
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    let coord = kit.placement.dentry_server(ROOT, name);

    // Crash the coordinator while the commitment is still lazy-pending.
    crash_and_recover(&mut kit, coord);

    // Recovery re-launched the commitment (fresh VOTE round) and the
    // operation committed; the system is consistent.
    assert!(kit.servers.iter().all(|s| s.is_quiesced()));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit
        .servers
        .iter()
        .any(|s| s.store().lookup(ROOT, name) == Some(ino)));
    assert!(kit.msg_counts.get(&MsgKind::Vote).copied().unwrap_or(0) >= 1);
}

#[test]
fn participant_crash_queries_coordinator_for_outcome() {
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
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    let parti = kit.placement.inode_server(ino);

    crash_and_recover(&mut kit, parti);

    assert_eq!(
        kit.msg_counts.get(&MsgKind::QueryOutcome),
        Some(&1),
        "the rebooted participant must query the coordinator"
    );
    assert!(kit.servers.iter().all(|s| s.is_quiesced()));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(kit.servers.iter().any(|s| s.store().inode(ino).is_some()));
}

#[test]
fn participant_crash_after_losing_own_result_aborts_cleanly() {
    // The participant crashes so early that its Result-Record is gone; the
    // coordinator's recovery vote then gets a NO and the op aborts.
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let parti = kit.placement.inode_server(ino);
    let coord = kit.placement.dentry_server(ROOT, name);

    // Hold the participant-bound request: only the coordinator executes.
    let parti_ep = Endpoint::Server(parti);
    kit.hold_if(move |env: &Envelope| {
        matches!(env.payload, Payload::SubOpReq { .. }) && env.to == parti_ep
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
    assert_eq!(kit.outcome(op), None, "client still waits for one half");

    // The participant never saw the request (client node died, message
    // lost). The coordinator crashes and recovers: its half-completed op
    // is resumed, the participant votes NO (presumed abort), and the
    // coordinator rolls its insertion back.
    crash_and_recover(&mut kit, coord);
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    assert!(
        kit.servers
            .iter()
            .all(|s| s.store().lookup(ROOT, name).is_none()),
        "the half-executed create must be rolled back"
    );
    let aborted: u64 = kit.servers.iter().map(|s| s.stats().ops_aborted).sum();
    assert_eq!(aborted, 1);
}

#[test]
fn unflushed_execution_is_rolled_back_on_crash() {
    // Drive a CxServer directly: execute a sub-op but never complete the
    // disk flush, then crash. The volatile execution must vanish.
    let cfg = ClusterConfig::new(2, Protocol::Cx);
    let mut server = CxServer::new(ServerId(0), &cfg);
    let (name, ino) = cross_server_pair(&cx_types::Placement::new(2), 100, 1000);

    let mut out = Vec::new();
    server.on_msg(
        SimTime::ZERO,
        Endpoint::Proc(proc(0)),
        Payload::SubOpReq {
            op_id: cx_types::OpId::new(proc(0), 0),
            subop: cx_types::SubOp::InsertEntry {
                parent: ROOT,
                name,
                child: ino,
                kind: cx_types::FileKind::Regular,
            },
            role: cx_types::Role::Coordinator,
            peer: Some(ServerId(1)),
            colocated: None,
        },
        &mut out,
    );
    // The engine asked for a log append…
    assert!(out
        .iter()
        .any(|a| matches!(a, Action::Disk(DiskReq::LogAppend { .. }))));
    // …and applied the execution in memory.
    assert_eq!(server.store().lookup(ROOT, name), Some(ino));

    // Power cut before the flush completes.
    server.crash(SimTime::ZERO);
    assert_eq!(
        server.store().lookup(ROOT, name),
        None,
        "un-flushed execution must be rolled back on crash"
    );
    let mut out = Vec::new();
    let scanned = server.recover(SimTime::ZERO, &mut out);
    assert_eq!(scanned, 0, "nothing durable to scan");
}

#[test]
fn recovery_defers_new_requests_until_done() {
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
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    let coord = kit.placement.dentry_server(ROOT, name);

    // Crash the coordinator, start recovery, but hold its recovery VOTE so
    // recovery stays in progress.
    let idx = coord.0 as usize;
    kit.servers[idx].crash(SimTime::ZERO);
    kit.hold_if(move |env: &Envelope| matches!(env.payload, Payload::Vote { .. }));
    let mut out = Vec::new();
    kit.servers[idx].recover(SimTime::ZERO, &mut out);
    kit.inject_actions(Endpoint::Server(coord), out);
    kit.run();
    assert_eq!(kit.held_count(), 1, "recovery vote is held");

    // A new lookup at the recovering server must not be served yet.
    let b = kit.start_op(proc(1), FsOp::Lookup { parent: ROOT, name });
    kit.run();
    assert_eq!(kit.outcome(b), None, "requests wait during recovery");

    kit.stop_holding();
    kit.release_held();
    kit.run();
    assert_eq!(kit.outcome(b), Some(OpOutcome::Applied));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

#[test]
fn crash_loses_nothing_after_full_quiesce() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let mut created = Vec::new();
    for k in 0..10u64 {
        let (name, ino) = cross_server_pair(&kit.placement, 60_000 + 31 * k, 70_000 + 11 * k);
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
        created.push((name, ino));
    }
    kit.quiesce();

    // After full commitment, a crash + recovery changes nothing: the log
    // is pruned and the database image is authoritative.
    crash_and_recover(&mut kit, ServerId(0));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    for (name, ino) in created {
        assert!(kit
            .servers
            .iter()
            .any(|s| s.store().lookup(ROOT, name) == Some(ino)));
    }
}
