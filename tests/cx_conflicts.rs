//! Conflict handling: ordered conflicts (Figure 3a), disordered conflicts
//! with invalidation and re-queuing (Figure 3b), conflict hints, the
//! hint-mismatch fallback, and log-pressure blocking (Figure 7a).

mod kit;

use cx_protocol::testkit::{Envelope, Kit};
use cx_protocol::Endpoint;
use cx_types::{
    ClusterConfig, FsOp, InodeNo, MsgKind, Name, OpOutcome, Payload, ProcId, Protocol, ServerId,
};
use kit::*;

fn proc(n: u32) -> ProcId {
    ProcId::new(n, 0)
}

/// Figure 3(a): the coordinator sees B's sub-op while A is still pending;
/// B blocks, A is committed immediately, then B executes with hint [A].
#[test]
fn ordered_conflict_commits_pending_op_then_executes() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);

    // Process A creates the file; commitment stays pending (Never trigger).
    let a = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(a), Some(OpOutcome::Applied));

    // Process B looks the new entry up: it touches A's active dentry.
    let b = kit.run_op(proc(1), FsOp::Lookup { parent: ROOT, name });
    // The conflict forced an immediate commitment; afterwards B's lookup
    // executed against the committed entry.
    assert_eq!(kit.outcome(b), Some(OpOutcome::Applied));
    let conflicts: u64 = kit.servers.iter().map(|s| s.stats().conflicts).sum();
    assert_eq!(conflicts, 1);
    let immediate: u64 = kit
        .servers
        .iter()
        .map(|s| s.stats().immediate_commitments)
        .sum();
    assert_eq!(immediate, 1);
    assert!(kit.servers.iter().all(|s| s.is_quiesced()));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// A conflict detected at the participant first: the participant sends
/// C-REQ to the coordinator, which launches the immediate commitment.
#[test]
fn participant_detected_conflict_routes_commitment_request() {
    let mut kit = kit_never(8, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);

    let a = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(a), Some(OpOutcome::Applied));

    // B stats the new inode: single-server read at the participant, which
    // holds A's active inode object.
    let b = kit.run_op(proc(1), FsOp::Stat { ino });
    assert_eq!(kit.outcome(b), Some(OpOutcome::Applied));
    assert_eq!(
        kit.msg_counts.get(&MsgKind::CommitmentReq),
        Some(&1),
        "the participant must ask the coordinator via C-REQ"
    );
    assert!(kit.servers.iter().all(|s| s.is_quiesced()));
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}

/// Build the Figure 3(b) fixture: two operations that share objects on
/// both servers — the *same* directory entry at the coordinator and the
/// *same* target inode at the participant.
///
/// A = link(root/n -> t) and B = unlink(root/n -> t): A inserts the entry
/// that B removes, and both adjust t's nlink. `t` is seeded with two other
/// entries (nlink 2) so B's DecNlink succeeds even when the participant
/// executes it first.
fn fig3b_fixture(kit: &Kit) -> (Name, InodeNo, ServerId, ServerId) {
    let placement = kit.placement;
    let n = Name(7_000);
    let coord = placement.dentry_server(ROOT, n);
    let t = (9_000..)
        .map(InodeNo)
        .find(|i| placement.inode_server(*i) != coord)
        .unwrap();
    let parti = placement.inode_server(t);
    (n, t, coord, parti)
}

/// Figure 3(b): the participant sees B before A while the coordinator saw
/// A before B. The participant invalidates B's execution, runs A, and B
/// re-executes after A's commitment with hint [A].
#[test]
fn disordered_conflict_invalidates_and_requeues() {
    let mut kit = kit_never(4, Protocol::Cx);
    let (n, t, coord, parti) = fig3b_fixture(&kit);
    // Seed t with nlink 2 via two pre-existing entries.
    let placement = kit.placement;
    for (i, server) in kit.servers.iter_mut().enumerate() {
        let store = server.store_mut();
        store.seed_inode(ROOT, cx_types::FileKind::Directory, 1);
        if placement.inode_server(t) == ServerId(i as u32) {
            store.seed_inode(t, cx_types::FileKind::Regular, 2);
        }
        for pre in [Name(91_001), Name(91_002)] {
            if placement.dentry_server(ROOT, pre) == ServerId(i as u32) {
                store.seed_dentry(ROOT, pre, t);
            }
        }
    }

    // Orchestrate the disordered delivery: hold A's participant-bound
    // request and B's coordinator-bound request.
    let coord_ep = Endpoint::Server(coord);
    let parti_ep = Endpoint::Server(parti);
    let a_proc = proc(0);
    let b_proc = proc(1);
    kit.hold_if(move |env: &Envelope| {
        if let Payload::SubOpReq { op_id, .. } = &env.payload {
            // A's sub-op to the participant, B's sub-op to the coordinator
            return (op_id.proc == a_proc && env.to == parti_ep)
                || (op_id.proc == b_proc && env.to == coord_ep);
        }
        false
    });

    // A: link(root/n -> t). B: unlink(root/n -> t).
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
    // Coordinator has executed A; participant has executed B.
    assert_eq!(kit.held_count(), 2);
    kit.stop_holding();
    kit.release_held();
    kit.run();
    kit.fire_timers(); // client hint-mismatch timers, if armed
    kit.run();

    assert_eq!(kit.outcome(a), Some(OpOutcome::Applied), "A must commit");
    assert_eq!(kit.outcome(b), Some(OpOutcome::Applied), "B re-executes");
    let invalidations: u64 = kit.servers.iter().map(|s| s.stats().invalidations).sum();
    assert_eq!(invalidations, 1, "B's first execution was invalidated");

    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    // Net effect: the entry n is gone again and t is back to nlink 2.
    assert!(kit
        .servers
        .iter()
        .all(|s| s.store().lookup(ROOT, n).is_none()));
    let nlink = kit
        .servers
        .iter()
        .find_map(|s| s.store().inode(t))
        .map(|i| i.nlink);
    assert_eq!(nlink, Some(2));
}

/// An operation that conflicts on only one server ends up with mismatched
/// hints ([null] vs [A]); the client times out and forces an immediate
/// commitment, which completes the operation.
#[test]
fn hint_mismatch_falls_back_to_lcom() {
    let mut kit = kit_never(8, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let placement = kit.placement;
    // A: create root/n1 with inode i — pending after completion.
    let (n1, i) = cross_server_pair(&placement, 100, 1000);
    let a = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name: n1,
            ino: i,
        },
    );
    assert_eq!(kit.outcome(a), Some(OpOutcome::Applied));

    // B: link root/n2 -> i from another process, with a different
    // coordinator. It conflicts with A only at i's server.
    let parti = placement.inode_server(i);
    let a_coord = placement.dentry_server(ROOT, n1);
    let n2 = (50_000..)
        .map(Name)
        .find(|n| {
            let c = placement.dentry_server(ROOT, *n);
            c != parti && c != a_coord
        })
        .unwrap();
    let b = kit.run_op(
        proc(1),
        FsOp::Link {
            parent: ROOT,
            name: n2,
            target: i,
        },
    );
    // Not yet complete: B's hints mismatch ([null] at its coordinator,
    // [A] at the participant), so a timer is armed.
    assert_eq!(kit.outcome(b), None);
    kit.fire_timers();
    kit.run();
    assert_eq!(kit.outcome(b), Some(OpOutcome::Applied));
    assert_eq!(kit.msg_counts.get(&MsgKind::LCom), Some(&1));
    assert_eq!(
        kit.msg_counts.get(&MsgKind::Committed),
        Some(&1),
        "the forced commitment committed B"
    );
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    let nlink = kit
        .servers
        .iter()
        .find_map(|s| s.store().inode(i))
        .map(|n| n.nlink);
    assert_eq!(nlink, Some(2), "create + link");
}

/// Figure 7(a)'s mechanism: a full log blocks new arrivals until pruning,
/// which requires commitments to be forced.
#[test]
fn log_pressure_forces_commitments_and_recovers() {
    let mut cfg = ClusterConfig::new(2, Protocol::Cx);
    cfg.cx.trigger = cx_types::BatchTrigger::Never;
    cfg.cx.log_limit_bytes = Some(1200); // fits ~5 result records
    let mut kit = Kit::new(cfg);
    seed_namespace(&mut kit, &[]);

    let mut applied = 0;
    for k in 0..40u64 {
        let (name, ino) = cross_server_pair(&kit.placement, 30_000 + k * 101, 40_000 + k * 7);
        if kit
            .servers
            .iter()
            .any(|s| s.store().lookup(ROOT, name).is_some())
        {
            continue;
        }
        let op = kit.run_op(
            proc(0),
            FsOp::Create {
                parent: ROOT,
                name,
                ino,
            },
        );
        if kit.outcome(op) == Some(OpOutcome::Applied) {
            applied += 1;
        }
    }
    assert!(applied >= 30, "ops must keep completing under log pressure");
    let log_blocks: u64 = kit.servers.iter().map(|s| s.stats().log_full_blocks).sum();
    assert!(log_blocks > 0, "the tiny log must have filled up");
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    for s in &kit.servers {
        assert!(s.valid_log_bytes() <= 1200, "pruning must respect the cap");
    }
}

/// Two processes hammering the same directory entry name: the second
/// create must fail cleanly (EntryExists) whichever order commits.
#[test]
fn duplicate_name_race_resolves_cleanly() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, i1) = cross_server_pair(&kit.placement, 100, 1000);
    let i2 = InodeNo(i1.0 + 1);

    let a = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino: i1,
        },
    );
    let b = kit.run_op(
        proc(1),
        FsOp::Create {
            parent: ROOT,
            name,
            ino: i2,
        },
    );
    kit.fire_timers();
    kit.run();
    assert_eq!(kit.outcome(a), Some(OpOutcome::Applied));
    assert_eq!(kit.outcome(b), Some(OpOutcome::Failed), "duplicate name");
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
    // Only the first create's inode exists.
    assert!(kit.servers.iter().any(|s| s.store().inode(i1).is_some()));
    assert!(kit.servers.iter().all(|s| s.store().inode(i2).is_none()));
}

/// Conflicting read arrives while the pending op's commitment is already
/// in flight: the read waits for the existing commitment (no duplicate).
#[test]
fn conflict_during_inflight_commitment_waits() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let coord = kit.placement.dentry_server(ROOT, name);

    let a = kit.run_op(
        proc(0),
        FsOp::Create {
            parent: ROOT,
            name,
            ino,
        },
    );
    assert_eq!(kit.outcome(a), Some(OpOutcome::Applied));

    // Hold the participant's VoteResult so A's commitment stays in flight.
    kit.hold_if(move |env: &Envelope| {
        matches!(env.payload, Payload::VoteResult { .. }) && env.to == Endpoint::Server(coord)
    });
    // Kick off the lazy commitment: the VOTE goes out, its result is held,
    // so the batch stays open.
    kit.quiesce();
    assert_eq!(kit.held_count(), 1, "vote result is held");

    // B's lookup now conflicts with A, whose commitment is in flight;
    // the request blocks without launching a second commitment.
    let b = kit.start_op(proc(1), FsOp::Lookup { parent: ROOT, name });
    kit.run();
    assert_eq!(kit.outcome(b), None, "B waits for the commitment");

    kit.stop_holding();
    kit.release_held();
    kit.run();
    assert_eq!(kit.outcome(b), Some(OpOutcome::Applied));
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}
