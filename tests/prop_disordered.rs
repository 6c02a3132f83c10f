//! Focused property test of the disordered-conflict machinery: pairs of
//! operations that genuinely share objects on both servers, under every
//! combination of held deliveries, must always terminate consistently —
//! through invalidation, immediate commitments, or the hint-mismatch
//! fallback.

mod kit;

use cx_protocol::testkit::Envelope;
use cx_types::{FileKind, FsOp, InodeNo, Name, OpOutcome, Payload, ProcId, Protocol, ServerId};
use kit::*;

/// Every point of the input space, 2^5 × 3 = 96 of them, so the case
/// once recorded as a failure (`hold_a_coord`, `b_is_unlink`, one round
/// of timers) runs on every pass.
#[test]
fn shared_pair_races_terminate() {
    for bits in 0..32u32 {
        let flags = [0, 1, 2, 3, 4].map(|i| bits >> i & 1 == 1);
        for fire_rounds in 1usize..4 {
            shared_pair_race(flags, fire_rounds);
        }
    }
}

const FLAGS: &str = "[hold_a_parti, hold_b_coord, hold_a_coord, hold_b_parti, b_is_unlink]";

/// Two operations on the same (dentry, inode) pair, with every
/// combination of held/released first deliveries.
fn shared_pair_race(flags: [bool; 5], fire_rounds: usize) {
    let case = format!("{FLAGS} = {flags:?}, fire_rounds = {fire_rounds}");
    let [hold_a_parti, hold_b_coord, hold_a_coord, hold_b_parti, b_is_unlink] = flags;
    let mut kit = kit_never(4, Protocol::Cx);
    let placement = kit.placement;
    let n = Name(7_000);
    let coord = placement.dentry_server(ROOT, n);
    let t = (9_000..)
        .map(InodeNo)
        .find(|i| placement.inode_server(*i) != coord)
        .expect("cross-server inode exists");
    let parti = placement.inode_server(t);
    // seed t with two pre-existing links so unlinks always apply
    for (i, server) in kit.servers.iter_mut().enumerate() {
        let store = server.store_mut();
        store.seed_inode(ROOT, FileKind::Directory, 1);
        if placement.inode_server(t) == ServerId(i as u32) {
            store.seed_inode(t, FileKind::Regular, 2);
        }
        for pre in [Name(91_001), Name(91_002)] {
            if placement.dentry_server(ROOT, pre) == ServerId(i as u32) {
                store.seed_dentry(ROOT, pre, t);
            }
        }
    }

    let (a_proc, b_proc) = (ProcId::new(0, 0), ProcId::new(1, 0));
    let (coord_ep, parti_ep) = (
        cx_protocol::Endpoint::Server(coord),
        cx_protocol::Endpoint::Server(parti),
    );
    kit.hold_if(move |env: &Envelope| {
        if let Payload::SubOpReq { op_id, .. } = &env.payload {
            let a = op_id.proc == a_proc;
            return (a && env.to == parti_ep && hold_a_parti)
                || (a && env.to == coord_ep && hold_a_coord)
                || (!a && env.to == coord_ep && hold_b_coord)
                || (!a && env.to == parti_ep && hold_b_parti);
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
    let b = if b_is_unlink {
        kit.start_op(
            b_proc,
            FsOp::Unlink {
                parent: ROOT,
                name: n,
                target: t,
            },
        )
    } else {
        // second link to the same name: must fail on whatever side
        // loses the race, atomically
        kit.start_op(
            b_proc,
            FsOp::Link {
                parent: ROOT,
                name: n,
                target: t,
            },
        )
    };
    kit.run();
    kit.stop_holding();
    kit.release_held();
    kit.run();
    for _ in 0..fire_rounds {
        kit.fire_timers();
        kit.run();
    }
    // a resolution can arm further timers (mismatch → L-COM chains);
    // keep firing until both operations settle, as real time would
    for _ in 0..8 {
        if kit.outcome(a).is_some() && kit.outcome(b).is_some() {
            break;
        }
        kit.fire_timers();
        kit.run();
    }

    assert!(kit.outcome(a).is_some(), "{case}: A must terminate");
    assert!(kit.outcome(b).is_some(), "{case}: B must terminate");
    kit.quiesce();
    assert_eq!(kit.check_consistency(&roots()), Vec::new(), "{case}");
    assert!(kit.servers.iter().all(|s| s.is_quiesced()), "{case}");

    // Semantic checks for the double-link case: at most one succeeds.
    if !b_is_unlink {
        let successes = [a, b]
            .iter()
            .filter(|op| kit.outcome(**op) == Some(OpOutcome::Applied))
            .count();
        assert!(
            successes <= 1,
            "{case}: the same name cannot be linked twice"
        );
        let entry_exists = kit
            .servers
            .iter()
            .any(|s| s.store().lookup(ROOT, n).is_some());
        assert_eq!(entry_exists, successes == 1, "{case}");
    }
}
