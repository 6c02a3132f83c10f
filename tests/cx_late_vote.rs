//! A `Vote` redelivered after its commitment round finished (a late
//! duplicate: a link that duplicates and delays, never a FIFO one).

mod kit;

use cx_protocol::{Action, Endpoint};
use cx_types::{FsOp, MsgKind, OpOutcome, Payload, ProcId, Protocol};
use kit::*;

/// The participant applied the decision and sent its ACK; the same VOTE
/// arrives again. It must not be taken for a sub-op still on its way:
/// deferring it ends, one presumed-abort timeout later, in a NO vote on a
/// committed operation and a pending entry no decision will ever clear.
#[test]
fn a_vote_redelivered_after_its_round_changes_nothing() {
    let mut kit = kit_never(4, Protocol::Cx);
    seed_namespace(&mut kit, &[]);
    let (name, ino) = cross_server_pair(&kit.placement, 100, 1000);
    let coord = kit.placement.dentry_server(ROOT, name);
    let parti = kit.placement.inode_server(ino);
    let create = FsOp::Create {
        parent: ROOT,
        name,
        ino,
    };
    let op = kit.run_op(ProcId::new(0, 0), create);
    assert_eq!(kit.outcome(op), Some(OpOutcome::Applied));
    kit.quiesce();
    assert_eq!(kit.msg_counts.get(&MsgKind::Ack), Some(&1), "round done");

    let logged = |kit: &cx_protocol::testkit::Kit| -> Vec<u64> {
        let wals = kit.servers.iter().filter_map(|s| s.wal());
        wals.map(|w| w.total_appended_bytes()).collect()
    };
    let (logged_before, votes_before) = (logged(&kit), kit.msg_counts[&MsgKind::VoteResult]);
    let late_vote = Action::Send {
        to: Endpoint::Server(parti),
        payload: Payload::Vote {
            ops: vec![op],
            order_after: vec![],
        },
    };
    kit.inject_actions(Endpoint::Server(coord), vec![late_vote]);
    kit.run();
    kit.fire_timers();

    for (i, s) in kit.servers.iter().enumerate() {
        assert!(s.is_quiesced(), "srv{i}: {}", s.debug_summary());
    }
    assert_eq!(logged(&kit), logged_before, "no record appended");
    assert_eq!(kit.msg_counts[&MsgKind::VoteResult], votes_before);
    assert_eq!(kit.check_consistency(&roots()), vec![]);
}
