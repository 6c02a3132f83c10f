//! Explicit pins of Table I (the sub-operation split) and Table III (the
//! message vocabulary), as referenced by DESIGN.md's experiment index.

use cx_core::Placement;
use cx_types::ids::ProcId;
use cx_types::{FsOp, InodeNo, MsgKind, Name, OpId, Payload, Role, SubOp, Verdict};

const PARENT: InodeNo = InodeNo(1);
const NAME: Name = Name(77);
const INO: InodeNo = InodeNo(42);

fn halves(op: FsOp) -> (SubOp, SubOp) {
    let plan = Placement::new(16).plan(op);
    let second = plan
        .participant
        .map(|(_, s)| s)
        .or(plan.colocated)
        .expect("Table I ops have two halves");
    (plan.coord_subop, second)
}

/// Table I, row by row.
#[test]
fn table1_sub_operation_split() {
    // create: insert entry + update parent | add inode, flag regular
    let (c, p) = halves(FsOp::Create {
        parent: PARENT,
        name: NAME,
        ino: INO,
    });
    assert!(matches!(
        c,
        SubOp::InsertEntry {
            kind: cx_types::FileKind::Regular,
            ..
        }
    ));
    assert!(matches!(
        p,
        SubOp::CreateInode {
            kind: cx_types::FileKind::Regular,
            ..
        }
    ));

    // remove: remove entry + update parent | free inode if nlink reaches 0
    let (c, p) = halves(FsOp::Remove {
        parent: PARENT,
        name: NAME,
        ino: INO,
    });
    assert!(matches!(c, SubOp::RemoveEntry { .. }));
    assert!(matches!(p, SubOp::ReleaseInode { .. }));

    // mkdir: insert entry + update parent | add inode, flag dir, allocate entry space
    let (c, p) = halves(FsOp::Mkdir {
        parent: PARENT,
        name: NAME,
        ino: INO,
    });
    assert!(matches!(
        c,
        SubOp::InsertEntry {
            kind: cx_types::FileKind::Directory,
            ..
        }
    ));
    assert!(matches!(
        p,
        SubOp::CreateInode {
            kind: cx_types::FileKind::Directory,
            ..
        }
    ));

    // rmdir: remove entry + update parent | free inode if nlink reaches 0
    let (c, p) = halves(FsOp::Rmdir {
        parent: PARENT,
        name: NAME,
        ino: INO,
    });
    assert!(matches!(c, SubOp::RemoveEntry { .. }));
    assert!(matches!(p, SubOp::ReleaseInode { .. }));

    // link: insert entry + update parent | increase nlink
    let (c, p) = halves(FsOp::Link {
        parent: PARENT,
        name: NAME,
        target: INO,
    });
    assert!(matches!(c, SubOp::InsertEntry { .. }));
    assert!(matches!(p, SubOp::IncNlink { .. }));

    // unlink: remove entry + update parent | decrease nlink
    let (c, p) = halves(FsOp::Unlink {
        parent: PARENT,
        name: NAME,
        target: INO,
    });
    assert!(matches!(c, SubOp::RemoveEntry { .. }));
    assert!(matches!(p, SubOp::DecNlink { .. }));
}

/// Table III: the Cx message vocabulary with its directions.
#[test]
fn table3_message_vocabulary() {
    let op = OpId::new(ProcId::new(0, 0), 1);

    // VOTE: coordinator → participant, queries the sub-ops' results
    assert_eq!(
        Payload::Vote {
            ops: vec![op],
            order_after: vec![]
        }
        .kind(),
        MsgKind::Vote
    );
    // YES/NO: execution results (sub-op responses and vote results)
    assert_eq!(
        Payload::SubOpResp {
            op_id: op,
            verdict: Verdict::Yes,
            hint: cx_types::Hint::null()
        }
        .kind(),
        MsgKind::SubOpResp
    );
    assert_eq!(
        Payload::VoteResult {
            results: vec![(op, Verdict::No)]
        }
        .kind(),
        MsgKind::VoteResult
    );
    // COMMIT-REQ / ABORT-REQ: asks to commit/abort the executions
    assert_eq!(
        Payload::CommitDecision {
            commits: vec![op],
            aborts: vec![]
        }
        .kind(),
        MsgKind::CommitReq
    );
    assert_eq!(
        Payload::CommitDecision {
            commits: vec![],
            aborts: vec![op]
        }
        .kind(),
        MsgKind::AbortReq
    );
    // ACK: participant → coordinator, completes an operation
    assert_eq!(Payload::Ack { ops: vec![op] }.kind(), MsgKind::Ack);
    // L-COM: process → coordinator, launch a commitment
    assert_eq!(Payload::LCom { op_id: op }.kind(), MsgKind::LCom);
    // ALL-NO: coordinator → process, all executions aborted
    assert_eq!(Payload::AllNo { op_id: op }.kind(), MsgKind::AllNo);

    // The table's own spelling is what traces and the doctor print.
    let table3 = [
        (MsgKind::Vote, "VOTE"),
        (MsgKind::CommitReq, "COMMIT-REQ"),
        (MsgKind::AbortReq, "ABORT-REQ"),
        (MsgKind::Ack, "ACK"),
        (MsgKind::LCom, "L-COM"),
        (MsgKind::AllNo, "ALL-NO"),
    ];
    for (kind, name) in table3 {
        assert_eq!(kind.name(), name);
    }
    let mut names: Vec<_> = MsgKind::ALL.iter().map(|k| k.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), MsgKind::COUNT, "every kind has its own name");
}

/// The operation id is exactly the paper's triple: client id, process id,
/// operation sequence number (§III-A).
#[test]
fn operation_id_components() {
    let id = OpId::new(ProcId::new(3, 5), 99);
    assert_eq!(id.proc.client.0, 3);
    assert_eq!(id.proc.process.0, 5);
    assert_eq!(id.seq, 99);
    // the coalescence of client id and process id identifies the process
    assert_eq!(ProcId::new(3, 5), id.proc);

    // the participant sub-op of a Table I op carries role Participant in
    // its assignment
    let plan = Placement::new(16).plan(FsOp::Create {
        parent: PARENT,
        name: NAME,
        ino: INO,
    });
    for (_, _, role) in plan.assignments().into_iter().skip(1) {
        assert_eq!(role, Role::Participant);
    }
}
