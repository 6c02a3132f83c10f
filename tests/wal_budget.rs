//! What the write-ahead log costs to hold, and what a crash leaves of it.
//!
//! Each operation's index entry is the log's only in-memory copy of that
//! operation's records: a control record is its family in the entry's
//! sequence list, and the latest Result-Record is the entry's fields. Only
//! a Result-Record that a re-executed sub-op superseded is kept apart.
//! These tests pin the cost of a live op and the one history that needs
//! the record kept apart: a sub-op invalidated and re-executed, cut by a
//! crash at every record.

#[path = "kit/counting.rs"]
mod counting;

use counting::live;
use cx_types::{FileKind, InodeNo, Name, OpId, ProcId, Role, ServerId, SubOp, Verdict};
use cx_wal::{Record, Wal};

fn oid(seq: u64) -> OpId {
    OpId::new(ProcId::new(0, 0), seq)
}

fn result(op_id: OpId, role: Role, verdict: Verdict, invalidated: bool) -> Record {
    Record::Result {
        op_id,
        role,
        peer: Some(ServerId(1)),
        subop: SubOp::InsertEntry {
            parent: InodeNo(1),
            name: Name(op_id.seq),
            child: InodeNo(100 + op_id.seq),
            kind: FileKind::Regular,
        },
        verdict,
        invalidated,
    }
}

/// 10,000 coordinators each waiting for their Complete-Record: a Result
/// and a Commit apiece, none prunable. The index entry's slab slot (112 B,
/// 184 a live op in a slab of 16,384), its index bucket (7) and the
/// unflushed tail's family list (52) are what a live op costs: 242 B/op,
/// budget 254. A 136-byte entry with four sequence slots, behind a hash
/// slot that stored its key, took 316 B/op; keeping a second copy of each
/// record, a 64-byte slot per sequence number, took 525 B/op.
#[test]
fn a_live_op_costs_its_index_entry() {
    const N: u64 = 10_000;
    const BUDGET_PER_OP: isize = 254;
    let before = live();
    let mut wal = Wal::new(None);
    for i in 0..N {
        let op = oid(i);
        wal.append(result(op, Role::Coordinator, Verdict::Yes, false))
            .expect("unlimited");
        wal.append(Record::Commit { op_id: op }).expect("unlimited");
    }
    let held = live() - before;
    assert_eq!(wal.record_count(), 2 * N as usize);
    assert_eq!(wal.half_completed().0.len(), N as usize, "nothing pruned");
    let per_op = held / N as isize;
    assert!(
        per_op <= BUDGET_PER_OP,
        "{held} B of live heap for {N} live ops: {per_op} B/op, budget {BUDGET_PER_OP}"
    );
}

/// A participant's sub-op is invalidated (§III-C step 4) and re-executed,
/// then the op commits. Power fails with nothing flushed and the first
/// `k` records on the platter, for every `k`: the log keeps exactly that
/// prefix, the first Result-Record reads `invalidated: true` in every
/// prefix that holds it, and the rebuilt index equals a fresh replay.
#[test]
fn a_reexecuted_op_survives_a_crash_at_every_cut() {
    let op = oid(7);
    let v1 = result(op, Role::Participant, Verdict::No, false);
    let v2 = result(op, Role::Participant, Verdict::Yes, false);
    let build = || {
        let mut wal = Wal::new(None);
        wal.append(v1.clone()).expect("unlimited");
        wal.invalidate_result(&op).expect("logged");
        wal.append(v2.clone()).expect("unlimited");
        wal.append(Record::Commit { op_id: op }).expect("unlimited");
        wal
    };
    let history = [
        result(op, Role::Participant, Verdict::No, true),
        v2.clone(),
        Record::Commit { op_id: op },
    ];
    let st = build();
    let scanned: Vec<Record> = st.scan().map(|(_, r)| r).collect();
    assert_eq!(scanned, history, "the log before the crash");

    let mut torn = 0;
    for k in 0..=history.len() {
        for extra in [torn, torn + 1] {
            let mut wal = build();
            wal.crash_torn(extra);
            let survivors: Vec<Record> = wal.scan().map(|(_, r)| r).collect();
            assert_eq!(survivors, history[..k], "{extra} torn bytes");
            let mut fresh = Wal::new(None);
            for rec in &history[..k] {
                fresh.append(rec.clone()).expect("unlimited");
            }
            assert_eq!(wal.op_state(&op), fresh.op_state(&op), "{k} records");
            assert_eq!(wal.valid_bytes(), fresh.valid_bytes());
            assert_eq!(wal.record_count(), k);
            // The survivors are on disk: a second crash keeps them all.
            wal.crash();
            assert_eq!(wal.scan().count(), k);
        }
        if let Some(rec) = history.get(k) {
            torn += rec.encoded_len();
        }
    }
}
