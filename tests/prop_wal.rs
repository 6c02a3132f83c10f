//! Property-based tests of the write-ahead log.

use cx_types::check::{check, Gen};
use cx_types::ids::ProcId;
use cx_types::{FileKind, InodeNo, Name, OpId, Role, ServerId, SubOp, Verdict};
use cx_wal::{decode_record, encode_record, Record, SeqNo, Wal};

fn arb_op_id(g: &mut Gen) -> OpId {
    OpId::new(
        ProcId::new(g.gen_range(0..4), g.gen_range(0..2)),
        g.gen_range(0..64),
    )
}

fn arb_subop(g: &mut Gen) -> SubOp {
    let ino = |g: &mut Gen| InodeNo(g.gen_range(1..1000));
    let name = |g: &mut Gen| Name(g.gen_range(1..1000));
    let kind = |g: &mut Gen| *g.choose(&[FileKind::Regular, FileKind::Directory]).unwrap();
    match g.gen_range(0..9) {
        0 => SubOp::InsertEntry {
            parent: ino(g),
            name: name(g),
            child: ino(g),
            kind: kind(g),
        },
        1 => SubOp::RemoveEntry {
            parent: ino(g),
            name: name(g),
            child: ino(g),
        },
        2 => SubOp::CreateInode {
            ino: ino(g),
            kind: kind(g),
        },
        3 => SubOp::ReleaseInode { ino: ino(g) },
        4 => SubOp::IncNlink { ino: ino(g) },
        5 => SubOp::DecNlink { ino: ino(g) },
        6 => SubOp::TouchInode { ino: ino(g) },
        7 => SubOp::ReadEntry {
            parent: ino(g),
            name: name(g),
        },
        _ => SubOp::ReadInode { ino: ino(g) },
    }
}

fn arb_record(g: &mut Gen) -> Record {
    match g.gen_range(0..4) {
        0 => Record::Result {
            op_id: arb_op_id(g),
            role: *g.choose(&[Role::Coordinator, Role::Participant]).unwrap(),
            peer: g.gen_bool(0.75).then(|| ServerId(g.gen_range(0..8))),
            subop: arb_subop(g),
            verdict: Verdict::from_ok(g.gen()),
            invalidated: g.gen(),
        },
        1 => Record::Commit {
            op_id: arb_op_id(g),
        },
        2 => Record::Abort {
            op_id: arb_op_id(g),
        },
        _ => Record::Complete {
            op_id: arb_op_id(g),
        },
    }
}

/// What a step does to the op it names.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    /// Flip the flag of every Result-Record of the op.
    Invalidate,
    /// §III-C step 4 on a disordered conflict: invalidate, then log the
    /// re-execution's Result-Record.
    Reexecute,
    /// Log another Result-Record without invalidating the earlier one, so
    /// a later action flips a superseded record that still reads false.
    Relog,
}

/// Steps `(after, target, actions)`: once record `i = after % recs.len()`
/// of the generated history is appended, each action in turn is applied
/// to the op of record `target % (i + 1)`.
type Step = (usize, usize, Vec<Action>);

fn arb_steps(g: &mut Gen) -> Vec<Step> {
    let actions = [Action::Invalidate, Action::Reexecute, Action::Relog];
    g.vec(0..6, |g| {
        let (after, target) = (g.gen_range(0..40), g.gen_range(0..40));
        (after, target, g.vec(1..4, |g| *g.choose(&actions).unwrap()))
    })
}

/// Append `recs` to a fresh log, running `steps` in between. Returns the
/// log, the records as they now stand in it (flags flipped, new Result-
/// Records included, in append order) and their sequence numbers.
fn append_with_steps(recs: &[Record], steps: &[Step]) -> (Wal, Vec<Record>, Vec<SeqNo>) {
    let mut wal = Wal::new(None);
    let mut history: Vec<Record> = Vec::new();
    let mut seqs = Vec::new();
    for (i, rec) in recs.iter().enumerate() {
        let (seq, _) = wal.append(rec.clone()).expect("unlimited");
        history.push(rec.clone());
        seqs.push(seq);
        for (_, target, actions) in steps.iter().filter(|(after, _, _)| after % recs.len() == i) {
            let op = recs[target % (i + 1)].op_id();
            for &action in actions {
                let invalidate = action != Action::Relog;
                if invalidate {
                    wal.invalidate_result(&op).expect("the op has a record");
                }
                let mut latest = None;
                for r in history.iter_mut() {
                    if let Record::Result {
                        op_id, invalidated, ..
                    } = r
                    {
                        if *op_id == op {
                            *invalidated |= invalidate;
                            latest = Some(r.clone());
                        }
                    }
                }
                let Some(Record::Result {
                    op_id,
                    role,
                    peer,
                    subop,
                    verdict,
                    ..
                }) = latest
                else {
                    continue;
                };
                if action != Action::Invalidate {
                    let again = Record::Result {
                        op_id,
                        role,
                        peer,
                        subop,
                        verdict,
                        invalidated: false,
                    };
                    let (seq, _) = wal.append(again.clone()).expect("unlimited");
                    history.push(again);
                    seqs.push(seq);
                }
            }
        }
    }
    (wal, history, seqs)
}

/// Every record round-trips through the binary encoding, and the
/// stated encoded length is exact.
#[test]
fn encoding_round_trips() {
    check("encoding_round_trips", 48, |g| {
        let rec = arb_record(g);
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        assert_eq!(buf.len() as u64, rec.encoded_len());
        let (back, consumed) = decode_record(&buf).expect("decodes");
        assert_eq!(back, rec);
        assert_eq!(consumed, buf.len());
    });
}

/// A concatenated log decodes back to the same record sequence.
#[test]
fn log_streams_decode() {
    check("log_streams_decode", 48, |g| {
        let recs = g.vec(1..40, arb_record);
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(&mut buf, r);
        }
        let mut off = 0;
        let mut decoded = Vec::new();
        while off < buf.len() {
            let (r, n) = decode_record(&buf[off..]).expect("stream decodes");
            decoded.push(r);
            off += n;
        }
        assert_eq!(decoded, recs);
    });
}

/// Valid-byte accounting is exact under arbitrary append/prune
/// interleavings, and pruning never removes an un-prunable op.
#[test]
fn accounting_is_exact() {
    check("accounting_is_exact", 48, |g| {
        let (recs, prune_each) = (g.vec(1..60, arb_record), g.gen::<bool>());
        let mut wal = Wal::new(None);
        for rec in recs {
            let op = rec.op_id();
            wal.append(rec).expect("unlimited log");
            if prune_each {
                wal.prune_op(&op);
            }
        }
        wal.prune_all();
        // whatever remains is exactly the sum of its record sizes…
        let remaining: u64 = wal.scan().map(|(_, r)| r.encoded_len()).sum();
        assert_eq!(wal.valid_bytes(), remaining);
        // …and none of it is prunable
        let (coord, parti) = wal.half_completed();
        for op in coord.iter().chain(parti.iter()) {
            assert!(!wal.op_state(op).expect("indexed").prunable());
        }
        // conservation: appended == pruned + remaining
        assert_eq!(
            wal.total_appended_bytes(),
            wal.total_pruned_bytes() + wal.valid_bytes()
        );
    });
}

/// Crash keeps exactly the durable prefix: every surviving record was
/// marked durable, and the rebuilt index matches a fresh replay —
/// re-executed ops' superseded, invalidated Result-Records included.
#[test]
fn crash_keeps_durable_prefix() {
    check("crash_keeps_durable_prefix", 48, |g| {
        let recs = g.vec(1..40, arb_record);
        let (durable_upto, steps) = (g.gen_range(0usize..40), arb_steps(g));
        let (mut wal, recs, seqs) = append_with_steps(&recs, &steps);
        let cut = durable_upto.min(recs.len());
        if cut > 0 {
            wal.mark_durable(seqs[cut - 1]);
        }
        wal.crash();
        // survivors are exactly recs[..cut]
        let survivors: Vec<Record> = wal.scan().map(|(_, r)| r).collect();
        assert_eq!(&survivors[..], &recs[..cut]);
        // the rebuilt index equals a fresh wal fed the same prefix
        let mut fresh = Wal::new(None);
        for rec in &recs[..cut] {
            fresh.append(rec.clone()).expect("unlimited");
        }
        for rec in &recs[..cut] {
            let op = rec.op_id();
            assert_eq!(wal.op_state(&op), fresh.op_state(&op));
        }
        assert_eq!(wal.valid_bytes(), fresh.valid_bytes());
    });
}

/// Torn tail at every byte offset of the last record: decoding a log
/// image whose physical tail was cut anywhere inside the last record
/// yields exactly the whole-record prefix — no panic, no phantom
/// record, regardless of where the cut lands.
#[test]
fn torn_tail_decodes_exact_prefix() {
    check("torn_tail_decodes_exact_prefix", 48, |g| {
        let recs = g.vec(1..10, arb_record);
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            encode_record(&mut buf, r);
            boundaries.push(buf.len());
        }
        let last_start = boundaries[recs.len() - 1];
        for cut in last_start..buf.len() {
            let torn = &buf[..cut];
            let mut off = 0;
            let mut decoded = Vec::new();
            while off < torn.len() {
                match decode_record(&torn[off..]) {
                    Ok((r, n)) => {
                        decoded.push(r);
                        off += n;
                    }
                    Err(_) => break,
                }
            }
            assert_eq!(
                &decoded[..],
                &recs[..recs.len() - 1],
                "cut at byte {} must recover exactly the whole-record prefix",
                cut
            );
        }
    });
}

/// `Wal::crash_torn` at any byte budget keeps exactly the durable
/// prefix plus the maximal run of whole volatile records that fits —
/// checked at every record boundary and one byte either side of it,
/// with re-executed ops' invalidated Result-Records in the history.
#[test]
fn wal_torn_crash_keeps_whole_record_prefix() {
    check("wal_torn_crash_keeps_whole_record_prefix", 48, |g| {
        let generated = g.vec(1..10, arb_record);
        let (durable_upto, steps) = (g.gen_range(0usize..10), arb_steps(g));
        let recs = append_with_steps(&generated, &steps).1;
        let cut = durable_upto.min(recs.len());
        let build = || {
            let (mut wal, _, seqs) = append_with_steps(&generated, &steps);
            if cut > 0 {
                wal.mark_durable(seqs[cut - 1]);
            }
            wal
        };
        // candidate torn budgets: every whole-record boundary of the
        // volatile suffix, plus one byte either side
        let mut budgets = vec![0u64];
        let mut cum = 0u64;
        for rec in &recs[cut..] {
            cum += rec.encoded_len();
            budgets.extend([cum.saturating_sub(1), cum, cum + 1]);
        }
        for extra in budgets {
            // how many whole volatile records fit in `extra` bytes?
            let mut fit = 0;
            let mut used = 0u64;
            for rec in &recs[cut..] {
                if used + rec.encoded_len() > extra {
                    break;
                }
                used += rec.encoded_len();
                fit += 1;
            }
            let mut wal = build();
            wal.crash_torn(extra);
            let survivors: Vec<Record> = wal.scan().map(|(_, r)| r).collect();
            assert_eq!(
                &survivors[..],
                &recs[..cut + fit],
                "durable prefix {} + torn budget {} must keep {} records",
                cut,
                extra,
                cut + fit
            );
            // survivors are durable: a second, clean crash changes nothing
            wal.crash();
            assert_eq!(wal.record_count(), cut + fit);
        }
    });
}

/// The log limit is a true invariant: valid bytes never exceed the
/// cap plus control-record slack, and appends start succeeding again
/// after pruning.
#[test]
fn limit_is_enforced() {
    check("limit_is_enforced", 48, |g| {
        let ops = g.vec(1..50, arb_op_id);
        let limit = 1000u64;
        let mut wal = Wal::new(Some(limit));
        let mut control_bytes = 0u64;
        for op in ops {
            let rec = Record::Result {
                op_id: op,
                role: Role::Participant,
                peer: None,
                subop: SubOp::CreateInode {
                    ino: InodeNo(1),
                    kind: FileKind::Regular,
                },
                verdict: Verdict::Yes,
                invalidated: false,
            };
            match wal.append(rec) {
                Ok(_) => {
                    let (_, b) = wal.append(Record::Commit { op_id: op }).expect("control");
                    control_bytes += b;
                }
                Err(_) => {
                    // full: prune and retry must make room
                    wal.prune_all();
                    control_bytes = 0;
                    assert!(wal.valid_bytes() <= limit);
                }
            }
            assert!(
                wal.valid_bytes() <= limit + control_bytes,
                "valid {} exceeded cap {} + control slack {}",
                wal.valid_bytes(),
                limit,
                control_bytes
            );
        }
    });
}

#[test]
fn seqno_ordering_matches_append_order() {
    let mut wal = Wal::new(None);
    let mut last = None;
    for i in 0..20 {
        let (seq, _) = wal
            .append(Record::Commit {
                op_id: OpId::new(ProcId::new(0, 0), i),
            })
            .expect("unlimited");
        if let Some(prev) = last {
            assert!(seq > prev);
        }
        last = Some(seq);
    }
    assert_eq!(last, Some(SeqNo(19)));
}
