//! Property-based tests of the write-ahead log.

use cx_types::ids::ProcId;
use cx_types::{FileKind, InodeNo, Name, OpId, Role, ServerId, SubOp, Verdict};
use cx_wal::{decode_record, encode_record, Record, SeqNo, Wal};
use proptest::prelude::*;

fn op_id_strategy() -> impl Strategy<Value = OpId> {
    (0u32..4, 0u32..2, 0u64..64).prop_map(|(c, p, seq)| OpId::new(ProcId::new(c, p), seq))
}

fn subop_strategy() -> impl Strategy<Value = SubOp> {
    let ino = (1u64..1000).prop_map(InodeNo);
    let name = (1u64..1000).prop_map(Name);
    prop_oneof![
        (ino.clone(), name.clone(), ino.clone(), any::<bool>()).prop_map(
            |(parent, name, child, dir)| SubOp::InsertEntry {
                parent,
                name,
                child,
                kind: if dir {
                    FileKind::Directory
                } else {
                    FileKind::Regular
                },
            }
        ),
        (ino.clone(), name.clone(), ino.clone()).prop_map(|(parent, name, child)| {
            SubOp::RemoveEntry {
                parent,
                name,
                child,
            }
        }),
        (ino.clone(), any::<bool>()).prop_map(|(i, dir)| SubOp::CreateInode {
            ino: i,
            kind: if dir {
                FileKind::Directory
            } else {
                FileKind::Regular
            },
        }),
        ino.clone().prop_map(|i| SubOp::ReleaseInode { ino: i }),
        ino.clone().prop_map(|i| SubOp::IncNlink { ino: i }),
        ino.clone().prop_map(|i| SubOp::DecNlink { ino: i }),
        ino.clone().prop_map(|i| SubOp::TouchInode { ino: i }),
        (ino.clone(), name).prop_map(|(parent, name)| SubOp::ReadEntry { parent, name }),
        ino.prop_map(|i| SubOp::ReadInode { ino: i }),
    ]
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        (
            op_id_strategy(),
            any::<bool>(),
            prop::option::of(0u32..8),
            subop_strategy(),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(
                |(op_id, coord, peer, subop, yes, invalidated)| Record::Result {
                    op_id,
                    role: if coord {
                        Role::Coordinator
                    } else {
                        Role::Participant
                    },
                    peer: peer.map(ServerId),
                    subop,
                    verdict: if yes { Verdict::Yes } else { Verdict::No },
                    invalidated,
                }
            ),
        op_id_strategy().prop_map(|op_id| Record::Commit { op_id }),
        op_id_strategy().prop_map(|op_id| Record::Abort { op_id }),
        op_id_strategy().prop_map(|op_id| Record::Complete { op_id }),
    ]
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

fn step_strategy() -> impl Strategy<Value = Vec<Step>> {
    let action = prop_oneof![
        Just(Action::Invalidate),
        Just(Action::Reexecute),
        Just(Action::Relog)
    ];
    prop::collection::vec(
        (0usize..40, 0usize..40, prop::collection::vec(action, 1..4)),
        0..6,
    )
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

proptest! {
    /// Every record round-trips through the binary encoding, and the
    /// stated encoded length is exact.
    #[test]
    fn encoding_round_trips(rec in record_strategy()) {
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        prop_assert_eq!(buf.len() as u64, rec.encoded_len());
        let (back, consumed) = decode_record(&buf).expect("decodes");
        prop_assert_eq!(back, rec);
        prop_assert_eq!(consumed, buf.len());
    }

    /// A concatenated log decodes back to the same record sequence.
    #[test]
    fn log_streams_decode(recs in prop::collection::vec(record_strategy(), 1..40)) {
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
        prop_assert_eq!(decoded, recs);
    }

    /// Valid-byte accounting is exact under arbitrary append/prune
    /// interleavings, and pruning never removes an un-prunable op.
    #[test]
    fn accounting_is_exact(
        recs in prop::collection::vec(record_strategy(), 1..60),
        prune_each in any::<bool>(),
    ) {
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
        prop_assert_eq!(wal.valid_bytes(), remaining);
        // …and none of it is prunable
        let (coord, parti) = wal.half_completed();
        for op in coord.iter().chain(parti.iter()) {
            prop_assert!(!wal.op_state(op).expect("indexed").prunable());
        }
        // conservation: appended == pruned + remaining
        prop_assert_eq!(
            wal.total_appended_bytes(),
            wal.total_pruned_bytes() + wal.valid_bytes()
        );
    }

    /// Crash keeps exactly the durable prefix: every surviving record was
    /// marked durable, and the rebuilt index matches a fresh replay —
    /// re-executed ops' superseded, invalidated Result-Records included.
    #[test]
    fn crash_keeps_durable_prefix(
        recs in prop::collection::vec(record_strategy(), 1..40),
        durable_upto in 0usize..40,
        steps in step_strategy(),
    ) {
        let (mut wal, recs, seqs) = append_with_steps(&recs, &steps);
        let cut = durable_upto.min(recs.len());
        if cut > 0 {
            wal.mark_durable(seqs[cut - 1]);
        }
        wal.crash();
        // survivors are exactly recs[..cut]
        let survivors: Vec<Record> = wal.scan().map(|(_, r)| r).collect();
        prop_assert_eq!(&survivors[..], &recs[..cut]);
        // the rebuilt index equals a fresh wal fed the same prefix
        let mut fresh = Wal::new(None);
        for rec in &recs[..cut] {
            fresh.append(rec.clone()).expect("unlimited");
        }
        for rec in &recs[..cut] {
            let op = rec.op_id();
            prop_assert_eq!(wal.op_state(&op), fresh.op_state(&op));
        }
        prop_assert_eq!(wal.valid_bytes(), fresh.valid_bytes());
    }

    /// Torn tail at every byte offset of the last record: decoding a log
    /// image whose physical tail was cut anywhere inside the last record
    /// yields exactly the whole-record prefix — no panic, no phantom
    /// record, regardless of where the cut lands.
    #[test]
    fn torn_tail_decodes_exact_prefix(recs in prop::collection::vec(record_strategy(), 1..10)) {
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
            prop_assert_eq!(
                &decoded[..],
                &recs[..recs.len() - 1],
                "cut at byte {} must recover exactly the whole-record prefix",
                cut
            );
        }
    }

    /// `Wal::crash_torn` at any byte budget keeps exactly the durable
    /// prefix plus the maximal run of whole volatile records that fits —
    /// checked at every record boundary and one byte either side of it,
    /// with re-executed ops' invalidated Result-Records in the history.
    #[test]
    fn wal_torn_crash_keeps_whole_record_prefix(
        recs in prop::collection::vec(record_strategy(), 1..10),
        durable_upto in 0usize..10,
        steps in step_strategy(),
    ) {
        let generated = recs;
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
            prop_assert_eq!(
                &survivors[..],
                &recs[..cut + fit],
                "durable prefix {} + torn budget {} must keep {} records",
                cut, extra, cut + fit
            );
            // survivors are durable: a second, clean crash changes nothing
            wal.crash();
            prop_assert_eq!(wal.record_count(), cut + fit);
        }
    }

    /// The log limit is a true invariant: valid bytes never exceed the
    /// cap plus control-record slack, and appends start succeeding again
    /// after pruning.
    #[test]
    fn limit_is_enforced(ops in prop::collection::vec(op_id_strategy(), 1..50)) {
        let limit = 1000u64;
        let mut wal = Wal::new(Some(limit));
        let mut control_bytes = 0u64;
        for op in ops {
            let rec = Record::Result {
                op_id: op,
                role: Role::Participant,
                peer: None,
                subop: SubOp::CreateInode { ino: InodeNo(1), kind: FileKind::Regular },
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
                    prop_assert!(wal.valid_bytes() <= limit);
                }
            }
            prop_assert!(
                wal.valid_bytes() <= limit + control_bytes,
                "valid {} exceeded cap {} + control slack {}",
                wal.valid_bytes(), limit, control_bytes
            );
        }
    }
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
