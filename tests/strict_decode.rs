//! The record decoder is strict and total: a corrupt enum or flag byte is
//! an error, never a different valid record, and no byte string panics it
//! (the WAL-side mirror of cx-net's `wire_fuzz.rs`).

use cx_types::check::{check, Gen};
use cx_types::ids::ProcId;
use cx_types::{FileKind, InodeNo, Name, OpId, Role, ServerId, SubOp, Verdict};
use cx_wal::{decode_record, encode_record, Record};

fn result(role: Role, peer: Option<ServerId>, kind: FileKind, yes: bool, inv: bool) -> Record {
    Record::Result {
        op_id: OpId::new(ProcId::new(3, 4), 9),
        role,
        peer,
        subop: SubOp::InsertEntry {
            parent: InodeNo(0x0101_0101_0101_0101),
            name: Name(0x0101_0101_0101_0101),
            child: InodeNo(0x0101_0101_0101_0101),
            kind,
        },
        verdict: Verdict::from_ok(yes),
        invalidated: inv,
    }
}

fn encode(rec: &Record) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_record(&mut buf, rec);
    buf
}

/// The offset of the first byte where two encodings differ — where the
/// field the two records disagree on lives, whatever the layout.
fn field_at(a: &Record, b: &Record) -> usize {
    let (a, b) = (encode(a), encode(b));
    a.iter()
        .zip(&b)
        .position(|(x, y)| x != y)
        .expect("the records differ")
}

#[test]
fn every_enum_and_flag_byte_rejects_out_of_range_values() {
    let base = result(
        Role::Coordinator,
        Some(ServerId(0)),
        FileKind::Regular,
        true,
        false,
    );
    let mut other_subop = base.clone();
    if let Record::Result { subop, .. } = &mut other_subop {
        *subop = SubOp::RemoveEntry {
            parent: InodeNo(0x0101_0101_0101_0101),
            name: Name(0x0101_0101_0101_0101),
            child: InodeNo(0x0101_0101_0101_0101),
        };
    }
    let fields = [
        (
            "role",
            result(
                Role::Participant,
                Some(ServerId(0)),
                FileKind::Regular,
                true,
                false,
            ),
        ),
        (
            "peer flag",
            result(Role::Coordinator, None, FileKind::Regular, true, false),
        ),
        (
            "verdict",
            result(
                Role::Coordinator,
                Some(ServerId(0)),
                FileKind::Regular,
                false,
                false,
            ),
        ),
        (
            "invalidated",
            result(
                Role::Coordinator,
                Some(ServerId(0)),
                FileKind::Regular,
                true,
                true,
            ),
        ),
        ("sub-op tag", other_subop),
        (
            "file kind",
            result(
                Role::Coordinator,
                Some(ServerId(0)),
                FileKind::Directory,
                true,
                false,
            ),
        ),
    ];
    let bytes = encode(&base);
    assert_eq!(decode_record(&bytes).expect("intact").0, base);
    for (what, variant) in &fields {
        let at = field_at(&base, variant);
        for bad in [2u8, 0xFF] {
            let mut evil = bytes.clone();
            evil[at] = bad;
            assert!(
                decode_record(&evil).is_err(),
                "{what} byte (offset {at}) = {bad:#x} decoded as {:?}",
                decode_record(&evil).map(|(r, _)| r)
            );
        }
    }
}

fn arb_record(g: &mut Gen) -> Record {
    let shape = g.gen_range(0u32..6);
    let (a, b, c) = (g.gen::<u64>(), g.gen::<u64>(), g.gen::<u64>());
    let (flags, family) = (g.gen::<u8>(), g.gen_range(0u32..4));
    let op_id = OpId::new(ProcId::new(a as u32, (a >> 32) as u32), b);
    let kind = if flags & 1 == 1 {
        FileKind::Directory
    } else {
        FileKind::Regular
    };
    let subop = match shape {
        0 => SubOp::InsertEntry {
            parent: InodeNo(a),
            name: Name(b),
            child: InodeNo(c),
            kind,
        },
        1 => SubOp::RemoveEntry {
            parent: InodeNo(a),
            name: Name(b),
            child: InodeNo(c),
        },
        2 => SubOp::CreateInode {
            ino: InodeNo(c),
            kind,
        },
        3 => SubOp::ReadEntry {
            parent: InodeNo(a),
            name: Name(c),
        },
        4 => SubOp::DecNlink { ino: InodeNo(c) },
        _ => SubOp::ReadDir { dir: InodeNo(c) },
    };
    match family {
        0 => Record::Commit { op_id },
        1 => Record::Abort { op_id },
        2 => Record::Complete { op_id },
        _ => Record::Result {
            op_id,
            role: if flags & 2 == 2 {
                Role::Coordinator
            } else {
                Role::Participant
            },
            peer: (flags & 4 == 4).then_some(ServerId(c as u32)),
            subop,
            verdict: Verdict::from_ok(flags & 8 == 8),
            invalidated: flags & 16 == 16,
        },
    }
}

/// Pure random bytes: decode returns, never panics, and any `Ok` has
/// consumed within bounds.
#[test]
fn random_bytes_never_panic() {
    check("random_bytes_never_panic", 300, |g| {
        let bytes = g.vec(0..512, |g| g.gen::<u8>());
        if let Ok((_, used)) = decode_record(&bytes) {
            assert!(used <= bytes.len());
        }
    });
}

/// Every single-bit flip of a valid record either decodes (a flipped
/// value field is a legal record) or is an error — never a panic —
/// and whatever decodes consumed exactly its own encoded length.
#[test]
fn corrupted_records_never_panic() {
    check("corrupted_records_never_panic", 300, |g| {
        let bytes = encode(&arb_record(g));
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[at] ^= 1 << bit;
                if let Ok((back, used)) = decode_record(&evil) {
                    assert!(used <= evil.len());
                    assert_eq!(used as u64, back.encoded_len());
                }
            }
        }
    });
}
