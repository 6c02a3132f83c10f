//! Log record types and their binary encoding.
//!
//! Records are encoded to real bytes (with the updated-object images of a
//! Result-Record represented as zero padding of the right length) so that
//! log sizes, the Figure 7(b) valid-record curve, and the recovery scan of
//! Table V all operate on realistic volumes.

use cx_types::ids::{ClientId, ProcessId};
use cx_types::{FileKind, InodeNo, Name, OpId, ProcId, Role, ServerId, SubOp, Verdict};
use serde::{Deserialize, Serialize};

/// Commit/abort decision for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    Committed,
    Aborted,
}

/// The four record families of §III-A, as a dense index. Fault injection
/// keys crash points on "the Nth append of family F", so the [`crate::Wal`]
/// counts appends and flush completions per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RecordFamily {
    Result,
    Commit,
    Abort,
    Complete,
}

impl RecordFamily {
    pub const COUNT: usize = 4;
    pub const ALL: [RecordFamily; Self::COUNT] = [
        RecordFamily::Result,
        RecordFamily::Commit,
        RecordFamily::Abort,
        RecordFamily::Complete,
    ];

    pub fn index(self) -> usize {
        self as usize
    }
}

/// A log record (§III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Result of this server's sub-operation, with redo image.
    Result {
        op_id: OpId,
        role: Role,
        /// The other affected server, so a rebooted participant can ask
        /// the coordinator for the outcome (recovery), and a rebooted
        /// coordinator knows whom to vote with.
        peer: Option<ServerId>,
        subop: SubOp,
        verdict: Verdict,
        /// Set when the execution was invalidated during disordered
        /// conflict handling (§III-C step 4).
        invalidated: bool,
    },
    /// All sub-ops succeeded; operation committed.
    Commit { op_id: OpId },
    /// Executions failed or disagreed; operation aborted.
    Abort { op_id: OpId },
    /// Coordinator only: the whole operation has been completed.
    Complete { op_id: OpId },
}

impl Record {
    pub fn op_id(&self) -> OpId {
        match *self {
            Record::Result { op_id, .. }
            | Record::Commit { op_id }
            | Record::Abort { op_id }
            | Record::Complete { op_id } => op_id,
        }
    }

    pub fn family(&self) -> RecordFamily {
        match self {
            Record::Result { .. } => RecordFamily::Result,
            Record::Commit { .. } => RecordFamily::Commit,
            Record::Abort { .. } => RecordFamily::Abort,
            Record::Complete { .. } => RecordFamily::Complete,
        }
    }

    /// Encoded size in bytes (without re-encoding).
    pub fn encoded_len(&self) -> u64 {
        match self {
            Record::Result { subop, .. } => {
                // tag + op_id(16) + role + peer(5) + verdict + invalidated
                // + subop tag/fields (34) + image length (4) + image
                1 + 16 + 1 + 5 + 1 + 1 + 34 + 4 + subop.write_bytes() as u64
            }
            _ => 1 + 16,
        }
    }
}

const TAG_RESULT: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_COMPLETE: u8 = 4;

fn put_op_id(buf: &mut Vec<u8>, id: OpId) {
    buf.extend_from_slice(&id.proc.client.0.to_be_bytes());
    buf.extend_from_slice(&id.proc.process.0.to_be_bytes());
    buf.extend_from_slice(&id.seq.to_be_bytes());
}

/// Split `N` bytes off the front of `buf`. Every caller length-checks its
/// fixed-size field group first, so a short buffer here is a codec bug.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_first_chunk().expect("length-checked");
    *buf = rest;
    *head
}

fn get_op_id(buf: &mut &[u8]) -> OpId {
    let client = u32::from_be_bytes(take(buf));
    let process = u32::from_be_bytes(take(buf));
    let seq = u64::from_be_bytes(take(buf));
    OpId::new(
        ProcId {
            client: ClientId(client),
            process: ProcessId(process),
        },
        seq,
    )
}

fn put_subop(buf: &mut Vec<u8>, s: &SubOp) {
    // fixed 34 bytes: tag + kindish byte + four u64 slots
    let (tag, a, b, c, k): (u8, u64, u64, u64, u8) = match *s {
        SubOp::InsertEntry {
            parent,
            name,
            child,
            kind,
        } => (1, parent.0, name.0, child.0, kind_byte(kind)),
        SubOp::RemoveEntry {
            parent,
            name,
            child,
        } => (2, parent.0, name.0, child.0, 0),
        SubOp::CreateInode { ino, kind } => (3, ino.0, 0, 0, kind_byte(kind)),
        SubOp::ReleaseInode { ino } => (4, ino.0, 0, 0, 0),
        SubOp::IncNlink { ino } => (5, ino.0, 0, 0, 0),
        SubOp::DecNlink { ino } => (6, ino.0, 0, 0, 0),
        SubOp::ReadInode { ino } => (7, ino.0, 0, 0, 0),
        SubOp::ReadEntry { parent, name } => (8, parent.0, name.0, 0, 0),
        SubOp::ReadDir { dir } => (9, dir.0, 0, 0, 0),
        SubOp::TouchInode { ino } => (10, ino.0, 0, 0, 0),
    };
    buf.push(tag);
    buf.push(k);
    buf.extend_from_slice(&a.to_be_bytes());
    buf.extend_from_slice(&b.to_be_bytes());
    buf.extend_from_slice(&c.to_be_bytes());
    buf.extend_from_slice(&0u64.to_be_bytes()); // reserved
}

fn kind_byte(k: FileKind) -> u8 {
    match k {
        FileKind::Regular => 0,
        FileKind::Directory => 1,
    }
}

fn byte_kind(b: u8) -> FileKind {
    if b == 0 {
        FileKind::Regular
    } else {
        FileKind::Directory
    }
}

const SUBOP_BYTES: usize = 34;

fn get_subop(buf: &mut &[u8]) -> Result<SubOp, String> {
    if buf.len() < SUBOP_BYTES {
        return Err("truncated sub-op".into());
    }
    let [tag] = take(buf);
    let [k] = take(buf);
    let a = u64::from_be_bytes(take(buf));
    let b = u64::from_be_bytes(take(buf));
    let c = u64::from_be_bytes(take(buf));
    let _reserved: [u8; 8] = take(buf);
    Ok(match tag {
        1 => SubOp::InsertEntry {
            parent: InodeNo(a),
            name: Name(b),
            child: InodeNo(c),
            kind: byte_kind(k),
        },
        2 => SubOp::RemoveEntry {
            parent: InodeNo(a),
            name: Name(b),
            child: InodeNo(c),
        },
        3 => SubOp::CreateInode {
            ino: InodeNo(a),
            kind: byte_kind(k),
        },
        4 => SubOp::ReleaseInode { ino: InodeNo(a) },
        5 => SubOp::IncNlink { ino: InodeNo(a) },
        6 => SubOp::DecNlink { ino: InodeNo(a) },
        7 => SubOp::ReadInode { ino: InodeNo(a) },
        8 => SubOp::ReadEntry {
            parent: InodeNo(a),
            name: Name(b),
        },
        9 => SubOp::ReadDir { dir: InodeNo(a) },
        10 => SubOp::TouchInode { ino: InodeNo(a) },
        t => return Err(format!("bad sub-op tag {t}")),
    })
}

/// Append the record's encoding to `buf`.
pub fn encode_record(buf: &mut Vec<u8>, rec: &Record) {
    match rec {
        Record::Result {
            op_id,
            role,
            peer,
            subop,
            verdict,
            invalidated,
        } => {
            buf.push(TAG_RESULT);
            put_op_id(buf, *op_id);
            buf.push(matches!(role, Role::Coordinator) as u8);
            match peer {
                Some(s) => {
                    buf.push(1);
                    buf.extend_from_slice(&s.0.to_be_bytes());
                }
                None => {
                    buf.push(0);
                    buf.extend_from_slice(&0u32.to_be_bytes());
                }
            }
            buf.push(verdict.is_yes() as u8);
            buf.push(*invalidated as u8);
            put_subop(buf, subop);
            let image = subop.write_bytes();
            buf.extend_from_slice(&image.to_be_bytes());
            buf.resize(buf.len() + image as usize, 0);
        }
        Record::Commit { op_id } => {
            buf.push(TAG_COMMIT);
            put_op_id(buf, *op_id);
        }
        Record::Abort { op_id } => {
            buf.push(TAG_ABORT);
            put_op_id(buf, *op_id);
        }
        Record::Complete { op_id } => {
            buf.push(TAG_COMPLETE);
            put_op_id(buf, *op_id);
        }
    }
}

/// Decode one record from the front of `buf`, returning it and the number
/// of bytes consumed.
///
/// A truncated buffer — a torn tail left by a crash mid-append — is an
/// `Err`, never a panic and never a phantom record: every fixed-size field
/// group is length-checked before it is read.
pub fn decode_record(mut buf: &[u8]) -> Result<(Record, usize), String> {
    let start = buf.len();
    if buf.is_empty() {
        return Err("empty buffer".into());
    }
    let [tag] = take(&mut buf);
    // Every record starts with a 16-byte operation id.
    if buf.len() < 16 {
        return Err("truncated op id".into());
    }
    let rec = match tag {
        TAG_RESULT => {
            let op_id = get_op_id(&mut buf);
            // role + peer flag + peer id + verdict + invalidated
            if buf.len() < 1 + 1 + 4 + 1 + 1 {
                return Err("truncated result header".into());
            }
            let role = if take(&mut buf) == [1] {
                Role::Coordinator
            } else {
                Role::Participant
            };
            let has_peer = take(&mut buf) == [1];
            let peer_raw = u32::from_be_bytes(take(&mut buf));
            let peer = has_peer.then_some(ServerId(peer_raw));
            let verdict = if take(&mut buf) == [1] {
                Verdict::Yes
            } else {
                Verdict::No
            };
            let invalidated = take(&mut buf) == [1];
            let subop = get_subop(&mut buf)?;
            if buf.len() < 4 {
                return Err("truncated image length".into());
            }
            let image = u32::from_be_bytes(take(&mut buf)) as usize;
            if buf.len() < image {
                return Err("truncated image".into());
            }
            buf = &buf[image..];
            Record::Result {
                op_id,
                role,
                peer,
                subop,
                verdict,
                invalidated,
            }
        }
        TAG_COMMIT => Record::Commit {
            op_id: get_op_id(&mut buf),
        },
        TAG_ABORT => Record::Abort {
            op_id: get_op_id(&mut buf),
        },
        TAG_COMPLETE => Record::Complete {
            op_id: get_op_id(&mut buf),
        },
        t => return Err(format!("bad record tag {t}")),
    };
    Ok((rec, start - buf.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(seq: u64) -> OpId {
        OpId::new(ProcId::new(3, 4), seq)
    }

    fn sample_result() -> Record {
        Record::Result {
            op_id: oid(9),
            role: Role::Coordinator,
            peer: Some(ServerId(5)),
            subop: SubOp::InsertEntry {
                parent: InodeNo(1),
                name: Name(0xDEAD),
                child: InodeNo(77),
                kind: FileKind::Regular,
            },
            verdict: Verdict::Yes,
            invalidated: false,
        }
    }

    #[test]
    fn result_record_round_trips() {
        let rec = sample_result();
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        let (back, n) = decode_record(&buf).unwrap();
        assert_eq!(back, rec);
        assert_eq!(n, buf.len());
        assert_eq!(n as u64, rec.encoded_len());
    }

    #[test]
    fn all_subops_round_trip() {
        let subs = [
            SubOp::InsertEntry {
                parent: InodeNo(1),
                name: Name(2),
                child: InodeNo(3),
                kind: FileKind::Directory,
            },
            SubOp::RemoveEntry {
                parent: InodeNo(1),
                name: Name(2),
                child: InodeNo(3),
            },
            SubOp::CreateInode {
                ino: InodeNo(4),
                kind: FileKind::Directory,
            },
            SubOp::ReleaseInode { ino: InodeNo(4) },
            SubOp::IncNlink { ino: InodeNo(4) },
            SubOp::DecNlink { ino: InodeNo(4) },
            SubOp::ReadInode { ino: InodeNo(4) },
            SubOp::ReadEntry {
                parent: InodeNo(1),
                name: Name(2),
            },
            SubOp::ReadDir { dir: InodeNo(1) },
            SubOp::TouchInode { ino: InodeNo(4) },
        ];
        for subop in subs {
            let rec = Record::Result {
                op_id: oid(1),
                role: Role::Participant,
                peer: None,
                subop,
                verdict: Verdict::No,
                invalidated: true,
            };
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let (back, n) = decode_record(&buf).unwrap();
            assert_eq!(back, rec, "{subop:?}");
            assert_eq!(n as u64, rec.encoded_len());
        }
    }

    #[test]
    fn control_records_round_trip_and_are_small() {
        for rec in [
            Record::Commit { op_id: oid(1) },
            Record::Abort { op_id: oid(2) },
            Record::Complete { op_id: oid(3) },
        ] {
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let (back, n) = decode_record(&buf).unwrap();
            assert_eq!(back, rec);
            assert_eq!(n as u64, rec.encoded_len());
            assert_eq!(n, 17);
        }
    }

    #[test]
    fn multiple_records_decode_sequentially() {
        let recs = vec![
            sample_result(),
            Record::Commit { op_id: oid(9) },
            Record::Complete { op_id: oid(9) },
        ];
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(&mut buf, r);
        }
        let mut off = 0;
        let mut decoded = Vec::new();
        while off < buf.len() {
            let (r, n) = decode_record(&buf[off..]).unwrap();
            decoded.push(r);
            off += n;
        }
        assert_eq!(decoded, recs);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99, 0, 0]).is_err());
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_not_a_panic() {
        for rec in [
            sample_result(),
            Record::Commit { op_id: oid(1) },
            Record::Abort { op_id: oid(2) },
            Record::Complete { op_id: oid(3) },
        ] {
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            for cut in 0..buf.len() {
                assert!(
                    decode_record(&buf[..cut]).is_err(),
                    "{rec:?} truncated to {cut} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn families_are_dense_and_match() {
        for (i, f) in RecordFamily::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
        assert_eq!(sample_result().family(), RecordFamily::Result);
        assert_eq!(
            Record::Complete { op_id: oid(1) }.family(),
            RecordFamily::Complete
        );
    }

    #[test]
    fn result_record_size_includes_object_image() {
        let rec = sample_result();
        // image for InsertEntry is 176 bytes; record must be bigger.
        assert!(rec.encoded_len() > 176);
    }
}
