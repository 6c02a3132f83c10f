//! Log record types and their binary encoding.
//!
//! Records are encoded to real bytes (with the updated-object images of a
//! Result-Record represented as zero padding of the right length) so that
//! log sizes, the Figure 7(b) valid-record curve, and the recovery scan of
//! Table V all operate on realistic volumes. The values inside a record
//! are laid out by [`cx_types::codec`], the codec the wire frame uses too.

use cx_types::codec::{encode_padded, Codec, Reader, WireError};
use cx_types::{OpId, Role, ServerId, SubOp, Verdict};
use serde::{Deserialize, Serialize};

/// Commit/abort decision for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
                // tag + op_id(16) + role + peer slot + sub-op slot + verdict
                // + invalidated + image length (4) + image
                (1 + 16 + 1 + PEER_SLOT + SUBOP_SLOT + 1 + 1 + 4) as u64
                    + subop.write_bytes() as u64
            }
            _ => 1 + 16,
        }
    }
}

const TAG_RESULT: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_COMPLETE: u8 = 4;

/// A Result record's peer and sub-op sit in fixed, zero-padded slots: the
/// log-volume model charges 5 and 34 bytes for them whatever their values
/// (the shared encoding takes 1–5 and 9–26).
const PEER_SLOT: usize = 5;
const SUBOP_SLOT: usize = 34;

impl Codec for Record {
    const MIN_BYTES: usize = 1 + OpId::MIN_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::Result {
                op_id,
                role,
                peer,
                subop,
                verdict,
                invalidated,
            } => {
                (TAG_RESULT, *op_id, *role).encode(out);
                encode_padded(peer, PEER_SLOT, out);
                encode_padded(subop, SUBOP_SLOT, out);
                let image = subop.write_bytes();
                (*verdict, *invalidated, image).encode(out);
                out.resize(out.len() + image as usize, 0);
            }
            Record::Commit { op_id } => (TAG_COMMIT, *op_id).encode(out),
            Record::Abort { op_id } => (TAG_ABORT, *op_id).encode(out),
            Record::Complete { op_id } => (TAG_COMPLETE, *op_id).encode(out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get()? {
            TAG_RESULT => {
                let (op_id, role) = r.get()?;
                let peer = r.padded(PEER_SLOT)?;
                let subop: SubOp = r.padded(SUBOP_SLOT)?;
                let (verdict, invalidated, image): (_, _, u32) = r.get()?;
                // The image is charged, not stored: its length is the one
                // the sub-op implies, or the record is corrupt.
                if image != subop.write_bytes() {
                    return Err(WireError::BadLength);
                }
                r.take(image as usize)?;
                Record::Result {
                    op_id,
                    role,
                    peer,
                    subop,
                    verdict,
                    invalidated,
                }
            }
            TAG_COMMIT => Record::Commit { op_id: r.get()? },
            TAG_ABORT => Record::Abort { op_id: r.get()? },
            TAG_COMPLETE => Record::Complete { op_id: r.get()? },
            t => return Err(WireError::UnknownTag(t)),
        })
    }
}

/// Append the record's encoding to `buf`.
pub fn encode_record(buf: &mut Vec<u8>, rec: &Record) {
    rec.encode(buf);
}

/// Decode one record from the front of `buf`, returning it and the number
/// of bytes consumed.
///
/// Total and strict: a truncated buffer — a torn tail left by a crash
/// mid-append — or a tag, flag or enum byte out of range is an `Err`,
/// never a panic, a phantom record or a different record.
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), WireError> {
    let mut r = Reader::new(buf);
    let rec = r.get()?;
    Ok((rec, buf.len() - r.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{FileKind, InodeNo, Name, ProcId};

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
