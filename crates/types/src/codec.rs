//! The one byte codec for the protocol's values.
//!
//! cx-net's wire frame, cx-wal's log record and the wall-clock runtime's
//! store snapshot all lay out `OpId`, `SubOp`, `FileKind`, `Role`,
//! `Verdict`, … through the [`Codec`] impls here, so each format decision
//! is made once. Integers are little-endian; a `bool`, an `Option`'s flag
//! and a field-less enum are one byte; an enum with fields is a one-byte
//! tag and then the fields; a `Vec` is a `u32` count and then the
//! elements; a `String` is a `u16` length and then UTF-8.
//!
//! Decoding is total and strict: any byte string yields a value or a typed
//! [`WireError`] — never a panic, never an out-of-range tag or flag read as
//! some other value, and never an allocation the input cannot back (a
//! count is checked against the bytes remaining, [`Codec::MIN_BYTES`] per
//! element, before anything is reserved).

use crate::ids::{InodeNo, Name, ObjectId, OpId, ProcId, ServerId};
use crate::msg::{Hint, Payload, Verdict};
use crate::op::{FileKind, FsOp, OpOutcome};
use crate::subop::{OpPlan, Role, SubOp};
use std::fmt;

/// Typed decode failure. Decoders return these for any malformed input;
/// they never panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the announced frame/field length.
    Truncated,
    /// A frame's version byte is not the one this build speaks.
    BadVersion(u8),
    /// Frame or record tag is not one this build knows.
    UnknownTag(u8),
    /// A frame's length prefix exceeds the frame-size cap.
    Oversized(u32),
    /// A count or length is impossible for the bytes remaining, or
    /// disagrees with the value it sizes.
    BadLength,
    /// An enum discriminant byte is out of range for `what`.
    UnknownEnum { what: &'static str, value: u8 },
    /// Frame body has leftover bytes after a complete decode.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownTag(t) => write!(f, "unknown tag {t}"),
            WireError::Oversized(n) => write!(f, "frame length {n} exceeds the cap"),
            WireError::BadLength => write!(f, "impossible collection length"),
            WireError::UnknownEnum { what, value } => {
                write!(f, "unknown {what} discriminant {value}")
            }
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value with one byte layout.
pub trait Codec: Sized {
    /// The fewest bytes any encoding of `Self` occupies: what a decoded
    /// `Vec` count is checked against.
    const MIN_BYTES: usize;
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Read one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// A bounded cursor over encoded bytes: every read is length-checked.
pub struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    /// The next `n` bytes, raw.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, _) = self.b[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.pos += N;
        Ok(*head)
    }

    /// Decode one `T`.
    pub fn get<T: Codec>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Decode a `T` written by [`encode_padded`] into a `width`-byte slot.
    /// The whole slot is consumed; its padding is not read.
    pub fn padded<T: Codec>(&mut self, width: usize) -> Result<T, WireError> {
        Reader::new(self.take(width)?).get()
    }
}

/// Encode `v` into a fixed `width`-byte slot, zero-padded — for formats
/// that charge a constant size whatever the value (the WAL's Result
/// record).
pub fn encode_padded<T: Codec>(v: &T, width: usize, out: &mut Vec<u8>) {
    let end = out.len() + width;
    v.encode(out);
    assert!(out.len() <= end, "value overflows its {width}-byte slot");
    out.resize(end, 0);
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
int_codec!(u8, u16, u32, u64);

impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::UnknownEnum {
                what: "bool",
                value,
            }),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= u32::MAX as usize);
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get::<u32>()? as usize;
        if n > r.remaining() / T::MIN_BYTES.max(1) {
            return Err(WireError::BadLength);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.get()?);
        }
        Ok(v)
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 2;
    fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= u16::MAX as usize);
        (self.len() as u16).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.get::<u16>()? as usize;
        let s = std::str::from_utf8(r.take(n)?).map_err(|_| WireError::BadLength)?;
        Ok(s.to_owned())
    }
}

macro_rules! tuple_codec {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$n.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($(r.get::<$t>()?,)+))
            }
        }
    )*};
}
tuple_codec! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

macro_rules! newtype_codec {
    ($($t:ident($inner:ty)),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = <$inner>::MIN_BYTES;
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($t(r.get()?))
            }
        }
    )*};
}
newtype_codec!(ServerId(u32), InodeNo(u64), Name(u64), Hint(Vec<OpId>));

/// Field-less enums: one byte each, and the byte-to-value map every
/// format that stores one goes through.
macro_rules! byte_enum {
    ($($t:ident $what:literal { $($v:path => $b:literal),+ })*) => {$(
        impl $t {
            /// This value's byte.
            pub fn byte(self) -> u8 {
                match self {
                    $($v => $b),+
                }
            }
            /// The value `value` is the byte of; any other byte is an error.
            pub fn from_byte(value: u8) -> Result<Self, WireError> {
                match value {
                    $($b => Ok($v),)+
                    value => Err(WireError::UnknownEnum { what: $what, value }),
                }
            }
        }
        impl Codec for $t {
            const MIN_BYTES: usize = 1;
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(self.byte());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Self::from_byte(r.get()?)
            }
        }
    )*};
}
byte_enum! {
    FileKind "file kind" { FileKind::Regular => 0, FileKind::Directory => 1 }
    Role "role" { Role::Coordinator => 0, Role::Participant => 1 }
    Verdict "verdict" { Verdict::No => 0, Verdict::Yes => 1 }
    OpOutcome "op outcome" { OpOutcome::Applied => 0, OpOutcome::Failed => 1 }
}

impl Codec for ProcId {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        (self.client.0, self.process.0).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ProcId::new(r.get()?, r.get()?))
    }
}

impl Codec for OpId {
    const MIN_BYTES: usize = 16;
    fn encode(&self, out: &mut Vec<u8>) {
        (self.proc, self.seq).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OpId::new(r.get()?, r.get()?))
    }
}

impl Codec for ObjectId {
    const MIN_BYTES: usize = 9;
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            ObjectId::Inode(ino) => (0u8, ino).encode(out),
            ObjectId::Dentry(dir, name) => (1u8, dir, name).encode(out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(ObjectId::Inode(r.get()?)),
            1 => Ok(ObjectId::Dentry(r.get()?, r.get()?)),
            value => Err(WireError::UnknownEnum {
                what: "object id",
                value,
            }),
        }
    }
}

impl Codec for SubOp {
    const MIN_BYTES: usize = 9;
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            SubOp::InsertEntry {
                parent,
                name,
                child,
                kind,
            } => (0u8, parent, name, child, kind).encode(out),
            SubOp::RemoveEntry {
                parent,
                name,
                child,
            } => (1u8, parent, name, child).encode(out),
            SubOp::CreateInode { ino, kind } => (2u8, ino, kind).encode(out),
            SubOp::ReleaseInode { ino } => (3u8, ino).encode(out),
            SubOp::IncNlink { ino } => (4u8, ino).encode(out),
            SubOp::DecNlink { ino } => (5u8, ino).encode(out),
            SubOp::ReadInode { ino } => (6u8, ino).encode(out),
            SubOp::ReadEntry { parent, name } => (7u8, parent, name).encode(out),
            SubOp::ReadDir { dir } => (8u8, dir).encode(out),
            SubOp::TouchInode { ino } => (9u8, ino).encode(out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get::<u8>()? {
            0 => SubOp::InsertEntry {
                parent: r.get()?,
                name: r.get()?,
                child: r.get()?,
                kind: r.get()?,
            },
            1 => SubOp::RemoveEntry {
                parent: r.get()?,
                name: r.get()?,
                child: r.get()?,
            },
            2 => SubOp::CreateInode {
                ino: r.get()?,
                kind: r.get()?,
            },
            3 => SubOp::ReleaseInode { ino: r.get()? },
            4 => SubOp::IncNlink { ino: r.get()? },
            5 => SubOp::DecNlink { ino: r.get()? },
            6 => SubOp::ReadInode { ino: r.get()? },
            7 => SubOp::ReadEntry {
                parent: r.get()?,
                name: r.get()?,
            },
            8 => SubOp::ReadDir { dir: r.get()? },
            9 => SubOp::TouchInode { ino: r.get()? },
            value => {
                return Err(WireError::UnknownEnum {
                    what: "sub-op",
                    value,
                })
            }
        })
    }
}

impl Codec for FsOp {
    const MIN_BYTES: usize = 9;
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            FsOp::Create { parent, name, ino } => (0u8, parent, name, ino).encode(out),
            FsOp::Remove { parent, name, ino } => (1u8, parent, name, ino).encode(out),
            FsOp::Mkdir { parent, name, ino } => (2u8, parent, name, ino).encode(out),
            FsOp::Rmdir { parent, name, ino } => (3u8, parent, name, ino).encode(out),
            FsOp::Link {
                parent,
                name,
                target,
            } => (4u8, parent, name, target).encode(out),
            FsOp::Unlink {
                parent,
                name,
                target,
            } => (5u8, parent, name, target).encode(out),
            FsOp::Stat { ino } => (6u8, ino).encode(out),
            FsOp::Lookup { parent, name } => (7u8, parent, name).encode(out),
            FsOp::Getattr { ino } => (8u8, ino).encode(out),
            FsOp::Setattr { ino } => (9u8, ino).encode(out),
            FsOp::Readdir { dir } => (10u8, dir).encode(out),
            FsOp::Access { ino } => (11u8, ino).encode(out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get::<u8>()? {
            0 => FsOp::Create {
                parent: r.get()?,
                name: r.get()?,
                ino: r.get()?,
            },
            1 => FsOp::Remove {
                parent: r.get()?,
                name: r.get()?,
                ino: r.get()?,
            },
            2 => FsOp::Mkdir {
                parent: r.get()?,
                name: r.get()?,
                ino: r.get()?,
            },
            3 => FsOp::Rmdir {
                parent: r.get()?,
                name: r.get()?,
                ino: r.get()?,
            },
            4 => FsOp::Link {
                parent: r.get()?,
                name: r.get()?,
                target: r.get()?,
            },
            5 => FsOp::Unlink {
                parent: r.get()?,
                name: r.get()?,
                target: r.get()?,
            },
            6 => FsOp::Stat { ino: r.get()? },
            7 => FsOp::Lookup {
                parent: r.get()?,
                name: r.get()?,
            },
            8 => FsOp::Getattr { ino: r.get()? },
            9 => FsOp::Setattr { ino: r.get()? },
            10 => FsOp::Readdir { dir: r.get()? },
            11 => FsOp::Access { ino: r.get()? },
            value => {
                return Err(WireError::UnknownEnum {
                    what: "fs op",
                    value,
                })
            }
        })
    }
}

impl Codec for OpPlan {
    const MIN_BYTES: usize = FsOp::MIN_BYTES + 4 + SubOp::MIN_BYTES + 1 + 1;
    fn encode(&self, out: &mut Vec<u8>) {
        let p = *self;
        (
            p.op,
            p.coordinator,
            p.coord_subop,
            p.participant,
            p.colocated,
        )
            .encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OpPlan {
            op: r.get()?,
            coordinator: r.get()?,
            coord_subop: r.get()?,
            participant: r.get()?,
            colocated: r.get()?,
        })
    }
}

impl Payload {
    /// Number of distinct wire tags (= number of `Payload` variants).
    pub const WIRE_TAG_COUNT: u8 = 20;

    /// Stable wire tag: declaration order of the `Payload` variants,
    /// 0..=19. Unlike [`Payload::kind`], this is a bijection —
    /// `CommitDecision` and `VoteExec` keep their own tags so the decoder
    /// can reconstruct the exact variant. A frame carries the tag ahead of
    /// its envelope, so it travels apart from [`Payload::encode_fields`].
    pub fn wire_tag(&self) -> u8 {
        match self {
            Payload::SubOpReq { .. } => 0,
            Payload::SubOpResp { .. } => 1,
            Payload::LCom { .. } => 2,
            Payload::AllNo { .. } => 3,
            Payload::Committed { .. } => 4,
            Payload::Vote { .. } => 5,
            Payload::VoteResult { .. } => 6,
            Payload::CommitDecision { .. } => 7,
            Payload::Ack { .. } => 8,
            Payload::CommitmentReq { .. } => 9,
            Payload::QueryOutcome { .. } => 10,
            Payload::OpReq { .. } => 11,
            Payload::OpResp { .. } => 12,
            Payload::VoteExec { .. } => 13,
            Payload::Clear { .. } => 14,
            Payload::ClearResp { .. } => 15,
            Payload::Migrate { .. } => 16,
            Payload::MigrateResp { .. } => 17,
            Payload::MigrateBack { .. } => 18,
            Payload::MigrateBackAck { .. } => 19,
        }
    }

    /// Append every field of the payload, without its tag.
    pub fn encode_fields(&self, out: &mut Vec<u8>) {
        match self {
            Payload::SubOpReq {
                op_id,
                subop,
                role,
                peer,
                colocated,
            } => (*op_id, *subop, *role, *peer, *colocated).encode(out),
            Payload::SubOpResp {
                op_id,
                verdict,
                hint,
            } => {
                (*op_id, *verdict).encode(out);
                hint.encode(out);
            }
            Payload::LCom { op_id }
            | Payload::AllNo { op_id }
            | Payload::Committed { op_id }
            | Payload::ClearResp { op_id } => op_id.encode(out),
            Payload::Vote { ops, order_after } => {
                ops.encode(out);
                order_after.encode(out);
            }
            Payload::VoteResult { results } => results.encode(out),
            Payload::CommitDecision { commits, aborts } => {
                commits.encode(out);
                aborts.encode(out);
            }
            Payload::Ack { ops } | Payload::QueryOutcome { ops } => ops.encode(out),
            Payload::CommitmentReq { pending, sweep } => (*pending, *sweep).encode(out),
            Payload::OpReq { op_id, plan } => (*op_id, *plan).encode(out),
            Payload::OpResp { op_id, outcome } => (*op_id, *outcome).encode(out),
            Payload::VoteExec { op_id, subop } | Payload::Clear { op_id, subop } => {
                (*op_id, *subop).encode(out)
            }
            Payload::Migrate { op_id, objs } | Payload::MigrateResp { op_id, objs } => {
                op_id.encode(out);
                objs.encode(out);
            }
            Payload::MigrateBack {
                op_id,
                objs,
                install,
            } => {
                op_id.encode(out);
                objs.encode(out);
                install.encode(out);
            }
            Payload::MigrateBackAck { op_id, verdict } => (*op_id, *verdict).encode(out),
        }
    }

    /// Read the fields of the payload whose [`Payload::wire_tag`] is `tag`.
    pub fn decode_fields(tag: u8, r: &mut Reader<'_>) -> Result<Payload, WireError> {
        Ok(match tag {
            0 => Payload::SubOpReq {
                op_id: r.get()?,
                subop: r.get()?,
                role: r.get()?,
                peer: r.get()?,
                colocated: r.get()?,
            },
            1 => Payload::SubOpResp {
                op_id: r.get()?,
                verdict: r.get()?,
                hint: r.get()?,
            },
            2 => Payload::LCom { op_id: r.get()? },
            3 => Payload::AllNo { op_id: r.get()? },
            4 => Payload::Committed { op_id: r.get()? },
            5 => Payload::Vote {
                ops: r.get()?,
                order_after: r.get()?,
            },
            6 => Payload::VoteResult { results: r.get()? },
            7 => Payload::CommitDecision {
                commits: r.get()?,
                aborts: r.get()?,
            },
            8 => Payload::Ack { ops: r.get()? },
            9 => Payload::CommitmentReq {
                pending: r.get()?,
                sweep: r.get()?,
            },
            10 => Payload::QueryOutcome { ops: r.get()? },
            11 => Payload::OpReq {
                op_id: r.get()?,
                plan: r.get()?,
            },
            12 => Payload::OpResp {
                op_id: r.get()?,
                outcome: r.get()?,
            },
            13 => Payload::VoteExec {
                op_id: r.get()?,
                subop: r.get()?,
            },
            14 => Payload::Clear {
                op_id: r.get()?,
                subop: r.get()?,
            },
            15 => Payload::ClearResp { op_id: r.get()? },
            16 => Payload::Migrate {
                op_id: r.get()?,
                objs: r.get()?,
            },
            17 => Payload::MigrateResp {
                op_id: r.get()?,
                objs: r.get()?,
            },
            18 => Payload::MigrateBack {
                op_id: r.get()?,
                objs: r.get()?,
                install: r.get()?,
            },
            19 => Payload::MigrateBackAck {
                op_id: r.get()?,
                verdict: r.get()?,
            },
            _ => return Err(WireError::UnknownTag(tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + fmt::Debug>(v: T) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        assert!(out.len() >= T::MIN_BYTES, "{v:?} shorter than MIN_BYTES");
        let mut r = Reader::new(&out);
        assert_eq!(r.get::<T>(), Ok(v));
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn values_round_trip_little_endian() {
        assert_eq!(round_trip(0x0102_0304u32), [4, 3, 2, 1]);
        assert_eq!(round_trip(Some(ServerId(7))), [1, 7, 0, 0, 0]);
        assert_eq!(round_trip(None::<ServerId>), [0]);
        assert_eq!(round_trip(vec![true, false]), [2, 0, 0, 0, 1, 0]);
        assert_eq!(round_trip(String::from("ab")), [2, 0, b'a', b'b']);
        round_trip(OpId::new(ProcId::new(1, 2), 3));
        round_trip(ObjectId::Dentry(InodeNo(1), Name(2)));
        round_trip((FileKind::Directory, Role::Participant, Verdict::No));
    }

    #[test]
    fn out_of_range_bytes_are_errors() {
        fn bad<T>(what: &'static str, value: u8) -> Result<T, WireError> {
            Err(WireError::UnknownEnum { what, value })
        }
        assert_eq!(Reader::new(&[2]).get::<bool>(), bad("bool", 2));
        assert_eq!(Reader::new(&[2]).get::<FileKind>(), bad("file kind", 2));
        assert_eq!(Reader::new(&[0xFF]).get::<Role>(), bad("role", 0xFF));
        assert_eq!(Reader::new(&[10]).get::<SubOp>(), bad("sub-op", 10));
        assert_eq!(Reader::new(&[1, 2]).get::<Option<bool>>(), bad("bool", 2));
    }
}
