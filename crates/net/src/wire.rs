//! Length-prefixed binary wire codec for the Cx protocol.
//!
//! Frame layout (DESIGN.md §9):
//!
//! ```text
//! [u32 LE length][u8 version][u8 tag][body]
//! ```
//!
//! `length` counts everything after the prefix (version + tag + body).
//! `version` is [`WIRE_VERSION`]; a peer speaking a different version is
//! rejected with [`WireError::BadVersion`] rather than misparsed. `tag`
//! selects the frame: tags `0..=19` are protocol [`Payload`] variants in
//! declaration order ([`Payload::wire_tag`]), tags `240..=246` are the
//! runtime control plane (handshake, peer gossip, quiesce/probe/stop).
//!
//! This module owns only that envelope and the control frames; every value
//! inside a body is laid out by [`cx_types::codec`], the one codec the WAL
//! record and the store snapshot use too. The decoder is total: arbitrary
//! bytes yield a typed [`WireError`], never a panic and never an unbounded
//! allocation.

use cx_protocol::Endpoint;
use cx_types::codec::{Codec, Reader};
use cx_types::Payload;
use std::io::{self, Read, Write};

use crate::NodeId;

pub use cx_types::codec::WireError;

/// Current wire protocol version.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a single frame's post-prefix length. Generous (a batched
/// commitment over the whole lazy queue is a few hundred KiB at most) while
/// still rejecting hostile length prefixes before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

// Control-plane frame tags; payload frames use `Payload::wire_tag()` (0..=19).
const TAG_HELLO: u8 = 240;
const TAG_PEERS: u8 = 241;
const TAG_QUIESCE: u8 = 242;
const TAG_PROBE: u8 = 243;
const TAG_PROBE_RESP: u8 = 244;
const TAG_STOP: u8 = 245;
const TAG_STOP_RESP: u8 = 246;

/// Everything that travels over a `cx-net` socket.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A protocol message. `sent_ns` is the sender's clock (nanoseconds
    /// since the run epoch) so the receiver can record one-way flow arcs.
    Msg {
        sent_ns: u64,
        from: Endpoint,
        to: Endpoint,
        payload: Payload,
    },
    /// First frame on every connection: who is dialing, and on which port
    /// the dialer's own listener accepts dial-backs.
    Hello { node: NodeId, listen_port: u16 },
    /// Coordinator → server gossip: the listen addresses of every server,
    /// so multi-process servers can dial each other without a rendezvous
    /// service.
    Peers { servers: Vec<(u32, String)> },
    /// Coordinator asks a server to flush batched commitments (the threaded
    /// runtime's drain protocol, over the wire).
    Quiesce,
    /// Coordinator asks: are you quiesced? Token echoes back in the reply.
    /// `t0_ns` is the sender's clock at send time (nanoseconds since its
    /// run epoch); its echo in [`Frame::ProbeResp`] turns every quiesce
    /// probe into an NTP-style RTT/clock-offset sample for free.
    Probe { token: u64, t0_ns: u64 },
    ProbeResp {
        token: u64,
        quiesced: bool,
        /// The probe's `t0_ns`, echoed verbatim (the prober's own clock).
        echo_t0_ns: u64,
        /// The responder's clock when it built the reply — the `t1` of the
        /// offset estimate `t1 - (t0 + t3) / 2`.
        remote_ns: u64,
    },
    /// Coordinator asks the server to stop and ship its final state.
    Stop,
    /// Server's terminal reply: engine stats as JSON plus a binary snapshot
    /// of the metadata store for the global consistency check.
    StopResp {
        stats_json: Vec<u8>,
        /// `(ino, kind, nlink)` rows; `kind` is [`cx_types::FileKind::byte`].
        inodes: Vec<(u64, u8, u32)>,
        /// `(parent, name, child)` rows.
        dentries: Vec<(u64, u64, u64)>,
    },
}

impl Codec for NodeId {
    const MIN_BYTES: usize = 5;
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            NodeId::Server(s) => (0u8, s).encode(out),
            NodeId::ClientHost(c) => (1u8, c).encode(out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(NodeId::Server(r.get()?)),
            1 => Ok(NodeId::ClientHost(r.get()?)),
            value => Err(WireError::UnknownEnum {
                what: "node id",
                value,
            }),
        }
    }
}

/// Append one complete frame (length prefix included) to `buf`.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    let len_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]); // patched below
    buf.push(WIRE_VERSION);
    match frame {
        Frame::Msg {
            sent_ns,
            from,
            to,
            payload,
        } => {
            (payload.wire_tag(), *sent_ns, *from, *to).encode(buf);
            payload.encode_fields(buf);
        }
        Frame::Hello { node, listen_port } => (TAG_HELLO, *node, *listen_port).encode(buf),
        Frame::Peers { servers } => {
            buf.push(TAG_PEERS);
            servers.encode(buf);
        }
        Frame::Quiesce => buf.push(TAG_QUIESCE),
        Frame::Probe { token, t0_ns } => (TAG_PROBE, *token, *t0_ns).encode(buf),
        Frame::ProbeResp {
            token,
            quiesced,
            echo_t0_ns,
            remote_ns,
        } => (TAG_PROBE_RESP, *token, *quiesced, *echo_t0_ns, *remote_ns).encode(buf),
        Frame::Stop => buf.push(TAG_STOP),
        Frame::StopResp {
            stats_json,
            inodes,
            dentries,
        } => {
            buf.push(TAG_STOP_RESP);
            stats_json.encode(buf);
            inodes.encode(buf);
            dentries.encode(buf);
        }
    }
    let body_len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Encode into a fresh buffer (convenience for tests and one-shot sends).
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_frame(frame, &mut buf);
    buf
}

/// Decode the post-prefix body (version + tag + fields) of one frame.
fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(body);
    let version = r.get()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame = match r.get()? {
        tag if tag < Payload::WIRE_TAG_COUNT => Frame::Msg {
            sent_ns: r.get()?,
            from: r.get()?,
            to: r.get()?,
            payload: Payload::decode_fields(tag, &mut r)?,
        },
        TAG_HELLO => Frame::Hello {
            node: r.get()?,
            listen_port: r.get()?,
        },
        TAG_PEERS => Frame::Peers { servers: r.get()? },
        TAG_QUIESCE => Frame::Quiesce,
        TAG_PROBE => Frame::Probe {
            token: r.get()?,
            t0_ns: r.get()?,
        },
        TAG_PROBE_RESP => Frame::ProbeResp {
            token: r.get()?,
            quiesced: r.get()?,
            echo_t0_ns: r.get()?,
            remote_ns: r.get()?,
        },
        TAG_STOP => Frame::Stop,
        TAG_STOP_RESP => Frame::StopResp {
            stats_json: r.get()?,
            inodes: r.get()?,
            dentries: r.get()?,
        },
        t => return Err(WireError::UnknownTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::Trailing(r.remaining()));
    }
    Ok(frame)
}

/// Decode one frame from the front of `bytes`. Returns the frame and the
/// total number of bytes consumed (length prefix included).
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    let len: u32 = Reader::new(bytes).get()?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let len = len as usize;
    if bytes.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    let frame = decode_body(&bytes[4..4 + len])?;
    Ok((frame, 4 + len))
}

/// Read exactly one frame from a blocking stream. `Ok(None)` means the peer
/// closed the connection cleanly at a frame boundary; a close mid-frame is
/// an `UnexpectedEof` error, and malformed bytes surface as `InvalidData`
/// wrapping the [`WireError`] text.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_body(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Write one frame to a blocking stream (no flush; the caller decides when
/// to flush if the stream is buffered).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, scratch: &mut Vec<u8>) -> io::Result<()> {
    scratch.clear();
    encode_frame(frame, scratch);
    w.write_all(scratch)
}

/// Incremental decoder over a reusable buffer: bytes go in at arbitrary
/// boundaries (whatever each `read` returned), complete frames come out.
/// A coalesced stream split anywhere — even mid-length-prefix — decodes to
/// the identical frame sequence as frame-at-a-time decoding, because the
/// buffer only ever commits a frame once all of its announced bytes are
/// present.
///
/// The buffer is reused across fills: consumed bytes are compacted to the
/// front before each refill, so the steady state allocates nothing (the
/// buffer grows only when a single frame exceeds the current capacity).
/// Its storage stays initialized between fills, so a refill does not
/// re-zero its read window: a `read` costs what it copies.
#[derive(Debug)]
pub struct FrameBuffer {
    /// Storage; `buf[start..end]` are the unconsumed bytes, `buf[end..]`
    /// is the next read window.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        Self::with_capacity(64 << 10)
    }
}

impl FrameBuffer {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap.max(8)),
            start: 0,
            end: 0,
        }
    }

    /// Unconsumed bytes currently buffered (a partial frame tail, usually).
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Grow the storage to at least `cap` bytes, widening later fills'
    /// read window.
    pub(crate) fn reserve(&mut self, cap: usize) {
        self.buf.reserve(cap.saturating_sub(self.buf.len()));
    }

    /// Drop already-consumed bytes, moving any partial tail to the front.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Append bytes at an arbitrary split point (test/fuzz entry; the
    /// socket path uses [`FrameBuffer::fill_from`]).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// One `read` from a stream into the buffer tail. Returns the byte
    /// count (`0` = clean EOF). The read window is the rest of the
    /// buffer's capacity, grown to at least `min_window` so a large frame
    /// can always make progress.
    pub fn fill_from<R: Read>(&mut self, r: &mut R, min_window: usize) -> io::Result<usize> {
        self.compact();
        let want = self.buf.capacity().max(self.end + min_window.max(1));
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Decode the next complete frame, if one is fully buffered.
    /// `Ok(None)` means more bytes are needed; malformed bytes surface as
    /// the same typed [`WireError`]s as [`decode_frame`]. The length
    /// prefix is checked here rather than delegated, so a `Truncated`
    /// from *inside* a fully-present body (an announced length that lies
    /// about its fields) is reported as the error it is instead of
    /// waiting forever for bytes that cannot help.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked"));
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized(len));
        }
        if avail.len() < 4 + len as usize {
            return Ok(None);
        }
        let (frame, used) = decode_frame(avail)?;
        self.start += used;
        Ok(Some(frame))
    }

    /// Decode every complete frame currently buffered into `out`.
    /// Returns the number of frames appended; stops (with the typed error)
    /// at the first malformed frame.
    pub fn drain_frames(&mut self, out: &mut Vec<Frame>) -> Result<usize, WireError> {
        let mut n = 0;
        while let Some(f) = self.next_frame()? {
            out.push(f);
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::ServerId;

    fn roundtrip(f: Frame) {
        let bytes = encode_to_vec(&f);
        let (back, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(Frame::Hello {
            node: NodeId::Server(7),
            listen_port: 9999,
        });
        roundtrip(Frame::Hello {
            node: NodeId::ClientHost(0),
            listen_port: 0,
        });
        roundtrip(Frame::Peers {
            servers: vec![(0, "127.0.0.1:4000".into()), (1, "127.0.0.1:4001".into())],
        });
        roundtrip(Frame::Quiesce);
        roundtrip(Frame::Probe {
            token: 42,
            t0_ns: 123_456_789,
        });
        roundtrip(Frame::ProbeResp {
            token: 42,
            quiesced: true,
            echo_t0_ns: 123_456_789,
            remote_ns: 987_654_321,
        });
        roundtrip(Frame::Stop);
        roundtrip(Frame::StopResp {
            stats_json: b"{\"x\":1}".to_vec(),
            inodes: vec![(1, 1, 2), (9, 0, 1)],
            dentries: vec![(1, 77, 9)],
        });
    }

    #[test]
    fn short_prefix_is_truncated() {
        assert_eq!(decode_frame(&[1, 0]), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_alloc() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = encode_to_vec(&Frame::Quiesce);
        bytes[4] = 99;
        assert_eq!(decode_frame(&bytes), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = encode_to_vec(&Frame::Quiesce);
        bytes[5] = 200; // between payload and control ranges
        assert_eq!(decode_frame(&bytes), Err(WireError::UnknownTag(200)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&Frame::Probe { token: 1, t0_ns: 0 });
        // Grow the body by one byte and patch the prefix accordingly.
        bytes.push(0xAB);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn hostile_vec_count_is_bad_length_not_alloc() {
        // A Vote frame whose ops count claims u32::MAX entries.
        let f = Frame::Msg {
            sent_ns: 0,
            from: Endpoint::Server(ServerId(0)),
            to: Endpoint::Server(ServerId(1)),
            payload: Payload::Vote {
                ops: vec![],
                order_after: vec![],
            },
        };
        let mut bytes = encode_to_vec(&f);
        // ops count lives right after version+tag+sent_ns+from+to.
        let count_at = 4 + 1 + 1 + 8 + 5 + 5;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::BadLength));
    }

    #[test]
    fn stream_read_frame_handles_clean_close_and_mid_frame_eof() {
        let bytes = encode_to_vec(&Frame::Probe { token: 9, t0_ns: 0 });
        // Clean close: empty stream.
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        // One whole frame then clean close.
        let mut whole: &[u8] = &bytes;
        assert_eq!(
            read_frame(&mut whole).unwrap(),
            Some(Frame::Probe { token: 9, t0_ns: 0 })
        );
        assert!(read_frame(&mut whole).unwrap().is_none());
        // Truncated mid-frame.
        let mut cut: &[u8] = &bytes[..bytes.len() - 1];
        assert!(read_frame(&mut cut).is_err());
    }
}
