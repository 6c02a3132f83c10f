//! Coalesced-stream decode equivalence (ISSUE 8 satellite 2): a byte
//! stream of many frames encoded back-to-back — exactly what the
//! coalescing writer's single `write_all` produces — must decode through
//! the incremental [`FrameBuffer`] to the identical frame sequence no
//! matter how the stream is split into reads: frame-aligned, mid-header,
//! mid-body, byte-at-a-time, or all at once.

use cx_net::wire::{decode_frame, encode_frame, Frame, FrameBuffer};
use cx_net::NodeId;
use cx_protocol::Endpoint;
use cx_types::check::{check, Gen};
use cx_types::{Hint, OpId, Payload, ProcId, ServerId, Verdict};

fn sample_frame(rng: &mut Gen) -> Frame {
    let op_id = OpId::new(
        ProcId::new(rng.gen_range(0u32..100), rng.gen_range(0u32..100)),
        rng.next_u64(),
    );
    match rng.gen_range(0u32..6) {
        0 => Frame::Msg {
            sent_ns: rng.next_u64(),
            from: Endpoint::Server(ServerId(0)),
            to: Endpoint::Proc(ProcId::new(1, 2)),
            payload: Payload::SubOpResp {
                op_id,
                verdict: Verdict::Yes,
                hint: Hint(vec![op_id]),
            },
        },
        1 => Frame::Msg {
            sent_ns: rng.next_u64(),
            from: Endpoint::Server(ServerId(1)),
            to: Endpoint::Server(ServerId(2)),
            payload: Payload::Vote {
                ops: (0..rng.gen_range(0u64..6))
                    .map(|s| OpId::new(ProcId::new(0, 0), s))
                    .collect(),
                order_after: vec![],
            },
        },
        2 => Frame::Hello {
            node: NodeId::ClientHost(rng.gen_range(0u32..8)),
            listen_port: rng.gen_range(1024u16..u16::MAX),
        },
        3 => Frame::Probe {
            token: rng.next_u64(),
            t0_ns: rng.next_u64(),
        },
        4 => Frame::Quiesce,
        _ => Frame::StopResp {
            stats_json: rng.vec(0..64, |g| g.gen_range(0u32..256) as u8),
            inodes: vec![(rng.next_u64(), 1, 2)],
            dentries: vec![(1, rng.next_u64(), 3)],
        },
    }
}

/// Encode `frames` back-to-back, the coalescing writer's wire image.
fn coalesce(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        encode_frame(f, &mut buf);
    }
    buf
}

/// Reference decode: frame-at-a-time over the whole buffer.
fn decode_whole(mut bytes: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (f, used) = decode_frame(bytes).expect("valid stream");
        out.push(f);
        bytes = &bytes[used..];
    }
    out
}

/// Feed `bytes` into a `FrameBuffer` split at the given cut points,
/// draining after every chunk (as a reader would after every `read`).
fn decode_chunked(bytes: &[u8], cuts: &[usize]) -> Vec<Frame> {
    let mut fb = FrameBuffer::with_capacity(64);
    let mut out = Vec::new();
    let mut prev = 0;
    for &c in cuts {
        fb.extend(&bytes[prev..c]);
        fb.drain_frames(&mut out).expect("valid stream");
        prev = c;
    }
    fb.extend(&bytes[prev..]);
    fb.drain_frames(&mut out).expect("valid stream");
    assert_eq!(fb.pending(), 0, "a complete stream leaves no residue");
    out
}

/// Arbitrary split boundaries — including mid-length-prefix and
/// mid-body cuts — decode to the same sequence as the unsplit stream.
#[test]
fn arbitrary_boundaries_decode_identically() {
    check("arbitrary_boundaries_decode_identically", 300, |rng| {
        let nsplits = rng.gen_range(0usize..12);
        let frames = rng.vec(1usize..12, sample_frame);
        let bytes = coalesce(&frames);
        let reference = decode_whole(&bytes);
        assert_eq!(&reference, &frames, "reference decode is identity");

        let mut cuts: Vec<usize> = (0..nsplits)
            .map(|_| rng.gen_range(0usize..bytes.len() + 1))
            .collect();
        cuts.sort_unstable();
        let chunked = decode_chunked(&bytes, &cuts);
        assert_eq!(chunked, reference);
    });
}

/// The pathological split: one byte per `read`.
#[test]
fn byte_at_a_time_decodes_identically() {
    check("byte_at_a_time_decodes_identically", 300, |rng| {
        let frames = rng.vec(1usize..6, sample_frame);
        let bytes = coalesce(&frames);
        let cuts: Vec<usize> = (1..bytes.len()).collect();
        assert_eq!(decode_chunked(&bytes, &cuts), frames);
    });
}

/// Draining mid-stream never yields a frame early: after any prefix,
/// the frames out so far are exactly the fully-contained ones.
#[test]
fn prefix_yields_exactly_contained_frames() {
    check("prefix_yields_exactly_contained_frames", 300, |rng| {
        let frames = rng.vec(1usize..8, sample_frame);
        let bytes = coalesce(&frames);
        // Frame end offsets in the coalesced stream.
        let mut ends = Vec::new();
        {
            let mut off = 0;
            for f in &frames {
                let mut one = Vec::new();
                encode_frame(f, &mut one);
                off += one.len();
                ends.push(off);
            }
        }
        let cut = rng.gen_range(0usize..bytes.len() + 1);
        let mut fb = FrameBuffer::with_capacity(64);
        fb.extend(&bytes[..cut]);
        let mut out = Vec::new();
        fb.drain_frames(&mut out).expect("prefix of a valid stream");
        let contained = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(out.len(), contained, "cut at {} of {}", cut, bytes.len());
        assert_eq!(&out[..], &frames[..contained]);
    });
}
