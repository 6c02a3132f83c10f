//! Decoder fuzz: arbitrary bytes never panic the wire decoder (ISSUE 7
//! satellite 2). Three generators stress different failure surfaces:
//!
//! 1. pure random bytes — mostly hit version/tag checks;
//! 2. truncations of valid frames — every prefix must fail `Truncated`
//!    (or decode to the same frame once complete);
//! 3. single-byte corruptions of valid frames — must either decode to
//!    *some* frame (bit flips in value fields are legal payloads) or
//!    return a typed error, never panic or over-allocate.
//!
//! ISSUE 8 extends the surface to *coalesced* inputs: the same hostility
//! applied to multi-frame streams fed chunk-wise through the incremental
//! [`FrameBuffer`] the batching reader uses.

use cx_net::wire::{
    decode_frame, encode_frame, encode_to_vec, Frame, FrameBuffer, WireError, MAX_FRAME_LEN,
};
use cx_protocol::Endpoint;
use cx_types::check::{check, Gen};
use cx_types::{Hint, OpId, Payload, ProcId, ServerId, Verdict};

fn sample_frame(rng: &mut Gen) -> Frame {
    let op_id = OpId::new(
        ProcId::new(rng.gen_range(0u32..100), rng.gen_range(0u32..100)),
        rng.next_u64(),
    );
    match rng.gen_range(0u32..5) {
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
        2 => Frame::Peers {
            servers: vec![(0, "127.0.0.1:9000".into())],
        },
        3 => Frame::ProbeResp {
            token: rng.next_u64(),
            quiesced: true,
            echo_t0_ns: rng.next_u64(),
            remote_ns: rng.next_u64(),
        },
        _ => Frame::StopResp {
            stats_json: b"{}".to_vec(),
            inodes: vec![(rng.next_u64(), 1, 2)],
            dentries: vec![(1, rng.next_u64(), 3)],
        },
    }
}

/// Pure random bytes: decode returns, never panics, and any `Ok` must
/// have consumed within bounds.
#[test]
fn random_bytes_never_panic() {
    check("random_bytes_never_panic", 500, |rng| {
        let bytes = rng.vec(0..256, |g| g.gen_range(0u32..256) as u8);
        if let Ok((_, used)) = decode_frame(&bytes) {
            assert!(used <= bytes.len());
        }
    });
}

/// Every strict prefix of a valid frame fails with a typed error
/// (almost always `Truncated`; a cut inside the length prefix also
/// reads as truncated).
#[test]
fn truncations_yield_typed_errors() {
    check("truncations_yield_typed_errors", 500, |rng| {
        let bytes = encode_to_vec(&sample_frame(rng));
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated) => {}
                Err(e) => panic!("cut at {cut}: unexpected error {e:?}"),
                Ok(_) => panic!("cut at {cut}: decoded from a strict prefix"),
            }
        }
    });
}

/// Single-byte corruption anywhere in a valid frame either decodes (a
/// value-field flip is a different but legal frame) or yields a typed
/// error; it never panics and never allocates beyond the input size.
#[test]
fn corrupted_frames_never_panic() {
    check("corrupted_frames_never_panic", 500, |rng| {
        let bytes = encode_to_vec(&sample_frame(rng));
        for at in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[at] ^= 1 << rng.gen_range(0u32..8);
            if let Ok((_, used)) = decode_frame(&evil) {
                assert!(used <= evil.len());
            }
        }
    });
}

/// Hostile length prefixes: any announced length beyond the cap is
/// rejected before allocation; lengths within the cap but beyond the
/// buffer read as truncated.
#[test]
fn hostile_length_prefixes() {
    check("hostile_length_prefixes", 500, |rng| {
        let mut bytes = encode_to_vec(&Frame::Quiesce);
        let huge = rng.gen_range((MAX_FRAME_LEN as u64 + 1)..u32::MAX as u64 + 1) as u32;
        bytes[..4].copy_from_slice(&huge.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::Oversized(huge)));

        let mut bytes = encode_to_vec(&Frame::Quiesce);
        let big_but_capped = rng.gen_range(1000u32..MAX_FRAME_LEN);
        bytes[..4].copy_from_slice(&big_but_capped.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(WireError::Truncated));
    });
}

/// Random bytes fed chunk-wise through the incremental buffer: the
/// drain either keeps waiting for more input or returns a typed error;
/// it never panics, and an oversized announced length is rejected
/// without buffering the body.
#[test]
fn coalesced_random_bytes_never_panic() {
    check("coalesced_random_bytes_never_panic", 500, |rng| {
        let bytes = rng.vec(0..512, |g| g.gen_range(0u32..256) as u8);
        let mut fb = FrameBuffer::with_capacity(64);
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            let chunk = 1 + rng.gen_range(0usize..bytes.len() - pos);
            fb.extend(&bytes[pos..pos + chunk]);
            pos += chunk;
            if fb.drain_frames(&mut out).is_err() {
                break; // malformed mid-stream: reader resets, as conn.rs does
            }
        }
    });
}

/// A single-byte corruption inside a coalesced multi-frame stream:
/// frames before the corruption still decode, and the stream as a
/// whole either decodes (value-field flip) or dies with a typed error
/// at the corrupted frame — never a panic, never a reordering.
#[test]
fn coalesced_corruption_fails_cleanly() {
    check("coalesced_corruption_fails_cleanly", 500, |rng| {
        let probe = |rng: &mut Gen| Frame::Probe {
            token: rng.next_u64(),
            t0_ns: 0,
        };
        let frames = [probe(rng), sample_frame(rng), probe(rng)];
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for f in &frames {
            encode_frame(f, &mut bytes);
            ends.push(bytes.len());
        }
        let at = rng.gen_range(0usize..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0u32..8);

        let mut fb = FrameBuffer::with_capacity(64);
        fb.extend(&bytes);
        let mut out = Vec::new();
        let res = fb.drain_frames(&mut out);
        // Frames wholly before the corrupted one are untouched by the flip
        // and must have decoded as themselves.
        let intact = ends.iter().filter(|&&e| e <= at).count();
        assert!(
            out.len() >= intact.min(frames.len()),
            "decoded {} frames, corruption at {at} leaves {intact} intact",
            out.len()
        );
        for (a, b) in out.iter().take(intact).zip(&frames) {
            assert_eq!(a, b);
        }
        if res.is_ok() && out.len() == frames.len() && fb.pending() == 0 {
            // Value-field flip: a different but fully legal stream — fine.
        }
    });
}
