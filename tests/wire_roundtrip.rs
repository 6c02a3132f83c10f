//! Property test: every protocol message kind round-trips through the wire
//! codec bit-exactly, for randomized field values (ISSUE 7 tentpole (a)).
//!
//! Each case builds one randomized instance of
//! *all 20* `Payload` variants (asserting the tag coverage explicitly), plus
//! randomized endpoints and control frames, and checks
//! `decode(encode(f)) == f` with full buffer consumption.

use cx_net::wire::{decode_frame, encode_to_vec, Frame};
use cx_net::NodeId;
use cx_protocol::Endpoint;
use cx_types::check::{check, Gen};
use cx_types::{
    FileKind, FsOp, Hint, InodeNo, Name, ObjectId, OpId, OpOutcome, OpPlan, Payload, ProcId, Role,
    ServerId, SubOp, Verdict,
};

fn arb_op_id(rng: &mut Gen) -> OpId {
    OpId::new(
        ProcId::new(rng.gen_range(0u32..1 << 20), rng.gen_range(0u32..1 << 20)),
        rng.next_u64(),
    )
}

fn arb_op_ids(rng: &mut Gen) -> Vec<OpId> {
    rng.vec(0..8, arb_op_id)
}

fn arb_verdict(rng: &mut Gen) -> Verdict {
    Verdict::from_ok(rng.gen_bool(0.5))
}

fn arb_kind(rng: &mut Gen) -> FileKind {
    if rng.gen_bool(0.5) {
        FileKind::Regular
    } else {
        FileKind::Directory
    }
}

fn arb_subop(rng: &mut Gen) -> SubOp {
    let ino = InodeNo(rng.next_u64());
    let parent = InodeNo(rng.next_u64());
    let name = Name(rng.next_u64());
    match rng.gen_range(0u32..10) {
        0 => SubOp::InsertEntry {
            parent,
            name,
            child: ino,
            kind: arb_kind(rng),
        },
        1 => SubOp::RemoveEntry {
            parent,
            name,
            child: ino,
        },
        2 => SubOp::CreateInode {
            ino,
            kind: arb_kind(rng),
        },
        3 => SubOp::ReleaseInode { ino },
        4 => SubOp::IncNlink { ino },
        5 => SubOp::DecNlink { ino },
        6 => SubOp::ReadInode { ino },
        7 => SubOp::ReadEntry { parent, name },
        8 => SubOp::ReadDir { dir: ino },
        _ => SubOp::TouchInode { ino },
    }
}

fn arb_objs(rng: &mut Gen) -> Vec<ObjectId> {
    rng.vec(0..5, |rng| {
        if rng.gen_bool(0.5) {
            ObjectId::Inode(InodeNo(rng.next_u64()))
        } else {
            ObjectId::Dentry(InodeNo(rng.next_u64()), Name(rng.next_u64()))
        }
    })
}

fn arb_plan(rng: &mut Gen) -> OpPlan {
    let parent = InodeNo(rng.next_u64());
    let name = Name(rng.next_u64());
    let ino = InodeNo(rng.next_u64());
    let op = match rng.gen_range(0u32..12) {
        0 => FsOp::Create { parent, name, ino },
        1 => FsOp::Remove { parent, name, ino },
        2 => FsOp::Mkdir { parent, name, ino },
        3 => FsOp::Rmdir { parent, name, ino },
        4 => FsOp::Link {
            parent,
            name,
            target: ino,
        },
        5 => FsOp::Unlink {
            parent,
            name,
            target: ino,
        },
        6 => FsOp::Stat { ino },
        7 => FsOp::Lookup { parent, name },
        8 => FsOp::Getattr { ino },
        9 => FsOp::Setattr { ino },
        10 => FsOp::Readdir { dir: ino },
        _ => FsOp::Access { ino },
    };
    OpPlan {
        op,
        coordinator: ServerId(rng.gen_range(0u32..64)),
        coord_subop: arb_subop(rng),
        participant: if rng.gen_bool(0.5) {
            Some((ServerId(rng.gen_range(0u32..64)), arb_subop(rng)))
        } else {
            None
        },
        colocated: if rng.gen_bool(0.3) {
            Some(arb_subop(rng))
        } else {
            None
        },
    }
}

/// A randomized payload with the given wire tag (0..=19): one constructor
/// per `Payload` variant, so the caller can enumerate full kind coverage.
fn arb_payload(tag: u8, rng: &mut Gen) -> Payload {
    match tag {
        0 => Payload::SubOpReq {
            op_id: arb_op_id(rng),
            subop: arb_subop(rng),
            role: if rng.gen_bool(0.5) {
                Role::Coordinator
            } else {
                Role::Participant
            },
            peer: if rng.gen_bool(0.5) {
                Some(ServerId(rng.gen_range(0u32..64)))
            } else {
                None
            },
            colocated: if rng.gen_bool(0.3) {
                Some(arb_subop(rng))
            } else {
                None
            },
        },
        1 => Payload::SubOpResp {
            op_id: arb_op_id(rng),
            verdict: arb_verdict(rng),
            hint: Hint(arb_op_ids(rng)),
        },
        2 => Payload::LCom {
            op_id: arb_op_id(rng),
        },
        3 => Payload::AllNo {
            op_id: arb_op_id(rng),
        },
        4 => Payload::Committed {
            op_id: arb_op_id(rng),
        },
        5 => Payload::Vote {
            ops: arb_op_ids(rng),
            order_after: arb_op_ids(rng),
        },
        6 => Payload::VoteResult {
            results: arb_op_ids(rng)
                .into_iter()
                .map(|id| (id, arb_verdict(rng)))
                .collect(),
        },
        7 => Payload::CommitDecision {
            commits: arb_op_ids(rng),
            aborts: arb_op_ids(rng),
        },
        8 => Payload::Ack {
            ops: arb_op_ids(rng),
        },
        9 => Payload::CommitmentReq {
            pending: arb_op_id(rng),
            sweep: rng.gen_bool(0.5),
        },
        10 => Payload::QueryOutcome {
            ops: arb_op_ids(rng),
        },
        11 => Payload::OpReq {
            op_id: arb_op_id(rng),
            plan: arb_plan(rng),
        },
        12 => Payload::OpResp {
            op_id: arb_op_id(rng),
            outcome: if rng.gen_bool(0.5) {
                OpOutcome::Applied
            } else {
                OpOutcome::Failed
            },
        },
        13 => Payload::VoteExec {
            op_id: arb_op_id(rng),
            subop: arb_subop(rng),
        },
        14 => Payload::Clear {
            op_id: arb_op_id(rng),
            subop: arb_subop(rng),
        },
        15 => Payload::ClearResp {
            op_id: arb_op_id(rng),
        },
        16 => Payload::Migrate {
            op_id: arb_op_id(rng),
            objs: arb_objs(rng),
        },
        17 => Payload::MigrateResp {
            op_id: arb_op_id(rng),
            objs: arb_objs(rng),
        },
        18 => Payload::MigrateBack {
            op_id: arb_op_id(rng),
            objs: arb_objs(rng),
            install: if rng.gen_bool(0.5) {
                Some(arb_subop(rng))
            } else {
                None
            },
        },
        19 => Payload::MigrateBackAck {
            op_id: arb_op_id(rng),
            verdict: arb_verdict(rng),
        },
        _ => unreachable!("wire tags are 0..=19"),
    }
}

fn arb_endpoint(rng: &mut Gen) -> Endpoint {
    if rng.gen_bool(0.5) {
        Endpoint::Server(ServerId(rng.gen_range(0u32..64)))
    } else {
        Endpoint::Proc(ProcId::new(
            rng.gen_range(0u32..1 << 16),
            rng.gen_range(0u32..1 << 16),
        ))
    }
}

fn assert_roundtrip(f: &Frame) {
    let bytes = encode_to_vec(f);
    let (back, used) =
        decode_frame(&bytes).unwrap_or_else(|e| panic!("decode failed for {f:?}: {e}"));
    assert_eq!(used, bytes.len(), "partial consume for {f:?}");
    assert_eq!(&back, f);
}

/// Every one of the 20 payload kinds round-trips, with random fields.
#[test]
fn every_payload_kind_roundtrips() {
    check("every_payload_kind_roundtrips", 200, |rng| {
        for tag in 0..Payload::WIRE_TAG_COUNT {
            let payload = arb_payload(tag, rng);
            assert_eq!(payload.wire_tag(), tag, "constructor/tag drift");
            let frame = Frame::Msg {
                sent_ns: rng.next_u64(),
                from: arb_endpoint(rng),
                to: arb_endpoint(rng),
                payload,
            };
            assert_roundtrip(&frame);
        }
    });
}

/// Control frames round-trip with random fields.
#[test]
fn control_frames_roundtrip() {
    check("control_frames_roundtrip", 200, |rng| {
        assert_roundtrip(&Frame::Hello {
            node: if rng.gen_bool(0.5) {
                NodeId::Server(rng.gen_range(0u32..64))
            } else {
                NodeId::ClientHost(rng.gen_range(0u32..64))
            },
            listen_port: rng.gen_range(0u32..1 << 16) as u16,
        });
        let port = |rng: &mut Gen| format!("127.0.0.1:{}", rng.gen_range(1024u32..65536));
        assert_roundtrip(&Frame::Peers {
            servers: (0..rng.gen_range(0u32..8))
                .map(|i| (i, port(rng)))
                .collect(),
        });
        assert_roundtrip(&Frame::Quiesce);
        assert_roundtrip(&Frame::Probe {
            token: rng.next_u64(),
            t0_ns: rng.next_u64(),
        });
        assert_roundtrip(&Frame::ProbeResp {
            token: rng.next_u64(),
            quiesced: rng.gen_bool(0.5),
            echo_t0_ns: rng.next_u64(),
            remote_ns: rng.next_u64(),
        });
        assert_roundtrip(&Frame::Stop);
        assert_roundtrip(&Frame::StopResp {
            stats_json: rng.vec(0..64, |g| g.gen_range(0u32..256) as u8),
            inodes: rng.vec(0..16, |g| {
                (g.next_u64(), g.gen_range(0..2), g.gen_range(0..8))
            }),
            dentries: rng.vec(0..16, |g| (g.next_u64(), g.next_u64(), g.next_u64())),
        });
    });
}

/// Frames concatenated back-to-back decode one at a time with correct
/// consumed lengths (stream framing).
#[test]
fn concatenated_frames_decode_in_sequence() {
    check("concatenated_frames_decode_in_sequence", 200, |rng| {
        let frames: Vec<Frame> = (0..5)
            .map(|_| Frame::Msg {
                sent_ns: rng.next_u64(),
                from: arb_endpoint(rng),
                to: arb_endpoint(rng),
                payload: arb_payload(rng.gen_range(0u32..20) as u8, rng),
            })
            .collect();
        let mut buf = Vec::new();
        for f in &frames {
            cx_net::wire::encode_frame(f, &mut buf);
        }
        let mut at = 0usize;
        for f in &frames {
            let (back, used) = decode_frame(&buf[at..]).expect("decode");
            assert_eq!(&back, f);
            at += used;
        }
        assert_eq!(at, buf.len());
    });
}
