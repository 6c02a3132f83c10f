//! The byte pin for every wire frame and every log-record size (tier-1).
//!
//! One instance of each of the 20 `Payload` variants (both `Endpoint`
//! forms on the way) and of the 7 control frames goes through
//! `encode_frame`; an FNV-64 over the concatenated bytes is pinned, and so
//! is the encoded length of one record per `RecordFamily` — the log-volume
//! model behind Figure 7, Table V and every DES digest. A change to how any
//! value is laid out on the wire, or to how many bytes the WAL charges for
//! a record, turns this red. Frame bytes are a compatibility promise
//! (`WIRE_VERSION` 1); record sizes are a simulation input.

use cx_net::{encode_frame, Frame, NodeId, WIRE_VERSION};
use cx_protocol::Endpoint;
use cx_types::ids::fnv1a;
use cx_types::{
    FileKind, FsOp, Hint, InodeNo, Name, ObjectId, OpId, OpOutcome, OpPlan, Payload, ProcId, Role,
    ServerId, SubOp, Verdict,
};
use cx_wal::{encode_record, Record, RecordFamily};

fn oid(seq: u64) -> OpId {
    OpId::new(ProcId::new(0x0102_0304, 7), seq)
}

/// One payload per variant, in declaration order, with every optional
/// field set somewhere and every `SubOp` / `FsOp` shape on the way.
fn payloads() -> Vec<Payload> {
    let insert = SubOp::InsertEntry {
        parent: InodeNo(1),
        name: Name(0xDEAD_BEEF_0BAD_F00D),
        child: InodeNo(77),
        kind: FileKind::Directory,
    };
    let create = SubOp::CreateInode {
        ino: InodeNo(77),
        kind: FileKind::Regular,
    };
    vec![
        Payload::SubOpReq {
            op_id: oid(1),
            subop: insert,
            role: Role::Coordinator,
            peer: Some(ServerId(3)),
            colocated: Some(create),
        },
        Payload::SubOpResp {
            op_id: oid(2),
            verdict: Verdict::No,
            hint: Hint(vec![oid(1), oid(9)]),
        },
        Payload::LCom { op_id: oid(3) },
        Payload::AllNo { op_id: oid(4) },
        Payload::Committed { op_id: oid(5) },
        Payload::Vote {
            ops: vec![oid(6), oid(7)],
            order_after: vec![oid(8)],
        },
        Payload::VoteResult {
            results: vec![(oid(6), Verdict::Yes), (oid(7), Verdict::No)],
        },
        Payload::CommitDecision {
            commits: vec![oid(6)],
            aborts: vec![oid(7)],
        },
        Payload::Ack {
            ops: vec![oid(6), oid(7)],
        },
        Payload::CommitmentReq {
            pending: oid(10),
            sweep: true,
        },
        Payload::QueryOutcome { ops: vec![oid(11)] },
        Payload::OpReq {
            op_id: oid(12),
            plan: OpPlan {
                op: FsOp::Link {
                    parent: InodeNo(1),
                    name: Name(5),
                    target: InodeNo(42),
                },
                coordinator: ServerId(1),
                coord_subop: SubOp::RemoveEntry {
                    parent: InodeNo(1),
                    name: Name(5),
                    child: InodeNo(42),
                },
                participant: Some((ServerId(2), SubOp::IncNlink { ino: InodeNo(42) })),
                colocated: Some(SubOp::DecNlink { ino: InodeNo(42) }),
            },
        },
        Payload::OpResp {
            op_id: oid(13),
            outcome: OpOutcome::Failed,
        },
        Payload::VoteExec {
            op_id: oid(14),
            subop: SubOp::ReleaseInode { ino: InodeNo(9) },
        },
        Payload::Clear {
            op_id: oid(15),
            subop: SubOp::ReadEntry {
                parent: InodeNo(1),
                name: Name(6),
            },
        },
        Payload::ClearResp { op_id: oid(16) },
        Payload::Migrate {
            op_id: oid(17),
            objs: vec![
                ObjectId::Inode(InodeNo(9)),
                ObjectId::Dentry(InodeNo(1), Name(6)),
            ],
        },
        Payload::MigrateResp {
            op_id: oid(18),
            objs: vec![ObjectId::Dentry(InodeNo(2), Name(3))],
        },
        Payload::MigrateBack {
            op_id: oid(19),
            objs: vec![ObjectId::Inode(InodeNo(4))],
            install: Some(SubOp::TouchInode { ino: InodeNo(4) }),
        },
        Payload::MigrateBackAck {
            op_id: oid(20),
            verdict: Verdict::Yes,
        },
    ]
}

fn control_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            node: NodeId::ClientHost(2),
            listen_port: 4100,
        },
        Frame::Peers {
            servers: vec![(0, "127.0.0.1:4000".into()), (1, "10.0.0.2:4001".into())],
        },
        Frame::Quiesce,
        Frame::Probe {
            token: 0x1122_3344_5566_7788,
            t0_ns: 123_456_789,
        },
        Frame::ProbeResp {
            token: 9,
            quiesced: true,
            echo_t0_ns: 123_456_789,
            remote_ns: 987_654_321,
        },
        Frame::Stop,
        Frame::StopResp {
            stats_json: b"{\"x\":1}".to_vec(),
            inodes: vec![(1, 1, 2), (77, 0, 1)],
            dentries: vec![(1, 0xDEAD, 77)],
        },
    ]
}

#[test]
fn every_frame_encodes_to_the_pinned_bytes() {
    assert_eq!(WIRE_VERSION, 1);
    let payloads = payloads();
    assert_eq!(payloads.len(), Payload::WIRE_TAG_COUNT as usize);
    let mut bytes = Vec::new();
    for (i, payload) in payloads.into_iter().enumerate() {
        assert_eq!(payload.wire_tag() as usize, i, "{payload:?}");
        // Client → server, server → client and server → server in turn, so
        // both endpoint forms sit on both sides of a frame.
        let (from, to) = match i % 3 {
            0 => (
                Endpoint::Proc(ProcId::new(5, 6)),
                Endpoint::Server(ServerId(1)),
            ),
            1 => (
                Endpoint::Server(ServerId(1)),
                Endpoint::Proc(ProcId::new(5, 6)),
            ),
            _ => (Endpoint::Server(ServerId(2)), Endpoint::Server(ServerId(1))),
        };
        let frame = Frame::Msg {
            sent_ns: 1_000 + i as u64,
            from,
            to,
            payload,
        };
        encode_frame(&frame, &mut bytes);
    }
    let controls = control_frames();
    assert_eq!(controls.len(), 7);
    for frame in &controls {
        encode_frame(frame, &mut bytes);
    }
    assert_eq!(bytes.len(), 1429, "corpus length");
    assert_eq!(fnv1a(&bytes), 0x6f11_562f_5d00_70d2, "corpus FNV-64");
}

#[test]
fn every_record_family_keeps_its_encoded_length() {
    let op_id = oid(21);
    let records = [
        Record::Result {
            op_id,
            role: Role::Participant,
            peer: Some(ServerId(4)),
            subop: SubOp::InsertEntry {
                parent: InodeNo(1),
                name: Name(2),
                child: InodeNo(3),
                kind: FileKind::Directory,
            },
            verdict: Verdict::Yes,
            invalidated: true,
        },
        Record::Commit { op_id },
        Record::Abort { op_id },
        Record::Complete { op_id },
    ];
    let want = [239u64, 17, 17, 17];
    for ((rec, family), want) in records.iter().zip(RecordFamily::ALL).zip(want) {
        assert_eq!(rec.family(), family);
        assert_eq!(rec.encoded_len(), want, "{family:?}");
        let mut buf = Vec::new();
        encode_record(&mut buf, rec);
        assert_eq!(buf.len() as u64, want, "{family:?} bytes");
    }
}
