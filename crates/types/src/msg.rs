//! Protocol messages.
//!
//! Table III of the paper defines the Cx vocabulary (VOTE, YES/NO,
//! COMMIT-REQ/ABORT-REQ, ACK, L-COM, ALL-NO); the baseline protocols add the
//! 2PC operation request, the SE "CLEAR" withdrawal, and the CE migration
//! round-trips. Lazy commitments batch many operation ids into a single
//! message ("lazy commitments can send batched messages", §IV-C1), so the
//! server-to-server payloads carry `Vec<OpId>`.

use crate::ids::{ObjectId, OpId, ServerId};
use crate::op::OpOutcome;
use crate::subop::{OpPlan, Role, SubOp};
use serde::{Deserialize, Serialize};

/// Execution result of a sub-operation: the "YES"/"NO" of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    Yes,
    No,
}

impl Verdict {
    pub fn from_ok(ok: bool) -> Self {
        if ok {
            Verdict::Yes
        } else {
            Verdict::No
        }
    }
    pub fn is_yes(&self) -> bool {
        matches!(self, Verdict::Yes)
    }
}

/// Conflict hint attached to every sub-op response (§III-C).
///
/// `[null]` is the empty hint; `[SOP']` lists the pending operations whose
/// commitment had to precede this execution. A process recognizes a
/// cross-server operation as complete only when the responses from both
/// affected servers carry the same hint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Hint(pub Vec<OpId>);

impl Hint {
    pub fn null() -> Self {
        Hint(Vec::new())
    }
    pub fn of(op: OpId) -> Self {
        Hint(vec![op])
    }
    pub fn is_null(&self) -> bool {
        self.0.is_empty()
    }
}

/// Message kinds for statistics (Table IV counts messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MsgKind {
    SubOpReq,
    SubOpResp,
    Vote,
    VoteResult,
    CommitReq,
    AbortReq,
    Ack,
    LCom,
    AllNo,
    /// Resolution of a client-requested immediate commitment that ended in
    /// a commit (our generalization of ALL-NO for the hint-mismatch
    /// fallback; see DESIGN.md §5.8).
    Committed,
    /// Participant-to-coordinator request to launch an immediate
    /// commitment when the participant detects the conflict first
    /// (DESIGN.md §5.6).
    CommitmentReq,
    /// Participant asking the coordinator for an operation outcome during
    /// recovery.
    QueryOutcome,
    /// 2PC/CE whole-operation request from client to coordinator.
    OpReq,
    OpResp,
    /// SE withdrawal of an executed sub-op after a later failure.
    Clear,
    ClearResp,
    Migrate,
    MigrateResp,
    MigrateBack,
    MigrateBackAck,
}

impl MsgKind {
    /// Every kind, in declaration (= discriminant) order, so per-kind
    /// counters can live in a flat `[u64; MsgKind::COUNT]` indexed by
    /// `kind as usize` on the hot path and fold into ordered maps later.
    pub const ALL: [MsgKind; 20] = [
        MsgKind::SubOpReq,
        MsgKind::SubOpResp,
        MsgKind::Vote,
        MsgKind::VoteResult,
        MsgKind::CommitReq,
        MsgKind::AbortReq,
        MsgKind::Ack,
        MsgKind::LCom,
        MsgKind::AllNo,
        MsgKind::Committed,
        MsgKind::CommitmentReq,
        MsgKind::QueryOutcome,
        MsgKind::OpReq,
        MsgKind::OpResp,
        MsgKind::Clear,
        MsgKind::ClearResp,
        MsgKind::Migrate,
        MsgKind::MigrateResp,
        MsgKind::MigrateBack,
        MsgKind::MigrateBackAck,
    ];
    pub const COUNT: usize = Self::ALL.len();

    /// The message's name in the paper's Table III spelling (traces, the
    /// doctor's chain labels).
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::SubOpReq => "SUBOP-REQ",
            MsgKind::SubOpResp => "SUBOP-RESP",
            MsgKind::Vote => "VOTE",
            MsgKind::VoteResult => "VOTE-RESULT",
            MsgKind::CommitReq => "COMMIT-REQ",
            MsgKind::AbortReq => "ABORT-REQ",
            MsgKind::Ack => "ACK",
            MsgKind::LCom => "L-COM",
            MsgKind::AllNo => "ALL-NO",
            MsgKind::Committed => "COMMITTED",
            MsgKind::CommitmentReq => "C-REQ",
            MsgKind::QueryOutcome => "QUERY-OUTCOME",
            MsgKind::OpReq => "OP-REQ",
            MsgKind::OpResp => "OP-RESP",
            MsgKind::Clear => "CLEAR",
            MsgKind::ClearResp => "CLEAR-RESP",
            MsgKind::Migrate => "MIGRATE",
            MsgKind::MigrateResp => "MIGRATE-RESP",
            MsgKind::MigrateBack => "MIGRATE-BACK",
            MsgKind::MigrateBackAck => "MIGRATE-BACK-ACK",
        }
    }
}

/// A protocol message payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    // ---- client <-> server (execution phase) ----
    /// Process assigns a sub-op to a server (Cx step 1; also carries SE
    /// executions). `peer` names the other affected server so that the
    /// coordinator can later run the commitment and the participant can
    /// route conflict notifications.
    SubOpReq {
        op_id: OpId,
        subop: SubOp,
        role: Role,
        peer: Option<ServerId>,
        /// For local (colocated) mutations the second half rides along.
        colocated: Option<SubOp>,
    },
    /// Server's YES/NO response with a conflict hint (Cx step 2).
    SubOpResp {
        op_id: OpId,
        verdict: Verdict,
        hint: Hint,
    },
    /// Client asks the coordinator to launch an immediate commitment
    /// (Table III, "L-COM").
    LCom {
        op_id: OpId,
    },
    /// Coordinator tells the process all successful executions have been
    /// aborted (Table III, "ALL-NO").
    AllNo {
        op_id: OpId,
    },
    /// Coordinator tells the process its immediate commitment committed.
    Committed {
        op_id: OpId,
    },

    // ---- server <-> server (commitment phase) ----
    /// Coordinator queries sub-op results; batched over many operations
    /// for lazy commitments (Cx step 3). When issued during conflict
    /// handling it also "implies that the coordinator tends to instruct
    /// the participant to obey its execution order" (§III-C step 3):
    /// `order_after` lists the operations queued *behind* the voted ones
    /// at the coordinator. The participant may invalidate one of its own
    /// executions only if it appears there — those operations demonstrably
    /// have not completed at their client, so invalidation is safe.
    Vote {
        ops: Vec<OpId>,
        order_after: Vec<OpId>,
    },
    /// Participant's per-operation YES/NO votes (Cx step 4).
    VoteResult {
        results: Vec<(OpId, Verdict)>,
    },
    /// Commit/abort decisions (Cx step 5); one batched message may carry
    /// both commits and aborts.
    CommitDecision {
        commits: Vec<OpId>,
        aborts: Vec<OpId>,
    },
    /// Participant acknowledges commitment completion (Cx step 6).
    Ack {
        ops: Vec<OpId>,
    },
    /// Participant-detected conflict (or log pressure): ask the
    /// coordinator to launch an immediate commitment for `pending`.
    /// `sweep` asks the coordinator to flush its whole lazy queue along
    /// (log pressure); a plain conflict commits only the pending op, as in
    /// Figure 3.
    CommitmentReq {
        pending: OpId,
        sweep: bool,
    },
    /// Recovery: participant asks the coordinator for outcomes of
    /// half-completed operations.
    QueryOutcome {
        ops: Vec<OpId>,
    },

    // ---- 2PC / CE: client sends the whole operation to the coordinator ----
    OpReq {
        op_id: OpId,
        plan: OpPlan,
    },
    OpResp {
        op_id: OpId,
        outcome: OpOutcome,
    },
    /// 2PC vote request carrying the sub-op the participant must perform.
    VoteExec {
        op_id: OpId,
        subop: SubOp,
    },

    // ---- SE baseline ----
    /// Withdraw a previously executed sub-op ("CLEAR", §II-B).
    Clear {
        op_id: OpId,
        subop: SubOp,
    },
    ClearResp {
        op_id: OpId,
    },

    // ---- CE baseline (Ursa Minor style migration) ----
    /// Coordinator pulls the participant-side objects.
    Migrate {
        op_id: OpId,
        objs: Vec<ObjectId>,
    },
    /// Participant ships the objects (size models the object data).
    MigrateResp {
        op_id: OpId,
        objs: Vec<ObjectId>,
    },
    /// Coordinator ships modified objects back. `install` is the logical
    /// content of the shipped images: the sub-operation whose effect the
    /// home server re-installs (None when the central execution failed and
    /// the objects return unchanged).
    MigrateBack {
        op_id: OpId,
        objs: Vec<ObjectId>,
        install: Option<SubOp>,
    },
    /// Participant confirms re-installation of the migrated objects.
    MigrateBackAck {
        op_id: OpId,
        verdict: Verdict,
    },
}

impl Payload {
    pub fn kind(&self) -> MsgKind {
        match self {
            Payload::SubOpReq { .. } => MsgKind::SubOpReq,
            Payload::SubOpResp { .. } => MsgKind::SubOpResp,
            Payload::LCom { .. } => MsgKind::LCom,
            Payload::AllNo { .. } => MsgKind::AllNo,
            Payload::Committed { .. } => MsgKind::Committed,
            Payload::Vote { .. } => MsgKind::Vote,
            Payload::VoteResult { .. } => MsgKind::VoteResult,
            Payload::CommitDecision { aborts, .. } => {
                if aborts.is_empty() {
                    MsgKind::CommitReq
                } else {
                    MsgKind::AbortReq
                }
            }
            Payload::Ack { .. } => MsgKind::Ack,
            Payload::CommitmentReq { .. } => MsgKind::CommitmentReq,
            Payload::QueryOutcome { .. } => MsgKind::QueryOutcome,
            Payload::OpReq { .. } => MsgKind::OpReq,
            Payload::OpResp { .. } => MsgKind::OpResp,
            Payload::VoteExec { .. } => MsgKind::Vote,
            Payload::Clear { .. } => MsgKind::Clear,
            Payload::ClearResp { .. } => MsgKind::ClearResp,
            Payload::Migrate { .. } => MsgKind::Migrate,
            Payload::MigrateResp { .. } => MsgKind::MigrateResp,
            Payload::MigrateBack { .. } => MsgKind::MigrateBack,
            Payload::MigrateBackAck { .. } => MsgKind::MigrateBackAck,
        }
    }

    /// Approximate wire size in bytes (header + payload), used by the
    /// network model for transfer-time accounting.
    pub fn size_bytes(&self) -> u32 {
        const HDR: u32 = 64; // RPC header: op id, type, checksums
        const PER_OP: u32 = 24;
        match self {
            Payload::SubOpReq { colocated, .. } => {
                HDR + 72 + if colocated.is_some() { 72 } else { 0 }
            }
            Payload::SubOpResp { hint, .. } => HDR + 8 + hint.0.len() as u32 * PER_OP,
            Payload::LCom { .. }
            | Payload::AllNo { .. }
            | Payload::Committed { .. }
            | Payload::CommitmentReq { .. }
            | Payload::ClearResp { .. }
            | Payload::MigrateBackAck { .. } => HDR,
            Payload::Vote { ops, order_after } => {
                HDR + (ops.len() + order_after.len()) as u32 * PER_OP
            }
            Payload::QueryOutcome { ops } | Payload::Ack { ops } => HDR + ops.len() as u32 * PER_OP,
            Payload::VoteResult { results } => HDR + results.len() as u32 * (PER_OP + 1),
            Payload::CommitDecision { commits, aborts } => {
                HDR + (commits.len() + aborts.len()) as u32 * PER_OP
            }
            Payload::OpReq { .. } => HDR + 128,
            Payload::OpResp { .. } => HDR + 8,
            Payload::VoteExec { .. } => HDR + 72,
            Payload::Clear { .. } => HDR + 72,
            // migration ships whole metadata objects (~256 B each)
            Payload::Migrate { objs, .. } => HDR + objs.len() as u32 * 16,
            Payload::MigrateResp { objs, .. } | Payload::MigrateBack { objs, .. } => {
                HDR + objs.len() as u32 * 256
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;

    fn oid(seq: u64) -> OpId {
        OpId::new(ProcId::new(0, 0), seq)
    }

    #[test]
    fn hint_equality_drives_completion() {
        assert_eq!(Hint::null(), Hint::null());
        assert_eq!(Hint::of(oid(1)), Hint::of(oid(1)));
        assert_ne!(Hint::null(), Hint::of(oid(1)));
        assert!(Hint::null().is_null());
        assert!(!Hint::of(oid(1)).is_null());
    }

    #[test]
    fn commit_decision_kind_depends_on_aborts() {
        let commit = Payload::CommitDecision {
            commits: vec![oid(1)],
            aborts: vec![],
        };
        let abort = Payload::CommitDecision {
            commits: vec![],
            aborts: vec![oid(1)],
        };
        assert_eq!(commit.kind(), MsgKind::CommitReq);
        assert_eq!(abort.kind(), MsgKind::AbortReq);
    }

    #[test]
    fn batched_messages_grow_with_op_count() {
        let small = Payload::Vote {
            ops: vec![oid(1)],
            order_after: vec![],
        };
        let big = Payload::Vote {
            ops: (0..100).map(oid).collect(),
            order_after: vec![],
        };
        assert!(big.size_bytes() > small.size_bytes());
        // ...but far less than 100 separate messages
        assert!(big.size_bytes() < 100 * small.size_bytes());
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::from_ok(true).is_yes());
        assert!(!Verdict::from_ok(false).is_yes());
    }

    #[test]
    fn migration_responses_carry_object_data() {
        let objs = vec![ObjectId::Inode(crate::ids::InodeNo(1))];
        let req = Payload::Migrate {
            op_id: oid(1),
            objs: objs.clone(),
        };
        let resp = Payload::MigrateResp {
            op_id: oid(1),
            objs,
        };
        assert!(resp.size_bytes() > req.size_bytes());
    }

    #[test]
    fn all_payloads_have_nonzero_size() {
        let p = Payload::LCom { op_id: oid(1) };
        assert!(p.size_bytes() >= 64);
    }

    #[test]
    fn wire_tags_are_dense_and_distinct() {
        // One representative per variant, in declaration order.
        let subop = SubOp::TouchInode {
            ino: crate::ids::InodeNo(1),
        };
        let all: Vec<Payload> = vec![
            Payload::SubOpReq {
                op_id: oid(1),
                subop,
                role: Role::Coordinator,
                peer: None,
                colocated: None,
            },
            Payload::SubOpResp {
                op_id: oid(1),
                verdict: Verdict::Yes,
                hint: Hint::null(),
            },
            Payload::LCom { op_id: oid(1) },
            Payload::AllNo { op_id: oid(1) },
            Payload::Committed { op_id: oid(1) },
            Payload::Vote {
                ops: vec![],
                order_after: vec![],
            },
            Payload::VoteResult { results: vec![] },
            Payload::CommitDecision {
                commits: vec![],
                aborts: vec![],
            },
            Payload::Ack { ops: vec![] },
            Payload::CommitmentReq {
                pending: oid(1),
                sweep: false,
            },
            Payload::QueryOutcome { ops: vec![] },
            Payload::OpReq {
                op_id: oid(1),
                plan: OpPlan {
                    op: crate::op::FsOp::Stat {
                        ino: crate::ids::InodeNo(1),
                    },
                    coordinator: ServerId(0),
                    coord_subop: subop,
                    participant: None,
                    colocated: None,
                },
            },
            Payload::OpResp {
                op_id: oid(1),
                outcome: crate::op::OpOutcome::Applied,
            },
            Payload::VoteExec {
                op_id: oid(1),
                subop,
            },
            Payload::Clear {
                op_id: oid(1),
                subop,
            },
            Payload::ClearResp { op_id: oid(1) },
            Payload::Migrate {
                op_id: oid(1),
                objs: vec![],
            },
            Payload::MigrateResp {
                op_id: oid(1),
                objs: vec![],
            },
            Payload::MigrateBack {
                op_id: oid(1),
                objs: vec![],
                install: None,
            },
            Payload::MigrateBackAck {
                op_id: oid(1),
                verdict: Verdict::Yes,
            },
        ];
        assert_eq!(all.len(), Payload::WIRE_TAG_COUNT as usize);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.wire_tag() as usize, i, "{p:?} has wrong wire tag");
        }
    }

    #[test]
    fn msg_kind_all_is_in_discriminant_order() {
        for (i, k) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} out of order in MsgKind::ALL");
        }
    }
}
