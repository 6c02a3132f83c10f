//! 2PC: the classic two-phase-commit baseline (§II-B, Figure 1a).
//!
//! "Upon receiving a request from a client, the coordinator first initiates
//! the first phase by sending a VOTE message to the participant, telling
//! what sub-op the participant should perform. The participant executes its
//! assigned sub-ops and sends the coordinator … YES or NO … The coordinator
//! collects the vote message and executes its sub-op, and then starts the
//! second phase." Every message is preceded by a synchronous log write
//! ("the servers record an operation log before sending a message out").
//!
//! Objects touched by an in-flight transaction are locked (the `active`
//! map); conflicting requests queue until the transaction finishes —
//! that is 2PC's serial, blocking nature, in contrast to Cx's optimistic
//! concurrency.

use crate::action::{Action, Endpoint, ServerEngine, Writebacks};
use crate::stats::ServerStats;
use crate::trigger::{TriggerState, TriggerVerdict};
use cx_mdstore::{MetaStore, Undo};
use cx_sim::det_rng;
use cx_types::FxHashMap;
use cx_types::{
    ClusterConfig, Hint, ObjectId, OpId, OpOutcome, OpPlan, Payload, Role, ServerId, SimTime,
    SubOp, Verdict,
};
use cx_wal::{Record, SeqNo, Wal};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;

/// Coordinator-side transaction state.
struct Txn {
    plan: OpPlan,
    /// Participant's vote, once received.
    participant_vote: Option<Verdict>,
    /// Coordinator's own execution result and undo.
    local_verdict: Option<Verdict>,
    undo: Option<Undo>,
}

/// Participant-side executed sub-op awaiting the decision.
struct ParticipantExec {
    coordinator: ServerId,
    verdict: Verdict,
    undo: Option<Undo>,
    subop: SubOp,
}

/// What to do once the log write a token stands for is durable.
enum Io {
    /// Begin record durable → send VOTE to the participant.
    Begin { op_id: OpId },
    /// Participant result durable → send the vote.
    Exec { op_id: OpId },
    /// Decision durable → send COMMIT/ABORT to participant.
    Decision { op_id: OpId, commit: bool },
    /// Participant outcome durable → ACK.
    Outcome { op_id: OpId, coordinator: ServerId },
    /// Complete durable → respond to the client.
    Complete { op_id: OpId, outcome: OpOutcome },
    /// Local (single-server) mutation durable → respond.
    Local { op_id: OpId, verdict: Verdict },
}

enum Waiting {
    /// A whole-operation request waiting for locks (coordinator side).
    OpReq { op_id: OpId, plan: OpPlan },
    /// A VOTE-carried sub-op waiting for locks (participant side).
    VoteExec {
        op_id: OpId,
        subop: SubOp,
        coordinator: ServerId,
    },
}

/// The 2PC metadata server.
pub struct TwoPcServer {
    id: ServerId,
    store: MetaStore,
    wal: Wal,
    fail_prob: f64,
    rng: SmallRng,
    txns: FxHashMap<OpId, Txn>,
    execs: FxHashMap<OpId, ParticipantExec>,
    /// Locked objects → holding transaction.
    active: FxHashMap<ObjectId, OpId>,
    blocked: FxHashMap<OpId, VecDeque<Waiting>>,
    trigger: TriggerState,
    io: FxHashMap<u64, Io>,
    writebacks: Writebacks,
    next_token: u64,
    stats: ServerStats,
}

impl TwoPcServer {
    pub fn new(id: ServerId, cfg: &ClusterConfig) -> Self {
        Self {
            id,
            store: MetaStore::new(),
            wal: Wal::new(None), // 2PC logs are pruned per transaction
            fail_prob: cfg.failure.subop_fail_prob,
            rng: det_rng(cfg.seed, 0x2bc0_0000 ^ id.0 as u64),
            txns: FxHashMap::default(),
            execs: FxHashMap::default(),
            active: FxHashMap::default(),
            blocked: FxHashMap::default(),
            trigger: TriggerState::new(cfg.cx.trigger),
            io: FxHashMap::default(),
            writebacks: Writebacks::default(),
            next_token: 0,
            stats: ServerStats::default(),
        }
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn log(&mut self, recs: Vec<Record>, cont: Io, out: &mut Vec<Action>) -> SeqNo {
        let mut seq = SeqNo(0);
        let mut bytes = 0;
        for rec in recs {
            let (s, b) = self.wal.append(rec).expect("2PC log is unlimited");
            seq = seq.max(s);
            bytes += b;
        }
        let token = self.token();
        self.io.insert(token, cont);
        out.push(Action::LogAppend { token, bytes });
        seq
    }

    fn lock_conflict(&self, objs: &[ObjectId], me: OpId) -> Option<OpId> {
        objs.iter().find_map(|o| {
            self.active
                .get(o)
                .copied()
                .filter(|holder| *holder != me && holder.proc != me.proc)
        })
    }

    fn apply_with_injection(&mut self, subop: &SubOp) -> Result<Undo, cx_types::CxError> {
        if self.fail_prob > 0.0 && subop.is_write() && self.rng.gen::<f64>() < self.fail_prob {
            return Err(cx_types::CxError::Injected);
        }
        self.store.apply(subop)
    }

    // ---- coordinator ----

    fn on_op_req(&mut self, now: SimTime, op_id: OpId, plan: OpPlan, out: &mut Vec<Action>) {
        let objs: Vec<ObjectId> = plan.coord_subop.conflict_objects().iter().collect();
        if let Some(holder) = self.lock_conflict(&objs, op_id) {
            self.stats.conflicts += 1;
            self.stats.blocked_requests += 1;
            self.blocked
                .entry(holder)
                .or_default()
                .push_back(Waiting::OpReq { op_id, plan });
            return;
        }
        for o in objs {
            self.active.insert(o, op_id);
        }
        self.txns.insert(
            op_id,
            Txn {
                plan,
                participant_vote: None,
                local_verdict: None,
                undo: None,
            },
        );
        // Log the begin record, then VOTE.
        self.log(
            vec![Record::Result {
                op_id,
                role: Role::Coordinator,
                peer: plan.participant.map(|(s, _)| s),
                subop: plan.coord_subop,
                verdict: Verdict::Yes, // intent record
                invalidated: false,
            }],
            Io::Begin { op_id },
            out,
        );
        let _ = now;
    }

    fn advance_txn(&mut self, op_id: OpId, out: &mut Vec<Action>) {
        let Some(txn) = self.txns.get(&op_id) else {
            return;
        };
        let (Some(pv), Some(lv)) = (txn.participant_vote, txn.local_verdict) else {
            return;
        };
        let commit = pv.is_yes() && lv.is_yes();
        if !commit {
            if let Some(undo) = self.txns.get_mut(&op_id).and_then(|t| t.undo.take()) {
                self.store.undo(undo);
            }
        }
        let rec = if commit {
            Record::Commit { op_id }
        } else {
            Record::Abort { op_id }
        };
        self.log(vec![rec], Io::Decision { op_id, commit }, out);
    }

    // ---- participant ----

    fn on_vote_exec(
        &mut self,
        op_id: OpId,
        subop: SubOp,
        coordinator: ServerId,
        out: &mut Vec<Action>,
    ) {
        let objs: Vec<ObjectId> = subop.conflict_objects().iter().collect();
        if let Some(holder) = self.lock_conflict(&objs, op_id) {
            self.stats.conflicts += 1;
            self.stats.blocked_requests += 1;
            self.blocked
                .entry(holder)
                .or_default()
                .push_back(Waiting::VoteExec {
                    op_id,
                    subop,
                    coordinator,
                });
            return;
        }
        for o in objs {
            self.active.insert(o, op_id);
        }
        let (verdict, undo) = match self.apply_with_injection(&subop) {
            Ok(u) => (Verdict::Yes, Some(u)),
            Err(_) => (Verdict::No, None),
        };
        self.stats.subops_executed += 1;
        self.execs.insert(
            op_id,
            ParticipantExec {
                coordinator,
                verdict,
                undo,
                subop,
            },
        );
        self.log(
            vec![Record::Result {
                op_id,
                role: Role::Participant,
                peer: Some(coordinator),
                subop,
                verdict,
                invalidated: false,
            }],
            Io::Exec { op_id },
            out,
        );
    }

    fn release(&mut self, op_id: OpId, out: &mut Vec<Action>) {
        self.active.retain(|_, h| *h != op_id);
        if let Some(waiters) = self.blocked.remove(&op_id) {
            for w in waiters {
                match w {
                    Waiting::OpReq { op_id, plan } => {
                        self.on_op_req(SimTime::ZERO, op_id, plan, out)
                    }
                    Waiting::VoteExec {
                        op_id,
                        subop,
                        coordinator,
                    } => self.on_vote_exec(op_id, subop, coordinator, out),
                }
            }
        }
    }

    fn flush_batched(&mut self, out: &mut Vec<Action>) {
        self.wal.prune_all();
        let pages = self.store.take_dirty_pages();
        if !pages.is_empty() {
            self.stats.writebacks += 1;
            self.writebacks.issue(&pages, &mut self.next_token, out);
        }
    }

    fn apply_trigger(&mut self, v: TriggerVerdict, out: &mut Vec<Action>) {
        match v {
            TriggerVerdict::Fire => self.flush_batched(out),
            TriggerVerdict::Arm(delay_ns) => out.push(Action::SetTimer {
                token: self.trigger.generation(),
                delay_ns,
            }),
            TriggerVerdict::Wait => {}
        }
    }

    /// Single-server requests (reads, colocated mutations) bypass 2PC.
    fn on_local(
        &mut self,
        now: SimTime,
        op_id: OpId,
        subop: SubOp,
        colocated: Option<SubOp>,
        out: &mut Vec<Action>,
    ) {
        if !subop.is_write() && colocated.is_none() {
            let verdict = Verdict::from_ok(self.store.apply(&subop).is_ok());
            self.stats.reads_served += 1;
            out.push(Action::Send {
                to: Endpoint::Proc(op_id.proc),
                payload: Payload::SubOpResp {
                    op_id,
                    verdict,
                    hint: Hint::null(),
                },
            });
            return;
        }
        let mut verdict = Verdict::Yes;
        let mut undos = Vec::new();
        for s in std::iter::once(&subop).chain(colocated.iter()) {
            match self.apply_with_injection(s) {
                Ok(u) => undos.push(u),
                Err(_) => {
                    verdict = Verdict::No;
                    break;
                }
            }
        }
        if verdict == Verdict::No {
            for u in undos.into_iter().rev() {
                self.store.undo(u);
            }
        }
        self.stats.local_mutations += 1;
        self.log(
            vec![
                Record::Result {
                    op_id,
                    role: Role::Participant,
                    peer: None,
                    subop,
                    verdict,
                    invalidated: false,
                },
                Record::Commit { op_id },
            ],
            Io::Local { op_id, verdict },
            out,
        );
        let v = self.trigger.on_pending(now);
        self.apply_trigger(v, out);
    }
}

impl ServerEngine for TwoPcServer {
    fn on_start(&mut self, _now: SimTime, _out: &mut Vec<Action>) {}

    fn on_msg(&mut self, now: SimTime, from: Endpoint, payload: Payload, out: &mut Vec<Action>) {
        let _ = self.id;
        match payload {
            Payload::OpReq { op_id, plan } => self.on_op_req(now, op_id, plan, out),
            Payload::SubOpReq {
                op_id,
                subop,
                colocated,
                ..
            } => self.on_local(now, op_id, subop, colocated, out),
            Payload::VoteExec { op_id, subop } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                self.on_vote_exec(op_id, subop, coord, out);
            }
            Payload::VoteResult { results } => {
                for (op_id, v) in results {
                    if let Some(txn) = self.txns.get_mut(&op_id) {
                        txn.participant_vote = Some(v);
                        // "The coordinator collects the vote message and
                        // executes its sub-op."
                        if txn.local_verdict.is_none() {
                            let subop = txn.plan.coord_subop;
                            let (lv, undo) = match self.apply_with_injection(&subop) {
                                Ok(u) => (Verdict::Yes, Some(u)),
                                Err(_) => (Verdict::No, None),
                            };
                            self.stats.subops_executed += 1;
                            let txn = self.txns.get_mut(&op_id).expect("still present");
                            txn.local_verdict = Some(lv);
                            txn.undo = undo;
                        }
                        self.advance_txn(op_id, out);
                    }
                }
            }
            Payload::CommitDecision { commits, aborts } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                for op_id in commits {
                    self.execs.remove(&op_id);
                    self.log(
                        vec![Record::Commit { op_id }],
                        Io::Outcome {
                            op_id,
                            coordinator: coord,
                        },
                        out,
                    );
                }
                for op_id in aborts {
                    if let Some(mut e) = self.execs.remove(&op_id) {
                        if let Some(undo) = e.undo.take() {
                            self.store.undo(undo);
                        }
                        let _ = e.subop;
                    }
                    self.log(
                        vec![Record::Abort { op_id }],
                        Io::Outcome {
                            op_id,
                            coordinator: coord,
                        },
                        out,
                    );
                }
            }
            Payload::Ack { ops } => {
                for op_id in ops {
                    if let Some(txn) = self.txns.get(&op_id) {
                        let commit = matches!(
                            (txn.participant_vote, txn.local_verdict),
                            (Some(Verdict::Yes), Some(Verdict::Yes))
                        );
                        let outcome = if commit {
                            OpOutcome::Applied
                        } else {
                            OpOutcome::Failed
                        };
                        self.log(
                            vec![Record::Complete { op_id }],
                            Io::Complete { op_id, outcome },
                            out,
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn on_disk_done(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        if self.writebacks.complete(token).is_some() {
            return;
        }
        let Some(cont) = self.io.remove(&token) else {
            return;
        };
        match cont {
            Io::Begin { op_id } => {
                let Some(txn) = self.txns.get(&op_id) else {
                    return;
                };
                match txn.plan.participant {
                    Some((parti, subop)) => out.push(Action::Send {
                        to: Endpoint::Server(parti),
                        payload: Payload::VoteExec { op_id, subop },
                    }),
                    None => unreachable!("single-server ops use the local path"),
                }
            }
            Io::Exec { op_id } => {
                if let Some(e) = self.execs.get(&op_id) {
                    out.push(Action::Send {
                        to: Endpoint::Server(e.coordinator),
                        payload: Payload::VoteResult {
                            results: vec![(op_id, e.verdict)],
                        },
                    });
                }
            }
            Io::Decision { op_id, commit } => {
                let Some(txn) = self.txns.get(&op_id) else {
                    return;
                };
                let Some((parti, _)) = txn.plan.participant else {
                    return;
                };
                let (commits, aborts) = if commit {
                    (vec![op_id], vec![])
                } else {
                    (vec![], vec![op_id])
                };
                out.push(Action::Send {
                    to: Endpoint::Server(parti),
                    payload: Payload::CommitDecision { commits, aborts },
                });
            }
            Io::Outcome { op_id, coordinator } => {
                out.push(Action::Send {
                    to: Endpoint::Server(coordinator),
                    payload: Payload::Ack { ops: vec![op_id] },
                });
                self.wal.prune_op(&op_id);
                self.release(op_id, out);
                let v = self.trigger.on_pending(now);
                self.apply_trigger(v, out);
            }
            Io::Complete { op_id, outcome } => {
                if let Some(_txn) = self.txns.remove(&op_id) {
                    match outcome {
                        OpOutcome::Applied => self.stats.ops_committed += 1,
                        OpOutcome::Failed => self.stats.ops_aborted += 1,
                    }
                    out.push(Action::Send {
                        to: Endpoint::Proc(op_id.proc),
                        payload: Payload::OpResp { op_id, outcome },
                    });
                }
                self.wal.prune_op(&op_id);
                self.release(op_id, out);
                let v = self.trigger.on_pending(now);
                self.apply_trigger(v, out);
            }
            Io::Local { op_id, verdict } => {
                self.wal.prune_op(&op_id);
                out.push(Action::Send {
                    to: Endpoint::Proc(op_id.proc),
                    payload: Payload::SubOpResp {
                        op_id,
                        verdict,
                        hint: Hint::null(),
                    },
                });
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        let v = self.trigger.on_timer(now, token);
        self.apply_trigger(v, out);
    }

    fn quiesce(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.flush_batched(out);
        self.trigger.on_batch_launched(now);
    }

    fn is_quiesced(&self) -> bool {
        self.io.is_empty()
            && self.writebacks.outstanding() == 0
            && self.txns.is_empty()
            && self.blocked.values().all(|q| q.is_empty())
    }

    fn store(&self) -> &MetaStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut MetaStore {
        &mut self.store
    }

    fn wal(&self) -> Option<&Wal> {
        Some(&self.wal)
    }

    fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn proto_metrics(&self) -> crate::stats::ProtoMetrics {
        // 2PC commits every cross-server op in its own immediate round and
        // never batches, so the mix is derived straight from the stats.
        crate::stats::ProtoMetrics {
            conflicts_ordered: self.stats.conflicts,
            immediate_commitments: self.stats.immediate_commitments,
            aborts: self.stats.ops_aborted,
            wal_truncations: self.wal.truncations(),
            ..Default::default()
        }
    }

    fn obs_gauges(&self) -> cx_obs::EngineGauges {
        cx_obs::EngineGauges {
            active_objects: self.active.len() as u64,
            pending_batch_ops: self.txns.len() as u64,
        }
    }
}
