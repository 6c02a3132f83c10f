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
//! Objects touched by an in-flight transaction are locked (`Locks`);
//! conflicting requests queue until the transaction finishes — that is
//! 2PC's serial, blocking nature, in contrast to Cx's optimistic
//! concurrency.

use crate::action::{Action, Endpoint, ServerEngine};
use crate::chassis::{Chassis, Locks};
use crate::stats::ServerStats;
use cx_mdstore::{MetaStore, Undo};
use cx_types::FxHashMap;
use cx_types::{
    ClusterConfig, OpId, OpOutcome, OpPlan, Payload, Role, ServerId, SimTime, SubOp, Verdict,
};
use cx_wal::{Record, Wal};

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
    ch: Chassis<Io>,
    txns: FxHashMap<OpId, Txn>,
    execs: FxHashMap<OpId, ParticipantExec>,
    locks: Locks<Waiting>,
}

impl TwoPcServer {
    pub fn new(id: ServerId, cfg: &ClusterConfig) -> Self {
        Self {
            // 2PC logs are pruned per transaction
            ch: Chassis::new(cfg, 0x2bc0_0000 ^ id.0 as u64, None),
            txns: FxHashMap::default(),
            execs: FxHashMap::default(),
            locks: Locks::default(),
        }
    }

    fn log(&mut self, rec: Record, cont: Io, out: &mut Vec<Action>) {
        self.ch.log([rec], cont, out).expect("2PC log is unlimited");
    }

    // ---- coordinator ----

    fn on_op_req(&mut self, op_id: OpId, plan: OpPlan, out: &mut Vec<Action>) {
        if let Err(holder) = self
            .locks
            .acquire(&[plan.coord_subop.conflict_object()], op_id)
        {
            let waiter = Waiting::OpReq { op_id, plan };
            self.locks.wait(holder, waiter, &mut self.ch.stats);
            return;
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
            Record::Result {
                op_id,
                role: Role::Coordinator,
                peer: plan.participant.map(|(s, _)| s),
                subop: plan.coord_subop,
                verdict: Verdict::Yes, // intent record
                invalidated: false,
            },
            Io::Begin { op_id },
            out,
        );
    }

    /// "The coordinator collects the vote message and executes its
    /// sub-op", then logs the decision.
    fn on_vote_result(&mut self, op_id: OpId, vote: Verdict, out: &mut Vec<Action>) {
        let Some(txn) = self.txns.get_mut(&op_id) else {
            return;
        };
        txn.participant_vote = Some(vote);
        if txn.local_verdict.is_none() {
            let (lv, undo) = self.ch.execute(&txn.plan.coord_subop);
            txn.local_verdict = Some(lv);
            txn.undo = undo;
        }
        let commit = vote.is_yes() && txn.local_verdict == Some(Verdict::Yes);
        let rec = if commit {
            Record::Commit { op_id }
        } else {
            if let Some(undo) = txn.undo.take() {
                self.ch.store.undo(undo);
            }
            Record::Abort { op_id }
        };
        self.log(rec, Io::Decision { op_id, commit }, out);
    }

    // ---- participant ----

    fn on_vote_exec(
        &mut self,
        op_id: OpId,
        subop: SubOp,
        coordinator: ServerId,
        out: &mut Vec<Action>,
    ) {
        if let Err(holder) = self.locks.acquire(&[subop.conflict_object()], op_id) {
            let waiter = Waiting::VoteExec {
                op_id,
                subop,
                coordinator,
            };
            self.locks.wait(holder, waiter, &mut self.ch.stats);
            return;
        }
        let (verdict, undo) = self.ch.execute(&subop);
        self.execs.insert(
            op_id,
            ParticipantExec {
                coordinator,
                verdict,
                undo,
            },
        );
        self.log(
            Record::Result {
                op_id,
                role: Role::Participant,
                peer: Some(coordinator),
                subop,
                verdict,
                invalidated: false,
            },
            Io::Exec { op_id },
            out,
        );
    }

    /// COMMIT/ABORT at the participant: roll back on abort, log the
    /// outcome, then ACK.
    fn on_decision(
        &mut self,
        op_id: OpId,
        commit: bool,
        coordinator: ServerId,
        out: &mut Vec<Action>,
    ) {
        let undo = self.execs.remove(&op_id).and_then(|e| e.undo);
        let rec = if commit {
            Record::Commit { op_id }
        } else {
            if let Some(undo) = undo {
                self.ch.store.undo(undo);
            }
            Record::Abort { op_id }
        };
        self.log(rec, Io::Outcome { op_id, coordinator }, out);
    }

    /// The transaction is over on this server: prune its records, unlock
    /// its objects, retry whoever waited for them.
    fn finish(&mut self, now: SimTime, op_id: OpId, out: &mut Vec<Action>) {
        self.ch.wal.prune_op(&op_id);
        for w in self.locks.release(op_id) {
            match w {
                Waiting::OpReq { op_id, plan } => self.on_op_req(op_id, plan, out),
                Waiting::VoteExec {
                    op_id,
                    subop,
                    coordinator,
                } => self.on_vote_exec(op_id, subop, coordinator, out),
            }
        }
        self.ch.note_pending(now, out);
    }
}

impl ServerEngine for TwoPcServer {
    fn on_msg(&mut self, now: SimTime, from: Endpoint, payload: Payload, out: &mut Vec<Action>) {
        match payload {
            Payload::OpReq { op_id, plan } => self.on_op_req(op_id, plan, out),
            // Single-server requests (reads, colocated mutations) bypass 2PC.
            Payload::SubOpReq {
                op_id,
                subop,
                colocated,
                ..
            } => {
                let cont = |verdict| Io::Local { op_id, verdict };
                self.ch.on_local(now, op_id, subop, colocated, cont, out);
            }
            Payload::VoteExec { op_id, subop } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                self.on_vote_exec(op_id, subop, coord, out);
            }
            Payload::VoteResult { results } => {
                for (op_id, vote) in results {
                    self.on_vote_result(op_id, vote, out);
                }
            }
            Payload::CommitDecision { commits, aborts } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                for op_id in commits {
                    self.on_decision(op_id, true, coord, out);
                }
                for op_id in aborts {
                    self.on_decision(op_id, false, coord, out);
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
                            Record::Complete { op_id },
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
        let Some(cont) = self.ch.disk_done(now, token) else {
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
                self.finish(now, op_id, out);
            }
            Io::Complete { op_id, outcome } => {
                if self.txns.remove(&op_id).is_some() {
                    match outcome {
                        OpOutcome::Applied => self.ch.stats.ops_committed += 1,
                        OpOutcome::Failed => self.ch.stats.ops_aborted += 1,
                    }
                    out.push(Action::Send {
                        to: Endpoint::Proc(op_id.proc),
                        payload: Payload::OpResp { op_id, outcome },
                    });
                }
                self.finish(now, op_id, out);
            }
            Io::Local { op_id, verdict } => self.ch.local_done(op_id, verdict, out),
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        self.ch.on_timer(now, token, out);
    }

    fn quiesce(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.ch.fire(now, out);
    }

    fn is_quiesced(&self) -> bool {
        self.ch.idle() && self.txns.is_empty() && self.locks.idle()
    }

    fn store(&self) -> &MetaStore {
        &self.ch.store
    }

    fn store_mut(&mut self) -> &mut MetaStore {
        &mut self.ch.store
    }

    fn wal(&self) -> Option<&Wal> {
        Some(&self.ch.wal)
    }

    fn stats(&self) -> &ServerStats {
        &self.ch.stats
    }

    fn obs_gauges(&self) -> cx_obs::EngineGauges {
        cx_obs::EngineGauges {
            active_objects: self.locks.held() as u64,
            pending_batch_ops: self.txns.len() as u64,
        }
    }
}
