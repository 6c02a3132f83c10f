//! SE: the OrangeFS/PVFS2 serial-execution baseline (§II-B).
//!
//! "All sub-ops are serially and synchronously executed on the affected
//! servers: the client first instructs the participant to execute its
//! sub-ops; if the participant executes its sub-ops successfully, the
//! client then asks the coordinator … If the coordinator fails to perform
//! the assigned sub-op, the process withdraws the former sub-ops by
//! sending a CLEAR message."
//!
//! Two flavours, matching the paper's baselines:
//!
//! * `batched = false` → **OFS**: every sub-op synchronously writes the
//!   updated objects into the database before the response.
//! * `batched = true` → **OFS-batched**: "the updated objects are logged
//!   and the batched modifications are lazily flushed into BDB" (§IV-C).
//!
//! SE keeps no cross-server commitment state: the well-known consequence
//! (modelled faithfully) is that a client that dies between the
//! participant's execution and the CLEAR leaves orphan objects.

use crate::action::{Action, Endpoint, ServerEngine, Writebacks};
use crate::stats::ServerStats;
use crate::trigger::{TriggerState, TriggerVerdict};
use cx_mdstore::{MetaStore, Undo};
use cx_sim::det_rng;
use cx_simio::object_page;
use cx_types::FxHashMap;
use cx_types::{ClusterConfig, Hint, OpId, Payload, ProcId, Role, SimTime, SubOp, Verdict};
use cx_wal::{Record, SeqNo, Wal};
use rand::rngs::SmallRng;
use rand::Rng;

enum SeIo {
    /// Sync DB write (or batched log flush) done: answer the client.
    Respond {
        op_id: OpId,
        proc: ProcId,
        verdict: Verdict,
        seq: Option<SeqNo>,
    },
    /// CLEAR rollback persisted: acknowledge it.
    ClearDone { op_id: OpId, proc: ProcId },
}

/// The SE metadata server.
pub struct SeServer {
    id: cx_types::ServerId,
    store: MetaStore,
    /// OFS-batched keeps a log for the batched write-back.
    wal: Option<Wal>,
    batched: bool,
    fail_prob: f64,
    rng: SmallRng,
    trigger: TriggerState,
    io: FxHashMap<u64, SeIo>,
    writebacks: Writebacks,
    next_token: u64,
    /// Undo state for the most recent operation of each process (the only
    /// one a CLEAR can target, since processes issue ops sequentially).
    last_undo: FxHashMap<ProcId, (OpId, Vec<Undo>)>,
    stats: ServerStats,
}

impl SeServer {
    pub fn new(id: cx_types::ServerId, cfg: &ClusterConfig, batched: bool) -> Self {
        Self {
            id,
            store: MetaStore::new(),
            wal: batched.then(|| Wal::new(cfg.cx.log_limit_bytes)),
            batched,
            fail_prob: cfg.failure.subop_fail_prob,
            rng: det_rng(cfg.seed, 0x5e00_0000 ^ id.0 as u64),
            trigger: TriggerState::new(cfg.cx.trigger),
            io: FxHashMap::default(),
            writebacks: Writebacks::default(),
            next_token: 0,
            last_undo: FxHashMap::default(),
            stats: ServerStats::default(),
        }
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn apply_with_injection(&mut self, subop: &SubOp) -> Result<Undo, cx_types::CxError> {
        if self.fail_prob > 0.0 && subop.is_write() && self.rng.gen::<f64>() < self.fail_prob {
            return Err(cx_types::CxError::Injected);
        }
        self.store.apply(subop)
    }

    fn on_subop(
        &mut self,
        now: SimTime,
        req_op: OpId,
        subop: SubOp,
        colocated: Option<SubOp>,
        out: &mut Vec<Action>,
    ) {
        // Reads are served from the cache immediately.
        if !subop.is_write() && colocated.is_none() {
            let verdict = Verdict::from_ok(self.store.apply(&subop).is_ok());
            self.stats.reads_served += 1;
            out.push(Action::Send {
                to: Endpoint::Proc(req_op.proc),
                payload: Payload::SubOpResp {
                    op_id: req_op,
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
            for u in undos.drain(..).rev() {
                self.store.undo(u);
            }
        }
        self.stats.subops_executed += 1;
        self.last_undo.insert(req_op.proc, (req_op, undos.clone()));

        if self.batched {
            // OFS-batched: log the update, respond when the group-committed
            // flush lands, write back in batches.
            let wal = self.wal.as_mut().expect("batched keeps a wal");
            let rec = Record::Result {
                op_id: req_op,
                role: Role::Participant,
                peer: None,
                subop,
                verdict,
                invalidated: false,
            };
            let mut total = rec.encoded_len();
            let (mut seq, _) = match wal.append(rec) {
                Ok(x) => x,
                Err(_) => {
                    // Log full: flush and prune synchronously, then retry
                    // (pruning is possible because every record is
                    // immediately prunable in SE).
                    self.stats.log_full_blocks += 1;
                    self.flush_batched(out);
                    let wal = self.wal.as_mut().expect("batched keeps a wal");
                    wal.append(Record::Result {
                        op_id: req_op,
                        role: Role::Participant,
                        peer: None,
                        subop,
                        verdict,
                        invalidated: false,
                    })
                    .expect("log just pruned")
                }
            };
            let wal = self.wal.as_mut().expect("batched keeps a wal");
            let commit = if verdict.is_yes() {
                Record::Commit { op_id: req_op }
            } else {
                Record::Abort { op_id: req_op }
            };
            total += commit.encoded_len();
            if let Ok((s2, _)) = wal.append(commit) {
                seq = seq.max(s2);
            }
            let token = self.token();
            self.io.insert(
                token,
                SeIo::Respond {
                    op_id: req_op,
                    proc: req_op.proc,
                    verdict,
                    seq: Some(seq),
                },
            );
            out.push(Action::LogAppend {
                token,
                bytes: total,
            });
            let v = self.trigger.on_pending(now);
            self.apply_trigger(v, out);
        } else {
            // OFS: synchronous database write per sub-op.
            let page = subop
                .objects()
                .iter()
                .next()
                .map(|o| object_page(&o))
                .unwrap_or(0);
            // The objects are written through, not left dirty.
            let mut objs: Vec<cx_types::ObjectId> = subop.objects().iter().collect();
            if let Some(c) = colocated {
                objs.extend(c.objects().iter());
            }
            let _ = self.store.take_dirty_pages_of(objs);
            let token = self.token();
            self.io.insert(
                token,
                SeIo::Respond {
                    op_id: req_op,
                    proc: req_op.proc,
                    verdict,
                    seq: None,
                },
            );
            out.push(Action::DbSyncWrite { token, page });
        }
    }

    fn on_clear(&mut self, op_id: OpId, subop: SubOp, out: &mut Vec<Action>) {
        let undone: Vec<Undo> = match self.last_undo.remove(&op_id.proc) {
            Some((op, undos)) if op == op_id => undos,
            other => {
                // Not the op we remember (already superseded): nothing to
                // withdraw. Restore whatever we removed.
                if let Some(v) = other {
                    self.last_undo.insert(op_id.proc, v);
                }
                Vec::new()
            }
        };
        for u in undone.into_iter().rev() {
            self.store.undo(u);
        }
        if self.batched {
            // the rollback rides the next batched flush
            out.push(Action::Send {
                to: Endpoint::Proc(op_id.proc),
                payload: Payload::ClearResp { op_id },
            });
        } else {
            let page = subop
                .objects()
                .iter()
                .next()
                .map(|o| object_page(&o))
                .unwrap_or(0);
            let _ = self.store.take_dirty_pages();
            let token = self.token();
            self.io.insert(
                token,
                SeIo::ClearDone {
                    op_id,
                    proc: op_id.proc,
                },
            );
            out.push(Action::DbSyncWrite { token, page });
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

    /// Batched write-back: flush every dirty object and prune the log.
    fn flush_batched(&mut self, out: &mut Vec<Action>) {
        if let Some(wal) = self.wal.as_mut() {
            wal.prune_all();
        }
        let pages = self.store.take_dirty_pages();
        if !pages.is_empty() {
            self.stats.writebacks += 1;
            self.writebacks.issue(&pages, &mut self.next_token, out);
        }
    }
}

impl ServerEngine for SeServer {
    fn on_start(&mut self, _now: SimTime, _out: &mut Vec<Action>) {}

    fn on_msg(&mut self, now: SimTime, _from: Endpoint, payload: Payload, out: &mut Vec<Action>) {
        let _ = self.id;
        match payload {
            Payload::SubOpReq {
                op_id,
                subop,
                colocated,
                ..
            } => self.on_subop(now, op_id, subop, colocated, out),
            Payload::Clear { op_id, subop } => self.on_clear(op_id, subop, out),
            _ => {}
        }
    }

    fn on_disk_done(&mut self, _now: SimTime, token: u64, out: &mut Vec<Action>) {
        if self.writebacks.complete(token).is_some() {
            return;
        }
        match self.io.remove(&token) {
            Some(SeIo::Respond {
                op_id,
                proc,
                verdict,
                seq,
            }) => {
                if let (Some(wal), Some(seq)) = (self.wal.as_mut(), seq) {
                    wal.mark_durable(seq);
                }
                out.push(Action::Send {
                    to: Endpoint::Proc(proc),
                    payload: Payload::SubOpResp {
                        op_id,
                        verdict,
                        hint: Hint::null(),
                    },
                });
            }
            Some(SeIo::ClearDone { op_id, proc }) => {
                out.push(Action::Send {
                    to: Endpoint::Proc(proc),
                    payload: Payload::ClearResp { op_id },
                });
            }
            None => {}
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
        self.io.is_empty() && self.writebacks.outstanding() == 0
    }

    fn store(&self) -> &MetaStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut MetaStore {
        &mut self.store
    }

    fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn proto_metrics(&self) -> crate::stats::ProtoMetrics {
        // SE serialises cross-server work through synchronous DB writes:
        // no commitments, no batches — only the conflict count carries over.
        crate::stats::ProtoMetrics {
            conflicts_ordered: self.stats.conflicts,
            aborts: self.stats.ops_aborted,
            wal_truncations: self.wal.as_ref().map(|w| w.truncations()).unwrap_or(0),
            ..Default::default()
        }
    }

    fn obs_gauges(&self) -> cx_obs::EngineGauges {
        cx_obs::EngineGauges {
            // SE has no pending-op concept; in-flight IO is the closest
            // analogue of uncommitted work.
            active_objects: 0,
            pending_batch_ops: self.io.len() as u64 + self.writebacks.outstanding(),
        }
    }
}
