//! CE: central execution by object migration (Ursa Minor style, §II-B,
//! Figure 1c).
//!
//! "When a cross-server operation is performed, all of the objects involved
//! in the operation are migrated to the same server. The operation is then
//! performed locally on that single server by reusing the server-side
//! transaction techniques, such as journaling. The modified metadata
//! objects are migrated back to the original server after completing the
//! execution."
//!
//! The simulator keeps every object in its home store and models the
//! migration as messages carrying object images plus a local journal write
//! at the coordinator; the participant re-installs its half on MIGRATE-BACK.
//! This preserves both the timing (two migration round-trips with object
//! payloads + one journal write) and the final state.

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
use cx_wal::{Record, Wal};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;

struct Migration {
    plan: OpPlan,
    /// Coordinator's half applied locally.
    undo: Option<Undo>,
    verdict: Option<Verdict>,
}

/// What to do once the log write a token stands for is durable.
enum Io {
    /// Journal write done → migrate the objects back.
    Journal {
        op_id: OpId,
    },
    /// Participant re-installation journaled → MIGRATE-BACK-ACK.
    Reinstall {
        op_id: OpId,
        coordinator: ServerId,
        verdict: Verdict,
    },
    Local {
        op_id: OpId,
        verdict: Verdict,
    },
}

enum Waiting {
    OpReq {
        op_id: OpId,
        plan: OpPlan,
    },
    Migrate {
        op_id: OpId,
        objs: Vec<ObjectId>,
        coordinator: ServerId,
    },
}

/// The CE metadata server.
pub struct CeServer {
    id: ServerId,
    store: MetaStore,
    wal: Wal,
    fail_prob: f64,
    rng: SmallRng,
    migrations: FxHashMap<OpId, Migration>,
    active: FxHashMap<ObjectId, OpId>,
    blocked: FxHashMap<OpId, VecDeque<Waiting>>,
    trigger: TriggerState,
    io: FxHashMap<u64, Io>,
    writebacks: Writebacks,
    next_token: u64,
    stats: ServerStats,
}

impl CeServer {
    pub fn new(id: ServerId, cfg: &ClusterConfig) -> Self {
        Self {
            id,
            store: MetaStore::new(),
            wal: Wal::new(None),
            fail_prob: cfg.failure.subop_fail_prob,
            rng: det_rng(cfg.seed, 0xce00_0000 ^ id.0 as u64),
            migrations: FxHashMap::default(),
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

    fn log(&mut self, recs: Vec<Record>, cont: Io, out: &mut Vec<Action>) {
        let mut bytes = 0;
        for rec in recs {
            let (_, b) = self.wal.append(rec).expect("CE log is unlimited");
            bytes += b;
        }
        let token = self.token();
        self.io.insert(token, cont);
        out.push(Action::LogAppend { token, bytes });
    }

    fn lock_conflict(&self, objs: &[ObjectId], me: OpId) -> Option<OpId> {
        objs.iter().find_map(|o| {
            self.active
                .get(o)
                .copied()
                .filter(|h| *h != me && h.proc != me.proc)
        })
    }

    fn apply_with_injection(&mut self, subop: &SubOp) -> Result<Undo, cx_types::CxError> {
        if self.fail_prob > 0.0 && subop.is_write() && self.rng.gen::<f64>() < self.fail_prob {
            return Err(cx_types::CxError::Injected);
        }
        self.store.apply(subop)
    }

    // ---- coordinator ----

    fn on_op_req(&mut self, op_id: OpId, plan: OpPlan, out: &mut Vec<Action>) {
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
        self.migrations.insert(
            op_id,
            Migration {
                plan,
                undo: None,
                verdict: None,
            },
        );
        let (parti, parti_subop) = plan.participant.expect("cross-server op");
        let migrate_objs: Vec<ObjectId> = parti_subop.conflict_objects().iter().collect();
        out.push(Action::Send {
            to: Endpoint::Server(parti),
            payload: Payload::Migrate {
                op_id,
                objs: migrate_objs,
            },
        });
    }

    // ---- participant ----

    fn on_migrate(
        &mut self,
        op_id: OpId,
        objs: Vec<ObjectId>,
        coordinator: ServerId,
        out: &mut Vec<Action>,
    ) {
        if let Some(holder) = self.lock_conflict(&objs, op_id) {
            self.stats.conflicts += 1;
            self.stats.blocked_requests += 1;
            self.blocked
                .entry(holder)
                .or_default()
                .push_back(Waiting::Migrate {
                    op_id,
                    objs,
                    coordinator,
                });
            return;
        }
        // Objects leave this server until MIGRATE-BACK.
        for o in &objs {
            self.active.insert(*o, op_id);
        }
        out.push(Action::Send {
            to: Endpoint::Server(coordinator),
            payload: Payload::MigrateResp { op_id, objs },
        });
    }

    fn release(&mut self, op_id: OpId, out: &mut Vec<Action>) {
        self.active.retain(|_, h| *h != op_id);
        if let Some(waiters) = self.blocked.remove(&op_id) {
            for w in waiters {
                match w {
                    Waiting::OpReq { op_id, plan } => self.on_op_req(op_id, plan, out),
                    Waiting::Migrate {
                        op_id,
                        objs,
                        coordinator,
                    } => self.on_migrate(op_id, objs, coordinator, out),
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

impl ServerEngine for CeServer {
    fn on_start(&mut self, _now: SimTime, _out: &mut Vec<Action>) {}

    fn on_msg(&mut self, now: SimTime, from: Endpoint, payload: Payload, out: &mut Vec<Action>) {
        let _ = self.id;
        match payload {
            Payload::OpReq { op_id, plan } => self.on_op_req(op_id, plan, out),
            Payload::SubOpReq {
                op_id,
                subop,
                colocated,
                ..
            } => self.on_local(now, op_id, subop, colocated, out),
            Payload::Migrate { op_id, objs } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                self.on_migrate(op_id, objs, coord, out);
            }
            Payload::MigrateResp { op_id, .. } => {
                // Objects arrived: execute both halves "locally", journal
                // the transaction, then migrate back.
                let Some(m) = self.migrations.get(&op_id) else {
                    return;
                };
                let coord_subop = m.plan.coord_subop;
                let (lv, undo) = match self.apply_with_injection(&coord_subop) {
                    Ok(u) => (Verdict::Yes, Some(u)),
                    Err(_) => (Verdict::No, None),
                };
                self.stats.subops_executed += 1;
                let peer = {
                    let m = self.migrations.get_mut(&op_id).expect("present");
                    m.undo = undo;
                    m.verdict = Some(lv);
                    m.plan.participant.map(|(s, _)| s)
                };
                self.log(
                    vec![Record::Result {
                        op_id,
                        role: Role::Coordinator,
                        peer,
                        subop: coord_subop,
                        verdict: lv,
                        invalidated: false,
                    }],
                    Io::Journal { op_id },
                    out,
                );
            }
            Payload::MigrateBack { op_id, install, .. } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                // Re-install the shipped images: apply the sub-op whose
                // effect they carry. A `None` install means the central
                // execution failed and the objects return unchanged.
                let verdict = match install {
                    Some(subop) => match self.apply_with_injection(&subop) {
                        Ok(_) => Verdict::Yes,
                        Err(_) => Verdict::No,
                    },
                    None => Verdict::No,
                };
                self.stats.subops_executed += 1;
                self.log(
                    vec![Record::Commit { op_id }],
                    Io::Reinstall {
                        op_id,
                        coordinator: coord,
                        verdict,
                    },
                    out,
                );
            }
            Payload::MigrateBackAck { op_id, verdict } => {
                let Some(mut m) = self.migrations.remove(&op_id) else {
                    return;
                };
                let ok = m.verdict == Some(Verdict::Yes) && verdict.is_yes();
                if !ok {
                    if let Some(undo) = m.undo.take() {
                        self.store.undo(undo);
                    }
                    self.stats.ops_aborted += 1;
                } else {
                    self.stats.ops_committed += 1;
                }
                self.wal.prune_op(&op_id);
                out.push(Action::Send {
                    to: Endpoint::Proc(op_id.proc),
                    payload: Payload::OpResp {
                        op_id,
                        outcome: if ok {
                            OpOutcome::Applied
                        } else {
                            OpOutcome::Failed
                        },
                    },
                });
                self.release(op_id, out);
                let v = self.trigger.on_pending(now);
                self.apply_trigger(v, out);
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
            Io::Journal { op_id } => {
                let Some(m) = self.migrations.get(&op_id) else {
                    return;
                };
                let Some((parti, parti_subop)) = m.plan.participant else {
                    return;
                };
                // If the local execution failed, the migrate-back carries
                // nothing to install; the participant still acks so the
                // coordinator can answer the client.
                let objs: Vec<ObjectId> = parti_subop.objects().iter().collect();
                let install = (m.verdict == Some(Verdict::Yes)).then_some(parti_subop);
                out.push(Action::Send {
                    to: Endpoint::Server(parti),
                    payload: Payload::MigrateBack {
                        op_id,
                        objs: if install.is_some() { objs } else { Vec::new() },
                        install,
                    },
                });
            }
            Io::Reinstall {
                op_id,
                coordinator,
                verdict,
            } => {
                self.release(op_id, out);
                self.wal.prune_op(&op_id);
                out.push(Action::Send {
                    to: Endpoint::Server(coordinator),
                    payload: Payload::MigrateBackAck { op_id, verdict },
                });
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
            && self.migrations.is_empty()
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
        // CE migrates ops to one server instead of committing across two;
        // every completed migration behaves like an immediate round.
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
            pending_batch_ops: self.migrations.len() as u64,
        }
    }
}
