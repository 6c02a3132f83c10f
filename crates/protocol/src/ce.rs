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

use crate::action::{Action, Endpoint, ServerEngine};
use crate::chassis::{Chassis, Locks};
use crate::stats::ServerStats;
use cx_mdstore::{MetaStore, Undo};
use cx_types::FxHashMap;
use cx_types::{
    ClusterConfig, ObjectId, OpId, OpOutcome, OpPlan, Payload, Role, ServerId, SimTime, Verdict,
};
use cx_wal::{Record, Wal};

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
    ch: Chassis<Io>,
    migrations: FxHashMap<OpId, Migration>,
    locks: Locks<Waiting>,
}

impl CeServer {
    pub fn new(id: ServerId, cfg: &ClusterConfig) -> Self {
        Self {
            ch: Chassis::new(cfg, 0xce00_0000 ^ id.0 as u64, None),
            migrations: FxHashMap::default(),
            locks: Locks::default(),
        }
    }

    fn log(&mut self, rec: Record, cont: Io, out: &mut Vec<Action>) {
        self.ch.log([rec], cont, out).expect("CE log is unlimited");
    }

    // ---- coordinator ----

    fn on_op_req(&mut self, op_id: OpId, plan: OpPlan, out: &mut Vec<Action>) {
        let objs: Vec<ObjectId> = plan.coord_subop.conflict_objects().iter().collect();
        if let Err(holder) = self.locks.acquire(&objs, op_id) {
            let waiter = Waiting::OpReq { op_id, plan };
            self.locks.wait(holder, waiter, &mut self.ch.stats);
            return;
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
        // Objects leave this server until MIGRATE-BACK.
        if let Err(holder) = self.locks.acquire(&objs, op_id) {
            let waiter = Waiting::Migrate {
                op_id,
                objs,
                coordinator,
            };
            self.locks.wait(holder, waiter, &mut self.ch.stats);
            return;
        }
        out.push(Action::Send {
            to: Endpoint::Server(coordinator),
            payload: Payload::MigrateResp { op_id, objs },
        });
    }

    /// The objects are home again: unlock them and retry whoever waited.
    fn release(&mut self, op_id: OpId, out: &mut Vec<Action>) {
        for w in self.locks.release(op_id) {
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

impl ServerEngine for CeServer {
    fn on_start(&mut self, _now: SimTime, _out: &mut Vec<Action>) {}

    fn on_msg(&mut self, now: SimTime, from: Endpoint, payload: Payload, out: &mut Vec<Action>) {
        match payload {
            Payload::OpReq { op_id, plan } => self.on_op_req(op_id, plan, out),
            Payload::SubOpReq {
                op_id,
                subop,
                colocated,
                ..
            } => {
                let cont = |verdict| Io::Local { op_id, verdict };
                self.ch.on_local(now, op_id, subop, colocated, cont, out);
            }
            Payload::Migrate { op_id, objs } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                self.on_migrate(op_id, objs, coord, out);
            }
            Payload::MigrateResp { op_id, .. } => {
                // Objects arrived: execute both halves "locally", journal
                // the transaction, then migrate back.
                let Some(m) = self.migrations.get_mut(&op_id) else {
                    return;
                };
                let coord_subop = m.plan.coord_subop;
                let (lv, undo) = self.ch.execute(&coord_subop);
                m.undo = undo;
                m.verdict = Some(lv);
                let peer = m.plan.participant.map(|(s, _)| s);
                self.log(
                    Record::Result {
                        op_id,
                        role: Role::Coordinator,
                        peer,
                        subop: coord_subop,
                        verdict: lv,
                        invalidated: false,
                    },
                    Io::Journal { op_id },
                    out,
                );
            }
            Payload::MigrateBack { op_id, install, .. } => {
                let Endpoint::Server(coordinator) = from else {
                    return;
                };
                // Re-install the shipped images: apply the sub-op whose
                // effect they carry. A `None` install means the central
                // execution failed and the objects return unchanged.
                let verdict = match install {
                    Some(subop) => self.ch.execute(&subop).0,
                    None => {
                        self.ch.stats.subops_executed += 1;
                        Verdict::No
                    }
                };
                self.log(
                    Record::Commit { op_id },
                    Io::Reinstall {
                        op_id,
                        coordinator,
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
                        self.ch.store.undo(undo);
                    }
                    self.ch.stats.ops_aborted += 1;
                } else {
                    self.ch.stats.ops_committed += 1;
                }
                self.ch.wal.prune_op(&op_id);
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
                self.ch.note_pending(now, out);
            }
            _ => {}
        }
    }

    fn on_disk_done(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        let Some(cont) = self.ch.disk_done(now, token) else {
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
                self.ch.wal.prune_op(&op_id);
                out.push(Action::Send {
                    to: Endpoint::Server(coordinator),
                    payload: Payload::MigrateBackAck { op_id, verdict },
                });
                self.ch.note_pending(now, out);
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
        self.ch.idle() && self.migrations.is_empty() && self.locks.idle()
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

    fn proto_metrics(&self) -> crate::stats::ProtoMetrics {
        // CE migrates ops to one server instead of committing across two;
        // every completed migration behaves like an immediate round.
        crate::stats::ProtoMetrics {
            conflicts_ordered: self.ch.stats.conflicts,
            immediate_commitments: self.ch.stats.immediate_commitments,
            aborts: self.ch.stats.ops_aborted,
            wal_truncations: self.ch.wal.truncations(),
            ..Default::default()
        }
    }

    fn obs_gauges(&self) -> cx_obs::EngineGauges {
        cx_obs::EngineGauges {
            active_objects: self.locks.held() as u64,
            pending_batch_ops: self.migrations.len() as u64,
        }
    }
}
