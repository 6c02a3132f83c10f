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

use crate::action::{Action, Endpoint, ServerEngine};
use crate::chassis::{resolved_records, respond, Chassis};
use crate::stats::ServerStats;
use cx_mdstore::{MetaStore, Undo};
use cx_simio::object_page;
use cx_types::FxHashMap;
use cx_types::{
    ClusterConfig, Hint, ObjectId, OpId, Payload, ProcId, ServerId, SimTime, SubOp, Verdict,
};
use cx_wal::Wal;

enum SeIo {
    /// Sync DB write (or batched log flush) done: answer the client.
    Respond { op_id: OpId, verdict: Verdict },
    /// CLEAR rollback persisted: acknowledge it.
    ClearDone { op_id: OpId },
}

/// The SE metadata server.
pub struct SeServer {
    ch: Chassis<SeIo>,
    /// OFS-batched logs every update for the batched write-back; OFS
    /// keeps no log.
    batched: bool,
    /// Undo state for the most recent operation of each process (the only
    /// one a CLEAR can target, since processes issue ops sequentially).
    last_undo: FxHashMap<ProcId, (OpId, [Undo; 2])>,
}

/// The database page a synchronous per-sub-op write goes to.
fn sync_page(subop: &SubOp) -> u64 {
    let first = subop.objects().iter().next();
    first.map(|o| object_page(&o)).unwrap_or(0)
}

impl SeServer {
    pub fn new(id: ServerId, cfg: &ClusterConfig, batched: bool) -> Self {
        let log_limit = cfg.cx.log_limit_bytes.filter(|_| batched);
        Self {
            ch: Chassis::new(cfg, 0x5e00_0000 ^ id.0 as u64, log_limit),
            batched,
            last_undo: FxHashMap::default(),
        }
    }

    fn on_subop(
        &mut self,
        now: SimTime,
        op_id: OpId,
        subop: SubOp,
        colocated: Option<SubOp>,
        out: &mut Vec<Action>,
    ) {
        if !subop.is_write() && colocated.is_none() {
            self.ch.serve_read(op_id, &subop, Hint::null(), out);
            return;
        }
        let (verdict, undos) = self.ch.apply_all(&subop, colocated.as_ref());
        self.ch.stats.subops_executed += 1;
        self.last_undo.insert(op_id.proc, (op_id, undos));
        let cont = SeIo::Respond { op_id, verdict };

        if self.batched {
            // OFS-batched: log the update, respond when the group-committed
            // flush lands, write back in batches.
            let recs = resolved_records(op_id, subop, verdict);
            if !self.ch.wal.has_room(recs[0].encoded_len()) {
                // Log full: flush and prune synchronously (every record is
                // immediately prunable in SE), then append.
                self.ch.stats.log_full_blocks += 1;
                self.ch.write_back(out);
            }
            self.ch.log(recs, cont, out).expect("log just pruned");
            self.ch.note_pending(now, out);
        } else {
            // OFS: synchronous database write per sub-op. The objects are
            // written through, not left dirty.
            let mut objs: Vec<ObjectId> = subop.objects().iter().collect();
            if let Some(c) = colocated {
                objs.extend(c.objects().iter());
            }
            let _ = self.ch.store.take_dirty_pages_of(objs);
            self.ch.sync_write(sync_page(&subop), None, cont, out);
        }
    }

    fn on_clear(&mut self, op_id: OpId, subop: SubOp, out: &mut Vec<Action>) {
        // Only the op we remember can be withdrawn; one already superseded
        // has nothing left to undo.
        if self.last_undo.get(&op_id.proc).map(|(op, _)| *op) == Some(op_id) {
            let (_, undos) = self.last_undo.remove(&op_id.proc).expect("just seen");
            for u in undos.into_iter().rev() {
                self.ch.store.undo(u);
            }
        }
        if self.batched {
            // the rollback rides the next batched flush
            out.push(Action::Send {
                to: Endpoint::Proc(op_id.proc),
                payload: Payload::ClearResp { op_id },
            });
        } else {
            let _ = self.ch.store.take_dirty_pages();
            let cont = SeIo::ClearDone { op_id };
            self.ch.sync_write(sync_page(&subop), None, cont, out);
        }
    }
}

impl ServerEngine for SeServer {
    fn on_msg(&mut self, now: SimTime, _from: Endpoint, payload: Payload, out: &mut Vec<Action>) {
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

    fn on_disk_done(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        match self.ch.disk_done(now, token) {
            Some(SeIo::Respond { op_id, verdict }) => respond(op_id, verdict, Hint::null(), out),
            Some(SeIo::ClearDone { op_id }) => out.push(Action::Send {
                to: Endpoint::Proc(op_id.proc),
                payload: Payload::ClearResp { op_id },
            }),
            None => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        self.ch.on_timer(now, token, out);
    }

    fn quiesce(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.ch.fire(now, out);
    }

    fn is_quiesced(&self) -> bool {
        self.ch.idle()
    }

    fn store(&self) -> &MetaStore {
        &self.ch.store
    }

    fn store_mut(&mut self) -> &mut MetaStore {
        &mut self.ch.store
    }

    fn wal(&self) -> Option<&Wal> {
        self.batched.then_some(&self.ch.wal)
    }

    fn stats(&self) -> &ServerStats {
        &self.ch.stats
    }

    fn obs_gauges(&self) -> cx_obs::EngineGauges {
        let (parked, writebacks) = self.ch.in_flight();
        cx_obs::EngineGauges {
            // SE has no pending-op concept; in-flight IO is the closest
            // analogue of uncommitted work.
            active_objects: 0,
            pending_batch_ops: parked as u64 + writebacks,
        }
    }
}
