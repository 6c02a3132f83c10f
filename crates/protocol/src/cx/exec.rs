//! Execution phase: sub-op requests, conflict detection, blocking and
//! unblocking (§III-B and §III-C).

use super::{CxServer, IoCont, PendingOp, QueuedReq, NO_BATCH};
use crate::action::{Action, Endpoint};
use crate::chassis::resolved_records;
use cx_types::{Hint, OpId, Payload, Role, SimTime, SubOp, Verdict};
use cx_wal::Record;

impl CxServer {
    /// Entry point for a sub-op request (fresh arrival, unblock
    /// re-dispatch, or invalidation re-queue — all go through the same
    /// conflict check, which is what makes chained conflicts correct).
    pub(crate) fn handle_request(&mut self, now: SimTime, req: QueuedReq, out: &mut Vec<Action>) {
        // Conflict check: does the request access an active object of
        // another process's pending operation? (A process never conflicts
        // with itself: its metadata operations are synchronous, §III-B.)
        if let Some(holder) = self.find_conflict(&req) {
            self.block_on(now, holder, req, out);
            return;
        }
        self.execute(now, req, out);
    }

    /// First pending operation of another process holding an object this
    /// request touches active.
    fn find_conflict(&self, req: &QueuedReq) -> Option<OpId> {
        let check = |subop: &SubOp| -> Option<OpId> {
            let holder = self.pending.holder(&subop.conflict_object())?;
            (holder.proc != req.op_id.proc).then_some(holder)
        };
        check(&req.subop).or_else(|| req.colocated.as_ref().and_then(check))
    }

    /// Block `req` behind `holder` and ask for an immediate commitment of
    /// the pending operation ("the servers should immediately launch a
    /// commitment for the cross-server operation", §I).
    fn block_on(&mut self, now: SimTime, holder: OpId, mut req: QueuedReq, out: &mut Vec<Action>) {
        if !req.counted {
            self.ch.stats.conflicts += 1;
            self.ch.stats.blocked_requests += 1;
            self.metrics.conflicts_ordered += 1;
            req.counted = true;
        }
        self.blocked.entry(holder).or_default().push(req);
        self.request_immediate(now, holder, out);
    }

    /// Launch (or ask the coordinator to launch) an immediate commitment
    /// for `op` — just this operation, as in Figure 3's conflict handling.
    /// (Log-pressure commitments sweep the whole lazy queue instead; see
    /// `on_log_full`.)
    pub(crate) fn request_immediate(&mut self, now: SimTime, op: OpId, out: &mut Vec<Action>) {
        let Some(p) = self.pending.get(&op) else {
            return;
        };
        if p.in_commitment {
            return; // already being resolved
        }
        match p.role {
            Role::Coordinator => {
                self.launch_commitment(now, &[op], true, out);
            }
            Role::Participant => {
                // DESIGN.md §5.6: the participant detected the conflict
                // first; notify the coordinator with a C-REQ.
                if let Some(coord) = p.peer {
                    self.send(
                        Endpoint::Server(coord),
                        Payload::CommitmentReq {
                            pending: op,
                            sweep: false,
                        },
                        out,
                    );
                }
            }
        }
    }

    /// Execute a request whose objects are free.
    fn execute(&mut self, now: SimTime, req: QueuedReq, out: &mut Vec<Action>) {
        let cross_server = req.peer.is_some();
        if !req.subop.is_write() && !cross_server {
            let hint = Hint(req.hint_ops);
            self.ch.serve_read(req.op_id, &req.subop, hint, out);
            return;
        }
        if cross_server {
            self.execute_cross_server(now, req, out);
        } else {
            self.execute_local(now, req, out);
        }
    }

    /// A mutation whose two halves both live here (or a single-server
    /// setattr): atomic locally, no commitment needed. Result- and
    /// Commit-Records are logged together; the write-back rides the next
    /// batch.
    fn execute_local(&mut self, now: SimTime, req: QueuedReq, out: &mut Vec<Action>) {
        // Reserve log space before touching the store: a request parked on
        // a full log is re-executed after pruning and must find the store
        // as it was.
        if !self.log_has_room(&req) {
            self.on_log_full(now, req, out);
            return;
        }
        let (verdict, _) = self.ch.apply_all(&req.subop, req.colocated.as_ref());
        self.ch.stats.local_mutations += 1;
        // Log Result + Commit/Abort together; prunable immediately, pruned
        // at the next write-back.
        let cont = IoCont::LocalDurable {
            op_id: req.op_id,
            verdict,
            hint: Hint(req.hint_ops),
        };
        self.log(resolved_records(req.op_id, req.subop, verdict), cont, out)
            .expect("room checked above");
        self.note_local_pending(now, req.op_id, out);
    }

    /// One half of a cross-server operation.
    fn execute_cross_server(&mut self, now: SimTime, req: QueuedReq, out: &mut Vec<Action>) {
        // Reserve log space before touching the store so a full log leaves
        // no side effects.
        if !self.log_has_room(&req) {
            self.on_log_full(now, req, out);
            return;
        }

        let (verdict, undo) = self.ch.execute(&req.subop);

        self.pending.insert(
            req.op_id,
            PendingOp {
                role: req.role,
                peer: req.peer,
                subop: req.subop,
                verdict,
                undo: undo
                    .filter(|u| !matches!(u, cx_mdstore::Undo::Nothing))
                    .map(|u| u.prior_row()),
                durable: false,
                in_commitment: false,
                reply_to_client: false,
                recovered: false,
                batch: NO_BATCH,
                logged_at: now,
            },
        );
        if verdict.is_yes() {
            // The modified object becomes active until the commitment
            // (§III-B: "the lazy commitment may leave some active objects
            // that are not achieved agreement among the affected servers").
            self.pending.activate(req.op_id);
        }

        let rec = Record::Result {
            op_id: req.op_id,
            role: req.role,
            peer: req.peer,
            subop: req.subop,
            verdict,
            invalidated: false,
        };
        // The response waits for durability; its hint rides along.
        let cont = IoCont::ResultDurable {
            op_id: req.op_id,
            hint: Hint(req.hint_ops),
        };
        self.log([rec], cont, out).expect("room checked above");
    }

    /// Whether the log can take `req`'s Result-Record — the only record
    /// kind the size limit applies to.
    fn log_has_room(&self, req: &QueuedReq) -> bool {
        let probe = Record::Result {
            op_id: req.op_id,
            role: req.role,
            peer: req.peer,
            subop: req.subop,
            verdict: Verdict::Yes,
            invalidated: false,
        };
        self.ch.wal.has_room(probe.encoded_len())
    }

    /// The log hit its upper limit: park the request and force commitments
    /// so pruning can free space (§III-D: "when the log becomes full, a
    /// server must block the new-arrival sub-op requests and perform
    /// pruning"). Figure 7(a) measures exactly this effect.
    fn on_log_full(&mut self, now: SimTime, req: QueuedReq, out: &mut Vec<Action>) {
        self.ch.stats.log_full_blocks += 1;
        self.log_wait.push_back(req);
        // Commit everything we coordinate…
        self.launch_lazy_batch(now, out);
        // …and nudge the coordinators of everything we participate in —
        // one C-REQ per coordinator suffices, since a nudged coordinator
        // sweeps its whole lazy queue into the commitment.
        let mut per_coordinator: std::collections::BTreeMap<cx_types::ServerId, OpId> =
            std::collections::BTreeMap::new();
        for (op, p) in self.pending.iter() {
            if p.role == Role::Participant && !p.in_commitment {
                if let Some(coord) = p.peer {
                    let entry = per_coordinator.entry(coord).or_insert(*op);
                    *entry = (*entry).min(*op); // the pick is the least id, whatever the walk order
                }
            }
        }
        for (coord, op) in per_coordinator {
            self.send(
                Endpoint::Server(coord),
                Payload::CommitmentReq {
                    pending: op,
                    sweep: true,
                },
                out,
            );
        }
        // Also reclaim anything already prunable.
        self.ch.wal.prune_all();
    }

    /// Retry requests parked on log space.
    pub(crate) fn drain_log_wait(&mut self, now: SimTime, out: &mut Vec<Action>) {
        while let Some(front) = self.log_wait.front() {
            if !self.log_has_room(front) {
                break;
            }
            let req = self.log_wait.pop_front().expect("non-empty");
            self.handle_request(now, req, out);
        }
    }

    /// A pending operation finished its commitment: release its active
    /// objects and re-dispatch everything blocked behind it, extending
    /// their conflict hints with the completed operation (§III-C step 7a:
    /// each later response "contains a conflict hint of [A]").
    pub(crate) fn release_op(&mut self, now: SimTime, op: OpId, out: &mut Vec<Action>) {
        self.pending.release(op);
        if let Some(waiters) = self.blocked.remove(&op) {
            for mut req in waiters {
                req.hint_ops.push(op);
                self.metrics.hint_resolved += 1;
                self.handle_request(now, req, out);
            }
        }
        self.drain_log_wait(now, out);
    }

    /// Remove a blocked request for `op` (the operation was aborted by a
    /// commitment while its other half never executed here).
    pub(crate) fn drop_blocked_request(&mut self, op: OpId) -> Option<QueuedReq> {
        for queue in self.blocked.values_mut() {
            if let Some(pos) = queue.iter().position(|r| r.op_id == op) {
                return Some(queue.remove(pos));
            }
        }
        None
    }

    /// Find which pending operation a blocked request for `op` waits on.
    pub(crate) fn blocked_behind(&self, op: OpId) -> Option<OpId> {
        for (holder, queue) in &self.blocked {
            if queue.iter().any(|r| r.op_id == op) {
                return Some(*holder);
            }
        }
        None
    }
}
