//! Commitment phase: lazy batches, immediate commitments, votes,
//! decisions, acknowledgements, and the L-COM/ALL-NO client exchange
//! (§III-B steps 3–7, §III-C).

use super::{
    BatchPhase, CommitBatch, CxServer, IoCont, PendingOp, QueuedReq, NO_BATCH, ORPHAN_TIMER_BIT,
    VOTE_TIMER_BIT,
};
use crate::action::{Action, Endpoint};
use crate::chassis::respond;
use cx_types::{Hint, OpId, Payload, Role, ServerId, SimTime, Verdict};
use cx_wal::{Outcome, Record};
use std::collections::BTreeMap;

/// Largest number of operations in one batched commitment message.
const COMMIT_BATCH_MAX: usize = 4096;

impl CxServer {
    // ------------------------------------------------------------------
    // disk completions
    // ------------------------------------------------------------------

    pub(crate) fn dispatch_io(&mut self, now: SimTime, cont: IoCont, out: &mut Vec<Action>) {
        match cont {
            IoCont::ResultDurable { op_id, hint } => {
                let Some(p) = self.pending.get_mut(&op_id) else {
                    return;
                };
                p.durable = true;
                let (verdict, role) = (p.verdict, p.role);
                respond(op_id, verdict, hint, out);
                if role == Role::Coordinator {
                    self.lazy_queue.push(op_id);
                    self.note_pending(now, out);
                }
                if let Some(coord) = self.deferred_votes.remove(&op_id) {
                    self.send_vote_result(coord, vec![(op_id, verdict)], out);
                }
            }
            IoCont::LocalDurable {
                op_id,
                verdict,
                hint,
            } => respond(op_id, verdict, hint, out),
            IoCont::DecisionDurable { batch } => {
                let Some(b) = self.batches.get_mut(&batch) else {
                    return;
                };
                b.phase = BatchPhase::AwaitingAck;
                let to = b.participant;
                let commits = self.op_pool.get_copied(&b.commits);
                let aborts = self.op_pool.get_copied(&b.aborts);
                self.send(
                    Endpoint::Server(to),
                    Payload::CommitDecision { commits, aborts },
                    out,
                );
            }
            IoCont::OutcomeDurable {
                coordinator,
                commits,
                aborts,
            } => {
                let mut acked = self.op_pool.get();
                let mut objs = Vec::new();
                for (op, _outcome) in commits
                    .iter()
                    .map(|o| (*o, Outcome::Committed))
                    .chain(aborts.iter().map(|o| (*o, Outcome::Aborted)))
                {
                    acked.push(op);
                    if let Some(p) = self.pending.get(&op) {
                        objs.extend(p.subop.objects().iter());
                    }
                    self.ch.wal.prune_op(&op);
                    self.release_op(now, op, out);
                    self.pending.remove(&op);
                    let newest = self.resolved_upto.entry(op.proc).or_insert(op.seq);
                    *newest = (*newest).max(op.seq);
                    self.note_recovery_progress(now, op, out);
                }
                self.send(
                    Endpoint::Server(coordinator),
                    Payload::Ack { ops: acked },
                    out,
                );
                // The decision's buffers drain here; recycle them.
                self.op_pool.put(commits);
                self.op_pool.put(aborts);
                self.ch.flush_dirty_of(objs, out);
            }
            IoCont::CompleteDurable { batch } => {
                let Some(b) = self.batches.remove(&batch) else {
                    return;
                };
                let mut objs = Vec::new();
                for op in b.commits.iter().chain(b.aborts.iter()) {
                    if let Some(p) = self.pending.get(op) {
                        objs.extend(p.subop.objects().iter());
                    }
                }
                for &op in &b.commits {
                    self.finish_op(now, op, Outcome::Committed, out);
                }
                for &op in &b.aborts {
                    self.finish_op(now, op, Outcome::Aborted, out);
                }
                let CommitBatch {
                    ops,
                    commits,
                    aborts,
                    ..
                } = b;
                self.op_pool.put(ops);
                self.op_pool.put(commits);
                self.op_pool.put(aborts);
                self.ch.flush_dirty_of(objs, out);
                self.drain_log_wait(now, out);
            }
            IoCont::RecoveryScanDone => self.on_recovery_scan_done(now, out),
            IoCont::RecoveryReadsDone => {
                self.recovery_reads_pending = false;
                self.maybe_finish_recovery(now, out);
            }
        }
    }

    /// Coordinator-side completion of one operation.
    fn finish_op(&mut self, now: SimTime, op: OpId, outcome: Outcome, out: &mut Vec<Action>) {
        match outcome {
            Outcome::Committed => self.ch.stats.ops_committed += 1,
            Outcome::Aborted => self.ch.stats.ops_aborted += 1,
        }
        self.obs
            .op_phase(op, cx_obs::Phase::Completed, now, Some(self.id));
        self.release_op(now, op, out);
        if let Some(p) = self.pending.remove(&op) {
            self.recent_outcomes.insert(op.proc, (op, outcome));
            if p.reply_to_client {
                let payload = match outcome {
                    Outcome::Committed => Payload::Committed { op_id: op },
                    // "ALL-NO … implies that all successful execution on
                    // affected servers have been aborted" (step 7b).
                    Outcome::Aborted => Payload::AllNo { op_id: op },
                };
                self.send(Endpoint::Proc(op.proc), payload, out);
            }
        }
        self.ch.wal.prune_op(&op);
        self.note_recovery_progress(now, op, out);
    }

    // ------------------------------------------------------------------
    // lazy batching and triggers
    // ------------------------------------------------------------------

    /// An operation joined a lazy queue; launch the batch if that fires
    /// the trigger.
    fn note_pending(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.ch.pending_fires(now, out) {
            self.launch_lazy_batch(now, out);
        }
    }

    pub(crate) fn on_trigger_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        if self.ch.timer_fires(now, token, out) {
            self.launch_lazy_batch(now, out);
        }
    }

    /// A local mutation joined the batch queue (its write-back and pruning
    /// ride the next lazy batch).
    pub(crate) fn note_local_pending(&mut self, now: SimTime, op: OpId, out: &mut Vec<Action>) {
        self.lazy_local.push(op);
        self.note_pending(now, out);
    }

    /// Launch commitments for everything queued: cross-server operations
    /// grouped per participant ("a large number of postponed commitments
    /// can be batched", §I), local mutations flushed and pruned.
    pub(crate) fn launch_lazy_batch(&mut self, now: SimTime, out: &mut Vec<Action>) {
        // One spare buffer serves both queues in turn: each is swapped for
        // an empty one, walked, cleared and passed on.
        let mut buf = std::mem::replace(&mut self.lazy_queue, std::mem::take(&mut self.lazy_spare));
        if !buf.is_empty() {
            self.launch_commitment(now, &buf, false, out);
            buf.clear();
        }
        std::mem::swap(&mut buf, &mut self.lazy_local);
        if !buf.is_empty() {
            for op in &buf {
                self.ch.wal.prune_op(op);
            }
            self.ch.flush_dirty(out);
            self.drain_log_wait(now, out);
            buf.clear();
        }
        self.lazy_spare = buf;
        self.ch.trigger.on_batch_launched(now);
    }

    /// Start a commitment for coordinator-role pending operations.
    pub(crate) fn launch_commitment(
        &mut self,
        now: SimTime,
        ops: &[OpId],
        immediate: bool,
        out: &mut Vec<Action>,
    ) {
        // Group by participant; skip ops already being committed. Marking
        // `in_commitment` as we group also deduplicates: the same op can
        // legitimately appear twice in `ops` (explicitly plus swept from
        // the lazy queue), and a duplicate in a batch would wait for a
        // vote count the participant can never reach.
        let mut groups: BTreeMap<ServerId, Vec<OpId>> = BTreeMap::new();
        for &op in ops {
            let Some(p) = self.pending.get_mut(&op) else {
                continue;
            };
            if p.in_commitment || p.role != Role::Coordinator {
                continue;
            }
            let Some(peer) = p.peer else { continue };
            p.in_commitment = true;
            let slot = groups.entry(peer).or_insert_with(|| self.op_pool.get());
            slot.push(op);
        }
        for (participant, group) in groups {
            self.lazy_queue.retain(|op| !group.contains(op));
            for chunk in group.chunks(COMMIT_BATCH_MAX) {
                let batch_id = self.next_batch;
                self.next_batch += 1;
                for op in chunk {
                    let p = self.pending.get_mut(op).expect("grouped from pending");
                    p.batch = batch_id;
                }
                let batch_ops = self.op_pool.get_copied(chunk);
                self.batches.insert(
                    batch_id,
                    CommitBatch {
                        participant,
                        ops: batch_ops,
                        votes: BTreeMap::new(),
                        phase: BatchPhase::Voting,
                        commits: self.op_pool.get(),
                        aborts: self.op_pool.get(),
                    },
                );
                if immediate {
                    self.ch.stats.immediate_commitments += 1;
                } else {
                    self.ch.stats.lazy_batches += 1;
                }
                let oldest = chunk
                    .iter()
                    .filter_map(|op| self.pending.get(op).map(|p| p.logged_at.0))
                    .min()
                    .unwrap_or(now.0);
                self.metrics.commitment_round(
                    chunk.len() as u64,
                    immediate,
                    now.0.saturating_sub(oldest),
                );
                // The coordinator's execution order: operations queued here
                // behind the voted ones have demonstrably not executed at
                // this coordinator, so the participant may invalidate them
                // to match our order (§III-C step 3).
                let mut order_after = self.op_pool.get();
                order_after.extend(
                    chunk
                        .iter()
                        .flat_map(|op| self.blocked.get(op).into_iter().flatten())
                        .map(|req| req.op_id),
                );
                let vote_ops = self.op_pool.get_copied(chunk);
                self.send(
                    Endpoint::Server(participant),
                    Payload::Vote {
                        ops: vote_ops,
                        order_after,
                    },
                    out,
                );
                self.arm_batch_retry(batch_id, out);
            }
            self.op_pool.put(group);
        }
    }

    /// Arm the commitment re-drive timer for a batch, when enabled. The
    /// paper's protocol never retransmits (servers are assumed not to
    /// fail); under injected crashes the timer re-sends the idempotent
    /// VOTE / COMMIT-REQ so a batch whose message died with a crashed
    /// participant incarnation eventually completes.
    pub(crate) fn arm_batch_retry(&mut self, batch_id: u64, out: &mut Vec<Action>) {
        let Some(delay_ns) = self.cfg.commit_retry_timeout_ns else {
            return;
        };
        out.push(Action::SetTimer {
            token: super::BATCH_TIMER_BIT | batch_id,
            delay_ns,
        });
    }

    /// The commitment re-drive timer fired: if the batch is still alive,
    /// re-send its in-flight message and re-arm.
    pub(crate) fn on_batch_retry_timer(&mut self, batch_id: u64, out: &mut Vec<Action>) {
        if !self.batches.contains_key(&batch_id) {
            return; // completed; retries stop
        }
        self.redrive_batch(batch_id, out);
        self.arm_batch_retry(batch_id, out);
    }

    // ------------------------------------------------------------------
    // participant side: votes and decisions
    // ------------------------------------------------------------------

    /// VOTE received: answer from the Result-Record (§III-B step 4), or —
    /// disordered conflict — enforce the coordinator's execution order by
    /// invalidating the conflicting later execution (§III-C step 4).
    pub(crate) fn on_vote(
        &mut self,
        now: SimTime,
        coord: ServerId,
        ops: Vec<OpId>,
        order_after: Vec<OpId>,
        out: &mut Vec<Action>,
    ) {
        let mut ready = Vec::new();
        for &op in &ops {
            if let Some(p) = self.pending.get_mut(&op) {
                if p.durable {
                    p.in_commitment = true;
                    ready.push((op, p.verdict));
                } else {
                    // Result-Record still flushing; vote when durable.
                    self.deferred_votes.insert(op, coord);
                }
                continue;
            }
            if let Some(holder) = self.blocked_behind(op) {
                self.resolve_blocked_vote(now, coord, op, holder, &order_after, out);
                continue;
            }
            if self
                .resolved_upto
                .get(&op.proc)
                .is_some_and(|&seq| op.seq <= seq)
            {
                // A VOTE redelivered after its round finished here: the
                // coordinator has (or will have) our ACK and reads no more
                // votes for this op. Answering would leave a NO entry that
                // nothing ever resolves.
                continue;
            }
            // Never saw this sub-op. Most likely its request is still in
            // flight from the client (both halves are sent concurrently):
            // defer the vote; if the request never shows up within the
            // grace period, presume the client died and vote NO.
            self.deferred_votes.insert(op, coord);
            let token = VOTE_TIMER_BIT | self.ch.token();
            self.vote_timers.insert(token, (coord, op));
            out.push(Action::SetTimer {
                token,
                delay_ns: self.cfg.presumed_abort_timeout_ns,
            });
        }
        if !ready.is_empty() {
            self.send_vote_result(coord, ready, out);
        }
        // Both batch buffers came from the coordinator's pool; they refill
        // this server's own sends from here on.
        self.op_pool.put(ops);
        self.op_pool.put(order_after);
    }

    /// The op being voted on is blocked here behind `holder`.
    fn resolve_blocked_vote(
        &mut self,
        now: SimTime,
        coord: ServerId,
        op: OpId,
        holder: OpId,
        order_after: &[OpId],
        out: &mut Vec<Action>,
    ) {
        let holder_committing = self
            .pending
            .get(&holder)
            .map(|p| p.in_commitment)
            .unwrap_or(false);
        self.deferred_votes.insert(op, coord);
        if holder_committing || !order_after.contains(&holder) {
            // Either the holder's commitment is already in flight, or the
            // coordinator did not certify that the holder is queued behind
            // the voted op (so the holder may already be complete at its
            // client and must not be invalidated). Resolve by committing
            // the holder: once it finishes, `release_op` re-dispatches the
            // blocked request and the deferred vote fires after its
            // Result-Record flush. Vote-wait cycles across batches are
            // possible (x's vote waits on y's commitment whose vote waits
            // on x's batch), so the deferral carries a grace timer that
            // breaks the cycle with a NO vote.
            self.request_immediate(now, holder, out);
            let token = VOTE_TIMER_BIT | self.ch.token();
            self.vote_timers.insert(token, (coord, op));
            out.push(Action::SetTimer {
                token,
                delay_ns: self.cfg.presumed_abort_timeout_ns,
            });
            return;
        }
        // Disordered conflict: invalidate the holder's execution, re-queue
        // it as a new arrival, and execute the voted-on op first (Fig 3b).
        let Some(mut holder_pending) = self.pending.remove(&holder) else {
            return;
        };
        self.ch.stats.invalidations += 1;
        self.metrics.conflicts_disordered += 1;
        let _ = self.ch.wal.invalidate_result(&holder);
        if let Some(undo) = holder_pending.take_undo() {
            self.ch.store.undo(undo);
        }
        self.active.retain(|_, h| *h != holder);
        self.lazy_queue.retain(|o| *o != holder);

        // Everything blocked behind the holder runs now, the voted-on op
        // first; the invalidation did not *commit* the holder, so no hint
        // entry is added (the paper's Ep-A responds with [null]).
        let waiters = self.blocked.remove(&holder).unwrap_or_default();
        let (mut voted, rest): (Vec<QueuedReq>, Vec<QueuedReq>) =
            waiters.into_iter().partition(|r| r.op_id == op);
        for req in voted.drain(..) {
            self.handle_request(now, req, out);
        }
        for req in rest {
            self.handle_request(now, req, out);
        }
        // Re-queue the invalidated execution as a fresh arrival; it will
        // block behind the voted-on op's now-active objects and re-execute
        // with hint [op] after the commitment (Fig 3b's Ep-B → Rp[A]).
        let requeued = QueuedReq {
            op_id: holder,
            subop: holder_pending.subop,
            role: holder_pending.role,
            peer: holder_pending.peer,
            colocated: None,
            hint_ops: Vec::new(),
            counted: true,
        };
        self.handle_request(now, requeued, out);
    }

    /// The deferred-vote grace period expired: if the sub-op still has not
    /// executed here — it never arrived, or it is still blocked behind a
    /// commitment that may be cyclically waiting on this very vote — vote
    /// NO. A dropped blocked request is answered with a NO response so its
    /// client resolves through the disagreement path (L-COM → ALL-NO).
    pub(crate) fn on_vote_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        let Some((coord, op)) = self.vote_timers.remove(&token) else {
            return;
        };
        if self.pending.contains_key(&op) || self.deferred_votes.get(&op) != Some(&coord) {
            return; // executed meanwhile (or answered another way)
        }
        if self.drop_blocked_request(op).is_some() {
            respond(op, Verdict::No, Hint::null(), out);
        }
        self.vote_no_for_unknown(now, op, coord, out);
    }

    fn vote_no_for_unknown(
        &mut self,
        now: SimTime,
        op: OpId,
        coord: ServerId,
        out: &mut Vec<Action>,
    ) {
        let rec = Record::Result {
            op_id: op,
            role: Role::Participant,
            peer: Some(coord),
            subop: cx_types::SubOp::ReadInode {
                ino: cx_types::InodeNo(0),
            },
            verdict: Verdict::No,
            invalidated: false,
        };
        self.pending.insert(
            op,
            PendingOp {
                role: Role::Participant,
                peer: Some(coord),
                subop: cx_types::SubOp::ReadInode {
                    ino: cx_types::InodeNo(0),
                },
                verdict: Verdict::No,
                undo: None,
                durable: false,
                in_commitment: true,
                reply_to_client: false,
                recovered: false,
                batch: NO_BATCH,
                logged_at: now,
            },
        );
        self.deferred_votes.insert(op, coord);
        // A full log refuses the record: the vote stays deferred.
        let cont = IoCont::ResultDurable {
            op_id: op,
            hint: Hint::null(),
        };
        let _ = self.log([rec], cont, out);
    }

    fn send_vote_result(
        &mut self,
        coord: ServerId,
        results: Vec<(OpId, Verdict)>,
        out: &mut Vec<Action>,
    ) {
        for (op, _) in &results {
            if let Some(p) = self.pending.get_mut(op) {
                p.in_commitment = true;
            }
        }
        self.send(
            Endpoint::Server(coord),
            Payload::VoteResult { results },
            out,
        );
    }

    // ------------------------------------------------------------------
    // coordinator side: vote results, acks
    // ------------------------------------------------------------------

    /// Vote results arrived; when a batch has every vote, decide and log
    /// the decision (§III-B step 5).
    pub(crate) fn on_vote_result(
        &mut self,
        _now: SimTime,
        results: Vec<(OpId, Verdict)>,
        out: &mut Vec<Action>,
    ) {
        let mut touched = Vec::new();
        for (op, v) in results {
            let Some(batch_id) = self.pending.get(&op).and_then(PendingOp::batch) else {
                // look the batch up by membership (the pending entry can
                // be gone if the op was invalidated or already resolved)
                if let Some((id, _)) = self
                    .batches
                    .iter()
                    .find(|(_, b)| b.ops.contains(&op) && !b.votes.contains_key(&op))
                {
                    let id = *id;
                    if let Some(b) = self.batches.get_mut(&id) {
                        b.votes.insert(op, v);
                        if !touched.contains(&id) {
                            touched.push(id);
                        }
                    }
                }
                continue;
            };
            if let Some(b) = self.batches.get_mut(&batch_id) {
                b.votes.insert(op, v);
                if !touched.contains(&batch_id) {
                    touched.push(batch_id);
                }
            }
        }
        for batch_id in touched {
            let ready = {
                let b = &self.batches[&batch_id];
                b.phase == BatchPhase::Voting && b.votes.len() == b.ops.len()
            };
            if !ready {
                continue;
            }
            let (ops, votes) = {
                let b = self.batches.get_mut(&batch_id).expect("checked");
                // The vote tally is complete and never read again; the op
                // list is still needed for ACK routing, so copy it through
                // the pool.
                (
                    self.op_pool.get_copied(&b.ops),
                    std::mem::take(&mut b.votes),
                )
            };
            let mut commits = self.op_pool.get();
            let mut aborts = self.op_pool.get();
            let mut recs = self.rec_pool.get();
            for &op in &ops {
                let local_yes = self
                    .pending
                    .get(&op)
                    .map(|p| p.verdict.is_yes())
                    .unwrap_or(false);
                let participant_yes = votes.get(&op).map(|v| v.is_yes()).unwrap_or(false);
                if local_yes && participant_yes {
                    commits.push(op);
                    recs.push(Record::Commit { op_id: op });
                } else {
                    // Roll back our own successful execution, if any.
                    self.rollback_pending(&op);
                    aborts.push(op);
                    recs.push(Record::Abort { op_id: op });
                }
            }
            self.op_pool.put(ops);
            {
                let b = self.batches.get_mut(&batch_id).expect("checked");
                b.phase = BatchPhase::LoggingDecision;
                self.op_pool.put(std::mem::replace(&mut b.commits, commits));
                self.op_pool.put(std::mem::replace(&mut b.aborts, aborts));
            }
            let cont = IoCont::DecisionDurable { batch: batch_id };
            self.log(recs.drain(..), cont, out)
                .expect("control records are never limited");
            self.rec_pool.put(recs);
        }
    }

    /// COMMIT-REQ/ABORT-REQ at the participant (§III-B step 6).
    pub(crate) fn on_commit_decision(
        &mut self,
        _now: SimTime,
        coord: ServerId,
        commits: Vec<OpId>,
        aborts: Vec<OpId>,
        out: &mut Vec<Action>,
    ) {
        let mut recs = self.rec_pool.get();
        for &op in &commits {
            recs.push(Record::Commit { op_id: op });
        }
        for &op in &aborts {
            self.rollback_pending(&op);
            // An aborted operation whose sub-op request is still parked
            // here must not run after its abort; its client learns of the
            // abort through a NO response (→ disagreement → ALL-NO).
            if !self.pending.contains_key(&op) && self.drop_blocked_request(op).is_some() {
                respond(op, Verdict::No, Hint::null(), out);
            }
            recs.push(Record::Abort { op_id: op });
        }
        let cont = IoCont::OutcomeDurable {
            coordinator: coord,
            commits,
            aborts,
        };
        self.log(recs.drain(..), cont, out)
            .expect("control records are never limited");
        self.rec_pool.put(recs);
    }

    /// ACK at the coordinator: write Complete-Records (§III-B step 7).
    pub(crate) fn on_ack(&mut self, _now: SimTime, ops: Vec<OpId>, out: &mut Vec<Action>) {
        let batch_id = ops
            .iter()
            .find_map(|op| self.pending.get(op).and_then(PendingOp::batch))
            .or_else(|| {
                // Presumed-abort batches have no pending entry; find the
                // batch by membership.
                self.batches
                    .iter()
                    .find(|(_, b)| ops.iter().any(|op| b.ops.contains(op)))
                    .map(|(id, _)| *id)
            });
        let Some(batch_id) = batch_id else {
            return;
        };
        let Some(b) = self.batches.get_mut(&batch_id) else {
            return;
        };
        if b.phase != BatchPhase::AwaitingAck {
            return;
        }
        b.phase = BatchPhase::Completing;
        let mut recs = self.rec_pool.get();
        recs.extend(
            b.commits
                .iter()
                .chain(b.aborts.iter())
                .map(|op| Record::Complete { op_id: *op }),
        );
        let cont = IoCont::CompleteDurable { batch: batch_id };
        self.log(recs.drain(..), cont, out)
            .expect("control records are never limited");
        self.rec_pool.put(recs);
        self.op_pool.put(ops);
    }

    // ------------------------------------------------------------------
    // client-driven immediate commitments
    // ------------------------------------------------------------------

    /// L-COM: the client saw disagreeing verdicts (or stably mismatched
    /// hints) and asks for an immediate commitment (§III-B step 2b).
    pub(crate) fn on_lcom(&mut self, now: SimTime, op: OpId, out: &mut Vec<Action>) {
        if let Some(p) = self.pending.get_mut(&op) {
            p.reply_to_client = true;
            if !p.in_commitment {
                self.launch_commitment(now, &[op], true, out);
            }
            return;
        }
        // The commitment raced ahead of the L-COM. Look the outcome up.
        let outcome = match self.recent_outcomes.get(&op.proc) {
            Some((o, outcome)) if *o == op => *outcome,
            // A lazily committed operation only reaches completion with
            // matching YES votes, so commit is the sound default.
            _ => Outcome::Committed,
        };
        let payload = match outcome {
            Outcome::Committed => Payload::Committed { op_id: op },
            Outcome::Aborted => Payload::AllNo { op_id: op },
        };
        self.send(Endpoint::Proc(op.proc), payload, out);
    }

    /// C-REQ from the participant: it detected a conflict on an operation
    /// we coordinate (DESIGN.md §5.6).
    pub(crate) fn on_commitment_req(
        &mut self,
        now: SimTime,
        parti: ServerId,
        op: OpId,
        sweep: bool,
        out: &mut Vec<Action>,
    ) {
        if let Some(p) = self.pending.get(&op) {
            if p.role == Role::Coordinator && !p.in_commitment {
                if sweep {
                    // Log pressure at the participant: flush everything we
                    // have — the VOTE round costs the same for one op or
                    // many, and pruning needs outcomes for all of them.
                    let spare = std::mem::take(&mut self.lazy_spare);
                    let mut ops = std::mem::replace(&mut self.lazy_queue, spare);
                    ops.insert(0, op);
                    self.launch_commitment(now, &ops, true, out);
                    ops.clear();
                    self.lazy_spare = ops;
                } else {
                    self.launch_commitment(now, &[op], true, out);
                }
            }
            return;
        }
        // No record of this operation here. Most likely its sub-op request
        // is still in flight (the disordered scenario resolves it via
        // VOTE-driven invalidation); only if it never shows up within the
        // grace period do we presume the client died mid-operation and
        // abort the participant's orphaned half.
        if self.batches.values().any(|b| b.ops.contains(&op)) {
            return; // already resolving
        }
        match self.ch.wal.op_state(&op).and_then(|st| st.outcome) {
            Some(Outcome::Committed) => {
                let commits = self.op_vec1(op);
                let aborts = self.op_pool.get();
                self.send(
                    Endpoint::Server(parti),
                    Payload::CommitDecision { commits, aborts },
                    out,
                );
            }
            _ => {
                let token = ORPHAN_TIMER_BIT | self.ch.token();
                self.orphan_timers.insert(token, (parti, op));
                out.push(Action::SetTimer {
                    token,
                    delay_ns: self.cfg.presumed_abort_timeout_ns,
                });
            }
        }
    }

    /// The presumed-abort grace period for an unknown operation expired.
    pub(crate) fn on_orphan_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        let Some((parti, op)) = self.orphan_timers.remove(&token) else {
            return;
        };
        if let Some(p) = self.pending.get(&op) {
            // The operation showed up after all — but the participant is
            // still waiting for the commitment it asked for.
            if p.role == Role::Coordinator && !p.in_commitment {
                self.launch_commitment(now, &[op], true, out);
            }
            return;
        }
        if self.batches.values().any(|b| b.ops.contains(&op)) || self.ch.wal.op_state(&op).is_some()
        {
            return; // already resolving / already decided
        }
        self.ch.stats.immediate_commitments += 1;
        self.metrics.commitment_round(1, true, 0);
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let ops = self.op_vec1(op);
        let commits = self.op_pool.get();
        let aborts = self.op_vec1(op);
        self.batches.insert(
            batch_id,
            CommitBatch {
                participant: parti,
                ops,
                votes: BTreeMap::new(),
                phase: BatchPhase::LoggingDecision,
                commits,
                aborts,
            },
        );
        let cont = IoCont::DecisionDurable { batch: batch_id };
        self.log([Record::Abort { op_id: op }], cont, out)
            .expect("control records are never limited");
    }

    /// Re-send the in-flight message of a batch whose participant may have
    /// lost it in a crash. Safe because votes and decisions are idempotent.
    pub(crate) fn redrive_batch(&mut self, batch_id: u64, out: &mut Vec<Action>) {
        let Some(b) = self.batches.get(&batch_id) else {
            return;
        };
        match b.phase {
            BatchPhase::Voting => {
                let unvoted: Vec<OpId> = b
                    .ops
                    .iter()
                    .filter(|op| !b.votes.contains_key(op))
                    .copied()
                    .collect();
                if unvoted.is_empty() {
                    return;
                }
                let to = b.participant;
                let order_after: Vec<OpId> = unvoted
                    .iter()
                    .flat_map(|op| self.blocked.get(op).into_iter().flatten())
                    .map(|req| req.op_id)
                    .collect();
                self.send(
                    Endpoint::Server(to),
                    Payload::Vote {
                        ops: unvoted,
                        order_after,
                    },
                    out,
                );
            }
            BatchPhase::AwaitingAck => {
                let (to, commits, aborts) = (b.participant, b.commits.clone(), b.aborts.clone());
                self.send(
                    Endpoint::Server(to),
                    Payload::CommitDecision { commits, aborts },
                    out,
                );
            }
            // A local disk flush is in flight; it will progress on its own.
            BatchPhase::LoggingDecision | BatchPhase::Completing => {}
        }
    }

    /// Recovery: a rebooted participant asks for operation outcomes.
    pub(crate) fn on_query_outcome(
        &mut self,
        now: SimTime,
        parti: ServerId,
        ops: Vec<OpId>,
        out: &mut Vec<Action>,
    ) {
        let mut commits = Vec::new();
        let mut aborts = Vec::new();
        for op in ops {
            if let Some(p) = self.pending.get(&op) {
                if p.role == Role::Coordinator && !p.in_commitment {
                    self.launch_commitment(now, &[op], true, out);
                    continue;
                }
                // The op is already in a commitment batch — but the
                // querying participant just rebooted, so whatever message
                // that batch was waiting on (its vote) or had sent (its
                // decision) may have died with it. Re-drive the batch's
                // current phase idempotently.
                if let Some(batch_id) = p.batch() {
                    self.redrive_batch(batch_id, out);
                }
                continue;
            }
            match self.ch.wal.op_state(&op).and_then(|st| st.outcome) {
                Some(Outcome::Committed) => commits.push(op),
                Some(Outcome::Aborted) => aborts.push(op),
                None => match self.recent_outcomes.get(&op.proc) {
                    Some((o, Outcome::Committed)) if *o == op => commits.push(op),
                    Some((o, Outcome::Aborted)) if *o == op => aborts.push(op),
                    // Unknown everywhere: the operation never reached this
                    // coordinator — presumed abort.
                    _ => aborts.push(op),
                },
            }
        }
        if !commits.is_empty() || !aborts.is_empty() {
            self.send(
                Endpoint::Server(parti),
                Payload::CommitDecision { commits, aborts },
                out,
            );
        }
    }
}
