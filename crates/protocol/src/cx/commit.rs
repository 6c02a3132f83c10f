//! Commitment phase: lazy batches, immediate commitments, votes,
//! decisions, acknowledgements, and the L-COM/ALL-NO client exchange
//! (§III-B steps 3–7, §III-C).

use super::{
    BatchPhase, CommitBatch, CxServer, IoCont, Member, PendingOp, QueuedReq, Tally, NO_BATCH,
    ORPHAN_TIMER_BIT, VOTE_TIMER_BIT,
};
use crate::action::{Action, Endpoint};
use crate::chassis::respond;
use cx_types::{Hint, OpId, Payload, Role, ServerId, SimTime, Verdict};
use cx_wal::{Outcome, Record};

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
                    let mut results = self.vote_pool.get();
                    results.push((op_id, verdict));
                    self.send_vote_result(coord, results, out);
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
                let commits = self.op_pool.collect(b.decided(Outcome::Committed));
                let aborts = self.op_pool.collect(b.decided(Outcome::Aborted));
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
                let acked = self.op_pool.collect(commits.iter().chain(&aborts).copied());
                let mut objs = std::mem::take(&mut self.scratch_objs);
                for &op in commits.iter().chain(&aborts) {
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
                self.flush_objs(objs, out);
            }
            IoCont::CompleteDurable { batch } => {
                let Some(b) = self.batches.remove(&batch) else {
                    return;
                };
                let mut objs = std::mem::take(&mut self.scratch_objs);
                for (op, _) in b.outcomes() {
                    if let Some(p) = self.pending.get(&op) {
                        objs.extend(p.subop.objects().iter());
                    }
                }
                for (op, outcome) in b.outcomes() {
                    self.finish_op(now, op, outcome, out);
                }
                self.member_pool.put(b.members);
                self.flush_objs(objs, out);
                self.drain_log_wait(now, out);
            }
            IoCont::RecoveryScanDone => self.on_recovery_scan_done(now, out),
            IoCont::RecoveryReadsDone => {
                self.recovery_reads_pending = false;
                self.maybe_finish_recovery(now, out);
            }
        }
    }

    /// Write back the dirty ones among `objs`, in order, and keep the
    /// emptied list as the next round's scratch.
    fn flush_objs(&mut self, mut objs: Vec<cx_types::ObjectId>, out: &mut Vec<Action>) {
        self.ch.flush_dirty_of(objs.drain(..), out);
        self.scratch_objs = objs;
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
        // vote count the participant can never reach. Groups go out in
        // participant order, each in `ops` order.
        let mut groups = std::mem::take(&mut self.scratch_groups);
        for (i, &op) in ops.iter().enumerate() {
            let Some(p) = self.pending.get_mut(&op) else {
                continue;
            };
            if p.in_commitment || p.role != Role::Coordinator {
                continue;
            }
            let Some(peer) = p.peer else { continue };
            p.in_commitment = true;
            groups.push((peer, i as u32));
        }
        groups.sort_unstable();
        for group in groups.chunk_by(|a, b| a.0 == b.0) {
            let participant = group[0].0;
            self.lazy_queue
                .retain(|op| !group.iter().any(|&(_, i)| ops[i as usize] == *op));
            for chunk in group.chunks(COMMIT_BATCH_MAX) {
                let batch_id = self.next_batch;
                self.next_batch += 1;
                let mut members = self.member_pool.get();
                let mut vote_ops = self.op_pool.get();
                members.reserve(chunk.len());
                vote_ops.reserve(chunk.len());
                let mut oldest = now.0;
                for op in chunk.iter().map(|&(_, i)| ops[i as usize]) {
                    let p = self.pending.get_mut(&op).expect("grouped from pending");
                    p.batch = batch_id;
                    oldest = oldest.min(p.logged_at.0);
                    members.push(Member {
                        op,
                        tally: Tally::Unvoted,
                    });
                    vote_ops.push(op);
                }
                self.batches.insert(
                    batch_id,
                    CommitBatch::new(participant, BatchPhase::Voting, members),
                );
                if immediate {
                    self.ch.stats.immediate_commitments += 1;
                } else {
                    self.ch.stats.lazy_batches += 1;
                }
                self.metrics.commitment_round(
                    chunk.len() as u64,
                    immediate,
                    now.0.saturating_sub(oldest),
                );
                // The coordinator's execution order: operations queued here
                // behind the voted ones have demonstrably not executed at
                // this coordinator, so the participant may invalidate them
                // to match our order (§III-C step 3).
                let order_after = self.op_pool.collect(
                    vote_ops
                        .iter()
                        .flat_map(|op| self.blocked.get(op).into_iter().flatten())
                        .map(|req| req.op_id),
                );
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
        }
        groups.clear();
        self.scratch_groups = groups;
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
        let mut ready = self.vote_pool.get();
        ready.reserve(ops.len());
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
        if ready.is_empty() {
            self.vote_pool.put(ready);
        } else {
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
        let mut touched = std::mem::take(&mut self.scratch_batches);
        for &(op, v) in &results {
            let batch_id = match self.pending.get(&op).and_then(PendingOp::batch) {
                Some(id) => id,
                // look the batch up by membership (the pending entry can
                // be gone if the op was invalidated or already resolved)
                None => match self.batches.iter_mut().find_map(|(id, b)| {
                    let m = b.member(&op)?;
                    (!matches!(m.tally, Tally::Voted(_))).then_some(*id)
                }) {
                    Some(id) => id,
                    None => continue,
                },
            };
            let Some(b) = self.batches.get_mut(&batch_id) else {
                continue;
            };
            let voting = b.phase == BatchPhase::Voting;
            let Some(m) = b.member(&op) else { continue };
            // A decided batch has read its votes; a late copy changes
            // nothing.
            if voting {
                let first = m.tally == Tally::Unvoted;
                m.tally = Tally::Voted(v);
                b.votes += usize::from(first);
            }
            if !touched.contains(&batch_id) {
                touched.push(batch_id);
            }
        }
        self.vote_pool.put(results);
        for &batch_id in &touched {
            let Some(b) = self.batches.get_mut(&batch_id) else {
                continue;
            };
            if b.phase != BatchPhase::Voting || b.votes < b.members.len() {
                continue;
            }
            b.phase = BatchPhase::LoggingDecision;
            b.votes = 0;
            let mut members = std::mem::take(&mut b.members);
            for m in &mut members {
                let local_yes = self
                    .pending
                    .get(&m.op)
                    .map(|p| p.verdict.is_yes())
                    .unwrap_or(false);
                let participant_yes = matches!(m.tally, Tally::Voted(v) if v.is_yes());
                if local_yes && participant_yes {
                    m.tally = Tally::Decided(Outcome::Committed);
                } else {
                    // Roll back our own successful execution, if any.
                    self.rollback_pending(&m.op);
                    m.tally = Tally::Decided(Outcome::Aborted);
                }
            }
            let recs = members.iter().map(|m| match m.tally {
                Tally::Decided(Outcome::Committed) => Record::Commit { op_id: m.op },
                _ => Record::Abort { op_id: m.op },
            });
            let cont = IoCont::DecisionDurable { batch: batch_id };
            self.log(recs, cont, out)
                .expect("control records are never limited");
            if let Some(b) = self.batches.get_mut(&batch_id) {
                b.members = members;
            }
        }
        touched.clear();
        self.scratch_batches = touched;
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
        for &op in &aborts {
            self.rollback_pending(&op);
            // An aborted operation whose sub-op request is still parked
            // here must not run after its abort; its client learns of the
            // abort through a NO response (→ disagreement → ALL-NO).
            if !self.pending.contains_key(&op) && self.drop_blocked_request(op).is_some() {
                respond(op, Verdict::No, Hint::null(), out);
            }
        }
        let recs = (commits.iter().map(|&op_id| Record::Commit { op_id }))
            .chain(aborts.iter().map(|&op_id| Record::Abort { op_id }));
        let appended = self
            .ch
            .append(recs)
            .expect("control records are never limited");
        let cont = IoCont::OutcomeDurable {
            coordinator: coord,
            commits,
            aborts,
        };
        self.flush(appended, cont, out);
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
                    .find(|(_, b)| ops.iter().any(|op| b.contains(op)))
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
        let recs = b.outcomes().map(|(op_id, _)| Record::Complete { op_id });
        let appended = self
            .ch
            .append(recs)
            .expect("control records are never limited");
        self.flush(appended, IoCont::CompleteDurable { batch: batch_id }, out);
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
        if self.batches.values().any(|b| b.contains(&op)) {
            return; // already resolving
        }
        match self.ch.wal.op_state(&op).and_then(|st| st.outcome) {
            Some(Outcome::Committed) => {
                let (commits, aborts) = (self.op_pool.collect([op]), Vec::new());
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
        if self.batches.values().any(|b| b.contains(&op)) || self.ch.wal.op_state(&op).is_some() {
            return; // already resolving / already decided
        }
        self.ch.stats.immediate_commitments += 1;
        self.metrics.commitment_round(1, true, 0);
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let mut members = self.member_pool.get();
        members.push(Member {
            op,
            tally: Tally::Decided(Outcome::Aborted),
        });
        self.batches.insert(
            batch_id,
            CommitBatch::new(parti, BatchPhase::LoggingDecision, members),
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
                    .members
                    .iter()
                    .filter(|m| m.tally == Tally::Unvoted)
                    .map(|m| m.op)
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
                let to = b.participant;
                let commits = b.decided(Outcome::Committed).collect();
                let aborts = b.decided(Outcome::Aborted).collect();
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
