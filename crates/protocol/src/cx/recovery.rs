//! Crash and recovery (§III-D).
//!
//! "The main idea of our recovery protocol is to resume all half-completed
//! commitments of cross-server operations left in the log file on a server
//! before it crashed. … From the Result-Record of an operation, the
//! rebooted server can determine whether it is the coordinator of that
//! operation. Depending on its role, the resumption of an operation varies."
//!
//! * **Coordinator role**: re-launch the commitment — jump straight to the
//!   decision if a Commit/Abort-Record survived, otherwise start a fresh
//!   VOTE round.
//! * **Participant role**: ask the coordinator for the outcome
//!   (QueryOutcome); the coordinator answers with an idempotent
//!   COMMIT-REQ/ABORT-REQ.
//!
//! While a server recovers, it queues new sub-op requests ("the whole file
//! system stops responding new requests") but keeps exchanging commitment
//! traffic, which is what resolves the half-completed operations.

use super::{BatchPhase, CommitBatch, CxServer, IoCont, Member, PendingOp, Tally, NO_BATCH};
use crate::action::{Action, Endpoint, ServerEngine};
use cx_mdstore::MetaStore;
use cx_simio::DiskReq;
use cx_types::{OpId, Role, ServerId, SimTime, SubOp, Verdict};
use cx_wal::Outcome;
use std::collections::BTreeMap;

impl CxServer {
    /// Crash: all volatile state is lost. Effects of executions whose
    /// Result-Record does not survive on disk are rolled back immediately —
    /// this models the fact that they exist nowhere once power is cut
    /// (the in-memory store object survives in the simulator, so undo
    /// stands in for "was never in the database").
    ///
    /// With a torn tail (`extra_bytes > 0`) some in-flight Result-Records
    /// also made it to the platter; their executions survive exactly like
    /// flushed ones and are resolved by the recovery scan, so the undo
    /// criterion is "no Result-Record on disk", not "flush incomplete".
    pub(crate) fn crash_impl(&mut self, _now: SimTime, extra_bytes: u64) {
        // Crash the log first: what physically survived — durable prefix
        // plus any whole torn-tail records — defines which executions
        // still exist.
        self.ch.wal.crash_torn(extra_bytes);
        // Newest first: a process's later operation may have re-modified
        // the objects of its own earlier, still pending one (a process
        // never conflicts with itself), and undo tokens only compose in
        // reverse execution order. Operations of different processes hold
        // disjoint active objects, so their relative order is immaterial.
        let mut lost: Vec<(OpId, PendingOp)> = self.pending.drain().collect();
        lost.sort_unstable_by_key(|(op, _)| std::cmp::Reverse(*op));
        for (op, mut p) in lost {
            let survived = p.durable
                || self
                    .ch
                    .wal
                    .op_state(&op)
                    .is_some_and(|st| st.subop.is_some());
            if !survived {
                if let Some(undo) = p.take_undo() {
                    self.ch.store.undo(undo);
                }
            }
        }
        self.blocked.clear();
        self.log_wait.clear();
        self.lazy_queue.clear();
        self.lazy_local.clear();
        self.batches.clear();
        self.deferred_votes.clear();
        self.recent_outcomes.clear();
        self.resolved_upto.clear();
        self.ch.crash();
        self.orphan_timers.clear();
        self.vote_timers.clear();
        self.recovery_wait.clear();
        self.recovery_remaining.clear();
        self.recovery_reads_pending = false;
        self.crashed = true;
        self.recovering = false;
    }

    /// Reboot: start the recovery log scan. Returns the number of bytes
    /// the scan reads (the surviving valid records).
    pub(crate) fn recover_impl(&mut self, _now: SimTime, out: &mut Vec<Action>) -> u64 {
        self.crashed = false;
        self.recovering = true;
        let bytes = self.ch.wal.valid_bytes();
        let token = self.ch.await_disk(None, IoCont::RecoveryScanDone);
        out.push(Action::Disk(DiskReq::SeqRead {
            bytes: bytes.max(1),
            token,
        }));
        bytes
    }

    /// The log scan finished: rebuild pending state and resume
    /// half-completed commitments.
    pub(crate) fn on_recovery_scan_done(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.ch.wal.prune_all();
        let (coord_ops, parti_ops) = self.ch.wal.half_completed();

        if self.cfg.unsafe_skip_recovery_resume {
            // Deliberately BROKEN (chaos-oracle self-test): forget the
            // §III-D resumption step. Surviving executions keep their
            // store effects but nobody is left to commit or abort them;
            // peers eventually presume-abort their halves, leaving the
            // namespace split — exactly what the oracle must catch.
            self.maybe_finish_recovery(now, out);
            return;
        }

        // Rebuild pending entries (role, peer, sub-op, verdict) from the
        // index the scan reconstructed.
        let mut decided: BTreeMap<ServerId, (Vec<OpId>, Vec<OpId>)> = BTreeMap::new();
        let mut to_vote: Vec<OpId> = Vec::new();
        for &op in coord_ops.iter().chain(parti_ops.iter()) {
            let Some(st) = self.ch.wal.op_state(&op) else {
                continue;
            };
            let (role, peer, subop, verdict) = (
                st.role.expect("half_completed implies a Result-Record"),
                st.peer,
                st.subop.expect("Result-Record carries the sub-op"),
                st.verdict.unwrap_or(Verdict::No),
            );
            let outcome = st.outcome;
            let invalidated = st.invalidated;
            self.pending.insert(
                op,
                PendingOp {
                    role,
                    peer,
                    subop,
                    verdict: if invalidated { Verdict::No } else { verdict },
                    undo: None,
                    durable: true,
                    in_commitment: true,
                    reply_to_client: false,
                    recovered: true,
                    batch: NO_BATCH,
                    logged_at: now,
                },
            );
            self.recovery_remaining.insert(op);
            self.metrics.resumed_commitments += 1;
            if verdict.is_yes() && !invalidated {
                self.pending.activate(op);
            }
            if role == Role::Coordinator {
                match outcome {
                    Some(o) => {
                        // Decision already durable: resume at COMMIT-REQ.
                        let peer = peer.expect("coordinator of a cross-server op has a peer");
                        let entry = decided.entry(peer).or_default();
                        match o {
                            Outcome::Committed => entry.0.push(op),
                            Outcome::Aborted => entry.1.push(op),
                        }
                    }
                    None => to_vote.push(op),
                }
            }
        }

        // Coordinator resumptions with a surviving decision: re-send the
        // idempotent COMMIT-REQ/ABORT-REQ and wait for the ACK.
        for (peer, (commits, aborts)) in decided {
            let batch_id = self.next_batch;
            self.next_batch += 1;
            for op in commits.iter().chain(aborts.iter()) {
                if let Some(p) = self.pending.get_mut(op) {
                    p.batch = batch_id;
                }
            }
            let decided = |outcome| {
                move |&op| Member {
                    op,
                    tally: Tally::Decided(outcome),
                }
            };
            let members = (commits.iter().map(decided(Outcome::Committed)))
                .chain(aborts.iter().map(decided(Outcome::Aborted)))
                .collect();
            self.batches.insert(
                batch_id,
                CommitBatch::new(peer, BatchPhase::AwaitingAck, members),
            );
            self.send(
                Endpoint::Server(peer),
                cx_types::Payload::CommitDecision { commits, aborts },
                out,
            );
            self.arm_batch_retry(batch_id, out);
        }

        // Coordinator resumptions without a decision: fresh VOTE round.
        if !to_vote.is_empty() {
            for op in &to_vote {
                if let Some(p) = self.pending.get_mut(op) {
                    p.in_commitment = false; // launch_commitment re-marks
                }
            }
            self.launch_commitment(now, &to_vote, true, out);
        }

        // Participant resumptions: ask each coordinator for the outcome.
        let mut queries: BTreeMap<ServerId, Vec<OpId>> = BTreeMap::new();
        for &op in &parti_ops {
            if let Some(peer) = self.pending.get(&op).and_then(|p| p.peer) {
                queries.entry(peer).or_default().push(op);
            } else {
                // A local mutation's records are never half-completed
                // (Result+Commit are appended together), so a participant
                // record without a peer means a torn local append: the
                // operation never happened; drop it.
                self.recovery_remaining.remove(&op);
                self.ch.wal.prune_op(&op);
                self.pending.remove(&op);
            }
        }
        for (coord, ops) in queries {
            self.send(
                Endpoint::Server(coord),
                cx_types::Payload::QueryOutcome { ops },
                out,
            );
        }

        // Re-read the affected rows from the cold database: resumption
        // works against on-disk state, the cache died with the server.
        let mut pages: Vec<u64> = Vec::new();
        for op in self.recovery_remaining.iter() {
            if let Some(p) = self.pending.get(op) {
                pages.extend(p.subop.objects().iter().map(|o| cx_simio::object_page(&o)));
            }
        }
        if !pages.is_empty() {
            self.recovery_reads_pending = true;
            let token = self.ch.await_disk(None, IoCont::RecoveryReadsDone);
            out.push(Action::Disk(DiskReq::RandomRead { pages, token }));
        }

        // A single query round is not enough when the coordinator is
        // *also* down (double-crash schedules): the QueryOutcome just sent
        // is lost with its dead incarnation. Retry until everything
        // half-completed is resolved.
        if !self.recovery_remaining.is_empty() {
            self.arm_query_retry(out);
        }

        self.maybe_finish_recovery(now, out);
    }

    fn arm_query_retry(&mut self, out: &mut Vec<Action>) {
        let token = super::QUERY_TIMER_BIT | self.ch.token();
        out.push(Action::SetTimer {
            token,
            delay_ns: self.cfg.presumed_abort_timeout_ns,
        });
    }

    /// The recovery retry timer fired: re-send outcome queries and
    /// re-drive coordinator-side resumption batches for whatever is still
    /// unresolved, then re-arm. Both messages are idempotent, so a retry
    /// racing a late answer is harmless.
    pub(crate) fn on_query_retry_timer(&mut self, out: &mut Vec<Action>) {
        if !self.recovering || self.crashed {
            return; // recovery finished (or died again); retries stop
        }
        let mut queries: BTreeMap<ServerId, Vec<OpId>> = BTreeMap::new();
        let mut batches: Vec<u64> = Vec::new();
        for op in self.recovery_remaining.iter() {
            let Some(p) = self.pending.get(op) else {
                continue;
            };
            match p.role {
                Role::Participant => {
                    if let Some(peer) = p.peer {
                        queries.entry(peer).or_default().push(*op);
                    }
                }
                Role::Coordinator => {
                    if let Some(b) = p.batch() {
                        if !batches.contains(&b) {
                            batches.push(b);
                        }
                    }
                }
            }
        }
        for (coord, ops) in queries {
            self.send(
                Endpoint::Server(coord),
                cx_types::Payload::QueryOutcome { ops },
                out,
            );
        }
        for batch in batches {
            self.redrive_batch(batch, out);
        }
        self.arm_query_retry(out);
    }

    /// One half-completed operation was resolved.
    pub(crate) fn note_recovery_progress(&mut self, now: SimTime, op: OpId, out: &mut Vec<Action>) {
        if self.recovery_remaining.remove(&op) {
            self.maybe_finish_recovery(now, out);
        }
    }

    pub(crate) fn maybe_finish_recovery(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if !self.recovering || !self.recovery_remaining.is_empty() || self.recovery_reads_pending {
            return;
        }
        self.recovering = false;
        self.ch.flush_dirty(out);
        // Serve everything that queued while we were recovering.
        let waiting: Vec<_> = self.recovery_wait.drain(..).collect();
        for (from, payload) in waiting {
            self.on_msg(now, from, payload, out);
        }
    }

    /// True while the recovery protocol is running (used by the cluster to
    /// measure the Table V recovery time).
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Roll back a pending operation's local effects, whether it was
    /// executed in this incarnation (volatile undo token) or rebuilt from
    /// the log after a crash (semantic inversion of the sub-op).
    pub(crate) fn rollback_pending(&mut self, op: &OpId) {
        let Some(p) = self.pending.get_mut(op) else {
            return;
        };
        if let Some(undo) = p.take_undo() {
            self.ch.store.undo(undo);
        } else if p.recovered && p.verdict.is_yes() {
            let subop = p.subop;
            revert_subop(&mut self.ch.store, &subop);
        }
    }
}

/// Semantically invert a sub-op against the current store. Used only on
/// the recovery path, where the volatile undo token is gone. Correct under
/// the active-object exclusivity guarantee: between execution and
/// commitment no other process modified these objects.
pub(crate) fn revert_subop(store: &mut MetaStore, subop: &SubOp) {
    use cx_types::FileKind;
    match *subop {
        SubOp::InsertEntry {
            parent,
            name,
            child,
            ..
        } => {
            if store.lookup(parent, name) == Some(child) {
                let _ = store.apply(&SubOp::RemoveEntry {
                    parent,
                    name,
                    child,
                });
            }
        }
        SubOp::RemoveEntry {
            parent,
            name,
            child,
        } => {
            if store.lookup(parent, name).is_none() {
                let _ = store.apply(&SubOp::InsertEntry {
                    parent,
                    name,
                    child,
                    kind: FileKind::Regular,
                });
            }
        }
        SubOp::CreateInode { ino, .. } => {
            if store.inode(ino).is_some() {
                let _ = store.apply(&SubOp::ReleaseInode { ino });
            }
        }
        SubOp::ReleaseInode { ino } | SubOp::DecNlink { ino } => {
            if store.inode(ino).is_some() {
                let _ = store.apply(&SubOp::IncNlink { ino });
            } else {
                // the decrement freed it: it had nlink 1
                store.seed_inode(ino, FileKind::Regular, 1);
            }
        }
        SubOp::IncNlink { ino } => {
            let _ = store.apply(&SubOp::DecNlink { ino });
        }
        SubOp::TouchInode { .. }
        | SubOp::ReadInode { .. }
        | SubOp::ReadEntry { .. }
        | SubOp::ReadDir { .. } => {}
    }
}
