//! The Cx server engine (§III of the paper).
//!
//! A Cx metadata server plays two roles at once:
//!
//! * **Execution phase** (`exec`): sub-op requests arrive from client
//!   processes, are checked against the *active objects* of pending
//!   operations (conflict detection), executed against the in-memory
//!   store, logged as Result-Records, and answered with YES/NO plus a
//!   conflict hint.
//! * **Commitment phase** (`commit`): the coordinator lazily batches
//!   commitments (VOTE → YES/NO → COMMIT-REQ/ABORT-REQ → ACK →
//!   Complete-Record), launching immediately on conflicts, L-COM requests,
//!   disagreements, or log pressure.
//!
//! Crash/recovery (`recovery`) rebuilds the volatile state from the durable
//! log prefix and resumes half-completed commitments (§III-D).

mod commit;
mod exec;
mod recovery;

use crate::action::{Action, Endpoint, ServerEngine};
use crate::chassis::Chassis;
use crate::stats::{ProtoMetrics, ServerStats};
use cx_mdstore::{Inode, MetaStore, Undo};
use cx_obs::{EngineGauges, ObsSink};
use cx_types::FxHashMap;
use cx_types::{
    ClusterConfig, CxConfig, CxError, Hint, ObjectId, OpId, OpTable, Payload, ProcId, Role,
    ServerId, SimTime, SlotIndex, SubOp, VecPool, Verdict,
};
use cx_wal::{Outcome, Record, SeqNo, Wal};
use std::collections::{BTreeMap, VecDeque};

/// One executed-but-uncommitted operation on this server. It holds only
/// what nothing else records: the process is its key's, the response's
/// conflict hint rides on the Result-Record's disk continuation, and the
/// undo token is rebuilt from the sub-op.
#[derive(Debug, Clone)]
pub(crate) struct PendingOp {
    pub role: Role,
    pub peer: Option<ServerId>,
    pub subop: SubOp,
    pub verdict: Verdict,
    /// Set while the execution can be rolled back with its volatile undo
    /// token: the token's prior row ([`Undo::prior_row`]), from which and
    /// `subop` [`PendingOp::take_undo`] rebuilds it.
    pub undo: Option<Option<Inode>>,
    /// Result-Record flushed to disk.
    pub durable: bool,
    /// A commitment involving this op is in flight.
    pub in_commitment: bool,
    /// The client asked for an immediate commitment (L-COM): report the
    /// outcome when the commitment completes.
    pub reply_to_client: bool,
    /// Rebuilt from the log after a crash; rollback uses semantic
    /// inversion of the sub-op instead of a volatile undo token.
    pub recovered: bool,
    /// Coordinator-side batch id once committing, [`NO_BATCH`] before;
    /// read through [`PendingOp::batch`].
    batch: u64,
    /// When the execution was logged — the batch-age histogram measures
    /// how long the oldest member waited for its commitment round.
    pub logged_at: SimTime,
}

/// `PendingOp::batch` of an op no batch has taken yet.
pub(crate) const NO_BATCH: u64 = u64::MAX;

impl PendingOp {
    /// The coordinator-side batch committing this op, once there is one.
    pub fn batch(&self) -> Option<u64> {
        (self.batch != NO_BATCH).then_some(self.batch)
    }

    /// The undo token `MetaStore::apply` returned for this execution, if
    /// it has not been rolled back yet; the entry keeps none afterwards.
    pub fn take_undo(&mut self) -> Option<Undo> {
        let prior_row = self.undo.take()?;
        Some(Undo::rebuild(&self.subop, prior_row))
    }
}

/// The executed, uncommitted operations and the conflict table over them.
///
/// Every pending operation lives in one [`OpTable`] slot until it is
/// removed, and the conflict table is a second index into the same slab:
/// the slot of the *latest* pending operation that modified each active
/// object (§III-B), found by the object read back from that slot's sub-op
/// ([`SubOp::conflict_object`], one per sub-op). Removing an operation
/// drops its index entry with it, so no entry outlives its slot.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    ops: OpTable<PendingOp>,
    active: SlotIndex,
}

impl std::ops::Deref for Pending {
    type Target = OpTable<PendingOp>;

    fn deref(&self) -> &OpTable<PendingOp> {
        &self.ops
    }
}

impl Pending {
    /// The pending entry of `op`; its sub-op must not change.
    pub fn get_mut(&mut self, op: &OpId) -> Option<&mut PendingOp> {
        self.ops.get_mut(op)
    }

    /// Insert or overwrite `op`'s entry. An overwrite that moves the
    /// conflict object first releases the old one.
    pub fn insert(&mut self, op: OpId, p: PendingOp) {
        let moved = self
            .ops
            .get(&op)
            .is_some_and(|old| old.subop.conflict_object() != p.subop.conflict_object());
        if moved {
            self.release(op);
        }
        self.ops.insert(op, p);
    }

    /// Remove `op`'s entry and its active object.
    pub fn remove(&mut self, op: &OpId) -> Option<PendingOp> {
        self.release(*op);
        self.ops.remove(op)
    }

    /// Forget every operation, yielding them in slot order.
    pub fn drain(&mut self) -> impl Iterator<Item = (OpId, PendingOp)> + '_ {
        self.active.clear();
        self.ops.drain()
    }

    /// Make `op`'s conflict object active, held by `op` from now on (the
    /// newest executing operation overwrites the holder).
    pub fn activate(&mut self, op: OpId) {
        let Some(slot) = self.ops.slot_of(&op) else {
            return;
        };
        let ops = &self.ops;
        let obj = ops.at(slot).1.subop.conflict_object();
        self.active.insert(&obj, slot, |s| conflict_key(ops, s));
    }

    /// The pending operation holding `obj` active.
    pub fn holder(&self, obj: &ObjectId) -> Option<OpId> {
        let ops = &self.ops;
        let slot = self.active.get(obj, |s| conflict_key(ops, s))?;
        Some(*ops.at(slot).0)
    }

    /// Drop `op`'s active object, while `op` still holds it.
    pub fn release(&mut self, op: OpId) {
        let Some(slot) = self.ops.slot_of(&op) else {
            return;
        };
        let ops = &self.ops;
        let obj = ops.at(slot).1.subop.conflict_object();
        self.active
            .remove_if(&obj, |held| held == slot, |s| conflict_key(ops, s));
    }

    /// Objects held active.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }
}

/// The conflict object of the pending operation in `slot`.
fn conflict_key(ops: &OpTable<PendingOp>, slot: u32) -> ObjectId {
    ops.at(slot).1.subop.conflict_object()
}

/// A sub-op request that could not run yet (conflict or full log).
#[derive(Debug, Clone)]
pub(crate) struct QueuedReq {
    pub op_id: OpId,
    pub subop: SubOp,
    pub role: Role,
    pub peer: Option<ServerId>,
    pub colocated: Option<SubOp>,
    /// Pending operations whose commitment preceded this request's
    /// execution — becomes the response's conflict hint (§III-C).
    pub hint_ops: Vec<OpId>,
    /// Conflict already counted for this request (re-blocking after an
    /// unblock or invalidation must not double-count).
    pub counted: bool,
}

/// Phases of one coordinator-side commitment batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BatchPhase {
    /// VOTE sent, waiting for the participant's verdicts.
    Voting,
    /// Commit/Abort records flushing.
    LoggingDecision,
    /// COMMIT-REQ/ABORT-REQ sent, waiting for ACK.
    AwaitingAck,
    /// Complete-Records flushing.
    Completing,
}

/// How far a commitment round has settled one of its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tally {
    /// VOTE sent, the participant's verdict not back yet.
    Unvoted,
    /// The participant's verdict.
    Voted(Verdict),
    /// The coordinator's decision.
    Decided(Outcome),
}

/// One operation of a [`CommitBatch`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    pub op: OpId,
    pub tally: Tally,
}

/// A batched commitment this server coordinates. Its operations are one
/// list, each with its vote and then its outcome; the message lists are
/// drawn from it when sent.
#[derive(Debug, Clone)]
pub(crate) struct CommitBatch {
    pub participant: ServerId,
    pub phase: BatchPhase,
    /// The operations in launch order.
    pub members: Vec<Member>,
    /// Members whose vote arrived; reset when the batch is decided.
    pub votes: usize,
    /// Where the next vote's member is looked for first: votes come back
    /// in the VOTE's order.
    cursor: usize,
}

impl CommitBatch {
    pub fn new(participant: ServerId, phase: BatchPhase, members: Vec<Member>) -> Self {
        Self {
            participant,
            phase,
            members,
            votes: 0,
            cursor: 0,
        }
    }

    pub fn contains(&self, op: &OpId) -> bool {
        self.members.iter().any(|m| m.op == *op)
    }

    /// `op`'s member, searched from after the last one found.
    pub fn member(&mut self, op: &OpId) -> Option<&mut Member> {
        let n = self.members.len();
        let at = (0..n)
            .map(|i| (self.cursor + i) % n)
            .find(|&i| self.members[i].op == *op)?;
        self.cursor = (at + 1) % n;
        Some(&mut self.members[at])
    }

    /// The members decided `outcome`, in launch order.
    pub fn decided(&self, outcome: Outcome) -> impl Iterator<Item = OpId> + Clone + '_ {
        let tally = Tally::Decided(outcome);
        self.members
            .iter()
            .filter(move |m| m.tally == tally)
            .map(|m| m.op)
    }

    /// Every decided member with its outcome, commits first, each in
    /// launch order: the order of the Complete-Records and of completion.
    pub fn outcomes(&self) -> impl Iterator<Item = (OpId, Outcome)> + '_ {
        [Outcome::Committed, Outcome::Aborted]
            .into_iter()
            .flat_map(move |o| self.decided(o).map(move |op| (op, o)))
    }
}

/// Disk-completion continuations.
#[derive(Debug, Clone)]
pub(crate) enum IoCont {
    /// A Result-Record became durable: answer the client with `hint`,
    /// enqueue the lazy commitment (coordinator), release deferred votes
    /// (participant).
    ResultDurable { op_id: OpId, hint: Hint },
    /// A local (single-server) mutation's records became durable.
    LocalDurable {
        op_id: OpId,
        verdict: Verdict,
        hint: Hint,
    },
    /// Coordinator: commit/abort records durable → send the decision.
    DecisionDurable { batch: u64 },
    /// Participant: outcome records durable → apply, prune, ACK.
    OutcomeDurable {
        coordinator: ServerId,
        commits: Vec<OpId>,
        aborts: Vec<OpId>,
    },
    /// Coordinator: Complete-Records durable → finish the batch.
    CompleteDurable { batch: u64 },
    /// Recovery log scan finished.
    RecoveryScanDone,
    /// Recovery cold-cache row reads finished.
    RecoveryReadsDone,
}

/// The Cx metadata server engine.
pub struct CxServer {
    pub(crate) id: ServerId,
    /// Store, log, failure injection, batch trigger, disk continuations,
    /// write-backs, statistics.
    pub(crate) ch: Chassis<IoCont>,
    pub(crate) cfg: CxConfig,

    /// Executed, uncommitted operations, and their active objects:
    /// modified by a pending operation, conflict-checked on every access
    /// (§III-B). An object maps to the *latest* pending op touching it;
    /// re-dispatch re-checks, so chains resolve correctly.
    pub(crate) pending: Pending,
    /// Requests blocked behind a pending operation's commitment.
    pub(crate) blocked: FxHashMap<OpId, Vec<QueuedReq>>,
    /// Requests blocked on log space (Figure 7a).
    pub(crate) log_wait: VecDeque<QueuedReq>,
    /// Coordinator-role ops awaiting a lazy commitment batch.
    pub(crate) lazy_queue: Vec<OpId>,
    /// Local mutations awaiting batched write-back and pruning.
    pub(crate) lazy_local: Vec<OpId>,
    /// The emptied buffer a launching batch swaps in for the queue it
    /// takes, so the queues keep their capacity and the pool never sees a
    /// queue-sized vector.
    pub(crate) lazy_spare: Vec<OpId>,
    /// In-flight commitment batches this server coordinates.
    pub(crate) batches: FxHashMap<u64, CommitBatch>,
    pub(crate) next_batch: u64,
    /// Participant-side votes that could not be answered yet
    /// (op → requesting coordinator).
    pub(crate) deferred_votes: BTreeMap<OpId, ServerId>,
    /// Last finished operation outcome per process, for L-COM requests
    /// that race with a completing lazy commitment.
    pub(crate) recent_outcomes: FxHashMap<ProcId, (OpId, Outcome)>,
    /// Per process, the newest operation whose decision this server
    /// applied as participant. A process issues its next operation only
    /// after the last one executed on both servers, so a VOTE for an
    /// operation at or below this mark that is no longer pending here is a
    /// late copy from a round already finished — not a sub-op still on its
    /// way (`recent_outcomes` is the coordinator-side cousin).
    pub(crate) resolved_upto: FxHashMap<ProcId, u64>,
    /// Introspection-plane counters (kept out of `stats`: the golden
    /// digests hash `ServerStats`, these must stay invisible to them).
    pub(crate) metrics: ProtoMetrics,
    /// Crashed servers drop everything until `recover` runs.
    pub(crate) crashed: bool,
    /// Recovery in progress: new requests wait (§III-D: "the whole file
    /// system stops responding new requests").
    pub(crate) recovering: bool,
    pub(crate) recovery_wait: VecDeque<(Endpoint, Payload)>,
    /// Half-completed operations still to resolve before recovery ends.
    pub(crate) recovery_remaining: std::collections::BTreeSet<OpId>,
    /// Pending presumed-abort grace timers (token → (participant, op)).
    pub(crate) orphan_timers: FxHashMap<u64, (ServerId, OpId)>,
    /// Deferred-vote grace timers (token → (coordinator, op)): a VOTE
    /// arrived for an operation whose sub-op request has not reached this
    /// server yet.
    pub(crate) vote_timers: FxHashMap<u64, (ServerId, OpId)>,
    /// Cold-cache reads of affected rows still in flight during recovery.
    pub(crate) recovery_reads_pending: bool,
    /// Recycled `Vec<OpId>` buffers for batched commitment messages:
    /// drawn when building VOTE/COMMIT-REQ/ACK payloads, returned when a
    /// received batch is drained.
    pub(crate) op_pool: VecPool<OpId>,
    /// Recycled vote-result lists, drawn by the voting participant and
    /// returned by the coordinator that reads them.
    pub(crate) vote_pool: VecPool<(OpId, Verdict)>,
    /// Recycled member lists of the batches this server coordinates.
    pub(crate) member_pool: VecPool<Member>,
    /// Scratch a commitment round fills and empties within one event: the
    /// objects whose write-back it issues, the batches a vote result
    /// touched, the launched operations' participants and positions.
    pub(crate) scratch_objs: Vec<ObjectId>,
    pub(crate) scratch_batches: Vec<u64>,
    pub(crate) scratch_groups: Vec<(ServerId, u32)>,
    /// Observability sink: stamps `Completed` when the Complete-Record
    /// lands (a milestone only the engine sees). `Off` unless installed.
    pub(crate) obs: ObsSink,
}

/// What each of a server's buffer pools shelves at most.
const POOL_BYTES: usize = 4 << 10;

/// Database region holding the log table in the `log_in_database` mode.
pub(crate) const LOG_TABLE_REGION: u64 = 1 << 55;

/// High bit distinguishing orphan-timer tokens from trigger generations.
pub(crate) const ORPHAN_TIMER_BIT: u64 = 1 << 63;
/// Bit marking deferred-vote presumed-abort timers.
pub(crate) const VOTE_TIMER_BIT: u64 = 1 << 62;
/// Bit marking the recovery outcome-query retry timer: a recovering
/// participant re-sends QueryOutcome until every half-completed op is
/// resolved, so recovery converges even when the coordinator was down for
/// the first query (double-crash schedules).
pub(crate) const QUERY_TIMER_BIT: u64 = 1 << 61;
/// Bit marking commitment re-drive timers (low bits carry the batch id).
/// Armed only when `CxConfig::commit_retry_timeout_ns` is set.
pub(crate) const BATCH_TIMER_BIT: u64 = 1 << 60;

impl CxServer {
    pub fn new(id: ServerId, cfg: &ClusterConfig) -> Self {
        Self {
            id,
            ch: Chassis::new(cfg, 0x5e57_0000 ^ id.0 as u64, cfg.cx.log_limit_bytes),
            cfg: cfg.cx,
            pending: Pending::default(),
            blocked: FxHashMap::default(),
            log_wait: VecDeque::new(),
            lazy_queue: Vec::new(),
            lazy_local: Vec::new(),
            lazy_spare: Vec::new(),
            batches: FxHashMap::default(),
            next_batch: 0,
            deferred_votes: BTreeMap::new(),
            recent_outcomes: FxHashMap::default(),
            resolved_upto: FxHashMap::default(),
            metrics: ProtoMetrics::default(),
            crashed: false,
            recovering: false,
            recovery_wait: VecDeque::new(),
            recovery_remaining: std::collections::BTreeSet::new(),
            orphan_timers: FxHashMap::default(),
            vote_timers: FxHashMap::default(),
            recovery_reads_pending: false,
            op_pool: VecPool::with_max_bytes(POOL_BYTES),
            vote_pool: VecPool::with_max_bytes(POOL_BYTES),
            member_pool: VecPool::with_max_bytes(POOL_BYTES),
            scratch_objs: Vec::new(),
            scratch_batches: Vec::new(),
            scratch_groups: Vec::new(),
            obs: ObsSink::Off,
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Append `recs` as one logical disk write and start making them
    /// durable: a sequential append to the log-structured file or, with the
    /// `log_in_database` ablation, a synchronous write of log-table rows
    /// into the database (the alternative §IV-A rejects).
    pub(crate) fn log(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
        cont: IoCont,
        out: &mut Vec<Action>,
    ) -> Result<(), CxError> {
        let appended = self.ch.append(recs)?;
        self.flush(appended, cont, out);
        Ok(())
    }

    /// Start making what `self.ch.append` appended durable, as [`Self::log`]
    /// does.
    pub(crate) fn flush(&mut self, appended: (SeqNo, u64), cont: IoCont, out: &mut Vec<Action>) {
        if !self.cfg.log_in_database {
            return self.ch.flush(appended, cont, out);
        }
        // log-table rows are appended in key order: sequential pages
        // within the database's log region
        let page = LOG_TABLE_REGION + self.ch.wal.total_appended_bytes() / 4096;
        self.ch.sync_write(page, Some(appended.0), cont, out);
    }

    pub(crate) fn send(&mut self, to: Endpoint, payload: Payload, out: &mut Vec<Action>) {
        out.push(Action::Send { to, payload });
    }
}

impl ServerEngine for CxServer {
    fn on_msg(&mut self, now: SimTime, from: Endpoint, payload: Payload, out: &mut Vec<Action>) {
        if self.crashed {
            return; // messages to a dead server are lost
        }
        if self.recovering
            && !matches!(
                payload,
                Payload::QueryOutcome { .. }
                    | Payload::VoteResult { .. }
                    | Payload::Ack { .. }
                    | Payload::CommitDecision { .. }
                    | Payload::Vote { .. }
            )
        {
            // §III-D: during recovery the file system stops accepting new
            // requests; commitment traffic still flows.
            self.recovery_wait.push_back((from, payload));
            return;
        }
        self.ch.trigger.on_activity(now);
        match payload {
            Payload::SubOpReq {
                op_id,
                subop,
                role,
                peer,
                colocated,
            } => {
                let req = QueuedReq {
                    op_id,
                    subop,
                    role,
                    peer,
                    colocated,
                    hint_ops: Vec::new(),
                    counted: false,
                };
                self.handle_request(now, req, out);
            }
            Payload::LCom { op_id } => self.on_lcom(now, op_id, out),
            Payload::Vote { ops, order_after } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                self.on_vote(now, coord, ops, order_after, out);
            }
            Payload::VoteResult { results } => self.on_vote_result(now, results, out),
            Payload::CommitDecision { commits, aborts } => {
                let Endpoint::Server(coord) = from else {
                    return;
                };
                self.on_commit_decision(now, coord, commits, aborts, out);
            }
            Payload::Ack { ops } => self.on_ack(now, ops, out),
            Payload::CommitmentReq { pending, sweep } => {
                let Endpoint::Server(parti) = from else {
                    return;
                };
                self.on_commitment_req(now, parti, pending, sweep, out);
            }
            Payload::QueryOutcome { ops } => {
                let Endpoint::Server(parti) = from else {
                    return;
                };
                self.on_query_outcome(now, parti, ops, out);
            }
            _ => {}
        }
    }

    fn on_disk_done(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        if self.crashed {
            return;
        }
        if let Some(cont) = self.ch.disk_done(now, token) {
            self.dispatch_io(now, cont, out);
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        if self.crashed {
            return;
        }
        // Commitment-protocol timers must keep firing *during* recovery:
        // the query retry exists exactly for that window, deferred-vote
        // grace periods answer re-driven VOTEs for operations lost in a
        // torn tail, and batch re-drives unwedge peers whose participant
        // crashed with the VOTE in flight. Only the batch trigger waits
        // for recovery to finish.
        if token & QUERY_TIMER_BIT != 0 {
            self.on_query_retry_timer(out);
        } else if token & ORPHAN_TIMER_BIT != 0 {
            self.on_orphan_timer(now, token, out);
        } else if token & VOTE_TIMER_BIT != 0 {
            self.on_vote_timer(now, token, out);
        } else if token & BATCH_TIMER_BIT != 0 {
            self.on_batch_retry_timer(token & !BATCH_TIMER_BIT, out);
        } else if !self.recovering {
            self.on_trigger_timer(now, token, out);
        }
    }

    fn quiesce(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.crashed {
            return;
        }
        self.launch_lazy_batch(now, out);
    }

    fn is_quiesced(&self) -> bool {
        self.pending.is_empty()
            && self.batches.is_empty()
            && self.blocked.values().all(|v| v.is_empty())
            && self.log_wait.is_empty()
            && self.lazy_queue.is_empty()
            && self.deferred_votes.is_empty()
            && self.ch.idle()
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

    fn proto_metrics(&self) -> ProtoMetrics {
        // Rounds and aborts are counted once, in `ServerStats`, as for the
        // other engines; `metrics` adds what only Cx observes: the
        // ordered/disordered conflict split, hints, batch shapes and
        // resumed commitments.
        self.metrics
            .clone()
            .with_stats(&self.ch.stats, Some(&self.ch.wal))
    }

    fn supports_crash(&self) -> bool {
        true
    }

    fn crash(&mut self, now: SimTime) {
        self.crash_impl(now, 0);
    }

    fn crash_torn(&mut self, now: SimTime, extra_bytes: u64) {
        self.crash_impl(now, extra_bytes);
    }

    fn recover(&mut self, now: SimTime, out: &mut Vec<Action>) -> u64 {
        self.recover_impl(now, out)
    }

    fn is_recovering(&self) -> bool {
        self.recovering
    }

    fn install_obs(&mut self, sink: ObsSink) {
        self.obs = sink;
    }

    fn obs_gauges(&self) -> EngineGauges {
        EngineGauges {
            active_objects: self.pending.active_len() as u64,
            pending_batch_ops: (self.lazy_queue.len()
                + self.lazy_local.len()
                + self
                    .batches
                    .values()
                    .map(|b| b.members.len())
                    .sum::<usize>()) as u64,
        }
    }

    fn debug_summary(&self) -> String {
        if self.is_quiesced() {
            return String::new();
        }
        let blocked: Vec<String> = self
            .blocked
            .iter()
            .map(|(holder, q)| {
                let holder_state = self
                    .pending
                    .get(holder)
                    .map(|p| format!("role={:?} in_commitment={}", p.role, p.in_commitment))
                    .unwrap_or_else(|| "NO-PENDING".into());
                format!(
                    "{holder}[{holder_state}]<-{:?}",
                    q.iter().map(|r| r.op_id.to_string()).collect::<Vec<_>>()
                )
            })
            .collect();
        let (io, writebacks) = self.ch.in_flight();
        format!(
            "pending={} in_commitment={} lazy={} local={} batches={:?} blocked={:?} log_wait={} deferred={:?} io={} writebacks={}",
            self.pending.len(),
            // a count: the table's slot order cannot show
            self.pending.values().filter(|p| p.in_commitment).count(),
            self.lazy_queue.len(),
            self.lazy_local.len(),
            self.batches
                .iter()
                .map(|(id, b)| format!("{id}:{:?}({} ops,{} votes)", b.phase, b.members.len(), b.votes))
                .collect::<Vec<_>>(),
            blocked,
            self.log_wait.len(),
            self.deferred_votes.keys().map(|k| k.to_string()).collect::<Vec<_>>(),
            io,
            writebacks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{InodeNo, ProcId};

    fn pending(ino: u64) -> PendingOp {
        PendingOp {
            role: Role::Participant,
            peer: Some(ServerId(1)),
            subop: SubOp::DecNlink { ino: InodeNo(ino) },
            verdict: Verdict::Yes,
            undo: None,
            durable: false,
            in_commitment: false,
            reply_to_client: false,
            recovered: false,
            batch: NO_BATCH,
            logged_at: SimTime(0),
        }
    }

    /// The conflict table answers for the newest holder, releases only
    /// for it, and keeps no entry once its op is gone, even when the slot
    /// is reused by an op of another object.
    #[test]
    fn the_conflict_table_follows_the_pending_slab() {
        let op = |seq| OpId::new(ProcId::new(seq as u32, 0), seq);
        let x = ObjectId::Inode(InodeNo(7));
        let mut t = Pending::default();
        t.insert(op(1), pending(7));
        t.activate(op(1));
        t.insert(op(2), pending(7));
        t.activate(op(2));
        assert_eq!((t.holder(&x), t.active_len()), (Some(op(2)), 1));
        t.release(op(1)); // no longer the holder: nothing to drop
        assert_eq!(t.holder(&x), Some(op(2)));
        t.remove(&op(2));
        assert_eq!((t.holder(&x), t.active_len()), (None, 0));
        // op 3 takes the freed slot with another object; op 1 still
        // holds a slot but not the object
        t.insert(op(3), pending(9));
        t.activate(op(3));
        assert_eq!(t.holder(&x), None);
        assert_eq!(t.holder(&ObjectId::Inode(InodeNo(9))), Some(op(3)));
        // an overwrite that moves the object releases the old one
        t.insert(op(3), pending(11));
        assert_eq!(
            (t.holder(&ObjectId::Inode(InodeNo(9))), t.active_len()),
            (None, 0)
        );
        assert_eq!(t.drain().count(), 2);
    }

    /// A pending op's slab slot is what a server holds per in-flight half;
    /// keep the entry eleven words with its key.
    #[test]
    fn a_pending_slot_is_88_bytes() {
        assert_eq!(std::mem::size_of::<PendingOp>(), 72);
        assert_eq!(std::mem::size_of::<Option<(OpId, PendingOp)>>(), 88);
    }

    /// The disk continuation carries the response's hint and stays seven
    /// words: a decision's two op lists are its largest variant.
    #[test]
    fn a_disk_continuation_is_56_bytes() {
        assert_eq!(std::mem::size_of::<IoCont>(), 56);
    }
}
