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
use cx_mdstore::{MetaStore, Undo};
use cx_obs::{EngineGauges, ObsSink};
use cx_types::FxHashMap;
use cx_types::{
    ClusterConfig, CxConfig, CxError, Hint, ObjectId, OpId, OpTable, Payload, ProcId, Role,
    ServerId, SimTime, SubOp, VecPool, Verdict,
};
use cx_wal::{Outcome, Record, Wal};
use std::collections::{BTreeMap, VecDeque};

/// One executed-but-uncommitted operation on this server.
#[derive(Debug, Clone)]
pub(crate) struct PendingOp {
    pub role: Role,
    pub peer: Option<ServerId>,
    pub proc: ProcId,
    pub subop: SubOp,
    pub verdict: Verdict,
    /// Undo token if the execution succeeded and modified state.
    pub undo: Option<Undo>,
    /// Conflict hint attached to this operation's response (§III-C).
    pub hint: Hint,
    /// Result-Record flushed to disk.
    pub durable: bool,
    /// A commitment involving this op is in flight.
    pub in_commitment: bool,
    /// Coordinator-side batch id, once committing.
    pub batch: Option<u64>,
    /// The client asked for an immediate commitment (L-COM): report the
    /// outcome when the commitment completes.
    pub reply_to_client: bool,
    /// Rebuilt from the log after a crash; rollback uses semantic
    /// inversion of the sub-op instead of a volatile undo token.
    pub recovered: bool,
    /// When the execution was logged — the batch-age histogram measures
    /// how long the oldest member waited for its commitment round.
    pub logged_at: SimTime,
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

/// A batched commitment this server coordinates.
#[derive(Debug, Clone)]
pub(crate) struct CommitBatch {
    pub participant: ServerId,
    pub ops: Vec<OpId>,
    pub votes: BTreeMap<OpId, Verdict>,
    pub phase: BatchPhase,
    pub commits: Vec<OpId>,
    pub aborts: Vec<OpId>,
}

/// Disk-completion continuations.
#[derive(Debug, Clone)]
pub(crate) enum IoCont {
    /// A Result-Record became durable: answer the client, enqueue the lazy
    /// commitment (coordinator), release deferred votes (participant).
    ResultDurable { op_id: OpId },
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

    /// Executed, uncommitted operations.
    pub(crate) pending: OpTable<PendingOp>,
    /// Active objects: modified by a pending operation, conflict-checked
    /// on every access (§III-B). Maps to the *latest* pending op touching
    /// the object; re-dispatch re-checks, so chains resolve correctly.
    pub(crate) active: FxHashMap<ObjectId, OpId>,
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
    /// Recycled record buffers for multi-record log appends.
    pub(crate) rec_pool: VecPool<Record>,
    /// Observability sink: stamps `Completed` when the Complete-Record
    /// lands (a milestone only the engine sees). `Off` unless installed.
    pub(crate) obs: ObsSink,
}

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
            pending: OpTable::default(),
            active: FxHashMap::default(),
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
            op_pool: VecPool::default(),
            rec_pool: VecPool::default(),
            obs: ObsSink::Off,
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// A pooled single-element `Vec<OpId>` (immediate commitments and
    /// single-op decisions reuse batch buffers like everything else).
    pub(crate) fn op_vec1(&mut self, op: OpId) -> Vec<OpId> {
        let mut v = self.op_pool.get();
        v.push(op);
        v
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
        if !self.cfg.log_in_database {
            return self.ch.log(recs, cont, out);
        }
        let (seq, _) = self.ch.append(recs)?;
        // log-table rows are appended in key order: sequential pages
        // within the database's log region
        let page = LOG_TABLE_REGION + self.ch.wal.total_appended_bytes() / 4096;
        self.ch.sync_write(page, Some(seq), cont, out);
        Ok(())
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
        let mut m = self.metrics.clone();
        m.wal_truncations = self.ch.wal.truncations();
        m
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
            active_objects: self.active.len() as u64,
            pending_batch_ops: (self.lazy_queue.len()
                + self.lazy_local.len()
                + self.batches.values().map(|b| b.ops.len()).sum::<usize>())
                as u64,
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
                .map(|(id, b)| format!("{id}:{:?}({} ops,{} votes)", b.phase, b.ops.len(), b.votes.len()))
                .collect::<Vec<_>>(),
            blocked,
            self.log_wait.len(),
            self.deferred_votes.keys().map(|k| k.to_string()).collect::<Vec<_>>(),
            io,
            writebacks,
        )
    }
}
