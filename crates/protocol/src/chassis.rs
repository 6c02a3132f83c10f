//! The server every engine is besides its protocol.
//!
//! [`Chassis`] owns the metadata store, the log, failure injection, the
//! batch trigger, the table of disk continuations, the write-back counter
//! and the statistics. An engine adds what its paper paragraph describes:
//! message handlers, the continuation type `C` it parks on disk writes,
//! and its transaction table. [`Locks`] is the blocking object-lock table
//! 2PC and CE share; Cx's conflict table carries hints and invalidation
//! and lives in [`crate::cx`].

use crate::action::{Action, Endpoint};
use crate::stats::ServerStats;
use crate::trigger::{TriggerState, TriggerVerdict};
use cx_mdstore::{MetaStore, Undo};
use cx_simio::DiskReq;
use cx_types::rng::{det_rng, SmallRng};
use cx_types::{
    ClusterConfig, CxError, FxHashMap, Hint, ObjectId, OpId, Payload, Role, SimTime, SubOp, Verdict,
};
use cx_wal::{Record, SeqNo, Wal};
use std::collections::VecDeque;

/// One metadata server minus its protocol; `C` is what the engine parks on
/// a disk write.
pub(crate) struct Chassis<C> {
    pub(crate) store: MetaStore,
    /// Stays empty under an engine that keeps no log (OFS).
    pub(crate) wal: Wal,
    pub(crate) trigger: TriggerState,
    pub(crate) stats: ServerStats,
    fail_prob: f64,
    rng: SmallRng,
    /// Disk token → the log prefix its completion makes durable, and what
    /// the engine does next.
    io: FxHashMap<u64, (Option<SeqNo>, C)>,
    writebacks: Writebacks,
    next_token: u64,
}

impl<C> Chassis<C> {
    /// `rng_stream` separates the engines' failure-injection streams.
    pub(crate) fn new(cfg: &ClusterConfig, rng_stream: u64, log_limit: Option<u64>) -> Self {
        Self {
            store: MetaStore::new(),
            wal: Wal::new(log_limit),
            trigger: TriggerState::new(cfg.cx.trigger),
            stats: ServerStats::default(),
            fail_prob: cfg.failure.subop_fail_prob,
            rng: det_rng(cfg.seed, rng_stream),
            io: FxHashMap::default(),
            writebacks: Writebacks::default(),
            next_token: 0,
        }
    }

    // ---- execution ----

    /// Apply one sub-op, unless failure injection refuses the write.
    fn apply(&mut self, subop: &SubOp) -> Result<Undo, CxError> {
        if self.fail_prob > 0.0 && subop.is_write() && self.rng.gen::<f64>() < self.fail_prob {
            return Err(CxError::Injected);
        }
        self.store.apply(subop)
    }

    /// Execute one half of a cross-server operation (failure injection may
    /// refuse it).
    pub(crate) fn execute(&mut self, subop: &SubOp) -> (Verdict, Option<Undo>) {
        self.stats.subops_executed += 1;
        match self.apply(subop) {
            Ok(u) => (Verdict::Yes, Some(u)),
            Err(_) => (Verdict::No, None),
        }
    }

    /// Apply a sub-op and its colocated twin, all or nothing: the first
    /// refusal rolls back what succeeded. The undo tokens come back in
    /// execution order, all [`Undo::Nothing`] after a refusal.
    pub(crate) fn apply_all(
        &mut self,
        subop: &SubOp,
        colocated: Option<&SubOp>,
    ) -> (Verdict, [Undo; 2]) {
        let mut undos = [Undo::Nothing; 2];
        for (i, s) in std::iter::once(subop).chain(colocated).enumerate() {
            match self.apply(s) {
                Ok(u) => undos[i] = u,
                Err(_) => {
                    for u in undos.into_iter().rev() {
                        self.store.undo(u);
                    }
                    return (Verdict::No, [Undo::Nothing; 2]);
                }
            }
        }
        (Verdict::Yes, undos)
    }

    /// A cached read: served from the in-memory store, no logging.
    pub(crate) fn serve_read(
        &mut self,
        op_id: OpId,
        subop: &SubOp,
        hint: Hint,
        out: &mut Vec<Action>,
    ) {
        let verdict = Verdict::from_ok(self.store.apply(subop).is_ok());
        self.stats.reads_served += 1;
        respond(op_id, verdict, hint, out);
    }

    /// The single-server path of an engine with no conflict table of its
    /// own (2PC, CE): reads come from the cache; a mutation runs all or
    /// nothing, is logged already resolved, and its write-back rides the
    /// next batch. `cont` is parked on the log write.
    pub(crate) fn on_local(
        &mut self,
        now: SimTime,
        op_id: OpId,
        subop: SubOp,
        colocated: Option<SubOp>,
        cont: impl FnOnce(Verdict) -> C,
        out: &mut Vec<Action>,
    ) {
        if !subop.is_write() && colocated.is_none() {
            self.serve_read(op_id, &subop, Hint::null(), out);
            return;
        }
        let (verdict, _) = self.apply_all(&subop, colocated.as_ref());
        self.stats.local_mutations += 1;
        self.log(resolved_records(op_id, subop, verdict), cont(verdict), out)
            .expect("the log of a blocking engine is unlimited");
        self.note_pending(now, out);
    }

    /// The log write [`Chassis::on_local`] parked `cont` on is durable.
    pub(crate) fn local_done(&mut self, op_id: OpId, verdict: Verdict, out: &mut Vec<Action>) {
        self.wal.prune_op(&op_id);
        respond(op_id, verdict, Hint::null(), out);
    }

    // ---- disk ----

    /// A fresh token. Disk tokens and an engine's own timer tokens share
    /// the counter.
    pub(crate) fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Park `cont` under a fresh disk token; [`Chassis::disk_done`] hands
    /// it back once the log is durable up to `covers`.
    pub(crate) fn await_disk(&mut self, covers: Option<SeqNo>, cont: C) -> u64 {
        let token = self.token();
        self.io.insert(token, (covers, cont));
        token
    }

    /// Append records as one logical disk write; returns (max seq, bytes).
    /// Only a Result-Record can be refused (log full), and engines put it
    /// first, so a refusal appends nothing.
    pub(crate) fn append(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
    ) -> Result<(SeqNo, u64), CxError> {
        let mut max_seq = SeqNo(0);
        let mut total = 0;
        for rec in recs {
            let (seq, bytes) = self.wal.append(rec)?;
            max_seq = max_seq.max(seq);
            total += bytes;
        }
        Ok((max_seq, total))
    }

    /// Append `recs` and start the flush that makes them durable.
    pub(crate) fn log(
        &mut self,
        recs: impl IntoIterator<Item = Record>,
        cont: C,
        out: &mut Vec<Action>,
    ) -> Result<(), CxError> {
        let (seq, bytes) = self.append(recs)?;
        let token = self.await_disk(Some(seq), cont);
        out.push(Action::Disk(DiskReq::LogAppend { bytes, token }));
        Ok(())
    }

    /// A synchronous database write of `page`.
    pub(crate) fn sync_write(
        &mut self,
        page: u64,
        covers: Option<SeqNo>,
        cont: C,
        out: &mut Vec<Action>,
    ) {
        let token = self.await_disk(covers, cont);
        out.push(Action::Disk(DiskReq::DbSyncWrite { page, token }));
    }

    /// A disk completion arrived. Marks what it covered durable and hands
    /// back the parked continuation; `None` for a write-back (counted, not
    /// stored) and for a token issued before a crash.
    pub(crate) fn disk_done(&mut self, now: SimTime, token: u64) -> Option<C> {
        if let Some(live) = self.writebacks.complete(token) {
            if live {
                self.trigger.on_activity(now);
            }
            return None;
        }
        let (covers, cont) = self.io.remove(&token)?;
        self.trigger.on_activity(now);
        if let Some(seq) = covers {
            self.wal.mark_durable(seq);
        }
        Some(cont)
    }

    /// Write back every dirty object.
    pub(crate) fn flush_dirty(&mut self, out: &mut Vec<Action>) {
        let pages = self.store.take_dirty_pages();
        self.issue_writeback(pages, out);
    }

    /// Write back only the given objects (an immediate commitment touches
    /// a handful of operations; flushing the whole dirty set would turn
    /// every conflict into a full cache flush).
    pub(crate) fn flush_dirty_of(
        &mut self,
        objs: impl IntoIterator<Item = ObjectId>,
        out: &mut Vec<Action>,
    ) {
        let pages = self.store.take_dirty_pages_of(objs);
        self.issue_writeback(pages, out);
    }

    fn issue_writeback(&mut self, pages: Vec<u64>, out: &mut Vec<Action>) {
        if pages.is_empty() {
            return;
        }
        self.stats.writebacks += 1;
        self.writebacks.issue(&pages, &mut self.next_token, out);
    }

    /// Prune every resolved record and write back every dirty object.
    pub(crate) fn write_back(&mut self, out: &mut Vec<Action>) {
        self.wal.prune_all();
        self.flush_dirty(out);
    }

    /// No disk operation in flight.
    pub(crate) fn idle(&self) -> bool {
        self.io.is_empty() && self.writebacks.outstanding() == 0
    }

    /// (parked continuations, outstanding write-backs)
    pub(crate) fn in_flight(&self) -> (usize, u64) {
        (self.io.len(), self.writebacks.outstanding())
    }

    /// The queued disk operations died with the server.
    pub(crate) fn crash(&mut self) {
        self.io.clear();
        self.writebacks.crash(self.next_token);
    }

    // ---- batch trigger ----

    /// The one mapping from a trigger verdict to its action. Arming is a
    /// timer; `true` means the trigger fired, and the batch is the
    /// caller's to launch.
    fn heed(&mut self, verdict: TriggerVerdict, out: &mut Vec<Action>) -> bool {
        match verdict {
            TriggerVerdict::Fire => true,
            TriggerVerdict::Arm(delay_ns) => {
                out.push(Action::SetTimer {
                    token: self.trigger.generation(),
                    delay_ns,
                });
                false
            }
            TriggerVerdict::Wait => false,
        }
    }

    /// An operation joined the lazy batch; `true` when that fires it.
    pub(crate) fn pending_fires(&mut self, now: SimTime, out: &mut Vec<Action>) -> bool {
        let v = self.trigger.on_pending(now);
        self.heed(v, out)
    }

    /// A trigger timer came due; `true` when it fires the batch.
    pub(crate) fn timer_fires(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) -> bool {
        let v = self.trigger.on_timer(now, token);
        self.heed(v, out)
    }

    /// The batch of an engine that postpones only its write-back
    /// (OFS-batched, 2PC, CE): flush, and tell the trigger it fired so the
    /// pending count starts over. Also how such an engine quiesces.
    pub(crate) fn fire(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.write_back(out);
        self.trigger.on_batch_launched(now);
    }

    /// [`Chassis::pending_fires`] for a write-back-only batch.
    pub(crate) fn note_pending(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.pending_fires(now, out) {
            self.fire(now, out);
        }
    }

    /// [`Chassis::timer_fires`] for a write-back-only batch.
    pub(crate) fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>) {
        if self.timer_fires(now, token, out) {
            self.fire(now, out);
        }
    }
}

/// Answer a sub-op request.
pub(crate) fn respond(op_id: OpId, verdict: Verdict, hint: Hint, out: &mut Vec<Action>) {
    out.push(Action::Send {
        to: Endpoint::Proc(op_id.proc),
        payload: Payload::SubOpResp {
            op_id,
            verdict,
            hint,
        },
    });
}

/// The log records of a mutation that needs no commitment round: its
/// Result-Record and the Commit- or Abort-Record matching `verdict`,
/// prunable at once.
pub(crate) fn resolved_records(op_id: OpId, subop: SubOp, verdict: Verdict) -> [Record; 2] {
    [
        Record::Result {
            op_id,
            role: Role::Participant,
            peer: None,
            subop,
            verdict,
            invalidated: false,
        },
        if verdict.is_yes() {
            Record::Commit { op_id }
        } else {
            Record::Abort { op_id }
        },
    ]
}

/// The object locks of a blocking engine (2PC's transactions, CE's
/// migrations): an object an in-flight operation touches is held until the
/// operation finishes, and a request `W` that needs it parks behind the
/// holder.
pub(crate) struct Locks<W> {
    held: FxHashMap<ObjectId, OpId>,
    parked: FxHashMap<OpId, VecDeque<W>>,
}

impl<W> Default for Locks<W> {
    fn default() -> Self {
        Self {
            held: FxHashMap::default(),
            parked: FxHashMap::default(),
        }
    }
}

impl<W> Locks<W> {
    /// Take `objs` for `me`, or name the operation holding one of them. A
    /// process never waits for itself: its operations are synchronous.
    pub(crate) fn acquire(&mut self, objs: &[ObjectId], me: OpId) -> Result<(), OpId> {
        let holder = objs
            .iter()
            .find_map(|o| self.held.get(o).filter(|h| h.proc != me.proc));
        if let Some(&holder) = holder {
            return Err(holder);
        }
        for o in objs {
            self.held.insert(*o, me);
        }
        Ok(())
    }

    /// Park `waiter` behind `holder` (a conflict, for the statistics).
    pub(crate) fn wait(&mut self, holder: OpId, waiter: W, stats: &mut ServerStats) {
        stats.conflicts += 1;
        stats.blocked_requests += 1;
        self.parked.entry(holder).or_default().push_back(waiter);
    }

    /// `op` finished: drop its locks and hand back whoever waited for it,
    /// in arrival order, for the engine to retry.
    pub(crate) fn release(&mut self, op: OpId) -> VecDeque<W> {
        self.held.retain(|_, h| *h != op);
        self.parked.remove(&op).unwrap_or_default()
    }

    pub(crate) fn held(&self) -> usize {
        self.held.len()
    }

    pub(crate) fn idle(&self) -> bool {
        self.parked.values().all(|q| q.is_empty())
    }
}

/// Marks a disk token as a write-back's: its completion is counted by
/// [`Writebacks`], every other token has a continuation in `io`.
const WRITEBACK_TOKEN_BIT: u64 = 1 << 63;

/// An engine's outstanding database write-backs.
///
/// A write-back completion carries no state — nothing to answer, nothing
/// to mark durable — so it is counted, not stored: under load the log
/// owns the disk and tens of thousands of write-backs wait for the drain,
/// each of which would otherwise hold a continuation slot sized for the
/// engine's largest one.
#[derive(Debug, Default)]
struct Writebacks {
    outstanding: u64,
    /// Tokens numbered below this were issued before the last crash.
    floor: u64,
}

impl Writebacks {
    /// Emit the write-back of `pages`, numbering tokens from `next_token`.
    /// The batch is split into elevator-sized chunks so synchronous log
    /// flushes can interleave (background write-back must not block the
    /// latency-critical log for tens of milliseconds).
    fn issue(&mut self, pages: &[u64], next_token: &mut u64, out: &mut Vec<Action>) {
        for chunk in pages.chunks(32) {
            let token = *next_token | WRITEBACK_TOKEN_BIT;
            *next_token += 1;
            self.outstanding += 1;
            out.push(Action::Disk(DiskReq::DbWriteback {
                pages: chunk.to_vec(),
                token,
            }));
        }
    }

    /// A disk completion arrived. `None`: not a write-back's token, look
    /// in `io`. `Some(true)`: one outstanding write-back finished.
    /// `Some(false)`: a write-back lost in a crash; ignore it.
    fn complete(&mut self, token: u64) -> Option<bool> {
        if token & WRITEBACK_TOKEN_BIT == 0 {
            return None;
        }
        let live = token & !WRITEBACK_TOKEN_BIT >= self.floor && self.outstanding > 0;
        if live {
            self.outstanding -= 1;
        }
        Some(live)
    }

    fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// The queued write-backs died with the disk; `next_token` is the
    /// first token the next incarnation will issue.
    fn crash(&mut self, next_token: u64) {
        self.outstanding = 0;
        self.floor = next_token;
    }
}
