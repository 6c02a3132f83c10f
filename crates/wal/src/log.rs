//! The logical write-ahead log: append order, durability, index, pruning.

use crate::record::{Outcome, Record, RecordFamily};
use cx_types::{CxError, CxResult, OpId, OpTable, Role, ServerId, SubOp, Verdict};
use std::collections::{BTreeMap, VecDeque};

/// Position of a record in the log's append order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqNo(pub u64);

/// Inline list of an operation's records: each one's sequence number and
/// family, packed as `seq << 2 | family`.
///
/// An operation logs at most a Result-Record, an outcome record, and a
/// Complete-Record unless a sub-op is re-executed (disordered-conflict
/// handling), so three inline slots cover every other op without a heap
/// allocation; a longer history spills to a boxed `Vec`, one word inline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeqList {
    inline: [u64; 3],
    len: u8,
    /// Boxed on purpose: one word in every entry instead of three, paid
    /// for by a second allocation on the few ops that spill.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<u64>>>,
}

impl SeqList {
    pub fn push(&mut self, seq: u64, family: RecordFamily) {
        debug_assert!(seq < 1 << 62);
        let packed = seq << 2 | family.index() as u64;
        if (self.len as usize) < self.inline.len() {
            self.inline[self.len as usize] = packed;
            self.len += 1;
        } else {
            self.spill.get_or_insert_default().push(packed);
        }
    }

    fn spilled(&self) -> &[u64] {
        self.spill.as_deref().map_or(&[], Vec::as_slice)
    }

    pub fn iter(&self) -> impl Iterator<Item = (u64, RecordFamily)> + '_ {
        self.inline[..self.len as usize]
            .iter()
            .chain(self.spilled())
            .map(|&p| (p >> 2, RecordFamily::ALL[(p & 3) as usize]))
    }

    pub fn len(&self) -> usize {
        self.len as usize + self.spilled().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One operation's index entry, which is also the log's only in-memory
/// copy of that operation's records: its fields are those of its latest
/// Result-Record, and a control record is its family alone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpLogState {
    /// This server's role, from the Result-Record.
    pub role: Option<Role>,
    /// The other affected server, from the Result-Record.
    pub peer: Option<ServerId>,
    /// The logged sub-op and its verdict.
    pub subop: Option<SubOp>,
    pub verdict: Option<Verdict>,
    /// Execution was invalidated during disordered-conflict handling.
    pub invalidated: bool,
    /// Commit-/Abort-Record present.
    pub outcome: Option<Outcome>,
    /// Complete-Record present (coordinator only).
    pub complete: bool,
    /// Unpruned bytes currently held by this operation's records.
    pub bytes: u64,
    /// Sequence number and family of each of this operation's records, in
    /// append order.
    pub seqs: SeqList,
}

impl OpLogState {
    /// §III-D pruning rule: "for the coordinator, if a Complete-Record is
    /// presented in the log, all log records of that operation can be
    /// pruned; for the participant … a presented Commit-Record/Abort-Record
    /// indicates that all log records of that operation can be pruned."
    pub fn prunable(&self) -> bool {
        match self.role {
            Some(Role::Coordinator) => self.complete,
            Some(Role::Participant) => self.outcome.is_some(),
            // Control record without a local Result-Record (possible after
            // a crash truncated the tail): prunable once an outcome or
            // completion is known.
            None => self.complete || self.outcome.is_some(),
        }
    }

    /// This operation's record of `family`; a Result-Record is the latest.
    fn record(&self, op_id: OpId, family: RecordFamily) -> Record {
        match family {
            RecordFamily::Result => Record::Result {
                op_id,
                role: self.role.expect("a Result-Record sets the role"),
                peer: self.peer,
                subop: self.subop.expect("a Result-Record sets the sub-op"),
                verdict: self.verdict.expect("a Result-Record sets the verdict"),
                invalidated: self.invalidated,
            },
            RecordFamily::Commit => Record::Commit { op_id },
            RecordFamily::Abort => Record::Abort { op_id },
            RecordFamily::Complete => Record::Complete { op_id },
        }
    }
}

/// The write-ahead log of one server.
///
/// Appends are volatile until [`Wal::mark_durable`] confirms the disk flush
/// (log appends complete strictly in order, so durability is a prefix);
/// [`Wal::crash`] truncates the un-flushed tail and rebuilds the index,
/// which is exactly the state a rebooted server recovers from. The index
/// is the record store: no record is kept a second time.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    next_seq: u64,
    /// All records with seq < durable_next are on disk.
    durable_next: u64,
    index: OpTable<OpLogState>,
    /// Result-Records a later Result-Record of the same operation replaced
    /// in its index entry (a sub-op re-executed after invalidation, §III-C),
    /// by sequence number.
    superseded: BTreeMap<u64, Record>,
    /// Unpruned records.
    records: usize,
    valid_bytes: u64,
    limit: Option<u64>,
    total_appended: u64,
    total_pruned: u64,
    /// Cumulative appends per record family (never decremented — pruning
    /// and crashes don't undo that the protocol step happened). Fault
    /// injection keys crash points on these counts.
    appended_counts: [u64; RecordFamily::COUNT],
    /// Cumulative flush completions per record family.
    durable_counts: [u64; RecordFamily::COUNT],
    /// Families of the not-yet-durable suffix, in append order, so
    /// [`Wal::mark_durable`] can attribute flush completions to families
    /// without re-reading (possibly already pruned) records.
    tail_families: VecDeque<(u64, RecordFamily)>,
    /// Crashes that actually dropped appended records (torn or volatile
    /// tail) — the introspection plane's `cx_wal_truncations_total`.
    truncations: u64,
}

impl Wal {
    pub fn new(limit: Option<u64>) -> Self {
        Self {
            limit,
            ..Self::default()
        }
    }

    /// Unpruned record volume — the paper's "valid-records' size"
    /// (Figure 7(b), Table V).
    pub fn valid_bytes(&self) -> u64 {
        self.valid_bytes
    }

    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    pub fn total_appended_bytes(&self) -> u64 {
        self.total_appended
    }

    pub fn total_pruned_bytes(&self) -> u64 {
        self.total_pruned
    }

    /// Crashes that dropped at least one appended record.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// Would appending `bytes` more exceed the log's upper limit?
    /// Only Result-Records are limited: commit/abort/complete records must
    /// always be appendable or the server could never prune its way out of
    /// a full log.
    pub fn has_room(&self, bytes: u64) -> bool {
        match self.limit {
            Some(l) => self.valid_bytes + bytes <= l,
            None => true,
        }
    }

    /// Append a record. Result-Records respect the size limit
    /// ([`CxError::LogFull`]); control records always succeed. Returns the
    /// sequence number and encoded size (the caller submits a disk append
    /// of that many bytes and calls [`Wal::mark_durable`] on completion).
    pub fn append(&mut self, rec: Record) -> CxResult<(SeqNo, u64)> {
        let bytes = rec.encoded_len();
        if matches!(rec, Record::Result { .. }) && !self.has_room(bytes) {
            return Err(CxError::LogFull {
                needed: bytes,
                available: self
                    .limit
                    .map(|l| l.saturating_sub(self.valid_bytes))
                    .unwrap_or(u64::MAX),
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let family = rec.family();
        self.appended_counts[family.index()] += 1;
        self.tail_families.push_back((seq, family));
        self.index_record(&rec, bytes, seq);
        self.total_appended += bytes;
        Ok((SeqNo(seq), bytes))
    }

    fn index_record(&mut self, rec: &Record, bytes: u64, seq: u64) {
        let op = rec.op_id();
        let st = self.index.get_or_default(op);
        if let Record::Result { .. } = rec {
            // The entry's fields are about to describe this record; the one
            // they described so far is kept apart.
            let prev = st
                .seqs
                .iter()
                .filter(|&(_, f)| f == RecordFamily::Result)
                .last();
            if let Some((prev, _)) = prev {
                self.superseded
                    .insert(prev, st.record(op, RecordFamily::Result));
            }
        }
        st.bytes += bytes;
        st.seqs.push(seq, rec.family());
        self.records += 1;
        self.valid_bytes += bytes;
        match rec {
            Record::Result {
                role,
                peer,
                subop,
                verdict,
                invalidated,
                ..
            } => {
                st.role = Some(*role);
                st.peer = *peer;
                st.subop = Some(*subop);
                st.verdict = Some(*verdict);
                st.invalidated = *invalidated;
            }
            Record::Commit { .. } => st.outcome = Some(Outcome::Committed),
            Record::Abort { .. } => st.outcome = Some(Outcome::Aborted),
            Record::Complete { .. } => st.complete = true,
        }
    }

    /// Mark every record with sequence number `<= upto` durable.
    pub fn mark_durable(&mut self, upto: SeqNo) {
        self.durable_next = self.durable_next.max(upto.0 + 1);
        while matches!(self.tail_families.front(), Some(&(seq, _)) if seq < self.durable_next) {
            let (_, family) = self.tail_families.pop_front().expect("checked front");
            self.durable_counts[family.index()] += 1;
        }
    }

    /// Cumulative appends per record family, indexed by
    /// [`RecordFamily::index`].
    pub fn appended_counts(&self) -> [u64; RecordFamily::COUNT] {
        self.appended_counts
    }

    /// Cumulative flush completions per record family, indexed by
    /// [`RecordFamily::index`].
    pub fn durable_counts(&self) -> [u64; RecordFamily::COUNT] {
        self.durable_counts
    }

    /// True once the given append survived a flush.
    pub fn is_durable(&self, seq: SeqNo) -> bool {
        seq.0 < self.durable_next
    }

    /// Look up an operation in the index.
    pub fn op_state(&self, op: &OpId) -> Option<&OpLogState> {
        self.index.get(op)
    }

    /// Flip the invalidation flag on an operation's Result-Record
    /// (§III-C step 4: "the participant first invalidates the execution of
    /// Ep-B by invalidating the Result-Record of Ep-B").
    pub fn invalidate_result(&mut self, op: &OpId) -> CxResult<()> {
        let st = self.index.get_mut(op).ok_or(CxError::NoSuchRecord(*op))?;
        st.invalidated = true;
        for (seq, _) in st.seqs.iter() {
            if let Some(Record::Result { invalidated, .. }) = self.superseded.get_mut(&seq) {
                *invalidated = true;
            }
        }
        Ok(())
    }

    /// Prune one operation's records if its pruning rule allows. Returns
    /// freed bytes.
    pub fn prune_op(&mut self, op: &OpId) -> u64 {
        let Some(st) = self.index.get(op) else {
            return 0;
        };
        if !st.prunable() {
            return 0;
        }
        let freed = st.bytes;
        let st = self.index.remove(op).expect("checked above");
        if !self.superseded.is_empty() {
            for (seq, _) in st.seqs.iter() {
                self.superseded.remove(&seq);
            }
        }
        self.records -= st.seqs.len();
        self.valid_bytes -= freed;
        self.total_pruned += freed;
        freed
    }

    /// Prune every prunable operation ("the log records are periodically
    /// pruned after the commitments are performed", §III-D).
    pub fn prune_all(&mut self) -> u64 {
        // Slot order: the freed total and the log left behind are the same
        // in any order.
        let prunable: Vec<OpId> = self
            .index
            .iter()
            .filter(|(_, st)| st.prunable())
            .map(|(op, _)| *op)
            .collect();
        prunable.iter().map(|op| self.prune_op(op)).sum()
    }

    /// Operations whose commitment is unfinished, grouped by this server's
    /// role — the recovery protocol's work list ("resume all half-completed
    /// commitments of cross-server operations left in the log", §III-D).
    pub fn half_completed(&self) -> (Vec<OpId>, Vec<OpId>) {
        let mut coord = Vec::new();
        let mut parti = Vec::new();
        for (op, st) in self.index.iter() {
            match st.role {
                Some(Role::Coordinator) if !st.complete => coord.push(*op),
                Some(Role::Participant) if st.outcome.is_none() => parti.push(*op),
                _ => {}
            }
        }
        coord.sort_unstable();
        parti.sort_unstable();
        (coord, parti)
    }

    /// Crash: lose every record that never became durable, then rebuild
    /// the index from what remains.
    pub fn crash(&mut self) {
        self.crash_torn(0);
    }

    /// Crash with a torn tail. The durable prefix always survives — an
    /// acknowledgement is only sent after its flush completed, so durable
    /// records are physically on the platter — plus whichever *whole*
    /// volatile records fit in the first `extra_bytes` of the in-flight
    /// suffix: the bytes the disk happened to have written when power was
    /// lost. A partially-written record never survives; the on-disk format
    /// rejects torn encodings (see [`crate::decode_record`]), so the
    /// recovery scan stops at the last whole record.
    ///
    /// Survivors are promoted to durable: they are on disk now, whatever
    /// the in-flight flush bookkeeping said when power failed.
    pub fn crash_torn(&mut self, extra_bytes: u64) {
        let log: Vec<(SeqNo, Record)> = self.scan().collect();
        let mut survive_next = self.durable_next;
        let mut budget = extra_bytes;
        for (SeqNo(seq), rec) in &log {
            if *seq < self.durable_next {
                continue;
            }
            let len = rec.encoded_len();
            if len > budget {
                break;
            }
            budget -= len;
            survive_next = seq + 1;
        }
        if survive_next < self.next_seq {
            self.truncations += 1;
        }
        // Promote the surviving volatile records to durable; the rest of
        // the in-flight suffix is gone for good.
        while matches!(self.tail_families.front(), Some(&(seq, _)) if seq < survive_next) {
            let (_, family) = self.tail_families.pop_front().expect("checked front");
            self.durable_counts[family.index()] += 1;
        }
        self.tail_families.clear();
        self.durable_next = self.durable_next.max(survive_next);
        // Re-index the survivors: the index is all a rebooted server reads.
        self.index.clear();
        self.superseded.clear();
        self.records = 0;
        self.valid_bytes = 0;
        for (SeqNo(seq), rec) in log.iter().take_while(|(s, _)| s.0 < survive_next) {
            self.index_record(rec, rec.encoded_len(), *seq);
        }
    }

    /// The unpruned records in append order, rebuilt from the index. Only
    /// tests and [`Wal::crash_torn`] read the log whole; recovery works from
    /// [`Wal::half_completed`] and [`Wal::op_state`].
    pub fn scan(&self) -> impl Iterator<Item = (SeqNo, Record)> {
        let mut log: Vec<(SeqNo, Record)> = Vec::with_capacity(self.records);
        for (op, st) in self.index.iter() {
            for (seq, family) in st.seqs.iter() {
                let rec = match self.superseded.get(&seq) {
                    Some(rec) => rec.clone(),
                    None => st.record(*op, family),
                };
                log.push((SeqNo(seq), rec));
            }
        }
        log.sort_unstable_by_key(|&(seq, _)| seq);
        log.into_iter()
    }

    pub fn record_count(&self) -> usize {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{FileKind, InodeNo, ProcId};

    fn oid(seq: u64) -> OpId {
        OpId::new(ProcId::new(0, 0), seq)
    }

    fn result(op: OpId, role: Role) -> Record {
        Record::Result {
            op_id: op,
            role,
            peer: Some(ServerId(1)),
            subop: SubOp::CreateInode {
                ino: InodeNo(10),
                kind: FileKind::Regular,
            },
            verdict: Verdict::Yes,
            invalidated: false,
        }
    }

    /// An op's index slot is what the log holds per live op; keep it
    /// fourteen words with its key.
    #[test]
    fn an_index_slot_is_112_bytes() {
        assert_eq!(std::mem::size_of::<SeqList>(), 40);
        assert_eq!(std::mem::size_of::<OpLogState>(), 96);
        assert_eq!(std::mem::size_of::<Option<(OpId, OpLogState)>>(), 112);
    }

    /// A re-executed op's fourth record and beyond spill, in order.
    #[test]
    fn a_long_history_spills_in_order() {
        let mut seqs = SeqList::default();
        let families = [
            RecordFamily::Result,
            RecordFamily::Result,
            RecordFamily::Commit,
            RecordFamily::Complete,
            RecordFamily::Abort,
        ];
        for (seq, &family) in families.iter().enumerate() {
            seqs.push(seq as u64, family);
            assert_eq!(seqs.len(), seq + 1);
        }
        let got: Vec<(u64, RecordFamily)> = seqs.iter().collect();
        let want: Vec<(u64, RecordFamily)> =
            families.into_iter().zip(0..).map(|(f, s)| (s, f)).collect();
        assert_eq!(got, want);
        assert!(!seqs.is_empty() && SeqList::default().is_empty());
    }

    #[test]
    fn append_and_index() {
        let mut wal = Wal::new(None);
        let (s0, b0) = wal.append(result(oid(1), Role::Coordinator)).unwrap();
        assert_eq!(s0, SeqNo(0));
        assert_eq!(wal.valid_bytes(), b0);
        let st = wal.op_state(&oid(1)).unwrap();
        assert_eq!(st.role, Some(Role::Coordinator));
        assert_eq!(st.verdict, Some(Verdict::Yes));
        assert!(!st.prunable());
    }

    #[test]
    fn coordinator_prunes_on_complete_only() {
        let mut wal = Wal::new(None);
        wal.append(result(oid(1), Role::Coordinator)).unwrap();
        wal.append(Record::Commit { op_id: oid(1) }).unwrap();
        assert_eq!(wal.prune_op(&oid(1)), 0, "commit alone is not enough");
        wal.append(Record::Complete { op_id: oid(1) }).unwrap();
        let freed = wal.prune_op(&oid(1));
        assert!(freed > 0);
        assert_eq!(wal.valid_bytes(), 0);
        assert_eq!(wal.record_count(), 0);
    }

    #[test]
    fn participant_prunes_on_outcome() {
        let mut wal = Wal::new(None);
        wal.append(result(oid(1), Role::Participant)).unwrap();
        assert_eq!(wal.prune_op(&oid(1)), 0);
        wal.append(Record::Abort { op_id: oid(1) }).unwrap();
        assert!(wal.prune_op(&oid(1)) > 0);
        assert_eq!(wal.valid_bytes(), 0);
    }

    #[test]
    fn log_limit_blocks_result_records_but_not_control() {
        let mut wal = Wal::new(Some(400)); // each Result-Record is 191 bytes
        wal.append(result(oid(1), Role::Coordinator)).unwrap();
        wal.append(result(oid(2), Role::Coordinator)).unwrap();
        let err = wal.append(result(oid(3), Role::Coordinator)).unwrap_err();
        assert!(matches!(err, CxError::LogFull { .. }));
        // control records still go through
        wal.append(Record::Commit { op_id: oid(1) }).unwrap();
        wal.append(Record::Complete { op_id: oid(1) }).unwrap();
        // pruning makes room again
        assert!(wal.prune_op(&oid(1)) > 0);
        wal.append(result(oid(3), Role::Coordinator)).unwrap();
    }

    #[test]
    fn crash_truncates_volatile_tail() {
        let mut wal = Wal::new(None);
        let (s1, _) = wal.append(result(oid(1), Role::Coordinator)).unwrap();
        wal.append(result(oid(2), Role::Coordinator)).unwrap();
        wal.mark_durable(s1);
        assert!(wal.is_durable(s1));
        wal.crash();
        assert!(wal.op_state(&oid(1)).is_some());
        assert!(
            wal.op_state(&oid(2)).is_none(),
            "un-flushed record must vanish on crash"
        );
        assert_eq!(wal.record_count(), 1);
    }

    #[test]
    fn half_completed_partition() {
        let mut wal = Wal::new(None);
        wal.append(result(oid(1), Role::Coordinator)).unwrap();
        wal.append(result(oid(2), Role::Participant)).unwrap();
        wal.append(result(oid(3), Role::Coordinator)).unwrap();
        wal.append(Record::Commit { op_id: oid(3) }).unwrap();
        wal.append(Record::Complete { op_id: oid(3) }).unwrap();
        wal.append(result(oid(4), Role::Participant)).unwrap();
        wal.append(Record::Commit { op_id: oid(4) }).unwrap();
        let (coord, parti) = wal.half_completed();
        assert_eq!(coord, vec![oid(1)], "op 3 is complete");
        assert_eq!(parti, vec![oid(2)], "op 4 has its outcome");
    }

    #[test]
    fn invalidate_result_flips_flag() {
        let mut wal = Wal::new(None);
        wal.append(result(oid(1), Role::Participant)).unwrap();
        wal.invalidate_result(&oid(1)).unwrap();
        assert!(wal.op_state(&oid(1)).unwrap().invalidated);
        // and the stored record reflects it (visible to recovery scans)
        let (_, rec) = wal.scan().next().unwrap();
        assert!(matches!(
            rec,
            Record::Result {
                invalidated: true,
                ..
            }
        ));
        assert!(wal.invalidate_result(&oid(9)).is_err());
    }

    #[test]
    fn prune_all_frees_everything_eligible() {
        let mut wal = Wal::new(None);
        for i in 0..10 {
            wal.append(result(oid(i), Role::Participant)).unwrap();
            if i % 2 == 0 {
                wal.append(Record::Commit { op_id: oid(i) }).unwrap();
            }
        }
        let before = wal.valid_bytes();
        let freed = wal.prune_all();
        assert!(freed > 0 && freed < before);
        let (_, parti) = wal.half_completed();
        assert_eq!(parti.len(), 5, "odd ops remain");
    }

    #[test]
    fn crash_rebuild_preserves_index_consistency() {
        let mut wal = Wal::new(None);
        let (_, _) = wal.append(result(oid(1), Role::Participant)).unwrap();
        let (s2, _) = wal.append(Record::Commit { op_id: oid(1) }).unwrap();
        wal.mark_durable(s2);
        wal.crash();
        let st = wal.op_state(&oid(1)).unwrap();
        assert_eq!(st.outcome, Some(Outcome::Committed));
        assert!(st.prunable());
        assert_eq!(
            wal.valid_bytes(),
            wal.scan().map(|(_, r)| r.encoded_len()).sum::<u64>()
        );
    }

    #[test]
    fn family_counters_track_appends_and_flushes() {
        let mut wal = Wal::new(None);
        let (s1, _) = wal.append(result(oid(1), Role::Participant)).unwrap();
        wal.append(Record::Commit { op_id: oid(1) }).unwrap();
        let idx = |f: RecordFamily| f.index();
        assert_eq!(wal.appended_counts()[idx(RecordFamily::Result)], 1);
        assert_eq!(wal.appended_counts()[idx(RecordFamily::Commit)], 1);
        assert_eq!(wal.durable_counts(), [0; RecordFamily::COUNT]);
        wal.mark_durable(s1);
        assert_eq!(wal.durable_counts()[idx(RecordFamily::Result)], 1);
        assert_eq!(wal.durable_counts()[idx(RecordFamily::Commit)], 0);
        // pruning never decrements the cumulative counters
        wal.append(Record::Complete { op_id: oid(1) }).unwrap();
        wal.prune_all();
        assert_eq!(wal.appended_counts()[idx(RecordFamily::Result)], 1);
    }

    #[test]
    fn torn_crash_keeps_whole_volatile_prefix() {
        let mut wal = Wal::new(None);
        let (s1, _) = wal.append(result(oid(1), Role::Participant)).unwrap();
        let (_, b2) = wal.append(result(oid(2), Role::Participant)).unwrap();
        wal.append(result(oid(3), Role::Participant)).unwrap();
        wal.mark_durable(s1);
        // enough torn bytes for op 2's whole record but not op 3's
        wal.crash_torn(b2 + 1);
        assert!(wal.op_state(&oid(1)).is_some());
        assert!(
            wal.op_state(&oid(2)).is_some(),
            "whole torn record survives"
        );
        assert!(wal.op_state(&oid(3)).is_none(), "partial record is lost");
        // survivors are durable now: a second crash keeps them
        wal.crash();
        assert!(wal.op_state(&oid(2)).is_some());
        assert_eq!(wal.record_count(), 2);
    }

    #[test]
    fn torn_crash_with_zero_extra_matches_plain_crash() {
        let build = || {
            let mut wal = Wal::new(None);
            let (s, _) = wal.append(result(oid(1), Role::Coordinator)).unwrap();
            wal.append(result(oid(2), Role::Coordinator)).unwrap();
            wal.mark_durable(s);
            wal
        };
        let mut a = build();
        let mut b = build();
        a.crash();
        b.crash_torn(0);
        assert_eq!(a.record_count(), b.record_count());
        assert_eq!(a.valid_bytes(), b.valid_bytes());
    }

    #[test]
    fn truncation_counter_tracks_lossy_crashes_only() {
        let mut wal = Wal::new(None);
        let (s1, _) = wal.append(result(oid(1), Role::Coordinator)).unwrap();
        wal.mark_durable(s1);
        wal.crash();
        assert_eq!(wal.truncations(), 0, "nothing volatile was lost");
        wal.append(result(oid(2), Role::Coordinator)).unwrap();
        wal.crash();
        assert_eq!(wal.truncations(), 1, "volatile record dropped");
        let (s3, _) = wal.append(result(oid(3), Role::Coordinator)).unwrap();
        let (_, b4) = wal.append(result(oid(4), Role::Coordinator)).unwrap();
        wal.mark_durable(s3);
        wal.crash_torn(b4); // whole torn record survives — still no loss
        assert_eq!(wal.truncations(), 1);
    }

    #[test]
    fn accounting_totals() {
        let mut wal = Wal::new(None);
        wal.append(result(oid(1), Role::Participant)).unwrap();
        wal.append(Record::Commit { op_id: oid(1) }).unwrap();
        let appended = wal.total_appended_bytes();
        assert_eq!(appended, wal.valid_bytes());
        wal.prune_all();
        assert_eq!(wal.total_pruned_bytes(), appended);
        assert_eq!(wal.valid_bytes(), 0);
    }
}
