//! The collector: an enum sink that is a no-op when disabled.
//!
//! Runtimes and engines hold an [`ObsSink`] by value. `ObsSink::Off` is a
//! unit variant, so every emission call is a single discriminant branch
//! and returns immediately — the instrumented hot path costs nothing when
//! observability is off, and recording never schedules events or touches
//! protocol state, so golden digests are identical either way (pinned by
//! `tests/observability.rs`). `ObsSink::On` wraps the recorder in
//! `Arc<Mutex<…>>` so the same sink type serves the single-threaded DES
//! and the threaded runtime.

use crate::flow::{FlowNode, MsgEdge};
use crate::hist::LogHistogram;
use crate::net::correct_ns;
use crate::report::ObsReport;
use crate::span::{OpSpan, Phase, StuckOp};
use cx_types::{FxHashMap, MsgKind, OpClass, OpId, OpOutcome, ServerId, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Caps on what the recorder keeps in detail. Histograms always cover
/// *every* operation; full spans (for the Perfetto trace), gauge samples
/// and message edges are kept oldest first up to these caps, so memory
/// stays bounded on full-scale replays. A report counts what it dropped.
const MAX_SPANS: usize = 20_000;
const MAX_GAUGES: usize = 100_000;
const MAX_EDGES: usize = 50_000;

/// A per-server scalar over virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GaugeKind {
    /// Objects modified by pending (uncommitted) operations.
    ActiveObjects,
    /// Unpruned log bytes.
    ValidLogBytes,
    /// Ops queued for, or riding in, commitment batches.
    PendingBatchOps,
    /// CPU queue backlog in nanoseconds (busy-until minus now).
    QueueBacklogNs,
    /// 0 when the server crashes, 1 when its recovery finishes. Written
    /// on those two events only, never by the periodic sampler.
    Liveness,
}

impl GaugeKind {
    pub const ALL: [GaugeKind; 5] = [
        GaugeKind::ActiveObjects,
        GaugeKind::ValidLogBytes,
        GaugeKind::PendingBatchOps,
        GaugeKind::QueueBacklogNs,
        GaugeKind::Liveness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            GaugeKind::ActiveObjects => "active_objects",
            GaugeKind::ValidLogBytes => "valid_log_bytes",
            GaugeKind::PendingBatchOps => "pending_batch_ops",
            GaugeKind::QueueBacklogNs => "queue_backlog_ns",
            GaugeKind::Liveness => "liveness",
        }
    }
}

/// One gauge observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    pub at: SimTime,
    pub server: u32,
    pub kind: GaugeKind,
    pub value: u64,
}

/// Engine-reported instantaneous state, polled by the runtime on the
/// sampling cadence. Every protocol fills in what it has; zeros are fine.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineGauges {
    /// Active objects (Cx §III-B) or the closest analogue.
    pub active_objects: u64,
    /// Ops awaiting a lazy batch plus ops inside in-flight batches.
    pub pending_batch_ops: u64,
}

/// Minimal per-op state kept for *every* in-flight op (16 bytes of
/// payload), enough for commitment-latency histograms and stuck-op
/// diagnostics without storing full spans.
#[derive(Debug, Clone, Copy)]
struct LiveOp {
    phase: Phase,
    at: SimTime,
    server: u32,
    replied_at: u64,
    cross: bool,
}

/// The shared collector behind `ObsSink::On`.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Shard mode: this recorder lives in a child process that never sees
    /// `op_issued` (the client runs elsewhere), so a phase stamp for an
    /// unknown op *creates* its span — a partial span shard the
    /// coordinator later merges with [`Recorder::absorb_shard`]. Off for
    /// the coordinator itself, where an unknown op means "not kept".
    shard: bool,
    pub protocol: String,

    // -------- histograms over every op --------
    pub client_all: LogHistogram,
    pub client_cross: LogHistogram,
    pub client_local: LogHistogram,
    /// Replied → Completed, cross ops only (the paper's decoupled path).
    pub commitment: LogHistogram,
    pub client_by_class: Vec<LogHistogram>,

    // -------- span window (the first `MAX_SPANS` issued ops) --------
    spans: FxHashMap<OpId, OpSpan>,
    span_order: Vec<OpId>,
    issued_seen: u64,

    // -------- live tracking of all in-flight ops --------
    live: FxHashMap<OpId, LiveOp>,

    // -------- causal message edges --------
    pub edges: Vec<MsgEdge>,
    next_edge_id: u64,
    pub(crate) dropped_edges: u64,

    // -------- gauges & diagnostics --------
    pub gauges: Vec<GaugeSample>,
    pub stuck: Vec<StuckOp>,
    pub(crate) dropped_spans: u64,
    pub(crate) dropped_gauges: u64,
}

impl Recorder {
    fn new(protocol: impl Into<String>, shard: bool) -> Self {
        Self {
            shard,
            protocol: protocol.into(),
            client_by_class: vec![LogHistogram::new(); OpClass::COUNT],
            ..Self::default()
        }
    }

    fn class_index(class: OpClass) -> usize {
        class.index()
    }

    fn issued(&mut self, op: OpId, class: OpClass, cross: bool, at: SimTime) {
        self.live.insert(
            op,
            LiveOp {
                phase: Phase::Issued,
                at,
                server: u32::MAX,
                replied_at: u64::MAX,
                cross,
            },
        );
        self.issued_seen += 1;
        if self.spans.len() < MAX_SPANS {
            self.spans.insert(op, OpSpan::new(op, class, cross, at));
            self.span_order.push(op);
        } else {
            self.dropped_spans += 1;
        }
    }

    fn phase(&mut self, op: OpId, phase: Phase, at: SimTime, server: Option<ServerId>) {
        if let Some(live) = self.live.get_mut(&op) {
            if phase > live.phase {
                live.phase = phase;
                live.at = at;
                if let Some(s) = server {
                    live.server = s.0;
                }
            }
            if phase == Phase::Completed {
                let live = self.live.remove(&op).expect("just fetched");
                if live.replied_at != u64::MAX && live.cross {
                    self.commitment.record(at.0.saturating_sub(live.replied_at));
                }
            }
        }
        if let Some(span) = self.spans.get_mut(&op) {
            span.stamp(phase, at, server);
        } else if self.shard && self.spans.len() < MAX_SPANS {
            // Child-process shard: first stamp creates the span. Class
            // and cross are placeholders — the coordinator's own span
            // carries the real ones; only the stamps travel.
            let mut span = OpSpan::new(op, OpClass::Create, false, SimTime(0));
            span.at_ns[Phase::Issued.index()] = crate::span::UNSET;
            span.stamp(phase, at, server);
            self.spans.insert(op, span);
            self.span_order.push(op);
        }
    }

    fn replied(&mut self, op: OpId, at: SimTime, outcome: OpOutcome, awaits_commitment: bool) {
        if awaits_commitment {
            if let Some(live) = self.live.get_mut(&op) {
                if Phase::Replied > live.phase {
                    live.phase = Phase::Replied;
                    live.at = at;
                }
                live.replied_at = at.0;
            }
        } else {
            self.live.remove(&op);
        }
        if let Some(span) = self.spans.get_mut(&op) {
            span.stamp(Phase::Replied, at, None);
            span.outcome = Some(outcome);
        }
    }

    /// Client latency histograms are fed directly by the runtime (it
    /// already computes the latency for `RunStats`), so the recorder does
    /// not need to track issue stamps for unsampled ops.
    fn client_latency(&mut self, class: OpClass, cross: bool, latency_ns: u64) {
        self.client_all.record(latency_ns);
        if cross {
            self.client_cross.record(latency_ns);
        } else {
            self.client_local.record(latency_ns);
        }
        self.client_by_class[Self::class_index(class)].record(latency_ns);
    }

    fn gauge(&mut self, sample: GaugeSample) {
        if self.gauges.len() < MAX_GAUGES {
            self.gauges.push(sample);
        } else {
            self.dropped_gauges += 1;
        }
    }

    fn msg_edge(
        &mut self,
        op: Option<OpId>,
        kind: MsgKind,
        from: FlowNode,
        to: FlowNode,
        sent_ns: u64,
        recv_ns: u64,
    ) {
        self.next_edge_id += 1;
        if self.edges.len() < MAX_EDGES {
            self.edges.push(MsgEdge {
                id: self.next_edge_id,
                op,
                kind,
                from,
                to,
                sent_ns,
                recv_ns,
            });
        } else {
            self.dropped_edges += 1;
        }
    }

    /// Structured hang diagnostics for every op still in flight: derived
    /// from the live map, so it names the exact stalled phase even for
    /// ops outside the sampled span window.
    pub fn stuck_report(&mut self) -> Vec<StuckOp> {
        let mut v: Vec<StuckOp> = self
            .live
            .iter()
            .filter(|(_, l)| l.phase < Phase::Replied)
            .map(|(&op, l)| StuckOp {
                op,
                phase: l.phase,
                server: (l.server != u32::MAX).then_some(ServerId(l.server)),
                since: l.at,
            })
            .collect();
        v.sort_by_key(|s| (s.since, s.op));
        self.stuck = v.clone();
        v
    }

    /// The sampled spans, in issue order.
    pub fn spans(&self) -> Vec<OpSpan> {
        self.span_order
            .iter()
            .filter_map(|op| self.spans.get(op).copied())
            .collect()
    }

    /// Merge a child process's span shard (see [`ObsSink::shard`])
    /// into this coordinator recorder. `offset_ns` is the shard process's
    /// clock-offset estimate (its clock minus ours, from the wire plane's
    /// probe RTT sampler): every shard stamp is pulled onto our clock, then
    /// clamped so corrected stamps stay monotone along the phase order —
    /// offset error up to ± RTT/2 must never produce a span that fails
    /// [`OpSpan::check_accounting`]. Coordinator-recorded stamps always
    /// win (first-writer-wins via [`OpSpan::stamp`]); ops the coordinator
    /// never saw issued are skipped entirely unless they are still in its
    /// live map (commitment accounting for unsampled ops).
    pub fn absorb_shard(&mut self, shard: &[OpSpan], offset_ns: i64) {
        for s in shard {
            if !self.spans.contains_key(&s.op) && !self.live.contains_key(&s.op) {
                continue;
            }
            // Coordinator stamps are causal ground truth for the shard's:
            // a server-side milestone happened after every coordinator
            // stamp that precedes it in phase order and before every one
            // that follows (the message carrying it was still in flight).
            // `cap[i]` is the earliest coordinator stamp at a phase ≥ i,
            // so a corrected shard stamp — good only to ±rtt/2 — gets
            // pinned inside its causal interval, not just clamped from
            // below.
            let mut cap = [u64::MAX; Phase::COUNT];
            if let Some(sp) = self.spans.get(&s.op) {
                let mut next = u64::MAX;
                for ph in Phase::ALL.iter().rev() {
                    if let Some(t) = sp.at(*ph) {
                        next = next.min(t);
                    }
                    cap[ph.index()] = next;
                }
            }
            // `prev` tracks the latest stamp seen walking the phases in
            // order — existing coordinator stamps and corrected shard
            // stamps alike — so each new stamp is clamped monotone.
            let mut prev = 0u64;
            for ph in Phase::ALL {
                if let Some(t) = self.spans.get(&s.op).and_then(|sp| sp.at(ph)) {
                    prev = prev.max(t);
                    continue;
                }
                let Some(raw) = s.at(ph) else { continue };
                let at = correct_ns(raw, offset_ns)
                    .max(prev)
                    .min(cap[ph.index()].max(prev));
                let server = (s.server[ph.index()] != crate::span::NO_SERVER)
                    .then(|| ServerId(s.server[ph.index()]));
                self.phase(s.op, ph, SimTime(at), server);
                prev = at;
            }
        }
    }

    /// Merge a child process's message edges, offset-corrected like
    /// [`Self::absorb_shard`] (flight times are cross-clock one-way spans
    /// — exactly what the offset estimate exists for). Edges get fresh
    /// ids so flow arcs from different shards never collide.
    pub fn absorb_edges(&mut self, edges: &[MsgEdge], offset_ns: i64) {
        for e in edges {
            let sent = correct_ns(e.sent_ns, offset_ns);
            self.msg_edge(
                e.op,
                e.kind,
                e.from,
                e.to,
                sent,
                correct_ns(e.recv_ns, offset_ns).max(sent),
            );
        }
    }

    /// Snapshot everything into the exportable report.
    pub fn report(&self) -> ObsReport {
        ObsReport::from_recorder(self)
    }

    /// Decompose every sampled span's latency into blame segments (see
    /// [`crate::blame`]). Call after shards have been absorbed so the
    /// table covers the stitched, offset-corrected plane.
    pub fn blame_table(&self) -> crate::blame::BlameTable {
        crate::blame::BlameTable::from_spans(&self.protocol, &self.spans(), &self.edges)
    }

    /// Ops whose issue this recorder saw, replied to or not.
    pub fn ops_issued(&self) -> u64 {
        self.issued_seen
    }
}

/// The sink handed to runtimes and engines. Cloning is cheap (`Off` is a
/// unit; `On` bumps an `Arc`).
#[derive(Clone, Default)]
pub enum ObsSink {
    /// Recording disabled: every call returns immediately.
    #[default]
    Off,
    /// Recording into a shared [`Recorder`].
    On(Arc<Mutex<Recorder>>),
}

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsSink::Off => write!(f, "ObsSink::Off"),
            ObsSink::On(_) => write!(f, "ObsSink::On"),
        }
    }
}

impl ObsSink {
    /// A recording sink.
    pub fn recording(protocol: impl Into<String>) -> Self {
        ObsSink::On(Arc::new(Mutex::new(Recorder::new(protocol, false))))
    }

    /// A recording sink for a server process whose clients run elsewhere:
    /// a phase stamp for an op it never saw issued starts that op's span,
    /// a shard for the coordinator's [`Self::absorb_shard`].
    pub fn shard(protocol: impl Into<String>) -> Self {
        ObsSink::On(Arc::new(Mutex::new(Recorder::new(protocol, true))))
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, ObsSink::On(_))
    }

    #[inline]
    fn with(&self, f: impl FnOnce(&mut Recorder)) {
        if let ObsSink::On(rec) = self {
            f(&mut rec.lock().expect("obs recorder poisoned"));
        }
    }

    /// An operation was issued by its process.
    #[inline]
    pub fn op_issued(&self, op: OpId, class: OpClass, cross: bool, at: SimTime) {
        self.with(|r| r.issued(op, class, cross, at));
    }

    /// A lifecycle milestone was reached.
    #[inline]
    pub fn op_phase(&self, op: OpId, phase: Phase, at: SimTime, server: Option<ServerId>) {
        self.with(|r| r.phase(op, phase, at, server));
    }

    /// The process received its final response. `awaits_commitment` keeps
    /// the op live until [`Phase::Completed`] (Cx cross ops); all other
    /// protocols finish everything before the reply.
    #[inline]
    pub fn op_replied(&self, op: OpId, at: SimTime, outcome: OpOutcome, awaits_commitment: bool) {
        self.with(|r| r.replied(op, at, outcome, awaits_commitment));
    }

    /// Feed the client-visible latency (the runtime computes it anyway).
    #[inline]
    pub fn client_latency(&self, class: OpClass, cross: bool, latency_ns: u64) {
        self.with(|r| r.client_latency(class, cross, latency_ns));
    }

    /// Record a cross-server message edge: `kind` sent `from → to` at
    /// `sent_ns`, delivered at `recv_ns`. The runtime calls this at the
    /// send site (the DES schedules the delivery time there anyway).
    #[inline]
    pub fn msg_edge(
        &self,
        op: Option<OpId>,
        kind: MsgKind,
        from: FlowNode,
        to: FlowNode,
        sent_ns: u64,
        recv_ns: u64,
    ) {
        self.with(|r| r.msg_edge(op, kind, from, to, sent_ns, recv_ns));
    }

    /// Record a gauge observation.
    #[inline]
    pub fn gauge(&self, at: SimTime, server: u32, kind: GaugeKind, value: u64) {
        self.with(|r| {
            r.gauge(GaugeSample {
                at,
                server,
                kind,
                value,
            })
        });
    }

    /// Snapshot the exportable report (None when the sink is off).
    pub fn report(&self) -> Option<ObsReport> {
        match self {
            ObsSink::Off => None,
            ObsSink::On(rec) => Some(rec.lock().expect("obs recorder poisoned").report()),
        }
    }

    /// The aggregated blame table over the sampled spans (None when off).
    pub fn blame_table(&self) -> Option<crate::blame::BlameTable> {
        match self {
            ObsSink::Off => None,
            ObsSink::On(rec) => Some(rec.lock().expect("obs recorder poisoned").blame_table()),
        }
    }

    /// Structured stuck-op diagnostics (empty when off or nothing hangs).
    pub fn stuck_report(&self) -> Vec<StuckOp> {
        match self {
            ObsSink::Off => Vec::new(),
            ObsSink::On(rec) => rec.lock().expect("obs recorder poisoned").stuck_report(),
        }
    }

    /// Pull this (shard-mode) recorder's spans and message edges for
    /// shipping to the coordinator. Cloned, not drained.
    pub fn export_shard(&self) -> (Vec<OpSpan>, Vec<MsgEdge>) {
        match self {
            ObsSink::Off => (Vec::new(), Vec::new()),
            ObsSink::On(rec) => {
                let r = rec.lock().expect("obs recorder poisoned");
                (r.spans(), r.edges.clone())
            }
        }
    }

    /// Merge a child process's shard with its estimated clock offset (its
    /// clock minus ours). See [`Recorder::absorb_shard`].
    pub fn absorb_shard(&self, spans: &[OpSpan], edges: &[MsgEdge], offset_ns: i64) {
        self.with(|r| {
            r.absorb_shard(spans, offset_ns);
            r.absorb_edges(edges, offset_ns);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::ProcId;

    fn op(seq: u64) -> OpId {
        OpId::new(ProcId::new(1, 0), seq)
    }

    #[test]
    fn off_sink_is_inert() {
        let s = ObsSink::Off;
        assert!(!s.enabled());
        s.op_issued(op(0), OpClass::Create, true, SimTime(0));
        s.client_latency(OpClass::Create, true, 100);
        assert!(s.report().is_none());
        assert!(s.stuck_report().is_empty());
    }

    #[test]
    fn lifecycle_flows_into_report() {
        let s = ObsSink::recording("cx");
        s.op_issued(op(1), OpClass::Create, true, SimTime(0));
        s.op_phase(op(1), Phase::Dispatched, SimTime(10), None);
        s.op_phase(op(1), Phase::Executed, SimTime(50), Some(ServerId(2)));
        s.op_replied(op(1), SimTime(80), OpOutcome::Applied, true);
        s.client_latency(OpClass::Create, true, 80);
        s.op_phase(op(1), Phase::VoteSent, SimTime(400), Some(ServerId(2)));
        s.op_phase(op(1), Phase::Completed, SimTime(900), Some(ServerId(2)));
        let rep = s.report().unwrap();
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].client_visible_ns(), Some(80));
        assert_eq!(rep.spans[0].commitment_ns(), Some(820));
        assert_eq!(rep.client_all.count, 1);
        assert_eq!(rep.commitment.count, 1);
        assert_eq!(rep.commitment.max, 820);
        assert!(s.stuck_report().is_empty());
    }

    #[test]
    fn unreplied_ops_become_stuck() {
        let s = ObsSink::recording("cx");
        s.op_issued(op(7), OpClass::Mkdir, true, SimTime(5));
        s.op_phase(op(7), Phase::Dispatched, SimTime(9), None);
        let stuck = s.stuck_report();
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].phase, Phase::Dispatched);
        assert_eq!(stuck[0].since, SimTime(9));
    }

    #[test]
    fn shard_merge_stitches_cross_process_spans_with_offset_correction() {
        // Coordinator (client-side process): sees issue, dispatch, reply.
        let coord = ObsSink::recording("cx");
        coord.op_issued(op(1), OpClass::Mkdir, true, SimTime(1_000_000));
        coord.op_phase(op(1), Phase::Dispatched, SimTime(1_100_000), None);
        coord.op_replied(op(1), SimTime(2_000_000), OpOutcome::Applied, true);
        coord.client_latency(OpClass::Mkdir, true, 1_000_000);

        // Server child: shard-mode recorder on a clock 5 ms ahead.
        let child = ObsSink::shard("cx");
        let skew = 5_000_000i64;
        let at = |ours: u64| SimTime((ours as i64 + skew) as u64);
        child.op_phase(op(1), Phase::Executed, at(1_500_000), Some(ServerId(2)));
        child.op_phase(op(1), Phase::VoteSent, at(2_500_000), Some(ServerId(2)));
        child.op_phase(op(1), Phase::Completed, at(4_000_000), Some(ServerId(2)));
        // An op the coordinator never issued (another client's) is skipped.
        child.op_phase(op(99), Phase::Executed, at(1_000), Some(ServerId(2)));
        child.msg_edge(
            Some(op(1)),
            MsgKind::Vote,
            FlowNode::Server(2),
            FlowNode::Server(3),
            at(2_500_000).0,
            at(2_600_000).0,
        );

        let (spans, edges) = child.export_shard();
        assert_eq!(spans.len(), 2);
        coord.absorb_shard(&spans, &edges, skew);

        let rep = coord.report().unwrap();
        assert_eq!(rep.spans.len(), 1, "foreign op not adopted");
        let s = &rep.spans[0];
        assert_eq!(s.at(Phase::Executed), Some(1_500_000), "offset corrected");
        assert_eq!(s.at(Phase::Completed), Some(4_000_000));
        assert_eq!(s.server[Phase::Executed.index()], 2);
        // Coordinator stamps won over anything the shard could say.
        assert_eq!(s.at(Phase::Replied), Some(2_000_000));
        assert!(s.check_accounting().is_ok());
        // Completed closed the live op and fed the commitment histogram.
        assert_eq!(rep.commitment.count, 1);
        assert_eq!(rep.commitment.max, 2_000_000);
        assert!(coord.stuck_report().is_empty());
        // The edge arrived offset-corrected with a fresh id.
        assert_eq!(rep.edges.len(), 1);
        assert_eq!(rep.edges[0].sent_ns, 2_500_000);
        assert_eq!(rep.edges[0].recv_ns, 2_600_000);
    }

    #[test]
    fn shard_merge_offset_error_keeps_stamps_monotone() {
        let coord = ObsSink::recording("cx");
        coord.op_issued(op(5), OpClass::Link, true, SimTime(1_000_000));
        coord.op_replied(op(5), SimTime(3_000_000), OpOutcome::Applied, true);
        // A badly overestimated offset would pull the shard's Executed
        // stamp *before* Dispatched/Issued; the merge clamps instead.
        let child = ObsSink::shard("cx");
        child.op_phase(op(5), Phase::Executed, SimTime(1_100_000), None);
        child.op_phase(op(5), Phase::Completed, SimTime(1_200_000), None);
        let (spans, edges) = child.export_shard();
        // Claimed offset 2 ms: corrected Executed would be *negative*
        // relative to Replied ordering… clamp keeps phases monotone.
        coord.absorb_shard(&spans, &edges, 2_000_000);
        let rep = coord.report().unwrap();
        let s = &rep.spans[0];
        assert!(s.check_accounting().is_ok());
        let mut prev = 0;
        for (_, t) in s.reached() {
            assert!(t >= prev, "monotone corrected stamps");
            prev = t;
        }
    }

    #[test]
    fn shard_merge_caps_stamps_at_later_coordinator_stamps() {
        let coord = ObsSink::recording("cx");
        coord.op_issued(op(6), OpClass::Link, true, SimTime(1_000_000));
        coord.op_phase(op(6), Phase::Dispatched, SimTime(1_100_000), None);
        coord.op_replied(op(6), SimTime(2_000_000), OpOutcome::Applied, true);
        let child = ObsSink::shard("cx");
        child.op_phase(
            op(6),
            Phase::Executed,
            SimTime(1_500_000),
            Some(ServerId(1)),
        );
        let (spans, edges) = child.export_shard();
        // A badly *underestimated* offset (claimed −1 ms) would push the
        // corrected Executed to 2.5 ms — past the coordinator's Replied.
        // The reply carrying it proves it happened first, so the merge
        // pins it at the Replied stamp.
        coord.absorb_shard(&spans, &edges, -1_000_000);
        let rep = coord.report().unwrap();
        let s = &rep.spans[0];
        assert_eq!(s.at(Phase::Executed), Some(2_000_000), "capped at Replied");
        assert_eq!(s.server[Phase::Executed.index()], 1);
        assert!(s.check_accounting().is_ok());
    }

    #[test]
    fn caps_bound_spans_gauges_and_edges_but_not_histograms() {
        let s = ObsSink::recording("cx");
        let ops = MAX_SPANS as u64 + 3;
        for i in 0..ops {
            s.op_issued(op(i), OpClass::Stat, false, SimTime(i));
            s.op_replied(op(i), SimTime(i + 10), OpOutcome::Applied, false);
            s.client_latency(OpClass::Stat, false, 10);
        }
        for i in 0..MAX_GAUGES as u64 + 3 {
            s.gauge(SimTime(i), 0, GaugeKind::ValidLogBytes, i);
        }
        for i in 0..MAX_EDGES as u64 + 3 {
            let (from, to) = (FlowNode::Server(0), FlowNode::Server(1));
            s.msg_edge(None, MsgKind::Vote, from, to, i, i + 1);
        }
        let rep = s.report().unwrap();
        assert_eq!(rep.spans.len(), MAX_SPANS);
        assert_eq!(rep.dropped_spans, 3);
        assert_eq!(rep.client_all.count, ops);
        assert_eq!(rep.gauges.len(), MAX_GAUGES);
        assert_eq!(rep.dropped_gauges, 3);
        assert_eq!(rep.edges.len(), MAX_EDGES);
        assert_eq!(rep.dropped_edges, 3);
        let kept = format!("gauges: {MAX_GAUGES} kept, 3 beyond the cap");
        assert!(rep.render_dashboard().contains(&kept));
    }
}
