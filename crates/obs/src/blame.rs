//! Blame attribution: decompose every completed op's end-to-end latency
//! into named segments and aggregate them into mergeable tables.
//!
//! The segment taxonomy mirrors the paper's decomposition of a
//! cross-server operation:
//!
//! - the **client-visible window** (`Issued → Replied`) splits along the
//!   critical path ([`crate::path`]) into issue queueing, per-hop request
//!   wire, coordinator dispatch, participant execution, on-path commitment
//!   (2PC's vote round, CE's migration — work the client *waits* for),
//!   reply wire, and reply delivery;
//! - the **off-path commitment suffix** (`Replied → Completed`, Cx only)
//!   splits at the phase stamps into vote launch, vote round, decision
//!   round, and completion.
//!
//! Per op, the invariant `sum(client segments) == client_visible_ns` and
//! `sum(suffix segments) == commitment_ns` holds exactly — the doctor's
//! version of `OpSpan::check_accounting`, preserved under shard-merged
//! clock-corrected stamps by the clamping in both decompositions. That is
//! the paper's figure-5 claim made machine-checkable: Cx accrues its
//! commitment time in the off-path suffix, 2PC accrues it in
//! `commit-onpath` inside the client window.

use crate::flow::{FlowNode, MsgEdge};
use crate::hist::{fmt_ns_f, HistSummary, LogHistogram};
use crate::path::{critical_path, edge_class, EdgeClass};
use crate::span::{OpSpan, Phase};
use cx_types::OpId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A named latency segment. The first seven live inside the client-visible
/// window; the last four form the off-path commitment suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Seg {
    /// Client-side queueing: `Issued` → the first request leaves.
    IssueQueue,
    /// Server-side gap before forwarding a data request (coordinator
    /// dispatch).
    Dispatch,
    /// Data-request flight on the critical path.
    ReqWire,
    /// Server-side gap before sending a data response (participant
    /// execution).
    Execute,
    /// Commitment/coordination work the client waited for: gaps before and
    /// flights of vote/decision/migration messages inside the
    /// client-visible window (2PC, CE — near zero for Cx and SE).
    CommitOnPath,
    /// Data-response flight on the critical path.
    ReplyWire,
    /// Client-side time between the final response arriving and the
    /// `Replied` stamp.
    ReplyDeliver,
    /// `Replied` → `VoteSent`: batching delay before the lazy commitment
    /// launches (off-path, Cx).
    VoteLaunch,
    /// `VoteSent` → `DecisionSent`: the vote round.
    VoteRound,
    /// `DecisionSent` → `Acked`: the decision round.
    DecisionRound,
    /// `Acked` → `Completed`: the completion record.
    Complete,
}

impl Seg {
    pub const COUNT: usize = 11;
    pub const ALL: [Seg; Seg::COUNT] = [
        Seg::IssueQueue,
        Seg::Dispatch,
        Seg::ReqWire,
        Seg::Execute,
        Seg::CommitOnPath,
        Seg::ReplyWire,
        Seg::ReplyDeliver,
        Seg::VoteLaunch,
        Seg::VoteRound,
        Seg::DecisionRound,
        Seg::Complete,
    ];
    /// Segments inside the client-visible window, in path order.
    pub const CLIENT: [Seg; 7] = [
        Seg::IssueQueue,
        Seg::Dispatch,
        Seg::ReqWire,
        Seg::Execute,
        Seg::CommitOnPath,
        Seg::ReplyWire,
        Seg::ReplyDeliver,
    ];
    /// Segments of the off-path commitment suffix, in order.
    pub const SUFFIX: [Seg; 4] = [
        Seg::VoteLaunch,
        Seg::VoteRound,
        Seg::DecisionRound,
        Seg::Complete,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn is_client_visible(self) -> bool {
        (self as usize) < 7
    }

    pub fn name(self) -> &'static str {
        match self {
            Seg::IssueQueue => "issue-queue",
            Seg::Dispatch => "dispatch",
            Seg::ReqWire => "req-wire",
            Seg::Execute => "execute",
            Seg::CommitOnPath => "commit-onpath",
            Seg::ReplyWire => "reply-wire",
            Seg::ReplyDeliver => "reply-deliver",
            Seg::VoteLaunch => "vote-launch",
            Seg::VoteRound => "vote-round",
            Seg::DecisionRound => "decision-round",
            Seg::Complete => "complete",
        }
    }
}

/// One row of an exemplar's annotated waterfall.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainRow {
    /// Offset from `Issued`.
    pub t_rel_ns: u64,
    pub dur_ns: u64,
    pub seg: Seg,
    /// Human annotation: what happened, where.
    pub label: String,
}

/// The per-op decomposition. `segs` indexes by [`Seg::index`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpBlame {
    pub op: OpId,
    pub class: String,
    pub cross: bool,
    /// `Issued → Replied`.
    pub client_ns: u64,
    /// `Replied → Completed` (0 when the op has no off-path suffix).
    pub commit_ns: u64,
    pub segs: [u64; Seg::COUNT],
    /// True when the op had no usable causal chain and the coarse
    /// phase-window decomposition was used instead.
    pub fallback: bool,
    /// The annotated waterfall, in time order.
    pub chain: Vec<ChainRow>,
}

impl OpBlame {
    /// The doctor's accounting invariant: client segments sum exactly to
    /// the client-visible latency, suffix segments to the commitment
    /// latency, and every segment is trivially non-negative (`u64`).
    pub fn check(&self) -> Result<(), String> {
        let client: u64 = Seg::CLIENT.iter().map(|s| self.segs[s.index()]).sum();
        if client != self.client_ns {
            return Err(format!(
                "{}: client segments sum to {client} but client window is {}",
                self.op, self.client_ns
            ));
        }
        let suffix: u64 = Seg::SUFFIX.iter().map(|s| self.segs[s.index()]).sum();
        if suffix != self.commit_ns {
            return Err(format!(
                "{}: suffix segments sum to {suffix} but commitment window is {}",
                self.op, self.commit_ns
            ));
        }
        Ok(())
    }
}

/// Decompose one completed span. Returns `None` for ops without a
/// `Replied` stamp (still in flight — nothing to blame).
pub fn blame_span(span: &OpSpan, edges: &[&MsgEdge]) -> Option<OpBlame> {
    let t0 = span.at(Phase::Issued)?;
    let t3 = span.at(Phase::Replied)?;
    let t3 = t3.max(t0);
    let client_ns = t3 - t0;
    let mut segs = [0u64; Seg::COUNT];
    let mut chain: Vec<ChainRow> = Vec::new();
    let mut fallback = false;

    match critical_path(span, edges) {
        Some(cp) => {
            for h in &cp.hops {
                // The on-node gap before the send: at a client it is issue
                // queueing; at a server it takes the class of the message
                // the node was preparing.
                let gap_seg = match (h.from, edge_class(h.kind)) {
                    (FlowNode::Client(_), _) => Seg::IssueQueue,
                    (FlowNode::Server(_), EdgeClass::Req) => Seg::Dispatch,
                    (FlowNode::Server(_), EdgeClass::Resp) => Seg::Execute,
                    (FlowNode::Server(_), EdgeClass::Commit) => Seg::CommitOnPath,
                };
                let wire_seg = match edge_class(h.kind) {
                    EdgeClass::Req => Seg::ReqWire,
                    EdgeClass::Resp => Seg::ReplyWire,
                    EdgeClass::Commit => Seg::CommitOnPath,
                };
                segs[gap_seg.index()] += h.gap_ns;
                segs[wire_seg.index()] += h.wire_ns;
                if h.gap_ns > 0 {
                    chain.push(ChainRow {
                        t_rel_ns: h.sent_ns.saturating_sub(t0).saturating_sub(h.gap_ns),
                        dur_ns: h.gap_ns,
                        seg: gap_seg,
                        label: format!("{} @ {}", gap_seg.name(), h.from),
                    });
                }
                chain.push(ChainRow {
                    t_rel_ns: h.sent_ns - t0,
                    dur_ns: h.wire_ns,
                    seg: wire_seg,
                    label: format!("{} {} → {}", h.kind.name(), h.from, h.to),
                });
            }
            if cp.tail_ns > 0 {
                segs[Seg::ReplyDeliver.index()] += cp.tail_ns;
                chain.push(ChainRow {
                    t_rel_ns: client_ns - cp.tail_ns,
                    dur_ns: cp.tail_ns,
                    seg: Seg::ReplyDeliver,
                    label: "reply-deliver @ client".into(),
                });
            }
        }
        None => {
            // Phase-window fallback: consecutive reached prefix stamps,
            // clamped monotone; each window takes the segment named by its
            // endpoint.
            fallback = true;
            let mut prev = t0;
            for (ph, seg) in [
                (Phase::Dispatched, Seg::IssueQueue),
                (Phase::Executed, Seg::Execute),
                (Phase::Replied, Seg::ReplyDeliver),
            ] {
                let Some(raw) = span.at(ph) else { continue };
                let at = raw.clamp(prev, t3);
                if at > prev {
                    segs[seg.index()] += at - prev;
                    chain.push(ChainRow {
                        t_rel_ns: prev - t0,
                        dur_ns: at - prev,
                        seg,
                        label: format!("{} (phase window)", seg.name()),
                    });
                }
                prev = at;
            }
            // A span can lack Executed/Dispatched stamps; whatever remains
            // before Replied is delivery time.
            if t3 > prev {
                segs[Seg::ReplyDeliver.index()] += t3 - prev;
                prev = t3;
            }
            debug_assert_eq!(prev, t3);
        }
    }

    // Off-path commitment suffix, from the phase stamps. Stamps below the
    // Replied boundary (2PC/CE commit *before* replying) are on-path and
    // already accounted above; clamping skips them here.
    let completed = span.at(Phase::Completed).unwrap_or(t3).max(t3);
    let commit_ns = completed - t3;
    if commit_ns > 0 {
        let mut prev = t3;
        for (ph, seg) in [
            (Phase::VoteSent, Seg::VoteLaunch),
            (Phase::DecisionSent, Seg::VoteRound),
            (Phase::Acked, Seg::DecisionRound),
        ] {
            let Some(raw) = span.at(ph) else { continue };
            let at = raw.clamp(prev, completed);
            if at > prev {
                segs[seg.index()] += at - prev;
                chain.push(ChainRow {
                    t_rel_ns: prev - t0,
                    dur_ns: at - prev,
                    seg,
                    label: format!("{} (off-path)", seg.name()),
                });
            }
            prev = at;
        }
        if completed > prev {
            segs[Seg::Complete.index()] += completed - prev;
            chain.push(ChainRow {
                t_rel_ns: prev - t0,
                dur_ns: completed - prev,
                seg: Seg::Complete,
                label: "complete (off-path)".into(),
            });
        }
    }

    Some(OpBlame {
        op: span.op,
        class: span.class.name().to_string(),
        cross: span.cross,
        client_ns,
        commit_ns,
        segs,
        fallback,
        chain,
    })
}

/// One segment's histogram row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegRow {
    pub seg: Seg,
    pub hist: LogHistogram,
}

/// Per-op-class segment rows (sparse: only classes that appeared).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassBlame {
    pub class: String,
    pub client_total: LogHistogram,
    pub segs: Vec<SegRow>,
}

/// Wire time of one critical-path hop family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HopRow {
    pub from: FlowNode,
    pub to: FlowNode,
    pub seg: Seg,
    pub hist: LogHistogram,
}

/// On-node time of one (node, segment) family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeRow {
    pub node: FlowNode,
    pub seg: Seg,
    pub hist: LogHistogram,
}

/// A tail exemplar: one of the K slowest ops, with its full decomposition
/// and annotated waterfall. Self-contained (pre-rendered labels) so the
/// table stays meaningful after spans and edges are gone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Exemplar {
    pub op: String,
    pub class: String,
    pub cross: bool,
    pub client_ns: u64,
    pub commit_ns: u64,
    pub segs: Vec<SegRow>,
    pub chain: Vec<ChainRow>,
}

/// How many tail exemplars a table keeps.
pub const EXEMPLARS: usize = 5;

/// The aggregated blame table of one run (or one merged set of runs).
/// Every histogram merges element-wise, so tables compose across
/// partitions and processes exactly like the underlying histograms.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BlameTable {
    pub protocol: String,
    /// Ops decomposed into this table.
    pub ops: u64,
    /// Ops that used the coarse phase-window fallback (no causal chain).
    pub fallback_ops: u64,
    pub client_total: LogHistogram,
    pub commit_total: LogHistogram,
    /// Per-segment durations, one row per [`Seg`] in enum order.
    pub segs: Vec<SegRow>,
    /// Per-(op-class, segment) rows.
    pub per_class: Vec<ClassBlame>,
    /// Per-hop wire time on critical paths.
    pub hops: Vec<HopRow>,
    /// Per-(node, segment) on-node time on critical paths.
    pub nodes: Vec<NodeRow>,
    /// The K slowest ops by client-visible latency.
    pub exemplars: Vec<Exemplar>,
}

impl BlameTable {
    pub fn new(protocol: &str) -> Self {
        Self {
            protocol: protocol.to_string(),
            segs: Seg::ALL
                .iter()
                .map(|&seg| SegRow {
                    seg,
                    hist: LogHistogram::new(),
                })
                .collect(),
            ..Self::default()
        }
    }

    /// Build the table from a run's sampled spans and message edges — the
    /// doctor's entry point.
    pub fn from_spans(protocol: &str, spans: &[OpSpan], edges: &[MsgEdge]) -> Self {
        let mut by_op: HashMap<OpId, Vec<&MsgEdge>> = HashMap::new();
        for e in edges {
            if let Some(op) = e.op {
                by_op.entry(op).or_default().push(e);
            }
        }
        let empty: Vec<&MsgEdge> = Vec::new();
        let mut t = Self::new(protocol);
        let mut blamed: Vec<(OpBlame, &OpSpan)> = Vec::new();
        for span in spans {
            let op_edges = by_op.get(&span.op).unwrap_or(&empty);
            if let Some(b) = blame_span(span, op_edges) {
                t.absorb_op(&b, op_edges);
                blamed.push((b, span));
            }
        }
        // Tail exemplars: the K slowest by client-visible latency.
        blamed.sort_by_key(|x| std::cmp::Reverse(x.0.client_ns));
        t.exemplars = blamed
            .iter()
            .take(EXEMPLARS)
            .map(|(b, _)| Exemplar {
                op: b.op.to_string(),
                class: b.class.clone(),
                cross: b.cross,
                client_ns: b.client_ns,
                commit_ns: b.commit_ns,
                segs: Seg::ALL
                    .iter()
                    .filter(|s| b.segs[s.index()] > 0)
                    .map(|&seg| {
                        let mut hist = LogHistogram::new();
                        hist.record(b.segs[seg.index()]);
                        SegRow { seg, hist }
                    })
                    .collect(),
                chain: b.chain.clone(),
            })
            .collect();
        t
    }

    /// Fold one op's decomposition into the histograms.
    fn absorb_op(&mut self, b: &OpBlame, op_edges: &[&MsgEdge]) {
        self.ops += 1;
        if b.fallback {
            self.fallback_ops += 1;
        }
        self.client_total.record(b.client_ns);
        if b.commit_ns > 0 {
            self.commit_total.record(b.commit_ns);
        }
        for seg in Seg::ALL {
            let v = b.segs[seg.index()];
            if v > 0 {
                self.segs[seg.index()].hist.record(v);
            }
        }
        let class_row = match self.per_class.iter_mut().find(|c| c.class == b.class) {
            Some(c) => c,
            None => {
                self.per_class.push(ClassBlame {
                    class: b.class.clone(),
                    client_total: LogHistogram::new(),
                    segs: Vec::new(),
                });
                self.per_class.last_mut().expect("just pushed")
            }
        };
        class_row.client_total.record(b.client_ns);
        for seg in Seg::ALL {
            let v = b.segs[seg.index()];
            if v == 0 {
                continue;
            }
            match class_row.segs.iter_mut().find(|r| r.seg == seg) {
                Some(r) => r.hist.record(v),
                None => {
                    let mut hist = LogHistogram::new();
                    hist.record(v);
                    class_row.segs.push(SegRow { seg, hist });
                }
            }
        }
        // Per-hop / per-node attribution from the chain rows. The chain
        // labels carry the endpoints; re-walking the hop structure keeps
        // this exact without a second path extraction.
        let _ = op_edges;
        for row in &b.chain {
            match row.seg {
                Seg::ReqWire | Seg::ReplyWire => {
                    if let Some((from, to)) = parse_hop(&row.label) {
                        self.record_hop(from, to, row.seg, row.dur_ns);
                    }
                }
                Seg::Dispatch | Seg::Execute | Seg::CommitOnPath => {
                    if let Some(node) = parse_node(&row.label) {
                        self.record_node(node, row.seg, row.dur_ns);
                    } else if let Some((from, to)) = parse_hop(&row.label) {
                        // commit-onpath wire rows.
                        self.record_hop(from, to, row.seg, row.dur_ns);
                    }
                }
                _ => {}
            }
        }
    }

    fn record_hop(&mut self, from: FlowNode, to: FlowNode, seg: Seg, ns: u64) {
        match self
            .hops
            .iter_mut()
            .find(|h| h.from == from && h.to == to && h.seg == seg)
        {
            Some(h) => h.hist.record(ns),
            None => {
                let mut hist = LogHistogram::new();
                hist.record(ns);
                self.hops.push(HopRow {
                    from,
                    to,
                    seg,
                    hist,
                });
            }
        }
    }

    fn record_node(&mut self, node: FlowNode, seg: Seg, ns: u64) {
        match self
            .nodes
            .iter_mut()
            .find(|n| n.node == node && n.seg == seg)
        {
            Some(n) => n.hist.record(ns),
            None => {
                let mut hist = LogHistogram::new();
                hist.record(ns);
                self.nodes.push(NodeRow { node, seg, hist });
            }
        }
    }

    /// Fold another table in (partition/process merge). Histograms add
    /// element-wise; exemplars keep the union's K slowest.
    pub fn merge(&mut self, other: &BlameTable) {
        if self.protocol.is_empty() {
            self.protocol = other.protocol.clone();
        }
        if self.segs.is_empty() {
            *self = Self::new(&self.protocol.clone());
        }
        self.ops += other.ops;
        self.fallback_ops += other.fallback_ops;
        self.client_total.merge(&other.client_total);
        self.commit_total.merge(&other.commit_total);
        for (mine, theirs) in self.segs.iter_mut().zip(&other.segs) {
            mine.hist.merge(&theirs.hist);
        }
        for c in &other.per_class {
            match self.per_class.iter_mut().find(|m| m.class == c.class) {
                Some(m) => {
                    m.client_total.merge(&c.client_total);
                    for r in &c.segs {
                        match m.segs.iter_mut().find(|x| x.seg == r.seg) {
                            Some(x) => x.hist.merge(&r.hist),
                            None => m.segs.push(r.clone()),
                        }
                    }
                }
                None => self.per_class.push(c.clone()),
            }
        }
        for h in &other.hops {
            match self
                .hops
                .iter_mut()
                .find(|m| m.from == h.from && m.to == h.to && m.seg == h.seg)
            {
                Some(m) => m.hist.merge(&h.hist),
                None => self.hops.push(h.clone()),
            }
        }
        for n in &other.nodes {
            match self
                .nodes
                .iter_mut()
                .find(|m| m.node == n.node && m.seg == n.seg)
            {
                Some(m) => m.hist.merge(&n.hist),
                None => self.nodes.push(n.clone()),
            }
        }
        self.exemplars.extend(other.exemplars.iter().cloned());
        self.exemplars
            .sort_by_key(|e| std::cmp::Reverse(e.client_ns));
        self.exemplars.truncate(EXEMPLARS);
    }

    /// The client-visible segments ranked by total attributed time,
    /// non-empty only.
    pub fn top_segments(&self) -> Vec<(Seg, &LogHistogram)> {
        let mut v: Vec<(Seg, &LogHistogram)> = self
            .segs
            .iter()
            .filter(|r| r.hist.count > 0)
            .map(|r| (r.seg, &r.hist))
            .collect();
        v.sort_by_key(|x| std::cmp::Reverse(x.1.sum));
        v
    }

    /// The doctor's text rendering.
    pub fn render(&self) -> String {
        fn row(label: &str, h: &LogHistogram, denom: u64) -> String {
            let s = h.summary();
            let share = if denom == 0 {
                0.0
            } else {
                100.0 * h.sum as f64 / denom as f64
            };
            format!(
                "  {label:<24} n={:<8} mean={:<9} p50={:<9} p99={:<9} max={:<9} share={share:>5.1}%\n",
                s.count,
                fmt_ns_f(s.mean_ns),
                HistSummary::fmt_ns(s.p50_ns),
                HistSummary::fmt_ns(s.p99_ns),
                HistSummary::fmt_ns(s.max_ns),
            )
        }
        let mut out = String::new();
        out.push_str(&format!(
            "== blame · protocol {} · {} ops",
            self.protocol, self.ops
        ));
        if self.fallback_ops > 0 {
            out.push_str(&format!(
                " ({} via phase-window fallback)",
                self.fallback_ops
            ));
        }
        out.push_str(" ==\n");
        out.push_str(&format!(
            "client-visible window: mean {} over {} ops\n",
            fmt_ns_f(self.client_total.mean()),
            self.client_total.count,
        ));
        for (seg, hist) in self
            .segs
            .iter()
            .filter(|r| r.seg.is_client_visible() && r.hist.count > 0)
            .map(|r| (r.seg, &r.hist))
        {
            out.push_str(&row(seg.name(), hist, self.client_total.sum));
        }
        if self.commit_total.count > 0 {
            out.push_str(&format!(
                "off-path commitment suffix: mean {} over {} ops\n",
                fmt_ns_f(self.commit_total.mean()),
                self.commit_total.count,
            ));
            for (seg, hist) in self
                .segs
                .iter()
                .filter(|r| !r.seg.is_client_visible() && r.hist.count > 0)
                .map(|r| (r.seg, &r.hist))
            {
                out.push_str(&row(seg.name(), hist, self.commit_total.sum));
            }
        } else {
            out.push_str(&format!(
                "off-path commitment suffix: none ({} commits before replying)\n",
                self.protocol
            ));
        }
        if !self.per_class.is_empty() {
            out.push_str("per-class top segment:\n");
            let mut classes: Vec<&ClassBlame> = self.per_class.iter().collect();
            classes.sort_by(|a, b| a.class.cmp(&b.class));
            for c in classes {
                let top = c.segs.iter().max_by_key(|r| r.hist.sum);
                if let Some(top) = top {
                    out.push_str(&format!(
                        "  {:<10} n={:<8} client mean={:<9} top segment {} ({})\n",
                        c.class,
                        c.client_total.count,
                        fmt_ns_f(c.client_total.mean()),
                        top.seg.name(),
                        fmt_ns_f(top.hist.mean()),
                    ));
                }
            }
        }
        if !self.hops.is_empty() {
            out.push_str("critical-path wire time per hop:\n");
            let mut hops: Vec<&HopRow> = self.hops.iter().collect();
            hops.sort_by_key(|h| std::cmp::Reverse(h.hist.sum));
            for h in hops.iter().take(12) {
                let s = h.hist.summary();
                out.push_str(&format!(
                    "  {:<4} → {:<4} {:<14} n={:<8} mean={:<9} p99={}\n",
                    h.from.to_string(),
                    h.to.to_string(),
                    h.seg.name(),
                    s.count,
                    fmt_ns_f(s.mean_ns),
                    HistSummary::fmt_ns(s.p99_ns),
                ));
            }
        }
        if !self.nodes.is_empty() {
            out.push_str("critical-path on-node time:\n");
            let mut nodes: Vec<&NodeRow> = self.nodes.iter().collect();
            nodes.sort_by_key(|n| std::cmp::Reverse(n.hist.sum));
            for n in nodes.iter().take(12) {
                let s = n.hist.summary();
                out.push_str(&format!(
                    "  {:<9} {:<14} n={:<8} mean={:<9} p99={}\n",
                    n.node.to_string(),
                    n.seg.name(),
                    s.count,
                    fmt_ns_f(s.mean_ns),
                    HistSummary::fmt_ns(s.p99_ns),
                ));
            }
        }
        for (i, e) in self.exemplars.iter().enumerate() {
            out.push_str(&format!(
                "exemplar #{} · {} · {} · {} · client {} / commitment {}\n",
                i + 1,
                e.op,
                e.class,
                if e.cross {
                    "cross-server"
                } else {
                    "single-server"
                },
                fmt_ns_f(e.client_ns as f64),
                fmt_ns_f(e.commit_ns as f64),
            ));
            for c in &e.chain {
                out.push_str(&format!(
                    "  +{:<11} {:<14} {} ({})\n",
                    HistSummary::fmt_ns(c.t_rel_ns),
                    c.seg.name(),
                    c.label,
                    HistSummary::fmt_ns(c.dur_ns),
                ));
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BlameTable serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad BlameTable JSON: {e:?}"))
    }
}

/// `s3`-style hop endpoints out of a chain label ("SUBOP-REQ s0 → s1").
fn parse_hop(label: &str) -> Option<(FlowNode, FlowNode)> {
    let (lhs, rhs) = label.split_once(" → ")?;
    let from = parse_flow(lhs.rsplit(' ').next()?)?;
    let to = parse_flow(rhs.trim())?;
    Some((from, to))
}

/// The node out of an on-node chain label ("execute @ s1").
fn parse_node(label: &str) -> Option<FlowNode> {
    let (_, rhs) = label.split_once(" @ ")?;
    parse_flow(rhs.trim())
}

fn parse_flow(s: &str) -> Option<FlowNode> {
    let (tag, num) = s.split_at(1);
    let n: u32 = num.parse().ok()?;
    match tag {
        "s" => Some(FlowNode::Server(n)),
        "c" => Some(FlowNode::Client(n)),
        _ => None,
    }
}

/// One segment's contribution to a latency delta between two runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegDelta {
    pub seg: Seg,
    /// Per-op mean over all blamed ops in the base run.
    pub base_ns: f64,
    pub new_ns: f64,
    /// `new - base`.
    pub delta_ns: f64,
    /// Significance band: two standard errors (bucket-variance estimate)
    /// plus the histograms' quantization resolution.
    pub band_ns: f64,
    pub significant: bool,
}

/// The run-diff: the client-visible latency delta between two runs,
/// attributed to segments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlameDiff {
    pub base_protocol: String,
    pub new_protocol: String,
    pub base_client_ns: f64,
    pub new_client_ns: f64,
    /// Per-segment deltas, sorted by |delta| descending.
    pub rows: Vec<SegDelta>,
    /// The hop families whose wire/on-node time shifted most (label,
    /// delta), sorted by |delta| descending. Significant entries only.
    pub hop_shifts: Vec<(String, f64)>,
}

/// Relative quantization error of the log-bucketed histograms.
const HIST_RESOLUTION: f64 = 0.031;

fn per_op(hist_sum: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        hist_sum as f64 / ops as f64
    }
}

/// Standard error of a segment's per-op mean.
fn seg_se(hist: &LogHistogram, ops: u64) -> f64 {
    if ops == 0 || hist.count == 0 {
        return 0.0;
    }
    // Treat ops that skipped the segment as zero samples: the per-op
    // variance is E[x²] - E[x]² over all ops.
    let n = ops as f64;
    let mean = hist.sum as f64 / n;
    let ex2 = (hist.variance() * (hist.count.saturating_sub(1)) as f64
        + hist.mean() * hist.mean() * hist.count as f64)
        / n;
    let var = (ex2 - mean * mean).max(0.0);
    (var / n).sqrt()
}

/// Attribute the latency delta between `base` and `new` to segments.
pub fn diff(base: &BlameTable, new: &BlameTable) -> BlameDiff {
    let mut rows: Vec<SegDelta> = Seg::ALL
        .iter()
        .map(|&seg| {
            let bh = &base.segs[seg.index()].hist;
            let nh = &new.segs[seg.index()].hist;
            let base_ns = per_op(bh.sum, base.ops);
            let new_ns = per_op(nh.sum, new.ops);
            let delta_ns = new_ns - base_ns;
            let band_ns = 2.0 * (seg_se(bh, base.ops) + seg_se(nh, new.ops))
                + HIST_RESOLUTION * (base_ns + new_ns) / 2.0;
            SegDelta {
                seg,
                base_ns,
                new_ns,
                delta_ns,
                band_ns,
                significant: delta_ns.abs() > band_ns && delta_ns.abs() > 1.0,
            }
        })
        .filter(|d| d.base_ns > 0.0 || d.new_ns > 0.0)
        .collect();
    rows.sort_by(|a, b| b.delta_ns.abs().total_cmp(&a.delta_ns.abs()));

    // Hop-family shifts: wire and on-node rows keyed identically across
    // the two tables.
    let mut hop_shifts: Vec<(String, f64)> = Vec::new();
    let mut keys: Vec<(String, f64, u64)> = Vec::new(); // (key, base per-op, base sum present?)
    for h in &base.hops {
        keys.push((
            format!("{} → {} {}", h.from, h.to, h.seg.name()),
            per_op(h.hist.sum, base.ops),
            1,
        ));
    }
    for n in &base.nodes {
        keys.push((
            format!("{} {}", n.node, n.seg.name()),
            per_op(n.hist.sum, base.ops),
            1,
        ));
    }
    let lookup_new = |key: &str| -> f64 {
        for h in &new.hops {
            if format!("{} → {} {}", h.from, h.to, h.seg.name()) == key {
                return per_op(h.hist.sum, new.ops);
            }
        }
        for n in &new.nodes {
            if format!("{} {}", n.node, n.seg.name()) == key {
                return per_op(n.hist.sum, new.ops);
            }
        }
        0.0
    };
    // New-only keys too (a hop that appears only in the new run is the
    // most interesting kind of shift).
    for h in &new.hops {
        let key = format!("{} → {} {}", h.from, h.to, h.seg.name());
        if !keys.iter().any(|(k, _, _)| *k == key) {
            keys.push((key, 0.0, 0));
        }
    }
    for n in &new.nodes {
        let key = format!("{} {}", n.node, n.seg.name());
        if !keys.iter().any(|(k, _, _)| *k == key) {
            keys.push((key, 0.0, 0));
        }
    }
    for (key, base_ns, _) in keys {
        let new_ns = lookup_new(&key);
        let delta = new_ns - base_ns;
        let band = HIST_RESOLUTION * (base_ns + new_ns) / 2.0;
        if delta.abs() > band && delta.abs() > 1.0 {
            hop_shifts.push((key, delta));
        }
    }
    hop_shifts.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    hop_shifts.truncate(10);

    BlameDiff {
        base_protocol: base.protocol.clone(),
        new_protocol: new.protocol.clone(),
        base_client_ns: base.client_total.mean(),
        new_client_ns: new.client_total.mean(),
        rows,
        hop_shifts,
    }
}

impl BlameDiff {
    /// Text rendering of the run-diff.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let d = self.new_client_ns - self.base_client_ns;
        let pct = if self.base_client_ns > 0.0 {
            100.0 * d / self.base_client_ns
        } else {
            0.0
        };
        out.push_str(&format!(
            "== blame diff · {} → {} ==\nclient-visible mean: {} → {} ({}{} · {:+.1}%)\n",
            self.base_protocol,
            self.new_protocol,
            fmt_ns_f(self.base_client_ns),
            fmt_ns_f(self.new_client_ns),
            if d >= 0.0 { "+" } else { "-" },
            fmt_ns_f(d.abs()),
            pct,
        ));
        out.push_str(&format!(
            "  {:<16} {:>10} {:>10} {:>11} {:>10}  verdict\n",
            "segment", "base", "new", "delta", "band"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<16} {:>10} {:>10} {}{:>10} {:>10}  {}\n",
                r.seg.name(),
                fmt_ns_f(r.base_ns),
                fmt_ns_f(r.new_ns),
                if r.delta_ns >= 0.0 { "+" } else { "-" },
                fmt_ns_f(r.delta_ns.abs()),
                fmt_ns_f(r.band_ns),
                if r.significant {
                    "SIGNIFICANT"
                } else {
                    "within noise"
                },
            ));
        }
        if !self.hop_shifts.is_empty() {
            out.push_str("largest hop shifts:\n");
            for (key, delta) in &self.hop_shifts {
                out.push_str(&format!(
                    "  {:<28} {}{}/op\n",
                    key,
                    if *delta >= 0.0 { "+" } else { "-" },
                    fmt_ns_f(delta.abs()),
                ));
            }
        }
        out
    }

    /// The segment blamed for the biggest significant latency increase.
    pub fn prime_suspect(&self) -> Option<&SegDelta> {
        self.rows
            .iter()
            .filter(|r| r.significant && r.delta_ns > 0.0)
            .max_by(|a, b| a.delta_ns.total_cmp(&b.delta_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{MsgKind, OpClass, ProcId, ServerId, SimTime};

    fn op(seq: u64) -> OpId {
        OpId::new(ProcId::new(3, 0), seq)
    }

    fn edge(
        id: u64,
        seq: u64,
        kind: MsgKind,
        from: FlowNode,
        to: FlowNode,
        sent: u64,
        recv: u64,
    ) -> MsgEdge {
        MsgEdge {
            id,
            op: Some(op(seq)),
            kind,
            from,
            to,
            sent_ns: sent,
            recv_ns: recv,
        }
    }

    fn cx_like_span(seq: u64) -> OpSpan {
        let mut s = OpSpan::new(op(seq), OpClass::Create, true, SimTime(0));
        s.stamp(Phase::Dispatched, SimTime(100), None);
        s.stamp(Phase::Executed, SimTime(700), Some(ServerId(1)));
        s.stamp(Phase::Replied, SimTime(1_000), None);
        s.stamp(Phase::VoteSent, SimTime(5_000), Some(ServerId(0)));
        s.stamp(Phase::DecisionSent, SimTime(6_000), Some(ServerId(0)));
        s.stamp(Phase::Acked, SimTime(7_000), Some(ServerId(1)));
        s.stamp(Phase::Completed, SimTime(8_000), Some(ServerId(0)));
        s
    }

    #[test]
    fn cx_span_blames_offpath_suffix() {
        let edges = [
            edge(
                1,
                1,
                MsgKind::SubOpReq,
                FlowNode::Client(3),
                FlowNode::Server(1),
                100,
                300,
            ),
            edge(
                2,
                1,
                MsgKind::SubOpResp,
                FlowNode::Server(1),
                FlowNode::Client(3),
                700,
                950,
            ),
        ];
        let refs: Vec<&MsgEdge> = edges.iter().collect();
        let b = blame_span(&cx_like_span(1), &refs).unwrap();
        b.check().unwrap();
        assert_eq!(b.client_ns, 1_000);
        assert_eq!(b.commit_ns, 7_000);
        assert_eq!(b.segs[Seg::IssueQueue.index()], 100);
        assert_eq!(b.segs[Seg::ReqWire.index()], 200);
        assert_eq!(b.segs[Seg::Execute.index()], 400);
        assert_eq!(b.segs[Seg::ReplyWire.index()], 250);
        assert_eq!(b.segs[Seg::ReplyDeliver.index()], 50);
        assert_eq!(b.segs[Seg::CommitOnPath.index()], 0, "Cx: nothing on-path");
        assert_eq!(b.segs[Seg::VoteLaunch.index()], 4_000);
        assert_eq!(b.segs[Seg::VoteRound.index()], 1_000);
        assert_eq!(b.segs[Seg::DecisionRound.index()], 1_000);
        assert_eq!(b.segs[Seg::Complete.index()], 1_000);
    }

    #[test]
    fn twopc_like_vote_is_blamed_onpath() {
        // 2PC: the vote/decision round-trip happens *before* the reply and
        // rides op-tagged VoteExec edges; the suffix stays empty.
        let mut s = OpSpan::new(op(2), OpClass::Mkdir, true, SimTime(0));
        s.stamp(Phase::Dispatched, SimTime(50), None);
        s.stamp(Phase::VoteSent, SimTime(400), Some(ServerId(0)));
        s.stamp(Phase::Executed, SimTime(800), Some(ServerId(1)));
        s.stamp(Phase::Replied, SimTime(1_000), None);
        let edges = [
            edge(
                1,
                2,
                MsgKind::OpReq,
                FlowNode::Client(3),
                FlowNode::Server(0),
                50,
                150,
            ),
            edge(
                2,
                2,
                MsgKind::Vote,
                FlowNode::Server(0),
                FlowNode::Server(1),
                400,
                500,
            ),
            edge(
                3,
                2,
                MsgKind::SubOpResp,
                FlowNode::Server(1),
                FlowNode::Client(3),
                800,
                900,
            ),
        ];
        let refs: Vec<&MsgEdge> = edges.iter().collect();
        let b = blame_span(&s, &refs).unwrap();
        b.check().unwrap();
        assert_eq!(b.commit_ns, 0, "2PC has no off-path suffix");
        // Gap at s0 before VoteExec (250) + VoteExec flight (100).
        assert_eq!(b.segs[Seg::CommitOnPath.index()], 350);
        assert!(b.segs[Seg::Execute.index()] > 0);
    }

    #[test]
    fn fallback_decomposition_still_sums() {
        let b = blame_span(&cx_like_span(3), &[]).unwrap();
        assert!(b.fallback);
        b.check().unwrap();
        assert_eq!(b.segs[Seg::IssueQueue.index()], 100);
        assert_eq!(b.segs[Seg::Execute.index()], 600);
        assert_eq!(b.segs[Seg::ReplyDeliver.index()], 300);
    }

    #[test]
    fn table_aggregates_and_merges() {
        let spans: Vec<OpSpan> = (1..=6).map(cx_like_span).collect();
        let edges: Vec<MsgEdge> = (1..=6)
            .flat_map(|i| {
                vec![
                    edge(
                        i * 2,
                        i,
                        MsgKind::SubOpReq,
                        FlowNode::Client(3),
                        FlowNode::Server(1),
                        100,
                        300,
                    ),
                    edge(
                        i * 2 + 1,
                        i,
                        MsgKind::SubOpResp,
                        FlowNode::Server(1),
                        FlowNode::Client(3),
                        700,
                        950,
                    ),
                ]
            })
            .collect();
        let t = BlameTable::from_spans("cx", &spans, &edges);
        assert_eq!(t.ops, 6);
        assert_eq!(t.fallback_ops, 0);
        assert_eq!(t.client_total.count, 6);
        assert_eq!(t.commit_total.count, 6);
        assert_eq!(t.exemplars.len(), 5, "top-K exemplars kept");
        assert!(t.hops.iter().any(|h| h.seg == Seg::ReqWire));
        assert!(t
            .nodes
            .iter()
            .any(|n| n.node == FlowNode::Server(1) && n.seg == Seg::Execute));

        let mut a = BlameTable::from_spans("cx", &spans[..3], &edges);
        let b = BlameTable::from_spans("cx", &spans[3..], &edges);
        a.merge(&b);
        assert_eq!(a.ops, t.ops);
        assert_eq!(a.client_total.count, t.client_total.count);
        assert_eq!(
            a.segs[Seg::Execute.index()].hist.sum,
            t.segs[Seg::Execute.index()].hist.sum
        );

        let back = BlameTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back.ops, t.ops);
        assert_eq!(back.exemplars.len(), t.exemplars.len());
        let text = t.render();
        assert!(text.contains("issue-queue"));
        assert!(text.contains("exemplar #1"));
    }

    #[test]
    fn diff_flags_injected_execute_delay() {
        let base_spans: Vec<OpSpan> = (1..=20).map(cx_like_span).collect();
        let mk_edges = |extra_exec: u64| -> Vec<MsgEdge> {
            (1..=20u64)
                .flat_map(|i| {
                    vec![
                        edge(
                            i * 2,
                            i,
                            MsgKind::SubOpReq,
                            FlowNode::Client(3),
                            FlowNode::Server(1),
                            100,
                            300,
                        ),
                        edge(
                            i * 2 + 1,
                            i,
                            MsgKind::SubOpResp,
                            FlowNode::Server(1),
                            FlowNode::Client(3),
                            700 + extra_exec,
                            950 + extra_exec,
                        ),
                    ]
                })
                .collect()
        };
        let slow_spans: Vec<OpSpan> = (1..=20)
            .map(|i| {
                let mut s = cx_like_span(i);
                // The participant took 5µs longer; reply shifts with it.
                s.at_ns[Phase::Executed.index()] = 5_700;
                s.at_ns[Phase::Replied.index()] = 6_000;
                s
            })
            .collect();
        let base = BlameTable::from_spans("cx", &base_spans, &mk_edges(0));
        let slow = BlameTable::from_spans("cx", &slow_spans, &mk_edges(5_000));
        let d = diff(&base, &slow);
        let suspect = d.prime_suspect().expect("a significant segment");
        assert_eq!(
            suspect.seg,
            Seg::Execute,
            "delay lands on execute: {}",
            d.render()
        );
        assert!(suspect.delta_ns > 4_000.0);
        assert!(
            d.hop_shifts
                .iter()
                .any(|(k, v)| k.contains("s1 execute") && *v > 4_000.0),
            "hop shift names the delayed server: {:?}",
            d.hop_shifts
        );
        let text = d.render();
        assert!(text.contains("SIGNIFICANT"));
    }
}
