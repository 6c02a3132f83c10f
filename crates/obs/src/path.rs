//! Critical-path extraction over one operation's span + message edges.
//!
//! The doctor's question is "where did this op's latency go?". The span
//! alone answers it at phase granularity (Issued → Dispatched → Executed
//! → Replied); the message edges recorded for the op let us do better: walk
//! the causal chain backwards from the response that ended the op — the
//! last response to arrive at the issuing client *is* the critical path's
//! final hop, its send site names the server whose execution gated the
//! reply, the request edge into that server names the inbound hop, and so
//! on back to the client's first send. Every hop splits into on-node time
//! (the gap between a message arriving at a node and the next critical
//! message leaving it) and wire time (the edge's flight).
//!
//! All chain times are clamped monotone into `[Issued, Replied]`, so the
//! resulting steps are non-negative and sum *exactly* to the client-visible
//! latency by construction — even on shard-merged TCP spans whose stamps
//! carry residual clock error. When an op has no usable causal chain (edge
//! sampling capped out, or a purely local op), the caller falls back to the
//! phase-window decomposition, which carries the same invariant.

use crate::flow::{FlowNode, MsgEdge};
use crate::span::{OpSpan, Phase};
use cx_types::MsgKind;

/// Message family from the blame engine's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// Data-path request (OP-REQ / SUBOP-REQ).
    Req,
    /// Data-path response (OP-RESP / SUBOP-RESP).
    Resp,
    /// Everything else: vote / decision / ack / migration — commitment and
    /// coordination traffic.
    Commit,
}

/// Classify a message kind for blame purposes.
pub fn edge_class(k: MsgKind) -> EdgeClass {
    match k {
        MsgKind::OpReq | MsgKind::SubOpReq => EdgeClass::Req,
        MsgKind::OpResp | MsgKind::SubOpResp => EdgeClass::Resp,
        _ => EdgeClass::Commit,
    }
}

/// One hop of the critical path: the on-node gap at `from` before the
/// send, then the wire flight. Times are clamped into the op's
/// client-visible window.
#[derive(Debug, Clone, Copy)]
pub struct WalkHop {
    pub kind: MsgKind,
    pub from: FlowNode,
    pub to: FlowNode,
    /// Time spent at `from` between the previous critical arrival (or
    /// `Issued`) and this send.
    pub gap_ns: u64,
    /// Flight time of this edge, clamped.
    pub wire_ns: u64,
    /// Clamped absolute send stamp (for waterfall rendering).
    pub sent_ns: u64,
    pub recv_ns: u64,
}

/// The extracted critical path of one completed op's client-visible
/// window. `sum(gap + wire) + tail == Replied - Issued` always holds.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    pub hops: Vec<WalkHop>,
    /// Client-side time after the final response arrived and before the
    /// `Replied` stamp (delivery/bookkeeping).
    pub tail_ns: u64,
}

impl CriticalPath {
    /// The node the chain starts at (the issuing client when the chain is
    /// complete; a server when edge sampling lost the first hop).
    pub fn root(&self) -> Option<FlowNode> {
        self.hops.first().map(|h| h.from)
    }
}

/// Longest chains we will walk; a backstop against pathological edge sets
/// (duplicated retransmissions chained through shared nodes).
const MAX_HOPS: usize = 64;

/// Walk the causal chain of `span` backwards through `edges` (the op's own
/// edges, any order). Returns `None` when the op has no `Replied` stamp or
/// no response edge into its client — the caller then uses the
/// phase-window fallback.
pub fn critical_path(span: &OpSpan, edges: &[&MsgEdge]) -> Option<CriticalPath> {
    let t0 = span.at(Phase::Issued)?;
    let t3 = span.at(Phase::Replied)?;
    if t3 < t0 {
        return None;
    }
    let client = FlowNode::Client(span.op.proc.client.0);
    // The terminal hop: the last response to reach the issuing client at
    // or before the Replied stamp. (In every runtime the Replied stamp is
    // taken at/after the delivery that carried it, so `recv <= t3`.)
    let (term_idx, term) = edges
        .iter()
        .enumerate()
        .filter(|(_, e)| e.to == client && edge_class(e.kind) == EdgeClass::Resp && e.recv_ns <= t3)
        .max_by_key(|(_, e)| (e.recv_ns, e.id))?;
    let mut used = vec![false; edges.len()];
    used[term_idx] = true;
    let mut chain: Vec<usize> = vec![term_idx];
    let mut cur_node = term.from;
    let mut cur_time = term.sent_ns;
    // Backward: the predecessor of a send at node N is the latest arrival
    // at N that precedes it. Stop at a client (chain complete) or when no
    // earlier arrival exists (edge window capped; partial chain).
    while !matches!(cur_node, FlowNode::Client(_)) && chain.len() < MAX_HOPS {
        let pred = edges
            .iter()
            .enumerate()
            .filter(|(i, e)| !used[*i] && e.to == cur_node && e.recv_ns <= cur_time)
            .max_by_key(|(_, e)| (e.recv_ns, e.id));
        let Some((i, e)) = pred else { break };
        used[i] = true;
        chain.push(i);
        cur_node = e.from;
        cur_time = e.sent_ns;
    }
    chain.reverse();
    // Forward pass: clamp every stamp monotone into [t0, t3] so the steps
    // telescope exactly to t3 - t0 regardless of residual clock error.
    let mut t = t0;
    let mut hops = Vec::with_capacity(chain.len());
    for i in chain {
        let e = edges[i];
        let sent = e.sent_ns.clamp(t, t3);
        let recv = e.recv_ns.clamp(sent, t3);
        hops.push(WalkHop {
            kind: e.kind,
            from: e.from,
            to: e.to,
            gap_ns: sent - t,
            wire_ns: recv - sent,
            sent_ns: sent,
            recv_ns: recv,
        });
        t = recv;
    }
    Some(CriticalPath {
        hops,
        tail_ns: t3 - t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{OpClass, OpId, ProcId, ServerId, SimTime};

    fn op() -> OpId {
        OpId::new(ProcId::new(3, 0), 7)
    }

    fn edge(id: u64, kind: MsgKind, from: FlowNode, to: FlowNode, sent: u64, recv: u64) -> MsgEdge {
        MsgEdge {
            id,
            op: Some(op()),
            kind,
            from,
            to,
            sent_ns: sent,
            recv_ns: recv,
        }
    }

    fn span(issued: u64, replied: u64) -> OpSpan {
        let mut s = OpSpan::new(op(), OpClass::Create, true, SimTime(issued));
        s.stamp(Phase::Dispatched, SimTime(issued + 1), None);
        s.stamp(Phase::Executed, SimTime(replied - 1), Some(ServerId(1)));
        s.stamp(Phase::Replied, SimTime(replied), None);
        s
    }

    #[test]
    fn two_hop_chain_sums_exactly() {
        // c3 --req--> s0 --req--> s1 --resp--> c3
        let edges = [
            edge(
                1,
                MsgKind::OpReq,
                FlowNode::Client(3),
                FlowNode::Server(0),
                100,
                200,
            ),
            edge(
                2,
                MsgKind::SubOpReq,
                FlowNode::Server(0),
                FlowNode::Server(1),
                250,
                400,
            ),
            edge(
                3,
                MsgKind::SubOpResp,
                FlowNode::Server(1),
                FlowNode::Client(3),
                700,
                900,
            ),
        ];
        let refs: Vec<&MsgEdge> = edges.iter().collect();
        let s = span(50, 950);
        let cp = critical_path(&s, &refs).unwrap();
        assert_eq!(cp.hops.len(), 3);
        assert_eq!(cp.root(), Some(FlowNode::Client(3)));
        let total: u64 = cp.hops.iter().map(|h| h.gap_ns + h.wire_ns).sum::<u64>() + cp.tail_ns;
        assert_eq!(total, 900);
        // Gaps: 50 at client, 50 at s0, 300 at s1; wires 100, 150, 200;
        // tail 50.
        assert_eq!(cp.hops[0].gap_ns, 50);
        assert_eq!(cp.hops[1].gap_ns, 50);
        assert_eq!(cp.hops[2].gap_ns, 300);
        assert_eq!(cp.tail_ns, 50);
    }

    #[test]
    fn picks_slowest_response_as_terminal() {
        // Fan-out: two participants respond; the later one gates Replied.
        let edges = [
            edge(
                1,
                MsgKind::SubOpReq,
                FlowNode::Client(3),
                FlowNode::Server(0),
                100,
                150,
            ),
            edge(
                2,
                MsgKind::SubOpReq,
                FlowNode::Client(3),
                FlowNode::Server(1),
                100,
                150,
            ),
            edge(
                3,
                MsgKind::SubOpResp,
                FlowNode::Server(0),
                FlowNode::Client(3),
                200,
                260,
            ),
            edge(
                4,
                MsgKind::SubOpResp,
                FlowNode::Server(1),
                FlowNode::Client(3),
                600,
                680,
            ),
        ];
        let refs: Vec<&MsgEdge> = edges.iter().collect();
        let cp = critical_path(&span(80, 700), &refs).unwrap();
        // Chain: c3 -> s1 (the slow participant) -> c3.
        assert_eq!(cp.hops.len(), 2);
        assert_eq!(cp.hops[0].to, FlowNode::Server(1));
        assert_eq!(cp.hops[1].gap_ns, 450, "slow participant's execute gap");
    }

    #[test]
    fn clock_skewed_stamps_still_sum() {
        // recv before sent, stamps outside the window: clamping keeps the
        // invariant.
        let edges = [
            edge(
                1,
                MsgKind::OpReq,
                FlowNode::Client(3),
                FlowNode::Server(0),
                40,
                30,
            ),
            edge(
                2,
                MsgKind::OpResp,
                FlowNode::Server(0),
                FlowNode::Client(3),
                20,
                480,
            ),
        ];
        let refs: Vec<&MsgEdge> = edges.iter().collect();
        let cp = critical_path(&span(100, 500), &refs).unwrap();
        let total: u64 = cp.hops.iter().map(|h| h.gap_ns + h.wire_ns).sum::<u64>() + cp.tail_ns;
        assert_eq!(total, 400);
    }

    #[test]
    fn no_response_edge_means_no_chain() {
        let edges = [edge(
            1,
            MsgKind::OpReq,
            FlowNode::Client(3),
            FlowNode::Server(0),
            100,
            150,
        )];
        let refs: Vec<&MsgEdge> = edges.iter().collect();
        assert!(critical_path(&span(80, 700), &refs).is_none());
    }
}
