//! Causal message-edge tracing: every cross-server message becomes a
//! *flow* — a `(from, to, sent, received)` edge tagged with the operation
//! it serves — so the Perfetto trace can draw the VOTE / COMMIT-REQ / ACK
//! exchange as arcs connecting the coordinator's and the participant's
//! tracks, and `cx-obs trace --op` can print one operation's causal chain.
//!
//! Edges are recorded by the runtime at the send site (the DES computes
//! the delivery time there anyway), so the protocol engines stay unaware
//! of the tracing, exactly like the lifecycle spans.

use cx_types::{MsgKind, OpId};
use serde::{Deserialize, Serialize};

/// One endpoint of a message edge. A deliberately tiny mirror of the
/// runtime's endpoint type (`cx-protocol` depends on this crate, not the
/// other way around).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowNode {
    Server(u32),
    Client(u32),
}

impl FlowNode {
    /// Stable track id inside the messages process of the Chrome trace:
    /// servers keep their id, clients are offset past any realistic
    /// server count.
    pub fn tid(self) -> u32 {
        match self {
            FlowNode::Server(s) => s,
            FlowNode::Client(c) => 10_000 + c,
        }
    }

    pub fn label(self) -> String {
        match self {
            FlowNode::Server(s) => format!("server {s}"),
            FlowNode::Client(c) => format!("client {c}"),
        }
    }
}

impl std::fmt::Display for FlowNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowNode::Server(s) => write!(f, "s{s}"),
            FlowNode::Client(c) => write!(f, "c{c}"),
        }
    }
}

/// One recorded message edge. `recv_ns` is the delivery time the runtime
/// scheduled (virtual time under the DES).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MsgEdge {
    /// Flow id shared by the edge's `ph:"s"` / `ph:"f"` trace events.
    pub id: u64,
    /// The operation this message serves (`None` for batch-level traffic
    /// that carries several ops; those edges still draw, untied to a span).
    pub op: Option<OpId>,
    pub kind: MsgKind,
    pub from: FlowNode,
    pub to: FlowNode,
    pub sent_ns: u64,
    pub recv_ns: u64,
}

/// Render `edges` as Chrome-trace events under process `pid`: an in-flight
/// slice on the sender's track, a landing slice on the receiver's track,
/// and an `s`/`f` flow pair (shared `id`) binding the two, which Perfetto
/// draws as an arc.
pub fn chrome_flow_events(edges: &[MsgEdge], pid: u32, ev: &mut Vec<String>) {
    if edges.is_empty() {
        return;
    }
    ev.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"messages\"}}}}"
    ));
    let mut named: Vec<FlowNode> = Vec::new();
    let us = |ns: u64| ns as f64 / 1000.0;
    for e in edges {
        for node in [e.from, e.to] {
            if !named.contains(&node) {
                named.push(node);
                ev.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    node.tid(),
                    node.label(),
                ));
            }
        }
        let op = match &e.op {
            Some(op) => format!("{op}"),
            None => "-".into(),
        };
        let flight_us = us(e.recv_ns.saturating_sub(e.sent_ns)).max(0.001);
        // The in-flight slice anchors the flow start on the sender track.
        ev.push(format!(
            "{{\"name\":\"{} → {}\",\"cat\":\"msg\",\"ph\":\"X\",\"ts\":{:.3},\
             \"dur\":{flight_us:.3},\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"op\":\"{op}\",\"to\":\"{}\"}}}}",
            e.kind.name(),
            e.to,
            us(e.sent_ns),
            e.from.tid(),
            e.to,
        ));
        // A short landing slice anchors the flow end on the receiver track.
        ev.push(format!(
            "{{\"name\":\"{} ⇐ {}\",\"cat\":\"msg\",\"ph\":\"X\",\"ts\":{:.3},\
             \"dur\":1.000,\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"op\":\"{op}\",\"from\":\"{}\"}}}}",
            e.kind.name(),
            e.from,
            us(e.recv_ns),
            e.to.tid(),
            e.from,
        ));
        ev.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"ts\":{:.3},\
             \"pid\":{pid},\"tid\":{}}}",
            e.kind.name(),
            e.id,
            us(e.sent_ns),
            e.from.tid(),
        ));
        ev.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
             \"ts\":{:.3},\"pid\":{pid},\"tid\":{}}}",
            e.kind.name(),
            e.id,
            us(e.recv_ns),
            e.to.tid(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::ProcId;

    #[test]
    fn flow_events_pair_s_and_f_by_id() {
        let edge = MsgEdge {
            id: 7,
            op: Some(OpId::new(ProcId::new(1, 0), 3)),
            kind: MsgKind::Vote,
            from: FlowNode::Server(0),
            to: FlowNode::Server(2),
            sent_ns: 5_000,
            recv_ns: 9_000,
        };
        let mut ev = Vec::new();
        chrome_flow_events(&[edge], 4, &mut ev);
        let s = ev.iter().filter(|l| l.contains("\"ph\":\"s\"")).count();
        let f = ev.iter().filter(|l| l.contains("\"ph\":\"f\"")).count();
        assert_eq!((s, f), (1, 1));
        assert!(ev.iter().all(|l| serde_json::parse_value(l).is_ok()));
        assert!(ev.iter().any(|l| l.contains("\"id\":7")));
        assert!(ev.iter().any(|l| l.contains("\"name\":\"VOTE → s2\"")));
    }

    #[test]
    fn nodes_render_distinct_tracks() {
        assert_ne!(FlowNode::Server(3).tid(), FlowNode::Client(3).tid());
        assert_eq!(FlowNode::Server(3).to_string(), "s3");
        assert_eq!(FlowNode::Client(9).to_string(), "c9");
    }
}
