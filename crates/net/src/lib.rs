//! `cx-net` — the TCP wire plane.
//!
//! Three layers, mirroring the classic wire/connection/peer-registry split:
//!
//! * [`wire`] — the length-prefixed frame around every protocol
//!   [`cx_types::Payload`] kind (whose bytes [`cx_types::codec`] lays
//!   out) plus the runtime control frames (handshake, peer gossip,
//!   quiesce/probe/stop), and an incremental
//!   [`wire::FrameBuffer`] that decodes many coalesced frames per `read`.
//!   Totally defensive: arbitrary bytes decode to typed
//!   [`wire::WireError`]s, never panics.
//! * [`conn`] — a [`conn::ConnectionManager`] per node: one I/O thread
//!   that `poll`s the listener and every inbound socket, and a bounded
//!   outbound queue per peer (backpressure by blocking the sender).
//!   Senders coalesce the queue into one nonblocking `write`; a served
//!   node's sends only queue until its turn ends. The I/O thread finishes
//!   stalled flushes, redials and drains at shutdown, so no thread blocks
//!   in a socket write. Inbound, it hands `Vec<Frame>` batches to a
//!   [`conn::Node`] — a channel forwarder, or a served node (a server's
//!   engine, the client host), which then runs on that thread — reading a
//!   peer's connections one generation at a time, so reconnects stay
//!   lossless and per-peer FIFO.
//! * [`health`] — per-peer [`health::PeerHealth`] scoring: consecutive
//!   failures, reconnect counts, and a per-flush latency EWMA folded into
//!   a single score in `(0, 1]`, plus the frame/byte/flush counters behind
//!   the wire-throughput rates.
//!
//! The crate knows nothing about engines or clusters: `cx-cluster`'s
//! `TcpCluster` runtime composes these pieces into a runnable cluster
//! (in-process loopback or one OS process per server) and keeps the DES as
//! its oracle.

pub mod clock;
pub mod conn;
pub mod health;
pub mod wire;

pub use clock::{correct_ns, ClockSync, OffsetEstimate};
pub use conn::{AddrBook, ConnectionManager, PlaneConfig, WireTelemetry, WireTotals};
pub use health::{HealthSnapshot, PeerHealth};
pub use wire::{
    decode_frame, encode_frame, encode_to_vec, read_frame, write_frame, Frame, FrameBuffer,
    WireError, MAX_FRAME_LEN, WIRE_VERSION,
};

/// A node on the wire: a metadata server or a client host (a process that
/// runs many client procs and speaks for all of them). Distinct from the
/// protocol-level [`cx_protocol::Endpoint`]: endpoints are routed *onto*
/// nodes (every `Endpoint::Proc` lives on a client host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    Server(u32),
    ClientHost(u32),
}

impl NodeId {
    /// The observability-plane mirror of this node — the track identity
    /// used by flow arcs and flush spans in the Perfetto trace.
    pub fn flow(self) -> cx_obs::FlowNode {
        match self {
            NodeId::Server(s) => cx_obs::FlowNode::Server(s),
            NodeId::ClientHost(c) => cx_obs::FlowNode::Client(c),
        }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Server(s) => write!(f, "srv{s}"),
            NodeId::ClientHost(c) => write!(f, "cli{c}"),
        }
    }
}
