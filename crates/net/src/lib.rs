//! `cx-net` — the TCP wire plane.
//!
//! Three layers, mirroring the classic wire/connection/peer-registry split,
//! and the probe clock:
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
//!   The I/O thread is every socket's only writer: it coalesces each
//!   queue into one nonblocking `write` — a served node's sends when its
//!   turn ends, another thread's once it wakes — and redials, resumes
//!   stalled flushes and drains at shutdown, so no thread blocks in a
//!   socket write. Inbound, it hands `Vec<Frame>` batches to a
//!   [`conn::Node`] — a channel forwarder, or a served node (a server's
//!   engine, the client host), which then runs on that thread — reading a
//!   peer's connections one generation at a time, so reconnects stay
//!   lossless and per-peer FIFO.
//! * [`health`] — per-peer [`health::PeerHealth`] counters, each wire
//!   fact counted once: frames, bytes and flushes written, failed dials
//!   and writes, re-dials, and the outbound queue's peak. They survive
//!   shutdown, feed the wire-throughput rates, and snapshot straight into
//!   the `cx-obs net` table's [`cx_obs::NetPeerRow`].
//! * [`clock`] — [`ClockSync`], the NTP-style estimator over the quiesce
//!   probes and the only record of a peer's RTT and clock offset; the
//!   coordinator stitches other processes' stamps with it and fills its
//!   net-table rows from it.
//!
//! The crate knows nothing about engines or clusters: `cx-cluster`'s
//! `TcpCluster` runtime composes these pieces into a runnable cluster
//! (in-process loopback or one OS process per server) and keeps the DES as
//! its oracle.

pub mod clock;
pub mod conn;
pub mod health;
pub mod wire;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use clock::{ClockSync, OffsetEstimate};
pub use conn::{AddrBook, ConnectionManager, PlaneConfig, WireTelemetry};
pub use health::{PeerHealth, WireTotals};
pub use wire::{
    decode_frame, encode_frame, encode_to_vec, read_frame, write_frame, Frame, FrameBuffer,
    WireError, MAX_FRAME_LEN, WIRE_VERSION,
};

/// Lock a `std` mutex, ignoring poison: a panicked holder releases the
/// lock instead of failing every later caller. Every mutex of the
/// wall-clock runtime (this crate and `cx-cluster`) is locked through it,
/// which keeps the non-poisoning `lock()` of the `parking_lot` crate this
/// runtime was written against.
pub fn plock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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
