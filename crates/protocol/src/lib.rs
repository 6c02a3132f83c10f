//! Protocol engines: Cx and its baselines.
//!
//! Everything in this crate is **sans-IO**: an engine consumes one input
//! (message arrival, disk completion, timer) and emits a list of
//! [`Action`]s — messages to send, disk operations to start, timers to arm.
//! It never blocks, sleeps or talks to a device. One [`host`] carries the
//! actions out under every clock; a runtime supplies only its ports
//! ([`Ports`]: clock, a send's fate, send, disk, timer):
//!
//! * the deterministic discrete-event simulator in `cx-cluster::des`
//!   (reproduces the paper's figures),
//! * the wall-clock runtime in `cx-cluster` (exercises the same engines
//!   under real concurrency, over channels or TCP), and
//! * [`testkit`]'s `Kit`.
//!
//! # Engines
//!
//! | module | protocol | paper |
//! |---|---|---|
//! | [`cx`] | **Cx** — concurrent execution, lazy batched commitment, conflict hints, immediate commitment, recovery hooks | §III |
//! | [`se`] | **SE** — serial execution, per-sub-op synchronous DB writes ("OFS"); `batched: true` gives "OFS-batched" | §II-B, §IV-C |
//! | [`twopc`] | **2PC** — coordinator-driven two-phase commit | §II-B |
//! | [`ce`] | **CE** — central execution by object migration | §II-B |
//! | `chassis` (private) | no protocol: what all four stand on — store, log, failure injection, batch trigger, disk continuations, write-back, the single-server path, 2PC/CE's lock table | — |
//!
//! The client side of each protocol lives in [`client`]: a per-operation
//! state machine that splits the operation by placement (Table I), collects
//! responses and conflict hints, and drives L-COM / CLEAR / OpReq flows.
//!
//! [`testkit`] is a miniature zero-latency runtime used by the protocol
//! tests; it supports *held* messages so tests can create the paper's
//! ordered and disordered conflict interleavings deterministically.

pub mod action;
pub mod ce;
mod chassis;
pub mod client;
pub mod cx;
pub mod host;
pub mod se;
pub mod stats;
pub mod testkit;
pub mod trigger;
pub mod twopc;

pub use action::{Action, Endpoint, ServerEngine};
pub use client::{ClientDecision, ClientOp};
pub use cx::CxServer;
pub use host::{MsgCounts, Ports};
pub use se::SeServer;
pub use stats::{ProtoMetrics, ServerStats};
pub use trigger::TriggerState;

use cx_types::{ClusterConfig, Protocol, ServerId};

/// Build the server engine for `cfg.protocol`.
pub fn make_server(id: ServerId, cfg: &ClusterConfig) -> Box<dyn ServerEngine> {
    match cfg.protocol {
        Protocol::Cx => Box::new(cx::CxServer::new(id, cfg)),
        Protocol::Se => Box::new(se::SeServer::new(id, cfg, false)),
        Protocol::SeBatched => Box::new(se::SeServer::new(id, cfg, true)),
        Protocol::TwoPc => Box::new(twopc::TwoPcServer::new(id, cfg)),
        Protocol::Ce => Box::new(ce::CeServer::new(id, cfg)),
    }
}
