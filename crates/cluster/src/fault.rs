//! The fault plane's hook, [`FaultInjector`], at its two choke points, so
//! the protocol engines contain zero fault code and every protocol runs
//! under the same plans:
//!
//! * **Message sends**, on every runtime: the engine host
//!   (`cx_protocol::host::carry_out`) asks its port for each send's
//!   [`MsgFate`], and a port with an injector asks
//!   [`FaultInjector::on_send`].
//! * **Crashes and the oracle**, on the DES: its WAL append/flush path is
//!   surfaced as [`FaultEvent`]s diffed from the per-family log counters,
//!   [`FaultInjector::on_event`] answers with a [`CrashCmd`], and the
//!   oracle hooks judge the cluster after each recovery and at the end.
//!
//! The `cx-chaos` crate implements the trait from a fault plan.

use crate::stats::AckRecord;
use cx_mdstore::MetaStore;
use cx_protocol::Endpoint;
use cx_types::{FsOp, MsgKind, OpId, ServerId, SimTime};
use cx_wal::RecordFamily;
use parking_lot::Mutex;
use std::sync::Arc;

pub use cx_protocol::host::MsgFate;

/// A protocol-visible event the injector can key crash points on. WAL
/// events are derived by diffing each server's per-family append/durable
/// counters after every event, so "crash after the participant appends its
/// Result record" needs no hook inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A message is about to be handled by `server` (post CPU queue).
    Deliver { server: ServerId, kind: MsgKind },
    /// The `nth` (1-based, cumulative) record of `family` was appended to
    /// `server`'s log (volatile — between VOTE and COMMIT-REQ lives here).
    /// `valid_bytes` is the server's valid-record volume once the event
    /// that appended it finished (Table V's crash trigger).
    WalAppend {
        server: ServerId,
        family: RecordFamily,
        nth: u64,
        valid_bytes: u64,
    },
    /// The `nth` record of `family` became durable on `server`.
    WalDurable {
        server: ServerId,
        family: RecordFamily,
        nth: u64,
    },
    /// `server` issued its `nth` database write-back batch (mid write-back
    /// crash point).
    Writeback { server: ServerId, nth: u64 },
}

/// Instruction to crash a server, returned by [`FaultInjector::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashCmd {
    pub server: ServerId,
    /// Torn log tail: up to this many bytes of whole in-flight records
    /// survive beyond the durable prefix (see `Wal::crash_torn`).
    pub torn_extra_bytes: u64,
    /// Failure-detection delay before the reboot begins.
    pub detection_ns: u64,
    /// Process/OS restart time before the log scan starts.
    pub reboot_ns: u64,
}

/// Read-only view of the cluster handed to the oracle after each recovery
/// completes and at the end of the run.
pub struct ClusterSnapshot<'a> {
    /// One store per server, in server order.
    pub stores: Vec<&'a MetaStore>,
    /// Every operation outcome delivered to a client so far.
    pub acks: &'a [AckRecord],
    /// Every operation issued so far (acked or not).
    pub issued: &'a [(OpId, FsOp)],
}

/// The fault hook: every runtime asks it for a send's fate; on the DES it
/// is also the only way a server crashes.
pub trait FaultInjector {
    /// Called once per message send, after the send is counted and before
    /// the message leaves.
    fn on_send(&mut self, now: SimTime, from: Endpoint, to: Endpoint, kind: MsgKind) -> MsgFate;

    /// Called for every protocol-visible event; returning a [`CrashCmd`]
    /// kills the named server at the current virtual time.
    fn on_event(&mut self, now: SimTime, ev: &FaultEvent) -> Option<CrashCmd>;

    /// Oracle hook: called when a crashed server finishes its recovery.
    /// Returns the number of correctness violations detected.
    fn on_recovery_complete(
        &mut self,
        now: SimTime,
        server: ServerId,
        snap: ClusterSnapshot<'_>,
    ) -> u64;

    /// Final oracle pass over the drained cluster. `quiesced` tells the
    /// oracle whether whole-namespace invariants may be asserted (a
    /// non-quiesced cluster legitimately holds half-committed state).
    fn on_run_end(&mut self, now: SimTime, quiesced: bool, snap: ClusterSnapshot<'_>) -> u64;

    /// Drain human-readable descriptions of every violation the oracle
    /// recorded (for repro files and test assertions).
    fn take_report(&mut self) -> Vec<String>;
}

/// One injector shared by every node of a wall-clock run, so a fault keyed
/// on "the first `Vote`" counts sends cluster-wide, as the DES does.
pub(crate) type SharedInjector = Arc<Mutex<dyn FaultInjector + Send>>;
