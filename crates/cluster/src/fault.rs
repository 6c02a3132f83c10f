//! Fault-injection hooks for the DES runtime.
//!
//! The whole fault plane hangs off exactly two choke points — message
//! delivery ([`FaultInjector::on_send`]) and the WAL append/flush path
//! (surfaced as [`FaultEvent`]s diffed from the per-family log counters) —
//! so the protocol engines contain zero fault code and every protocol runs
//! under the same plans. The `cx-chaos` crate implements the trait; the
//! DES only calls it.

use crate::stats::AckRecord;
use cx_mdstore::MetaStore;
use cx_protocol::Endpoint;
use cx_types::{FsOp, MsgKind, OpId, ServerId, SimTime};
use cx_wal::RecordFamily;

/// What happens to one message at the send choke point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver `ns` later than the network model would.
    Delay(u64),
    /// Deliver normally and again `ns` after the first copy.
    Duplicate(u64),
    /// The message arrives on time, but the receiver sits on it for `ns`
    /// before handling — a slow *participant*, not a slow link. The
    /// traced `MsgEdge` keeps the true wire arrival, so blame attribution
    /// charges the stall to the receiver's execution segment rather than
    /// the hop's network transit (which is what [`MsgFate::Delay`] does).
    ExecDelay(u64),
}

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
    WalAppend {
        server: ServerId,
        family: RecordFamily,
        nth: u64,
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

/// The DES-side fault hook. All methods default to "no fault" so a unit
/// implementation behaves exactly like an uninstrumented run.
pub trait FaultInjector {
    /// Called once per message send, before the network model.
    fn on_send(
        &mut self,
        _now: SimTime,
        _from: Endpoint,
        _to: Endpoint,
        _kind: MsgKind,
    ) -> MsgFate {
        MsgFate::Deliver
    }

    /// Called for every protocol-visible event; returning a [`CrashCmd`]
    /// kills the named server at the current virtual time.
    fn on_event(&mut self, _now: SimTime, _ev: &FaultEvent) -> Option<CrashCmd> {
        None
    }

    /// Oracle hook: called when a crashed server finishes its recovery.
    /// Returns the number of correctness violations detected.
    fn on_recovery_complete(
        &mut self,
        _now: SimTime,
        _server: ServerId,
        _snap: ClusterSnapshot<'_>,
    ) -> u64 {
        0
    }

    /// Final oracle pass over the drained cluster. `quiesced` tells the
    /// oracle whether whole-namespace invariants may be asserted (a
    /// non-quiesced cluster legitimately holds half-committed state).
    fn on_run_end(&mut self, _now: SimTime, _quiesced: bool, _snap: ClusterSnapshot<'_>) -> u64 {
        0
    }

    /// Drain human-readable descriptions of every violation the oracle
    /// recorded (for repro files and test assertions).
    fn take_report(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// The trivial injector: no faults, no oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_inert() {
        let mut inj = NoFaults;
        let now = SimTime::ZERO;
        let ep = Endpoint::Server(ServerId(0));
        assert_eq!(inj.on_send(now, ep, ep, MsgKind::Vote), MsgFate::Deliver);
        let ev = FaultEvent::Deliver {
            server: ServerId(0),
            kind: MsgKind::Vote,
        };
        assert_eq!(inj.on_event(now, &ev), None);
        assert_eq!(inj.take_report(), Vec::<String>::new());
    }
}
