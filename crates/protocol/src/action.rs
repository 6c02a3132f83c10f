//! The sans-IO contract between engines and runtimes.

use crate::stats::{ProtoMetrics, ServerStats};
use cx_mdstore::MetaStore;
use cx_obs::{EngineGauges, ObsSink};
use cx_simio::DiskReq;
use cx_types::codec::{Codec, Reader, WireError};
use cx_types::{Payload, ProcId, ServerId, SimTime};
use cx_wal::Wal;

/// A message source or destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A client process.
    Proc(ProcId),
    /// A metadata server.
    Server(ServerId),
}

impl Codec for Endpoint {
    const MIN_BYTES: usize = 5;
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Endpoint::Proc(p) => (0u8, p).encode(out),
            Endpoint::Server(s) => (1u8, s).encode(out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(Endpoint::Proc(r.get()?)),
            1 => Ok(Endpoint::Server(r.get()?)),
            value => Err(WireError::UnknownEnum {
                what: "endpoint",
                value,
            }),
        }
    }
}

/// What an engine asks its runtime to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send `payload` to `to`. The engine host counts the message for
    /// Table IV; the runtime models latency.
    Send { to: Endpoint, payload: Payload },
    /// Submit `req` to the server's disk; the runtime calls
    /// `on_disk_done(req.token())` when the batch covering it completes.
    Disk(DiskReq),
    /// Call `on_timer(token)` after `delay_ns`.
    SetTimer { token: u64, delay_ns: u64 },
}

/// A protocol server as seen by a runtime.
///
/// All entry points take `now` (virtual or wall-clock nanoseconds) and push
/// actions into `out`; they must not assume anything about how or when the
/// actions execute.
pub trait ServerEngine: Send {
    /// A message arrived.
    fn on_msg(&mut self, now: SimTime, from: Endpoint, payload: Payload, out: &mut Vec<Action>);

    /// A previously requested disk operation completed.
    fn on_disk_done(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>);

    /// A previously armed timer fired.
    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<Action>);

    /// Force every postponed commitment / write-back to start now (used to
    /// drain the cluster at the end of a run).
    fn quiesce(&mut self, now: SimTime, out: &mut Vec<Action>);

    /// True when the engine holds no pending protocol state (all
    /// commitments finished, nothing blocked) — together with an empty
    /// event queue this defines the end of a run.
    fn is_quiesced(&self) -> bool;

    /// The server's metadata rows (used for workload seeding and the
    /// cross-server consistency checks).
    fn store(&self) -> &MetaStore;
    fn store_mut(&mut self) -> &mut MetaStore;

    /// The operation log, if this protocol keeps one.
    fn wal(&self) -> Option<&Wal>;

    /// Unpruned log bytes — the Figure 7(b) "valid-records' size".
    fn valid_log_bytes(&self) -> u64 {
        self.wal().map(|w| w.valid_bytes()).unwrap_or(0)
    }

    fn stats(&self) -> &ServerStats;

    /// The introspection plane's protocol-internal series (conflict
    /// split, commitment mix, batch occupancy, …). The default derives
    /// them from [`ServerStats`] and the log, every conflict counted as
    /// ordered. SE never commits across servers; 2PC commits each
    /// cross-server op in a round of its own and CE migrates each to one
    /// server, but only Cx counts rounds in `ServerStats`, so all three
    /// report 0 immediate and 0 batched rounds. Cx overrides this with the
    /// series only it observes.
    fn proto_metrics(&self) -> ProtoMetrics {
        let stats = self.stats();
        let derived = ProtoMetrics {
            conflicts_ordered: stats.conflicts,
            ..ProtoMetrics::default()
        };
        derived.with_stats(stats, self.wal())
    }

    /// True when the engine implements [`ServerEngine::crash`] and
    /// [`ServerEngine::recover`]. Fault plans only aim crash points at
    /// crash-capable engines; network faults apply to every protocol.
    fn supports_crash(&self) -> bool {
        false
    }

    /// Crash the server: volatile state (store image, pending protocol
    /// state, queued IO continuations) is lost; the durable log prefix
    /// survives. Only meaningful for engines with a log.
    fn crash(&mut self, _now: SimTime) {
        unimplemented!("crash/recovery is implemented for the Cx engine");
    }

    /// Crash with a torn log tail: beyond the durable prefix, up to
    /// `extra_bytes` of whole in-flight records also made it to the
    /// platter before power was lost (see `Wal::crash_torn`). Engines
    /// without torn-tail modeling fall back to a plain crash.
    fn crash_torn(&mut self, now: SimTime, _extra_bytes: u64) {
        self.crash(now);
    }

    /// Rebooted after a crash: scan the log and resume half-completed
    /// commitments (§III-D). Returns the number of log bytes scanned so the
    /// runtime can charge the sequential read.
    fn recover(&mut self, _now: SimTime, _out: &mut Vec<Action>) -> u64 {
        unimplemented!("crash/recovery is implemented for the Cx engine");
    }

    /// True while the recovery protocol is resolving half-completed
    /// commitments (the cluster measures Table V's recovery time with it).
    fn is_recovering(&self) -> bool {
        false
    }

    /// One-line description of unfinished protocol state, for hang
    /// diagnostics. Empty when quiesced.
    fn debug_summary(&self) -> String {
        String::new()
    }

    /// Hand the engine an observability sink. Engines that emit lifecycle
    /// milestones the runtime cannot see (Cx stamps `Completed` when the
    /// Complete-Record lands) keep the sink; the default discards it, and
    /// with `ObsSink::Off` every emission is a no-op either way.
    fn install_obs(&mut self, _sink: ObsSink) {}

    /// Instantaneous engine state for the virtual-time gauges. Engines
    /// report what they have; the default is all-zero.
    fn obs_gauges(&self) -> EngineGauges {
        EngineGauges::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::OpId;

    #[test]
    fn endpoint_equality() {
        assert_eq!(Endpoint::Server(ServerId(1)), Endpoint::Server(ServerId(1)));
        assert_ne!(
            Endpoint::Server(ServerId(1)),
            Endpoint::Proc(ProcId::new(1, 0))
        );
    }

    #[test]
    fn actions_compare_structurally() {
        let a = Action::SetTimer {
            token: 1,
            delay_ns: 5,
        };
        assert_eq!(
            a,
            Action::SetTimer {
                token: 1,
                delay_ns: 5
            }
        );
        let op = OpId::new(ProcId::new(0, 0), 1);
        let send = Action::Send {
            to: Endpoint::Proc(op.proc),
            payload: Payload::AllNo { op_id: op },
        };
        assert!(matches!(send, Action::Send { .. }));
    }
}
