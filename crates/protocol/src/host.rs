//! The engine host: the one place an engine's [`Action`]s are carried out.
//!
//! Every runtime — the discrete-event simulator (`cx-cluster::des`), the
//! wall clock (`cx-cluster::wall`) and [`crate::testkit::Kit`] — steps the
//! same sans-IO engines and hands what they ask for to [`carry_out`]. A
//! runtime supplies only its [`Ports`]: its clock, how a message travels,
//! what a disk does with a request, and where a timer waits. The host owns
//! the rest, so it is the same under every clock:
//!
//! * **Send-side accounting.** A send stamps the lifecycle milestone its
//!   payload names ([`obs_on_send`]) and is counted once, by kind and by
//!   end ([`MsgCounts`]), before its fate is decided. A fault that then
//!   loses the message does not unsend it.
//! * **Every send's fate.** The host asks the port for a [`MsgFate`] (a
//!   fault injector's verdict; [`MsgFate::Deliver`] when none is
//!   installed), counts a fault, and carries the verdict out: a dropped
//!   message reaches no port, a late one reaches it with its [`Lateness`],
//!   a duplicated one twice. A port only carries out how late a send is.
//! * **Disk requests completed on the spot.** A port either keeps a
//!   request and calls the engine back later (the DES's modelled disk), or
//!   completes it at once (the wall clock, `Kit`). An on-the-spot
//!   completion goes straight back to the engine, and what *that* asks for
//!   is carried out before the rest of the step: the cascade is
//!   **depth-first**, each level in the engine's emission order. Only a
//!   server has a disk; a client that asks for one is a protocol bug, and
//!   panics in every runtime.
//! * **Timers** go to the port as `(endpoint, token, delay)`.

use crate::action::{Action, Endpoint, ServerEngine};
use cx_obs::{FlowNode, ObsSink, Phase};
use cx_simio::DiskReq;
use cx_types::{MsgKind, OpId, Payload, ServerId, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::Index;

/// What happens to one message at the send choke point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver `ns` later than the network would.
    Delay(u64),
    /// Deliver normally and again `ns` after the first copy.
    Duplicate(u64),
    /// The message arrives on time, but the receiver sits on it for `ns`
    /// before handling — a slow *participant*, not a slow link. A port
    /// that traces message edges keeps the true wire arrival, so blame
    /// attribution charges the stall to the receiver's execution segment
    /// rather than the hop's network transit (which is what
    /// [`MsgFate::Delay`] does).
    ExecDelay(u64),
}

/// How much later than the network's own latency a send arrives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lateness {
    /// Extra time on the wire.
    pub wire_ns: u64,
    /// Time the receiver holds the arrived message before handling it.
    pub hold_ns: u64,
}

/// What a runtime supplies to carry out one node's actions.
pub trait Ports {
    /// The node's clock: virtual time, or nanoseconds since the run's
    /// epoch.
    fn now(&self) -> SimTime;
    /// The sink send-side milestones are stamped into; none by default.
    fn obs(&self) -> &ObsSink {
        &ObsSink::Off
    }
    /// Where sends are counted.
    fn sent(&mut self) -> &mut MsgCounts;
    /// The fate of a counted message about to leave `from` for `to`: a
    /// fault injector's verdict, [`MsgFate::Deliver`] by default.
    fn fate(&mut self, _from: Endpoint, _to: Endpoint, _kind: MsgKind) -> MsgFate {
        MsgFate::Deliver
    }
    /// Move an already counted message toward `to`, `late` behind the
    /// network's own latency.
    fn send(&mut self, from: Endpoint, to: Endpoint, payload: Payload, late: Lateness);
    /// Hand `server`'s request to its disk: `Some(token)` when the request
    /// completed on the spot, `None` when the disk calls back later.
    fn disk(&mut self, server: ServerId, req: DiskReq) -> Option<u64>;
    /// Call `on_timer(token)` on `at` after `delay_ns`.
    fn set_timer(&mut self, at: Endpoint, token: u64, delay_ns: u64);
}

/// Carry out (and drain) `actions`, emitted by `from`: a server, whose
/// `engine` hears of its disk requests completed on the spot, or a client
/// (`engine` is `None`).
pub fn carry_out<P: Ports + ?Sized>(
    ports: &mut P,
    from: Endpoint,
    mut engine: Option<&mut dyn ServerEngine>,
    actions: &mut Vec<Action>,
) {
    for action in actions.drain(..) {
        match action {
            Action::Send { to, payload } => {
                if ports.obs().enabled() {
                    obs_on_send(ports.obs(), from, &payload, ports.now());
                }
                let kind = payload.kind();
                ports.sent().count(from, to, kind);
                // The one place a send's fate is carried out, and counted.
                let (wire_ns, hold_ns) = match ports.fate(from, to, kind) {
                    MsgFate::Deliver => (0, 0),
                    MsgFate::Drop => {
                        ports.sent().drops += 1;
                        continue;
                    }
                    MsgFate::Delay(ns) => {
                        ports.sent().delays += 1;
                        (ns, 0)
                    }
                    MsgFate::ExecDelay(ns) => {
                        ports.sent().delays += 1;
                        (0, ns)
                    }
                    MsgFate::Duplicate(ns) => {
                        ports.sent().dups += 1;
                        // The late copy first, then the original: the order
                        // every fault plan's digest was recorded with.
                        let copy = Lateness {
                            wire_ns: ns,
                            hold_ns: 0,
                        };
                        ports.send(from, to, payload.clone(), copy);
                        (0, 0)
                    }
                };
                ports.send(from, to, payload, Lateness { wire_ns, hold_ns });
            }
            Action::Disk(req) => {
                let (Endpoint::Server(me), Some(engine)) = (from, engine.as_deref_mut()) else {
                    panic!("{from:?} asked for a disk; only a server has one");
                };
                if let Some(token) = ports.disk(me, req) {
                    let mut more = Vec::new();
                    engine.on_disk_done(ports.now(), token, &mut more);
                    carry_out(ports, from, Some(engine), &mut more);
                }
            }
            Action::SetTimer { token, delay_ns } => ports.set_timer(from, token, delay_ns),
        }
    }
}

/// Send-side message accounting, the same in every runtime: by kind, and
/// by whether a client sits at either end.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgCounts {
    /// Sends per [`MsgKind`], indexed by `kind as usize`.
    pub by_kind: [u64; MsgKind::COUNT],
    /// Server-to-server messages.
    pub server_msgs: u64,
    /// Messages with a client at either end.
    pub client_msgs: u64,
    /// Sends a fault dropped.
    pub drops: u64,
    /// Sends a fault delivered late, on the wire or at the receiver.
    pub delays: u64,
    /// Sends a fault delivered twice.
    pub dups: u64,
}

impl MsgCounts {
    pub fn count(&mut self, from: Endpoint, to: Endpoint, kind: MsgKind) {
        self.by_kind[kind as usize] += 1;
        match (from, to) {
            (Endpoint::Server(_), Endpoint::Server(_)) => self.server_msgs += 1,
            _ => self.client_msgs += 1,
        }
    }

    /// Fold in another node's totals.
    pub fn merge(&mut self, other: &MsgCounts) {
        for (n, m) in self.by_kind.iter_mut().zip(other.by_kind) {
            *n += m;
        }
        self.server_msgs += other.server_msgs;
        self.client_msgs += other.client_msgs;
        self.drops += other.drops;
        self.delays += other.delays;
        self.dups += other.dups;
    }

    /// Sends of `kind`, or `None` if there were none.
    pub fn get(&self, kind: &MsgKind) -> Option<&u64> {
        Some(&self.by_kind[*kind as usize]).filter(|n| **n > 0)
    }

    /// Every kind sent at least once, with its count.
    pub fn iter(&self) -> impl Iterator<Item = (MsgKind, u64)> + '_ {
        MsgKind::ALL
            .iter()
            .zip(&self.by_kind)
            .filter(|(_, n)| **n > 0)
            .map(|(k, n)| (*k, *n))
    }
}

impl Index<&MsgKind> for MsgCounts {
    type Output = u64;
    fn index(&self, kind: &MsgKind) -> &u64 {
        &self.by_kind[*kind as usize]
    }
}

/// Stamp lifecycle milestones from the send path: the payload kind names
/// the Cx phase the sender just entered, at `now` on the sender's clock
/// (virtual time, or nanoseconds since its epoch). Stamps record the send
/// (a later drop fault does not unhappen the phase), and `OpSpan` stamping
/// is first-writer-wins, so re-driven batches and retransmissions never
/// move a milestone.
pub fn obs_on_send(obs: &ObsSink, from: Endpoint, payload: &Payload, now: SimTime) {
    let srv = match from {
        Endpoint::Server(s) => Some(s),
        Endpoint::Proc(_) => None,
    };
    match payload {
        // Client-visible path.
        Payload::SubOpReq { op_id, .. } | Payload::OpReq { op_id, .. } => {
            obs.op_phase(*op_id, Phase::Dispatched, now, None);
        }
        Payload::SubOpResp { op_id, .. } | Payload::OpResp { op_id, .. } => {
            obs.op_phase(*op_id, Phase::Executed, now, srv);
        }
        // Commitment path: batched Cx messages carry many ops; 2PC's
        // VoteExec and CE's migration round-trip are their (pre-reply)
        // analogues, so the same milestones work for every protocol.
        Payload::Vote { ops, .. } => {
            for &op in ops {
                obs.op_phase(op, Phase::VoteSent, now, srv);
            }
        }
        Payload::VoteExec { op_id, .. } | Payload::Migrate { op_id, .. } => {
            obs.op_phase(*op_id, Phase::VoteSent, now, srv);
        }
        Payload::CommitDecision { commits, aborts } => {
            for &op in commits.iter().chain(aborts) {
                obs.op_phase(op, Phase::DecisionSent, now, srv);
            }
        }
        Payload::MigrateBack { op_id, .. } => {
            obs.op_phase(*op_id, Phase::DecisionSent, now, srv);
        }
        Payload::Ack { ops } => {
            for &op in ops {
                obs.op_phase(op, Phase::Acked, now, srv);
            }
        }
        Payload::MigrateBackAck { op_id, .. } => {
            obs.op_phase(*op_id, Phase::Acked, now, srv);
        }
        _ => {}
    }
}

/// Runtime endpoint → tracer endpoint.
pub fn flow_node(e: Endpoint) -> FlowNode {
    match e {
        Endpoint::Server(s) => FlowNode::Server(s.0),
        Endpoint::Proc(p) => FlowNode::Client(p.client.0),
    }
}

/// The operation a message serves, for tying its edge to a span. Batched
/// commitment messages carry many ops; the first one stands in (the edge
/// still draws, and `cx-obs trace` matches any member by the args field).
pub fn primary_op(payload: &Payload) -> Option<OpId> {
    match payload {
        Payload::SubOpReq { op_id, .. }
        | Payload::SubOpResp { op_id, .. }
        | Payload::LCom { op_id }
        | Payload::AllNo { op_id }
        | Payload::Committed { op_id }
        | Payload::OpReq { op_id, .. }
        | Payload::OpResp { op_id, .. }
        | Payload::VoteExec { op_id, .. }
        | Payload::Clear { op_id, .. }
        | Payload::ClearResp { op_id }
        | Payload::Migrate { op_id, .. }
        | Payload::MigrateResp { op_id, .. }
        | Payload::MigrateBack { op_id, .. }
        | Payload::MigrateBackAck { op_id, .. } => Some(*op_id),
        Payload::CommitmentReq { pending, .. } => Some(*pending),
        Payload::Vote { ops, .. } | Payload::Ack { ops } | Payload::QueryOutcome { ops } => {
            ops.first().copied()
        }
        Payload::VoteResult { results } => results.first().map(|(op, _)| *op),
        Payload::CommitDecision { commits, aborts } => {
            commits.first().or_else(|| aborts.first()).copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServerStats;
    use cx_mdstore::MetaStore;
    use cx_types::ProcId;
    use cx_wal::Wal;

    const ME: ServerId = ServerId(0);

    fn client() -> Endpoint {
        Endpoint::Proc(ProcId::new(0, 0))
    }

    /// Tag `n`'s message, one kind per tag.
    fn msg(n: u64) -> Action {
        let op_id = OpId::new(ProcId::new(0, 0), n);
        let payload = match n {
            1 => Payload::AllNo { op_id },
            2 => Payload::Committed { op_id },
            _ => Payload::LCom { op_id },
        };
        Action::Send {
            to: client(),
            payload,
        }
    }

    fn disk(token: u64) -> Action {
        Action::Disk(DiskReq::LogAppend { bytes: 1, token })
    }

    /// A message asks for disk request 1, then sends tag 3. Request 1's
    /// completion sends tag 1 and asks for request 2, whose completion
    /// sends tag 2.
    struct Script {
        store: MetaStore,
        stats: ServerStats,
    }

    impl ServerEngine for Script {
        fn on_msg(&mut self, _: SimTime, _: Endpoint, _: Payload, out: &mut Vec<Action>) {
            out.extend([disk(1), msg(3)]);
        }
        fn on_disk_done(&mut self, _: SimTime, token: u64, out: &mut Vec<Action>) {
            out.push(msg(token));
            if token == 1 {
                out.push(disk(2));
            }
        }
        fn on_timer(&mut self, _: SimTime, _: u64, _: &mut Vec<Action>) {}
        fn quiesce(&mut self, _: SimTime, _: &mut Vec<Action>) {}
        fn is_quiesced(&self) -> bool {
            true
        }
        fn store(&self) -> &MetaStore {
            &self.store
        }
        fn store_mut(&mut self) -> &mut MetaStore {
            &mut self.store
        }
        fn wal(&self) -> Option<&Wal> {
            None
        }
        fn stats(&self) -> &ServerStats {
            &self.stats
        }
    }

    /// Records what reaches it; completes disk requests on the spot or
    /// keeps them.
    #[derive(Default)]
    struct Recorder {
        on_the_spot: bool,
        sent: MsgCounts,
        wire: Vec<u64>,
        kept: Vec<u64>,
    }

    impl Ports for Recorder {
        fn now(&self) -> SimTime {
            SimTime(7)
        }
        fn sent(&mut self) -> &mut MsgCounts {
            &mut self.sent
        }
        fn send(&mut self, _: Endpoint, _: Endpoint, payload: Payload, _: Lateness) {
            self.wire.push(primary_op(&payload).expect("tagged").seq);
        }
        fn disk(&mut self, _: ServerId, req: DiskReq) -> Option<u64> {
            if self.on_the_spot {
                return Some(req.token());
            }
            self.kept.push(req.token());
            None
        }
        fn set_timer(&mut self, _: Endpoint, _: u64, _: u64) {}
    }

    fn run(on_the_spot: bool) -> Recorder {
        let mut engine = Script {
            store: MetaStore::new(),
            stats: ServerStats::default(),
        };
        let mut ports = Recorder {
            on_the_spot,
            ..Recorder::default()
        };
        let mut out = Vec::new();
        let op_id = OpId::new(ProcId::new(0, 0), 0);
        engine.on_msg(SimTime(7), client(), Payload::AllNo { op_id }, &mut out);
        carry_out(
            &mut ports,
            Endpoint::Server(ME),
            Some(&mut engine),
            &mut out,
        );
        assert!(out.is_empty(), "the step's buffer is drained");
        ports
    }

    #[test]
    fn on_the_spot_completions_cascade_depth_first() {
        let ports = run(true);
        // Request 1's fallout (tag 1, then request 2's tag 2) goes out
        // before the step's own next action (tag 3).
        assert_eq!(ports.wire, [1, 2, 3]);
        assert!(ports.kept.is_empty());
    }

    #[test]
    fn every_send_is_counted_once_by_kind_and_end() {
        let ports = run(true);
        assert_eq!(ports.sent.iter().map(|(_, n)| n).sum::<u64>(), 3);
        for kind in [MsgKind::AllNo, MsgKind::Committed, MsgKind::LCom] {
            assert_eq!(ports.sent.get(&kind), Some(&1), "{kind:?}");
        }
        assert_eq!(ports.sent.get(&MsgKind::Vote), None);
        assert_eq!((ports.sent.client_msgs, ports.sent.server_msgs), (3, 0));
    }

    #[test]
    fn a_kept_request_waits_for_its_callback() {
        let ports = run(false);
        assert_eq!(ports.wire, [3]);
        assert_eq!(ports.kept, [1]);
        assert_eq!(ports.sent.iter().collect::<Vec<_>>(), [(MsgKind::LCom, 1)]);
    }

    #[test]
    #[should_panic(expected = "only a server has one")]
    fn a_client_has_no_disk() {
        let mut ports = Recorder::default();
        carry_out(&mut ports, client(), None, &mut vec![disk(1)]);
    }
}
