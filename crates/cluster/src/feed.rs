//! Per-process operation intake over a pull-based workload stream.
//!
//! Both runtimes replay a trace as per-process synchronous queues, but a
//! [`StreamTrace`] yields ops in *global* order. [`OpFeed`] bridges the
//! two: each pull from the stream is routed to its process's buffer, and
//! a process asking for its next op drains the stream just far enough.
//! Per-process subsequences — the only order the replay observes — are
//! exactly those of the materialized trace (a vec-backed stream goes
//! through the same feed), so there is one intake.
//!
//! [`ClientTable`] is the client side both runtimes run over a feed: the
//! DES and the wall clock's client host.

use crate::stats::{AckRecord, RunStats};
use cx_obs::registry::{Counter, MetricRegistry, Series};
use cx_obs::{FlightEvent, FlightRecorder};
use cx_protocol::{host, Action, ClientDecision, ClientOp, Endpoint, Ports};
use cx_types::{
    ClusterConfig, CxConfig, FsOp, OpId, OpOutcome, Placement, ProcId, Protocol, SimTime,
};
use cx_workloads::OpStream;
use std::collections::VecDeque;

pub struct OpFeed {
    source: Box<dyn OpStream + Send>,
    buffers: Vec<VecDeque<FsOp>>,
    exhausted: bool,
    /// Ops pulled out of the source so far.
    pulled: u64,
    total_hint: u64,
}

impl OpFeed {
    /// Wrap a stream and pre-pull until every process has at least one
    /// buffered op (or the stream ends): afterwards, a process with an
    /// empty buffer provably has no ops in the whole trace and starts
    /// out `done`.
    pub fn new(source: Box<dyn OpStream + Send>, processes: u32, total_hint: u64) -> Self {
        let mut feed = Self {
            source,
            buffers: (0..processes).map(|_| VecDeque::new()).collect(),
            exhausted: false,
            pulled: 0,
            total_hint,
        };
        let mut empty = feed.buffers.len();
        while empty > 0 && !feed.exhausted {
            match feed.source.next_op() {
                Some(t) => {
                    feed.pulled += 1;
                    let b = &mut feed.buffers[t.proc.client.0 as usize];
                    if b.is_empty() {
                        empty -= 1;
                    }
                    b.push_back(t.op);
                }
                None => feed.exhausted = true,
            }
        }
        feed
    }

    /// Whether `proc` has no ops at all (valid right after construction).
    pub fn starts_empty(&self, proc: u32) -> bool {
        self.buffers[proc as usize].is_empty()
    }

    /// Next op for `proc`, pulling the source forward as needed.
    pub fn next_for(&mut self, proc: u32) -> Option<FsOp> {
        loop {
            if let Some(op) = self.buffers[proc as usize].pop_front() {
                return Some(op);
            }
            if self.exhausted {
                return None;
            }
            match self.source.next_op() {
                Some(t) => {
                    self.pulled += 1;
                    self.buffers[t.proc.client.0 as usize].push_back(t.op);
                }
                None => self.exhausted = true,
            }
        }
    }

    /// Ops not yet handed to any process: buffered plus (estimated) still
    /// in the source. Exact for vec- and generator-backed streams, a
    /// lower bound under the injection adapter.
    pub fn remaining(&self) -> u64 {
        let buffered: u64 = self.buffers.iter().map(|b| b.len() as u64).sum();
        if self.exhausted {
            buffered
        } else {
            buffered + self.total_hint.saturating_sub(self.pulled)
        }
    }

    pub fn total_hint(&self) -> u64 {
        self.total_hint
    }
}

/// Every logical client of a run, for the DES and the wall clock's client
/// host alike: strictly synchronous clients (at most one op in flight,
/// issued in feed order), their op ids and placement, and the issue and
/// retire accounting with each runtime's extras. A runtime keeps only its
/// pacing: the DES issues a client's next op a modelled think time after
/// the last, the client host refills its idle clients at the end of a turn.
pub(crate) struct ClientTable {
    protocol: Protocol,
    cx: CxConfig,
    placement: Placement,
    feed: OpFeed,
    /// Per client: its next op's sequence number, and its op in flight.
    slots: Vec<(u64, Option<InFlight>)>,
    /// Clients whose feed has not been found dry.
    live: usize,
    out: Vec<Action>,
    pub(crate) flight: Option<FlightRecorder>,
    /// Every issue and ack, for the chaos oracle.
    pub(crate) history: Option<History>,
    pub(crate) registry: Option<MetricRegistry>,
}

struct InFlight {
    client: ClientOp,
    fs_op: FsOp,
    issued_at: SimTime,
}

#[derive(Default)]
pub(crate) struct History {
    pub(crate) acks: Vec<AckRecord>,
    pub(crate) issued: Vec<(OpId, FsOp)>,
}

impl ClientTable {
    pub(crate) fn new(cfg: &ClusterConfig, feed: OpFeed, processes: u32) -> Self {
        Self {
            protocol: cfg.protocol,
            cx: cfg.cx,
            placement: Placement::new(cfg.servers),
            live: (0..processes).filter(|&c| !feed.starts_empty(c)).count(),
            feed,
            slots: (0..processes).map(|_| (0, None)).collect(),
            out: Vec::with_capacity(4),
            flight: None,
            history: None,
            registry: None,
        }
    }

    /// The clients with ops to issue; each is to be issued to until its
    /// feed is found dry. Valid right after construction.
    pub(crate) fn starters(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(|&c| !self.feed.starts_empty(c as u32))
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn history(&self) -> (&[AckRecord], &[(OpId, FsOp)]) {
        let h = self.history.as_ref();
        h.map_or((&[], &[]), |h| (&h.acks, &h.issued))
    }

    pub(crate) fn in_flight(&self) -> impl Iterator<Item = OpId> + '_ {
        self.slots
            .iter()
            .filter_map(|s| Some(s.1.as_ref()?.client.op_id))
    }

    /// Ops not answered yet: in flight, or not issued.
    pub(crate) fn unfinished(&self) -> u64 {
        self.feed.remaining() + self.in_flight().count() as u64
    }

    /// Start client `c`'s next op, unless one is in flight. A client found
    /// dry leaves the live count; when the last one does, the replay is
    /// over.
    pub(crate) fn issue(&mut self, c: usize, ports: &mut impl Ports, stats: &mut RunStats) {
        if self.slots[c].1.is_some() {
            return;
        }
        let now = ports.now();
        let Some(fs_op) = self.feed.next_for(c as u32) else {
            self.live -= 1;
            if self.live == 0 {
                stats.replay = now;
            }
            return;
        };
        let proc = ProcId::new(c as u32, 0);
        let (seq, slot) = &mut self.slots[c];
        let id = OpId::new(proc, *seq);
        *seq += 1;
        let plan = self.placement.plan(fs_op);
        let cross = plan.is_cross_server();
        ports.obs().op_issued(id, fs_op.class(), cross, now);
        if let Some(fl) = &self.flight {
            fl.push(now.0, FlightEvent::Issued { op: id, cross });
        }
        stats.note_issued(cross);
        if let Some(reg) = &self.registry {
            reg.inc(Counter::OpsIssued);
            reg.add(Counter::CrossOps, cross as u64);
        }
        if let Some(h) = &mut self.history {
            h.issued.push((id, fs_op));
        }
        let client = ClientOp::start(self.protocol, id, plan, &self.cx, &mut self.out);
        *slot = Some(InFlight {
            client,
            fs_op,
            issued_at: now,
        });
        host::carry_out(ports, Endpoint::Proc(proc), None, &mut self.out);
    }

    /// Step client `c`'s op with `f` and carry out what it asks for;
    /// nothing if it has none (a late duplicate, a stale timer). True if
    /// that finished the op.
    pub(crate) fn step(
        &mut self,
        c: usize,
        ports: &mut impl Ports,
        stats: &mut RunStats,
        f: impl FnOnce(&mut ClientOp, SimTime, &mut Vec<Action>) -> ClientDecision,
    ) -> bool {
        let Some((_, Some(op))) = self.slots.get_mut(c) else {
            return false;
        };
        let now = ports.now();
        let decision = f(&mut op.client, now, &mut self.out);
        let proc = Endpoint::Proc(op.client.op_id.proc);
        host::carry_out(ports, proc, None, &mut self.out);
        let ClientDecision::Done(outcome) = decision else {
            return false;
        };
        let op = self.slots[c].1.take().expect("the op just stepped");
        let (id, cross) = (op.client.op_id, op.client.plan.is_cross_server());
        let latency = now.since(op.issued_at);
        stats.note_finished(outcome, cross, latency);
        // Only Cx leaves commitment running behind the reply; its engine
        // stamps `Completed` through the same sink when the ack lands.
        let awaits = cross && self.protocol == Protocol::Cx;
        ports.obs().op_replied(id, now, outcome, awaits);
        ports.obs().client_latency(op.fs_op.class(), cross, latency);
        if let Some(fl) = &self.flight {
            let applied = outcome == OpOutcome::Applied;
            fl.push(now.0, FlightEvent::Replied { op: id, applied });
        }
        if let Some(reg) = &self.registry {
            reg.inc(match outcome {
                OpOutcome::Applied => Counter::OpsApplied,
                OpOutcome::Failed => Counter::OpsFailed,
            });
            reg.observe(Series::ClientLatencyNs, latency);
        }
        if let Some(h) = &mut self.history {
            let (fs_op, at) = (op.fs_op, now);
            h.acks.push(AckRecord {
                op: id,
                fs_op,
                outcome,
                at,
            });
        }
        true
    }
}
