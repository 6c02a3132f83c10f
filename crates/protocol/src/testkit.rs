//! A miniature deterministic runtime for protocol-level tests.
//!
//! Runs the engines through the [`crate::host`] with zero network latency
//! and disk requests completed on the spot, entirely synchronously. Its
//! one special power is **holding** messages: a test can intercept
//! messages matching a predicate and release them later, which is how the
//! paper's ordered and disordered conflict interleavings (Figure 3) are
//! constructed deterministically.
//!
//! Timers are collected into a list and fired manually via
//! [`Kit::fire_timers`], so tests control the passage of time.

use crate::action::{Action, Endpoint, ServerEngine};
use crate::client::{ClientDecision, ClientOp};
use crate::host::{self, Lateness, MsgCounts, Ports};
use cx_mdstore::GlobalView;
use cx_simio::DiskReq;
use cx_types::{
    ClusterConfig, FsOp, OpId, OpOutcome, Payload, Placement, ProcId, ServerId, SimTime,
};
use std::collections::{HashMap, VecDeque};

/// An in-flight message.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub from: Endpoint,
    pub to: Endpoint,
    pub payload: Payload,
}

/// A pending timer.
#[derive(Debug, Clone, Copy)]
pub struct PendingTimer {
    pub node: Endpoint,
    pub token: u64,
    pub delay_ns: u64,
}

/// Predicate deciding which in-flight messages to hold back.
type HoldFilter = Box<dyn Fn(&Envelope) -> bool>;

/// The test harness.
pub struct Kit {
    pub cfg: ClusterConfig,
    pub placement: Placement,
    pub servers: Vec<Box<dyn ServerEngine>>,
    pub clients: HashMap<ProcId, ClientOp>,
    pub outcomes: HashMap<OpId, OpOutcome>,
    queue: VecDeque<Envelope>,
    held: Vec<Envelope>,
    hold_filter: Option<HoldFilter>,
    pub timers: Vec<PendingTimer>,
    pub msg_counts: MsgCounts,
    now: SimTime,
    next_seq: u64,
}

/// The kit's own ports: a queue with the hold filter in front, disk
/// completed on the spot, timers into its list. Every send takes the
/// default fate, so none is ever late; a test holds a message instead.
impl Ports for Kit {
    fn now(&self) -> SimTime {
        self.now
    }

    fn sent(&mut self) -> &mut MsgCounts {
        &mut self.msg_counts
    }

    fn send(&mut self, from: Endpoint, to: Endpoint, payload: Payload, _: Lateness) {
        let env = Envelope { from, to, payload };
        if self.hold_filter.as_ref().is_some_and(|f| f(&env)) {
            self.held.push(env);
        } else {
            self.queue.push_back(env);
        }
    }

    fn disk(&mut self, _server: ServerId, req: DiskReq) -> Option<u64> {
        Some(req.token())
    }

    fn set_timer(&mut self, node: Endpoint, token: u64, delay_ns: u64) {
        self.timers.push(PendingTimer {
            node,
            token,
            delay_ns,
        });
    }
}

impl Kit {
    pub fn new(cfg: ClusterConfig) -> Self {
        Self {
            placement: Placement::new(cfg.servers),
            servers: (0..cfg.servers)
                .map(|i| crate::make_server(ServerId(i), &cfg))
                .collect(),
            cfg,
            clients: HashMap::new(),
            outcomes: HashMap::new(),
            queue: VecDeque::new(),
            held: Vec::new(),
            hold_filter: None,
            timers: Vec::new(),
            msg_counts: MsgCounts::default(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Hold back every message matching `pred` until [`Kit::release_held`].
    pub fn hold_if(&mut self, pred: impl Fn(&Envelope) -> bool + 'static) {
        self.hold_filter = Some(Box::new(pred));
    }

    pub fn stop_holding(&mut self) {
        self.hold_filter = None;
    }

    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Release all held messages into the queue.
    pub fn release_held(&mut self) {
        self.queue.extend(self.held.drain(..));
    }

    /// Drop all held messages (e.g. in-flight traffic lost with a crash).
    pub fn discard_held(&mut self) {
        self.held.clear();
    }

    /// Start an operation from `proc` and run the system to quiescence.
    pub fn run_op(&mut self, proc: ProcId, op: FsOp) -> OpId {
        let id = self.start_op(proc, op);
        self.run();
        id
    }

    /// Start an operation without draining the queue.
    pub fn start_op(&mut self, proc: ProcId, op: FsOp) -> OpId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let op_id = OpId::new(proc, seq);
        let plan = self.placement.plan(op);
        let mut out = Vec::new();
        let client = ClientOp::start(self.cfg.protocol, op_id, plan, &self.cfg.cx, &mut out);
        self.clients.insert(proc, client);
        self.inject_actions(Endpoint::Proc(proc), out);
        op_id
    }

    /// Deliver queued messages until nothing moves.
    pub fn run(&mut self) {
        while let Some(env) = self.queue.pop_front() {
            self.deliver(env.to, Input::Msg(env.from, env.payload));
        }
    }

    /// Fire every pending timer (in arming order) and drain the fallout.
    pub fn fire_timers(&mut self) {
        for t in std::mem::take(&mut self.timers) {
            self.now = SimTime(self.now.0 + t.delay_ns);
            self.deliver(t.node, Input::Timer(t.token));
            self.run();
        }
    }

    /// Ask every server to quiesce (launch lazy commitments) and drain.
    pub fn quiesce(&mut self) {
        // Quiescing can cascade (votes → decisions → acks); iterate.
        for round in 0..9 {
            if round > 0 && self.servers.iter().all(|s| s.is_quiesced()) {
                break;
            }
            for i in 0..self.servers.len() {
                let mut out = Vec::new();
                self.servers[i].quiesce(self.now, &mut out);
                self.inject_actions(Endpoint::Server(ServerId(i as u32)), out);
            }
            self.run();
        }
    }

    /// Hand `input` to the node at `at` — a server's engine, or a client's
    /// op if it has one — and carry out what it asks for.
    fn deliver(&mut self, at: Endpoint, input: Input) {
        let (now, mut out) = (self.now, Vec::new());
        match at {
            Endpoint::Server(s) => {
                let e = &mut self.servers[s.0 as usize];
                match input {
                    Input::Msg(from, payload) => e.on_msg(now, from, payload, &mut out),
                    Input::Timer(token) => e.on_timer(now, token, &mut out),
                }
            }
            Endpoint::Proc(p) => {
                let Some(c) = self.clients.get_mut(&p) else {
                    return;
                };
                let decision = match input {
                    Input::Msg(from, payload) => c.on_msg(now, from, payload, &mut out),
                    Input::Timer(token) => c.on_timer(now, token, &mut out),
                };
                if let ClientDecision::Done(outcome) = decision {
                    self.outcomes.insert(c.op_id, outcome);
                }
            }
        }
        self.inject_actions(at, out);
    }

    /// Carry out `from`'s actions — also ones produced outside the kit, e.g.
    /// by a manual `crash`/`recover` call on an engine. The engines step
    /// aside meanwhile, so the kit can serve as their ports.
    pub fn inject_actions(&mut self, from: Endpoint, mut actions: Vec<Action>) {
        let mut servers = std::mem::take(&mut self.servers);
        let engine: Option<&mut dyn ServerEngine> = match from {
            Endpoint::Server(s) => Some(servers[s.0 as usize].as_mut()),
            Endpoint::Proc(_) => None,
        };
        host::carry_out(self, from, engine, &mut actions);
        self.servers = servers;
    }

    /// Outcome of a finished operation.
    pub fn outcome(&self, op: OpId) -> Option<OpOutcome> {
        self.outcomes.get(&op).copied()
    }

    /// Merge all stores and check cross-server invariants.
    pub fn check_consistency(&self, roots: &[cx_types::InodeNo]) -> Vec<cx_mdstore::Violation> {
        GlobalView::merge(self.servers.iter().map(|s| s.store())).check(roots)
    }

    pub fn total_msgs(&self) -> u64 {
        self.msg_counts.iter().map(|(_, n)| n).sum()
    }
}

/// One input to a node.
enum Input {
    Msg(Endpoint, Payload),
    Timer(u64),
}
