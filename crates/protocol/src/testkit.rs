//! A miniature deterministic runtime for protocol-level tests.
//!
//! Interprets engine [`Action`]s with zero network latency and instant
//! disk, entirely synchronously. Its one special power is **holding**
//! messages: a test can intercept messages matching a predicate and
//! release them later, which is how the paper's ordered and disordered
//! conflict interleavings (Figure 3) are constructed deterministically.
//!
//! Timers are collected into a queue and fired manually via
//! [`Kit::fire_timers`], so tests control the passage of time.

use crate::action::{Action, Endpoint, ServerEngine};
use crate::client::{ClientDecision, ClientOp};
use cx_mdstore::GlobalView;
use cx_types::{
    ClusterConfig, FsOp, MsgKind, OpId, OpOutcome, Payload, Placement, ProcId, ServerId, SimTime,
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
    pub msg_counts: HashMap<MsgKind, u64>,
    now: SimTime,
    next_seq: u64,
}

impl Kit {
    pub fn new(cfg: ClusterConfig) -> Self {
        let placement = Placement::new(cfg.servers);
        let mut servers: Vec<Box<dyn ServerEngine>> = (0..cfg.servers)
            .map(|i| crate::make_server(ServerId(i), &cfg))
            .collect();
        let mut boot = Vec::new();
        for s in servers.iter_mut() {
            s.on_start(SimTime::ZERO, &mut boot);
        }
        let mut kit = Self {
            cfg,
            placement,
            servers,
            clients: HashMap::new(),
            outcomes: HashMap::new(),
            queue: VecDeque::new(),
            held: Vec::new(),
            hold_filter: None,
            timers: Vec::new(),
            msg_counts: HashMap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        };
        // interpret any boot actions (timers etc.)
        for a in boot {
            kit.interpret(Endpoint::Server(ServerId(0)), a);
        }
        kit
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
        for env in std::mem::take(&mut self.held) {
            self.queue.push_back(env);
        }
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
        for a in out {
            self.interpret(Endpoint::Proc(proc), a);
        }
        op_id
    }

    /// Deliver queued messages until nothing moves.
    pub fn run(&mut self) {
        while let Some(env) = self.queue.pop_front() {
            self.deliver(env);
        }
    }

    /// Deliver at most one message; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop_front() {
            Some(env) => {
                self.deliver(env);
                true
            }
            None => false,
        }
    }

    /// Fire every pending timer (in arming order) and drain the fallout.
    pub fn fire_timers(&mut self) {
        let timers = std::mem::take(&mut self.timers);
        for t in timers {
            self.now = SimTime(self.now.0 + t.delay_ns);
            let mut out = Vec::new();
            match t.node {
                Endpoint::Server(s) => {
                    self.servers[s.0 as usize].on_timer(self.now, t.token, &mut out)
                }
                Endpoint::Proc(p) => {
                    if let Some(c) = self.clients.get_mut(&p) {
                        let decision = c.on_timer(self.now, t.token, &mut out);
                        self.note_decision(p, decision);
                    }
                }
            }
            for a in out {
                self.interpret(t.node, a);
            }
            self.run();
        }
    }

    /// Ask every server to quiesce (launch lazy commitments) and drain.
    pub fn quiesce(&mut self) {
        for i in 0..self.servers.len() {
            let mut out = Vec::new();
            self.servers[i].quiesce(self.now, &mut out);
            for a in out {
                self.interpret(Endpoint::Server(ServerId(i as u32)), a);
            }
        }
        self.run();
        // Quiescing can cascade (votes → decisions → acks); iterate.
        for _ in 0..8 {
            if self.servers.iter().all(|s| s.is_quiesced()) {
                break;
            }
            for i in 0..self.servers.len() {
                let mut out = Vec::new();
                self.servers[i].quiesce(self.now, &mut out);
                for a in out {
                    self.interpret(Endpoint::Server(ServerId(i as u32)), a);
                }
            }
            self.run();
        }
    }

    fn deliver(&mut self, env: Envelope) {
        let mut out = Vec::new();
        match env.to {
            Endpoint::Server(s) => {
                self.servers[s.0 as usize].on_msg(self.now, env.from, env.payload, &mut out);
            }
            Endpoint::Proc(p) => {
                if let Some(c) = self.clients.get_mut(&p) {
                    let decision = c.on_msg(self.now, env.from, env.payload, &mut out);
                    self.note_decision(p, decision);
                }
            }
        }
        for a in out {
            self.interpret(env.to, a);
        }
    }

    fn note_decision(&mut self, proc: ProcId, decision: ClientDecision) {
        if let ClientDecision::Done(outcome) = decision {
            if let Some(c) = self.clients.get(&proc) {
                self.outcomes.insert(c.op_id, outcome);
            }
        }
    }

    fn interpret(&mut self, from: Endpoint, action: Action) {
        match action {
            Action::Send { to, payload } => {
                *self.msg_counts.entry(payload.kind()).or_insert(0) += 1;
                let env = Envelope { from, to, payload };
                if let Some(f) = &self.hold_filter {
                    if f(&env) {
                        self.held.push(env);
                        return;
                    }
                }
                self.queue.push_back(env);
            }
            // Instant disk: complete immediately, synchronously.
            Action::Disk(req) => {
                let Endpoint::Server(s) = from else {
                    return;
                };
                let mut out = Vec::new();
                self.servers[s.0 as usize].on_disk_done(self.now, req.token(), &mut out);
                for a in out {
                    self.interpret(from, a);
                }
            }
            Action::SetTimer { token, delay_ns } => self.timers.push(PendingTimer {
                node: from,
                token,
                delay_ns,
            }),
        }
    }

    /// Feed externally produced actions (e.g. from a manual
    /// `crash`/`recover` call on an engine) into the harness.
    pub fn inject_actions(&mut self, from: Endpoint, actions: Vec<Action>) {
        for a in actions {
            self.interpret(from, a);
        }
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
        self.msg_counts.values().sum()
    }
}
