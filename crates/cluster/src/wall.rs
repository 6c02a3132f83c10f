//! The wall-clock runtime: the sans-IO engines at real-time rate over any
//! [`Transport`].
//!
//! Every node of a run is one [`Node`] its transport serves on one OS
//! thread: on sockets, its connection manager's I/O thread; on channels,
//! its `ChanNode`'s loop. Each metadata server is a [`ServerNode`] (frame
//! batches in, engine actions out, node-local timers). The logical clients
//! — each strictly synchronous — all live on the client host's node
//! ([`ClientHost`]); the thread that called [`run_wired`] is the run's
//! coordinator. A send made during a node's turn goes out once per peer
//! when the turn ends. Disk completions are immediate: this runtime checks
//! protocol correctness under true concurrency, timing is the DES's job.
//! The engines cannot tell which carrier moves their frames; the DES
//! remains the oracle for what the totals must be.
//!
//! Control traffic (quiesce/probe/stop) rides the same links as protocol
//! messages: quiesce rounds until every server reports quiesced, then a
//! `Stop` whose `StopResp` carries the server's stats as JSON plus a
//! snapshot of its [`MetaStore`] rows for the coordinator-side
//! [`GlobalView`] atomicity check ([`drain_and_stop`]).
//!
//! [`crate::threaded`] and [`crate::tcp`] are the entry points: each wires
//! the nodes with its transport and calls [`run_wired`]; external
//! `cx_net_server` processes serve the same [`ServerNode`].

use crate::des::{flow_node, obs_on_send, primary_op, MsgCounts};
use crate::feed::OpFeed;
use crate::live::{observe_wire_series, set_wire_rates, sum_wire, LiveMetrics, Monitor};
use crate::seed::seed_engine;
use crate::stats::RunStats;
use crate::tcp::{TcpOptions, TcpRunResult};
use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, Sender};
use cx_mdstore::{GlobalView, MetaStore};
use cx_net::conn::{InboundBatches, Node};
use cx_net::{ClockSync, Frame, HealthSnapshot, NodeId, WireTelemetry, WireTotals};
use cx_obs::registry::{Counter, MetricRegistry, Series};
use cx_obs::{FlowNode, MsgEdge, NetPeerRow, NetTable, ObsSink, OpSpan};
use cx_protocol::{
    Action, ClientDecision, ClientOp, Endpoint, ProtoMetrics, ServerEngine, ServerStats,
};
use cx_sim::TimerQueue;
use cx_types::codec::WireError;
use cx_types::{
    ClusterConfig, FileKind, FsOp, InodeNo, Name, OpClass, OpId, OpOutcome, Payload, Placement,
    ProcId, Protocol, ServerId, SimTime,
};
use cx_workloads::{SeedEntry, StreamTrace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::os::raw::c_int;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Map a protocol endpoint onto the node that hosts it: servers are their
/// own nodes; every client proc lives on the single client host.
fn node_of(ep: Endpoint) -> NodeId {
    match ep {
        Endpoint::Server(s) => NodeId::Server(s.0),
        Endpoint::Proc(_) => NodeId::ClientHost(0),
    }
}

/// Per-server report shipped inside [`Frame::StopResp`]'s `stats_json`.
/// JSON (not wire-encoded) deliberately: it reuses the existing serde
/// derives on [`ServerStats`]/[`ProtoMetrics`] and stays inspectable on
/// the wire; `msgs` is the flat per-[`MsgKind`] send counter.
#[derive(Serialize, Deserialize)]
struct WireReport {
    stats: ServerStats,
    proto: ProtoMetrics,
    msgs: Vec<u64>,
    server_msgs: u64,
    client_msgs: u64,
    /// Wall-clock span shard + message edges from a shard-mode obs sink
    /// (external `cx_net_server` processes only — in-process nodes stamp
    /// straight into the coordinator's shared sink and ship nothing).
    /// Stamps are on the child's epoch clock; the coordinator corrects
    /// them by the probe-estimated offset before merging.
    spans: Vec<OpSpan>,
    edges: Vec<MsgEdge>,
    /// This node's wire-plane telemetry: flush/queue/stall histograms and
    /// (when enabled) the per-flush span log. Empty on a channel node.
    telem: WireTelemetry,
    /// Per-peer health rows (`(peer label, snapshot)`) — the node's
    /// contribution to the cluster-wide `cx-obs net` table; the
    /// coordinator fills in the `on` column from the responding node.
    peers: Vec<(String, HealthSnapshot)>,
}

type InodeRows = Vec<(u64, u8, u32)>;
type EntryRows = Vec<(u64, u64, u64)>;

/// A store's rows as [`Frame::StopResp`] ships them. Attribute versions
/// are not part of the snapshot: the atomicity check only reads kind/nlink
/// and the entry table.
pub(crate) fn snapshot_rows(store: &MetaStore) -> (InodeRows, EntryRows) {
    let inodes = store
        .inodes()
        .map(|(ino, inode)| (ino.0, inode.kind.byte(), inode.nlink))
        .collect();
    let dentries = store
        .dentries()
        .map(|(&(parent, name), &child)| (parent.0, name.0, child.0))
        .collect();
    (inodes, dentries)
}

/// The coordinator's copy of a server's store, from its snapshot; a row
/// whose kind byte is no [`FileKind`] is an error, not a guess.
pub(crate) fn rebuild_store(
    inodes: InodeRows,
    dentries: EntryRows,
) -> Result<MetaStore, WireError> {
    let mut store = MetaStore::new();
    store.reserve_rows(inodes.len(), dentries.len());
    for (ino, kind, nlink) in inodes {
        store.seed_inode(InodeNo(ino), FileKind::from_byte(kind)?, nlink);
    }
    for (parent, name, child) in dentries {
        store.seed_dentry(InodeNo(parent), Name(name), InodeNo(child));
    }
    Ok(store)
}

// ---- sending protocol messages ----

/// How a node that steps protocol machines — a server's engine, the client
/// host's clients — puts their payloads on its transport: stamp the
/// send-side lifecycle milestone, count by kind, wrap in [`Frame::Msg`].
struct MsgPort {
    net: Arc<dyn Transport>,
    obs: ObsSink,
    sent: MsgCounts,
}

impl MsgPort {
    fn new(net: Arc<dyn Transport>, obs: ObsSink) -> Self {
        Self {
            net,
            obs,
            sent: MsgCounts::default(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime(self.net.now_ns())
    }

    fn send(&mut self, from: Endpoint, to: Endpoint, payload: Payload) {
        let now = self.now();
        if self.obs.enabled() {
            obs_on_send(&self.obs, from, &payload, now);
        }
        self.sent.count(from, to, payload.kind());
        let frame = Frame::Msg {
            sent_ns: now.0,
            from,
            to,
            payload,
        };
        self.net.send(node_of(to), frame);
    }
}

// ---- server node ----

/// One metadata server: its engine, the engine's node-local timers and the
/// port it sends through, until the coordinator's `Stop`. Its transport's
/// loop runs it ([`Transport::serve`]), in-process or, on sockets, as a
/// `cx_net_server` process.
pub(crate) struct ServerNode {
    engine: Box<dyn ServerEngine>,
    timers: TimerQueue<u64>,
    port: MsgPort,
    me: ServerId,
    /// Set for a process of its own ([`crate::serve_one`]): its `StopResp`
    /// ships its obs shard, and the loop drops the node as it exits.
    pub exit: Option<mpsc::Sender<()>>,
}

impl ServerNode {
    /// Build and seed `me`'s engine, sending through `net`.
    pub(crate) fn new(
        cfg: &ClusterConfig,
        me: ServerId,
        seeds: &[SeedEntry],
        net: Arc<dyn Transport>,
        obs: ObsSink,
    ) -> Self {
        let mut engine = cx_protocol::make_server(me, cfg);
        engine.install_obs(obs.clone());
        seed_engine(engine.as_mut(), &Placement::new(cfg.servers), seeds, me);
        let mut node = Self {
            engine,
            timers: TimerQueue::new(),
            port: MsgPort::new(net, obs),
            me,
            exit: None,
        };
        node.step(|e, now, out| e.on_start(now, out));
        node
    }

    /// Step the engine with `f` at the current instant and interpret its
    /// actions at that instant. Disk operations complete immediately (their
    /// completions can cascade, so a work queue avoids recursion); timers
    /// go into the node's local queue.
    fn step(&mut self, f: impl FnOnce(&mut dyn ServerEngine, SimTime, &mut Vec<Action>)) {
        let (me, now) = (Endpoint::Server(self.me), self.port.now());
        let mut out = Vec::new();
        f(self.engine.as_mut(), now, &mut out);
        let mut work: VecDeque<Action> = out.into();
        while let Some(action) = work.pop_front() {
            match action {
                Action::Send { to, payload } => self.port.send(me, to, payload),
                Action::Disk(req) => {
                    let mut out = Vec::new();
                    self.engine.on_disk_done(now, req.token(), &mut out);
                    work.extend(out);
                }
                Action::SetTimer { token, delay_ns } => self.timers.push(now + delay_ns, token),
            }
        }
    }

    /// Handle one inbound frame; true for the coordinator's `Stop`, once
    /// the `StopResp` is sent.
    fn handle(&mut self, from_node: NodeId, frame: Frame) -> bool {
        let port = &mut self.port;
        match frame {
            Frame::Msg {
                sent_ns,
                from,
                to: _,
                payload,
            } => {
                port.obs.msg_edge(
                    primary_op(&payload),
                    payload.kind(),
                    flow_node(from),
                    FlowNode::Server(self.me.0),
                    sent_ns,
                    port.now().0,
                );
                self.step(|e, now, out| e.on_msg(now, from, payload, out));
            }
            Frame::Quiesce => self.step(|e, now, out| e.quiesce(now, out)),
            Frame::Probe { token, t0_ns } => {
                // Echo the prober's clock back and stamp ours: together
                // with the prober's receive time this is a full NTP-style
                // exchange ([`cx_net::ClockSync`]). Our stamp shares the
                // epoch of every span phase this process records, so the
                // estimated offset corrects them all.
                port.net.send(
                    from_node,
                    Frame::ProbeResp {
                        token,
                        quiesced: self.engine.is_quiesced(),
                        echo_t0_ns: t0_ns,
                        remote_ns: port.net.now_ns(),
                    },
                );
            }
            Frame::Stop => {
                let (spans, edges) = if self.exit.is_some() {
                    port.obs.export_shard()
                } else {
                    (Vec::new(), Vec::new())
                };
                let wire = port.net.wire();
                let report = WireReport {
                    stats: *self.engine.stats(),
                    proto: self.engine.proto_metrics(),
                    msgs: port.sent.by_kind.to_vec(),
                    server_msgs: port.sent.server_msgs,
                    client_msgs: port.sent.client_msgs,
                    spans,
                    edges,
                    telem: wire.map(|c| c.telemetry()).unwrap_or_default(),
                    peers: wire.map_or_else(Vec::new, |c| {
                        c.health_all()
                            .into_iter()
                            .map(|(node, h)| (format!("{node}"), h))
                            .collect()
                    }),
                };
                let stats_json = serde_json::to_string(&report)
                    .expect("server report serializes")
                    .into_bytes();
                let (inodes, dentries) = snapshot_rows(self.engine.store());
                port.net.send(
                    from_node,
                    Frame::StopResp {
                        stats_json,
                        inodes,
                        dentries,
                    },
                );
                return true;
            }
            Frame::Peers { servers } => {
                // Gossip only means something on sockets: learn where the
                // other server processes listen.
                if let Some(conn) = port.net.wire() {
                    for (s, addr) in servers {
                        if NodeId::Server(s) != conn.me() {
                            if let Ok(a) = addr.parse() {
                                conn.book().set(NodeId::Server(s), a);
                            }
                        }
                    }
                }
            }
            // Hello is consumed by the connection manager; other control
            // frames are coordinator-bound and never reach a server.
            _ => {}
        }
        false
    }
}

impl Node for ServerNode {
    fn on_frames(&mut self, from: NodeId, frames: &mut Vec<Frame>) -> bool {
        // Whatever follows a `Stop` is dropped with the drain.
        !frames.drain(..).any(|frame| self.handle(from, frame))
    }

    fn on_due(&mut self) -> Option<Duration> {
        let now = self.port.now();
        while self.timers.peek_deadline().is_some_and(|d| d <= now) {
            let (_, token) = self.timers.pop().expect("peeked");
            self.step(|e, now, out| e.on_timer(now, token, out));
        }
        let next = self.timers.peek_deadline()?.0;
        Some(Duration::from_nanos(next.saturating_sub(self.port.now().0)))
    }
}

// ---- client host ----

// `sched_setscheduler(2)`; std already links libc. `param` is a
// `struct sched_param`, whose one field is an `int`.
const SCHED_BATCH: c_int = 3;
unsafe extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

/// One hosted logical client: its identity, its op sequence counter, and
/// its in-flight op (at most one — logical clients are strictly
/// synchronous).
struct ClientSlot {
    proc: ProcId,
    seq: u64,
    active: Option<InFlightOp>,
}

struct InFlightOp {
    op_id: OpId,
    class: OpClass,
    cross: bool,
    issued_at: SimTime,
    client: ClientOp,
    timer: Option<(Instant, u64)>,
}

/// How long a client host none of whose clients has a timer armed listens
/// to a silent wire before it reports their operations stuck and gives up.
const CLIENT_SILENCE: Duration = Duration::from_secs(if cfg!(test) { 2 } else { 30 });

/// The client host: every logical client of the run, on the host's loop.
/// A turn steps each client a reply is addressed to; `on_due` then fires
/// due client timers and refills every idle client, so the requests of a
/// turn leave together, one batch per server. A client never has more than
/// one op in flight, and its op order is its feed order. Probe and stop
/// replies go to the coordinator.
struct ClientHost {
    port: MsgPort,
    cfg: ClusterConfig,
    placement: Placement,
    feed: OpFeed,
    /// Client `c` at index `c`.
    slots: Vec<ClientSlot>,
    /// Clients with no op in flight, to refill.
    idle: Vec<usize>,
    /// Clients whose feed has not run dry.
    live: usize,
    /// Armed client timers, by deadline.
    timers: BTreeSet<(Instant, usize)>,
    /// The last reply or fired timer: the start of a silence.
    heard: Instant,
    stats: RunStats,
    registry: Option<MetricRegistry>,
    /// Mid-run connection-drop drill (see
    /// [`TcpOptions::drop_conns_after_ops`]): fires once this many ops are
    /// done; only a socket plane has connections to drop.
    drill: Option<u64>,
    ctrl: Sender<(NodeId, Frame)>,
    /// Where the client side's totals go, once, when the last client runs
    /// dry or the wire falls silent.
    report: Option<mpsc::Sender<(RunStats, MsgCounts)>>,
}

impl ClientHost {
    /// Start `op` on idle client `i`: plan it, record issue-side
    /// observability, and send the opening request(s).
    fn issue(&mut self, i: usize, op: FsOp) {
        let slot = &mut self.slots[i];
        let op_id = OpId::new(slot.proc, slot.seq);
        slot.seq += 1;
        let plan = self.placement.plan(op);
        let cross = plan.is_cross_server();
        let issued_at = self.port.now();
        self.port.obs.op_issued(op_id, op.class(), cross, issued_at);
        self.stats.note_issued(cross);
        if let Some(reg) = &self.registry {
            reg.inc(Counter::OpsIssued);
            if cross {
                reg.inc(Counter::CrossOps);
            }
        }
        let mut out = Vec::new();
        let client = ClientOp::start(self.cfg.protocol, op_id, plan, &self.cfg.cx, &mut out);
        slot.active = Some(InFlightOp {
            op_id,
            class: op.class(),
            cross,
            issued_at,
            client,
            timer: None,
        });
        self.apply(i, out);
    }

    /// Step client `i`'s in-flight op with `f` (nothing, if it has none: a
    /// late duplicate), and carry out what it decided.
    fn step(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut ClientOp, SimTime, &mut Vec<Action>) -> ClientDecision,
    ) {
        let now = self.port.now();
        let Some(active) = &mut self.slots[i].active else {
            return;
        };
        let mut out = Vec::new();
        let decision = f(&mut active.client, now, &mut out);
        self.apply(i, out);
        if let ClientDecision::Done(outcome) = decision {
            self.finish(i, outcome);
        }
    }

    /// Send client `i`'s messages and arm its timer.
    fn apply(&mut self, i: usize, actions: Vec<Action>) {
        let slot = &mut self.slots[i];
        let active = slot.active.as_mut().expect("a client with an op in flight");
        for action in actions {
            match action {
                Action::Send { to, payload } => {
                    self.port.send(Endpoint::Proc(slot.proc), to, payload)
                }
                Action::SetTimer { token, delay_ns } => {
                    let at = Instant::now() + Duration::from_nanos(delay_ns);
                    if let Some((old, _)) = active.timer.replace((at, token)) {
                        self.timers.remove(&(old, i));
                    }
                    self.timers.insert((at, i));
                }
                other => unreachable!("clients have no disks: {other:?}"),
            }
        }
    }

    /// Completion-side accounting for a finished op; the client goes idle
    /// and is refilled at the end of the turn.
    fn finish(&mut self, i: usize, outcome: OpOutcome) {
        let active = self.slots[i]
            .active
            .take()
            .expect("finishing an in-flight op");
        if let Some((at, _)) = active.timer {
            self.timers.remove(&(at, i));
        }
        self.idle.push(i);
        let done = self.port.now();
        // Only Cx leaves commitment running behind the reply; its engine
        // stamps `Completed` through the same sink when the ack lands.
        let awaits = active.cross && self.cfg.protocol == Protocol::Cx;
        let obs = &self.port.obs;
        obs.op_replied(active.op_id, done, outcome, awaits);
        let latency = done.0.saturating_sub(active.issued_at.0);
        obs.client_latency(active.class, active.cross, latency);
        self.stats.note_finished(outcome, active.cross, latency);
        if let Some(reg) = &self.registry {
            reg.inc(match outcome {
                OpOutcome::Applied => Counter::OpsApplied,
                OpOutcome::Failed => Counter::OpsFailed,
            });
            reg.observe(Series::ClientLatencyNs, latency);
        }
        if self.drill == Some(self.stats.ops_applied + self.stats.ops_failed) {
            if let Some(conn) = self.port.net.wire() {
                for s in 0..self.cfg.servers {
                    conn.drop_connection(NodeId::Server(s));
                }
            }
        }
    }

    /// Hand the coordinator the client side's totals; the clients are
    /// done with.
    fn send_report(&mut self) {
        if let Some(report) = self.report.take() {
            self.stats.replay = self.port.now();
            let stats = std::mem::replace(&mut self.stats, RunStats::new(self.cfg.protocol, 0, 0));
            let _ = report.send((stats, std::mem::take(&mut self.port.sent)));
        }
    }
}

impl Node for ClientHost {
    fn on_frames(&mut self, node: NodeId, frames: &mut Vec<Frame>) -> bool {
        self.heard = Instant::now();
        for frame in frames.drain(..) {
            match frame {
                Frame::Msg {
                    sent_ns,
                    from,
                    to: Endpoint::Proc(p),
                    payload,
                } if self.report.is_some() => {
                    let client = p.client.0;
                    if self.port.obs.enabled() {
                        self.port.obs.msg_edge(
                            primary_op(&payload),
                            payload.kind(),
                            flow_node(from),
                            FlowNode::Client(client),
                            sent_ns,
                            self.port.now().0,
                        );
                    }
                    if (client as usize) < self.slots.len() {
                        self.step(client as usize, |c, now, out| {
                            c.on_msg(now, from, payload, out)
                        });
                    }
                }
                Frame::ProbeResp { .. } | Frame::StopResp { .. } => {
                    let _ = self.ctrl.send((node, frame));
                }
                _ => {}
            }
        }
        true
    }

    fn on_due(&mut self) -> Option<Duration> {
        self.report.as_ref()?;
        let now = Instant::now();
        while let Some(&(at, i)) = self.timers.first().filter(|(at, _)| *at <= now) {
            self.timers.remove(&(at, i));
            let active = self.slots[i].active.as_mut().expect("an armed client");
            let (_, token) = active.timer.take().expect("an armed client");
            self.heard = now;
            self.step(i, |c, now, out| c.on_timer(now, token, out));
        }
        let mut idle = std::mem::take(&mut self.idle);
        for i in idle.drain(..) {
            match self.feed.next_for(i as u32) {
                Some(op) => self.issue(i, op),
                None => self.live -= 1,
            }
        }
        self.idle = idle;
        if self.live == 0 {
            self.send_report();
            return None;
        }
        if let Some(&(at, _)) = self.timers.first() {
            return Some(at.saturating_duration_since(now));
        }
        let silent_until = self.heard + CLIENT_SILENCE;
        if now < silent_until {
            return Some(silent_until - now);
        }
        let stuck: Vec<String> = self
            .slots
            .iter()
            .filter_map(|s| Some(s.active.as_ref()?.op_id.to_string()))
            .collect();
        self.stats.ops_stuck += stuck.len() as u64;
        self.stats.leftovers.push(format!(
            "client host: no reply for {} s to {}",
            CLIENT_SILENCE.as_secs(),
            stuck.join(", ")
        ));
        self.send_report();
        None
    }
}

// ---- the run ----

/// One node's two halves.
pub(crate) struct NodeIo {
    pub net: Arc<dyn Transport>,
    pub inbound: InboundBatches,
}

/// A run's nodes, already wired to each other: the client host this thread
/// coordinates from, and the server nodes to host in this process
/// (`Server(i)` at index `i`; empty when the servers are external
/// processes the host's transport can already reach).
pub(crate) struct Wired {
    pub host: NodeIo,
    pub servers: Vec<NodeIo>,
}

/// Run `st` to completion over `wired`: host the servers, drive the
/// clients, drain, stop, and assemble the result. `epoch` is the instant
/// every in-process transport's `now_ns` counts from.
pub(crate) fn run_wired(
    cfg: ClusterConfig,
    st: StreamTrace,
    opts: TcpOptions,
    wired: Wired,
    epoch: Instant,
) -> TcpRunResult {
    let StreamTrace {
        name: _,
        processes,
        seeds,
        roots,
        total_ops_hint,
        ops,
    } = st;
    let NodeIo { net, inbound } = wired.host;

    // Every in-process transport, the host's first: the monitor and the
    // result sum wire throughput over them, and teardown shuts them all.
    let mut nets = vec![Arc::clone(&net)];
    // Each node runs on its transport's loop. A server is built, and
    // seeded, on the thread that runs it.
    let seeds = Arc::new(seeds);
    for (i, NodeIo { net: srv, inbound }) in wired.servers.into_iter().enumerate() {
        nets.push(Arc::clone(&srv));
        let (cfg, seeds, obs) = (cfg.clone(), Arc::clone(&seeds), opts.obs.clone());
        let port = Arc::clone(&srv);
        srv.serve(
            inbound,
            Box::new(move || {
                Box::new(ServerNode::new(&cfg, ServerId(i as u32), &seeds, port, obs))
            }),
        );
    }

    let monitor = opts
        .live
        .as_ref()
        .and_then(|l| Monitor::spawn(l, nets.clone(), opts.obs.clone()));
    let (ctrl_tx, ctrl_rx) = unbounded::<(NodeId, Frame)>();
    let (report, reported) = mpsc::channel();
    let host = ClientHost {
        port: MsgPort::new(Arc::clone(&net), opts.obs.clone()),
        placement: Placement::new(cfg.servers),
        feed: OpFeed::new(ops, processes, total_ops_hint),
        slots: (0..processes)
            .map(|c| ClientSlot {
                proc: ProcId::new(c, 0),
                seq: 0,
                active: None,
            })
            .collect(),
        idle: (0..processes as usize).collect(),
        live: processes as usize,
        timers: BTreeSet::new(),
        heard: Instant::now(),
        stats: RunStats::new(cfg.protocol, cfg.servers, processes),
        registry: opts.live.as_ref().map(|l| l.registry.clone()),
        drill: opts.drop_conns_after_ops,
        ctrl: ctrl_tx,
        report: Some(report),
        cfg: cfg.clone(),
    };
    // Under `SCHED_BATCH` the host's loop, a run's busiest thread, does not
    // preempt a server's loop when a reply wakes it; without it involuntary
    // cs/op rose further on every row (EXPERIMENTS "PR 30"). A refusal is
    // harmless.
    let build = move || {
        // SAFETY: pid 0 is this thread; the policy outlives the call.
        unsafe { sched_setscheduler(0, SCHED_BATCH, &0) };
        Box::new(host) as Box<dyn Node>
    };
    Arc::clone(&net).serve(inbound, Box::new(build));
    let (mut stats, mut sent) = reported.recv().expect("the client host reports");

    let FinalState {
        stores,
        telem,
        mut net_rows,
    } = drain_and_stop(
        &*net,
        &ctrl_rx,
        cfg.servers,
        &opts.obs,
        &mut stats,
        &mut sent,
    );

    stats.drained = SimTime(net.now_ns());
    sent.publish(&mut stats);
    for store in &stores {
        stats.final_inodes += store.inode_count() as u64;
        stats.final_dentries += store.dentry_count() as u64;
    }
    // Refresh the hang diagnostics now the run is over: anything still shy
    // of `Replied` here is genuinely stuck (the watchdog's mid-run
    // snapshots were transient and are overwritten by this read).
    stats.stuck_ops = opts.obs.stuck_report();
    stats.ops_stuck = stats.ops_stuck.max(stats.stuck_ops.len() as u64);
    // Blame attribution runs after the shard absorb in the drain, so the
    // table covers the stitched, offset-corrected span plane.
    stats.blame = opts.obs.blame_table();
    let wire = sum_wire(&nets);
    if let Some(l) = &opts.live {
        if let Some(m) = monitor {
            m.stop();
        }
        // What only the finished run knows — message totals, the engines'
        // protocol series (reported at stop), blame — joins what the
        // client host tapped per op, and the exposition files are refreshed
        // once more so the final snapshot is complete.
        stats.publish_end_of_run(&l.registry);
        if net.wire().is_some() {
            // The merged wire histograms land once, at the end: the series
            // carry per-flush samples from every node, which no periodic
            // monitor delta could reconstruct. The rate gauges become
            // whole-run averages (the monitor's last per-period sample
            // would be stale).
            observe_wire_series(&l.registry, &telem);
            let wall = epoch.elapsed().as_secs_f64();
            set_wire_rates(&l.registry, wire, WireTotals::default(), wall);
        }
        if let Some(out) = &l.out {
            LiveMetrics::write_files(&l.registry, out);
        }
    }

    let violations = GlobalView::merge(stores.iter()).check(&roots);
    let (mut reconnects, mut health) = (0, Vec::new());
    if let Some(conn) = net.wire() {
        reconnects = conn.reconnects_total();
        health = conn.health_all();
        let on = conn.me().to_string();
        for (peer, h) in &health {
            net_rows.push(peer_row(&on, &peer.to_string(), h));
        }
    }

    // Shutting a transport down ends its node's loop: the client host's,
    // and any server's that never saw its `Stop`.
    for n in &nets {
        n.shutdown();
    }

    TcpRunResult {
        stats,
        violations,
        wall: epoch.elapsed(),
        reconnects,
        health,
        wire,
        telem,
        net: NetTable { rows: net_rows },
    }
}

/// What the stop exchange leaves the coordinator holding.
struct FinalState {
    /// One rebuilt store per server that answered `Stop` readably.
    stores: Vec<MetaStore>,
    /// The host's wire telemetry merged with every server's.
    telem: WireTelemetry,
    net_rows: Vec<NetPeerRow>,
}

/// Quiesce rounds before the coordinator gives up and stops the servers
/// as they are. A round sleeps 0.2 ms, one more per round up to 5 ms: a
/// clean run drains within the first few, while the whole budget (≈ 1 s)
/// outlasts the longest protocol timer a leftover commitment can be
/// waiting on (presumed abort, 200 ms by default).
const QUIESCE_ROUNDS: u64 = 200;
/// How long one round waits for probe replies.
const PROBE_WAIT: Duration = Duration::from_secs(5);
/// How long the coordinator waits for every `StopResp`.
const STOP_WAIT: Duration = Duration::from_secs(30);

/// The drain/stop protocol, coordinator side. Quiesce rounds until every
/// server reports quiesced, then `Stop` each and fold its `StopResp` —
/// stats, message counts, span shard, wire telemetry, store snapshot —
/// into `stats`, `sent` and the returned state. Nothing a server sends or
/// fails to send panics the coordinator: a server that never quiesced,
/// never answered `Stop`, or answered unreadably becomes a line in
/// `stats.leftovers`, and in the latter two cases its store is missing
/// from the returned set (so its rows surface as violations).
fn drain_and_stop(
    net: &dyn Transport,
    ctrl_rx: &Receiver<(NodeId, Frame)>,
    servers: u32,
    obs: &ObsSink,
    stats: &mut RunStats,
    sent: &mut MsgCounts,
) -> FinalState {
    let server_nodes: Vec<NodeId> = (0..servers).map(NodeId::Server).collect();
    // Every probe round trip doubles as an NTP-style clock-offset sample
    // (`t0` at send, the server's echoed stamp, `t3` at receipt): the
    // min-RTT estimate per server later pulls that process's span shard
    // and flush-span stamps onto the coordinator's clock. In-process
    // servers share our epoch, so their measured offsets are ~0 — harmless.
    let mut clock_sync: HashMap<NodeId, ClockSync> = HashMap::new();
    let mut last_reply: HashMap<NodeId, Instant> = HashMap::new();
    // Servers the latest round did not hear "quiesced" from.
    let mut laggards: BTreeSet<NodeId> = BTreeSet::new();
    for round in 0..QUIESCE_ROUNDS {
        for &s in &server_nodes {
            net.send(s, Frame::Quiesce);
        }
        thread::sleep(Duration::from_micros(200 * (round + 1).min(25)));
        // Tokens tie probe replies to their round, so a straggling reply
        // from a timed-out round cannot satisfy a later one.
        let mut pending: HashMap<NodeId, u64> = server_nodes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, round * 4096 + i as u64))
            .collect();
        for (&s, &token) in &pending {
            let t0_ns = net.now_ns();
            net.send(s, Frame::Probe { token, t0_ns });
        }
        laggards.clear();
        let deadline = Instant::now() + PROBE_WAIT;
        while !pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok((node, frame)) = ctrl_rx.recv_timeout(left) else {
                break;
            };
            let Frame::ProbeResp {
                token,
                quiesced,
                echo_t0_ns,
                remote_ns,
            } = frame
            else {
                continue;
            };
            let (rtt, offset) =
                clock_sync
                    .entry(node)
                    .or_default()
                    .sample(echo_t0_ns, remote_ns, net.now_ns());
            if let Some(conn) = net.wire() {
                conn.note_rtt(node, rtt, offset);
            }
            last_reply.insert(node, Instant::now());
            if pending.get(&node) == Some(&token) {
                pending.remove(&node);
                if !quiesced {
                    laggards.insert(node);
                }
            }
        }
        laggards.extend(pending.keys());
        if laggards.is_empty() {
            break;
        }
    }
    for s in &laggards {
        let heard = last_reply.get(s).map_or("never".into(), |at| {
            format!("{:.1} ms ago", at.elapsed().as_secs_f64() * 1e3)
        });
        stats.leftovers.push(format!(
            "{s}: not quiesced after {QUIESCE_ROUNDS} rounds (last probe reply {heard})"
        ));
    }

    for &s in &server_nodes {
        net.send(s, Frame::Stop);
    }
    let mut state = FinalState {
        stores: Vec::new(),
        telem: net.wire().map(|c| c.telemetry()).unwrap_or_default(),
        net_rows: Vec::new(),
    };
    let mut awaiting: BTreeSet<NodeId> = server_nodes.iter().copied().collect();
    let deadline = Instant::now() + STOP_WAIT;
    while !awaiting.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok((node, frame)) = ctrl_rx.recv_timeout(left) else {
            break;
        };
        let Frame::StopResp {
            stats_json,
            inodes,
            dentries,
        } = frame
        else {
            continue;
        };
        if !awaiting.remove(&node) {
            continue;
        }
        let parsed = std::str::from_utf8(&stats_json)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<WireReport>(text).map_err(|e| e.to_string()));
        let report = match parsed {
            Ok(report) => report,
            Err(why) => {
                stats.leftovers.push(format!(
                    "{node}: unreadable StopResp report ({why}); store left out of the check"
                ));
                continue;
            }
        };
        stats.server_stats.merge(&report.stats);
        stats.proto.merge(&report.proto);
        sent.add(&report.msgs, report.server_msgs, report.client_msgs);
        // Stitch the node's wall-clock telemetry onto our timeline: the
        // quiesce probes' min-RTT estimate says how far its clock
        // (= process epoch) sits from ours.
        let offset = clock_sync
            .get(&node)
            .and_then(|s| s.estimate())
            .map_or(0, |e| e.offset_ns);
        if !report.spans.is_empty() || !report.edges.is_empty() {
            obs.absorb_shard(&report.spans, &report.edges, offset);
        }
        state.telem.merge(&report.telem, offset);
        let on = format!("{node}");
        for (peer, h) in &report.peers {
            state.net_rows.push(peer_row(&on, peer, h));
        }
        match rebuild_store(inodes, dentries) {
            Ok(store) => state.stores.push(store),
            Err(why) => stats.leftovers.push(format!(
                "{node}: corrupt StopResp store rows ({why}); store left out of the check"
            )),
        }
    }
    for node in &awaiting {
        stats.leftovers.push(format!(
            "{node}: no StopResp within {} s; store left out of the check",
            STOP_WAIT.as_secs()
        ));
    }
    state
}

/// Flatten one observer→peer [`HealthSnapshot`] into its net-table row.
fn peer_row(on: &str, peer: &str, h: &HealthSnapshot) -> NetPeerRow {
    NetPeerRow {
        on: on.into(),
        peer: peer.into(),
        frames: h.sends,
        bytes: h.bytes,
        flushes: h.flushes,
        send_failures: h.failures,
        reconnects: h.reconnects,
        ewma_flush_ns: h.ewma_ns,
        score: h.score,
        rtt_p50_ns: h.rtt_p50_ns,
        rtt_p99_ns: h.rtt_p99_ns,
        rtt_min_ns: h.rtt_min_ns,
        rtt_samples: h.rtt_samples,
        clock_offset_ns: h.clock_offset_ns,
        queue_peak: h.queue_peak,
    }
}
