//! The wall-clock runtime: the sans-IO engines at real-time rate over any
//! [`Transport`].
//!
//! Every node of a run is one [`Node`] its transport serves on one OS
//! thread: on sockets, its connection manager's I/O thread; on channels,
//! its `ChanNode`'s loop. Each metadata server is a [`ServerNode`] (frame
//! batches in, engine steps out). The logical clients — each strictly
//! synchronous, one [`ClientTable`] — all live on the client host's node
//! ([`ClientHost`]); the thread that called [`run_wired`] is the run's
//! coordinator. Both kinds of node carry their engines' actions out
//! through the engine host ([`cx_protocol::host`]) with one set of ports,
//! [`MsgPort`]: a send goes out once per peer when the turn ends, a disk
//! request completes on the spot, a timer waits in a node-local queue, and
//! so does a send a fault made late.
//! This runtime checks protocol correctness under true concurrency,
//! timing is the DES's job.
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

use crate::fault::SharedInjector;
use crate::feed::{ClientTable, OpFeed};
use crate::live::{set_wire_rates, sum_wire, LiveMetrics, Monitor};
use crate::seed::seed_engine;
use crate::stats::RunStats;
use crate::tcp::{TcpOptions, TcpRunResult};
use crate::transport::Transport;
use cx_mdstore::{GlobalView, Inode, MetaStore};
use cx_net::conn::{InboundBatches, Node};
use cx_net::{plock, ClockSync, Frame, NodeId, WireTelemetry, WireTotals};
use cx_obs::{MsgEdge, NetPeerRow, NetTable, ObsSink, OpSpan};
use cx_protocol::host::{self, flow_node, primary_op, Lateness, MsgCounts, MsgFate, Ports};
use cx_protocol::{Action, Endpoint, ProtoMetrics, ServerEngine, ServerStats};
use cx_sim::TimerQueue;
use cx_simio::DiskReq;
use cx_types::codec::WireError;
use cx_types::{
    ClusterConfig, FileKind, InodeNo, MsgKind, Name, Payload, Placement, ServerId, SimTime,
};
use cx_workloads::{SeedEntry, StreamTrace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::os::raw::c_int;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Per-server report shipped inside [`Frame::StopResp`]'s `stats_json`.
/// JSON (not wire-encoded) deliberately: it reuses the existing serde
/// derives on [`ServerStats`]/[`ProtoMetrics`] and stays inspectable on
/// the wire.
#[derive(Serialize, Deserialize)]
struct WireReport {
    stats: ServerStats,
    proto: ProtoMetrics,
    sent: MsgCounts,
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
    /// The node's rows of the cluster-wide `cx-obs net` table: its
    /// counters for every peer it wrote to. Empty on a channel node.
    peers: Vec<NetPeerRow>,
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
/// whose kind byte is no [`FileKind`], or that no store can hold, is an
/// error, not a guess.
pub(crate) fn rebuild_store(
    inodes: InodeRows,
    dentries: EntryRows,
) -> Result<MetaStore, WireError> {
    let mut store = MetaStore::new();
    store.reserve_rows(inodes.len(), dentries.len());
    for (ino, kind, nlink) in inodes {
        let (ino, kind) = (InodeNo(ino), FileKind::from_byte(kind)?);
        if !MetaStore::can_hold_inode(ino, Inode { kind, nlink }) {
            return Err(WireError::VacantRow);
        }
        store.seed_inode(ino, kind, nlink);
    }
    for (parent, name, child) in dentries {
        let (parent, name, child) = (InodeNo(parent), Name(name), InodeNo(child));
        if !MetaStore::can_hold_dentry(parent, name, child) {
            return Err(WireError::VacantRow);
        }
        store.seed_dentry(parent, name, child);
    }
    Ok(store)
}

// ---- a node's ports ----

/// A wall-clock node's ports for the engine host — a server's engine, or
/// the client host's clients: a send's fate is the run's injector's, if
/// one is installed; a send goes out on its transport as a [`Frame::Msg`],
/// a disk request completes on the spot, and a timer or a late send waits
/// in a node-local [`TimerQueue`] on the transport's clock.
struct MsgPort {
    net: Arc<dyn Transport>,
    obs: ObsSink,
    sent: MsgCounts,
    faults: Option<SharedInjector>,
    timers: TimerQueue<Due>,
}

/// What waits in a node's timer queue.
enum Due {
    /// An engine's timer: `on_timer(token)` on the endpoint.
    Timer(Endpoint, u64),
    /// A message a fault made late, stamped when it was sent.
    Send(NodeId, Frame),
}

impl MsgPort {
    fn new(net: Arc<dyn Transport>, obs: ObsSink, faults: Option<SharedInjector>) -> Self {
        Self {
            net,
            obs,
            sent: MsgCounts::default(),
            faults,
            timers: TimerQueue::new(),
        }
    }

    /// The next timer due by now, if any; a late send due on the way goes
    /// out.
    fn due(&mut self) -> Option<(Endpoint, u64)> {
        let now = self.now();
        while self.timers.peek_deadline().is_some_and(|d| d <= now) {
            match self.timers.pop()?.1 {
                Due::Timer(at, token) => return Some((at, token)),
                Due::Send(node, frame) => self.net.send(node, frame),
            }
        }
        None
    }

    /// Record an arrived message's causal edge: sent at `sent_ns` on the
    /// sender's clock, received now on ours.
    fn edge(&self, from: Endpoint, to: Endpoint, payload: &Payload, sent_ns: u64) {
        if self.obs.enabled() {
            let (kind, op) = (payload.kind(), primary_op(payload));
            let now = self.now().0;
            self.obs
                .msg_edge(op, kind, flow_node(from), flow_node(to), sent_ns, now);
        }
    }

    /// How long until the next timer or late send, if one waits.
    fn until_next(&self) -> Option<Duration> {
        let next = self.timers.peek_deadline()?.0;
        Some(Duration::from_nanos(next.saturating_sub(self.now().0)))
    }
}

impl Ports for MsgPort {
    fn now(&self) -> SimTime {
        SimTime(self.net.now_ns())
    }

    fn obs(&self) -> &ObsSink {
        &self.obs
    }

    fn sent(&mut self) -> &mut MsgCounts {
        &mut self.sent
    }

    fn fate(&mut self, from: Endpoint, to: Endpoint, kind: MsgKind) -> MsgFate {
        match &self.faults {
            Some(inj) => plock(inj).on_send(self.now(), from, to, kind),
            None => MsgFate::Deliver,
        }
    }

    /// Servers are their own nodes; every client lives on the one client
    /// host. A late send waits in the timer queue; with no receiver-side
    /// queue to hold it in, a hold is more time on the wire.
    fn send(&mut self, from: Endpoint, to: Endpoint, payload: Payload, late: Lateness) {
        let node = match to {
            Endpoint::Server(s) => NodeId::Server(s.0),
            Endpoint::Proc(_) => NodeId::ClientHost(0),
        };
        let now = self.now();
        let frame = Frame::Msg {
            sent_ns: now.0,
            from,
            to,
            payload,
        };
        match late.wire_ns + late.hold_ns {
            0 => self.net.send(node, frame),
            ns => self.timers.push(now + ns, Due::Send(node, frame)),
        }
    }

    fn disk(&mut self, _server: ServerId, req: DiskReq) -> Option<u64> {
        Some(req.token())
    }

    fn set_timer(&mut self, at: Endpoint, token: u64, delay_ns: u64) {
        let deadline = self.now() + delay_ns;
        self.timers.push(deadline, Due::Timer(at, token));
    }
}

// ---- server node ----

/// One metadata server: its engine and the ports it runs through, until
/// the coordinator's `Stop`. Its transport's loop runs it
/// ([`Transport::serve`]), in-process or, on sockets, as a
/// `cx_net_server` process.
pub(crate) struct ServerNode {
    engine: Box<dyn ServerEngine>,
    port: MsgPort,
    me: Endpoint,
    /// Set for a process of its own ([`crate::serve_one`]): its `StopResp`
    /// ships its obs shard, and the loop drops the node as it exits.
    pub exit: Option<mpsc::Sender<()>>,
}

impl ServerNode {
    /// Build and seed `me`'s engine, sending through `net` with the run's
    /// `faults`, if any.
    pub(crate) fn new(
        cfg: &ClusterConfig,
        me: ServerId,
        seeds: &[SeedEntry],
        net: Arc<dyn Transport>,
        obs: ObsSink,
        faults: Option<SharedInjector>,
    ) -> Self {
        let mut engine = cx_protocol::make_server(me, cfg);
        engine.install_obs(obs.clone());
        seed_engine(engine.as_mut(), &Placement::new(cfg.servers), seeds, me);
        Self {
            engine,
            port: MsgPort::new(net, obs, faults),
            me: Endpoint::Server(me),
            exit: None,
        }
    }

    /// Step the engine with `f` through the host.
    fn step(&mut self, f: impl FnOnce(&mut dyn ServerEngine, SimTime, &mut Vec<Action>)) {
        let (mut out, engine) = (Vec::new(), self.engine.as_mut());
        f(engine, self.port.now(), &mut out);
        host::carry_out(&mut self.port, self.me, Some(engine), &mut out);
    }

    /// Handle one inbound frame; true for the coordinator's `Stop`, once
    /// the `StopResp` is sent.
    fn handle(&mut self, from_node: NodeId, frame: Frame) -> bool {
        let port = &mut self.port;
        match frame {
            Frame::Msg {
                sent_ns,
                from,
                to,
                payload,
            } => {
                port.edge(from, to, &payload, sent_ns);
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
                    sent: port.sent.clone(),
                    spans,
                    edges,
                    telem: wire.map(|c| c.telemetry()).unwrap_or_default(),
                    peers: wire.map_or_else(Vec::new, |c| {
                        c.net_rows().into_iter().map(|(_, row)| row).collect()
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
        while let Some((_, token)) = self.port.due() {
            self.step(|e, now, out| e.on_timer(now, token, out));
        }
        self.port.until_next()
    }
}

// ---- client host ----

// `sched_setscheduler(2)`; std already links libc. `param` is a
// `struct sched_param`, whose one field is an `int`.
const SCHED_BATCH: c_int = 3;
unsafe extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

/// How long a client host none of whose clients has a timer armed listens
/// to a silent wire before it reports their operations stuck and gives up.
const CLIENT_SILENCE: Duration = Duration::from_secs(if cfg!(test) { 2 } else { 30 });

/// The client host: every logical client of the run ([`ClientTable`]), on
/// the host's loop. A turn steps each client a reply is addressed to;
/// `on_due` then fires due client timers and refills every idle client, so
/// the requests of a turn leave together, one batch per server. Probe and
/// stop replies go to the coordinator.
struct ClientHost {
    port: MsgPort,
    clients: ClientTable,
    /// Clients with no op in flight, to refill.
    idle: Vec<usize>,
    /// The last reply or fired timer: the start of a silence.
    heard: Instant,
    stats: RunStats,
    /// Mid-run connection-drop drill (see
    /// [`TcpOptions::drop_conns_after_ops`]): fires once this many ops are
    /// done; only a socket plane has connections to drop.
    drill: Option<u64>,
    ctrl: mpsc::Sender<(NodeId, Frame)>,
    /// Where the client side's totals go, once, when the last client runs
    /// dry or the wire falls silent.
    report: Option<mpsc::Sender<(RunStats, MsgCounts)>>,
}

impl ClientHost {
    /// Client `c`'s op finished: it goes idle, to be refilled at the end of
    /// the turn, and the drill may fire.
    fn finished(&mut self, c: usize) {
        self.idle.push(c);
        if self.drill == Some(self.stats.ops_applied + self.stats.ops_failed) {
            if let Some(conn) = self.port.net.wire() {
                for s in 0..self.stats.servers {
                    conn.drop_connection(NodeId::Server(s));
                }
            }
        }
    }

    /// Hand the coordinator the client side's totals; the clients are
    /// done with.
    fn send_report(&mut self) {
        if let Some(report) = self.report.take() {
            let spent = RunStats::new(self.stats.protocol, 0, 0);
            let stats = std::mem::replace(&mut self.stats, spent);
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
                    let c = p.client.0 as usize;
                    self.port.edge(from, Endpoint::Proc(p), &payload, sent_ns);
                    let (port, stats) = (&mut self.port, &mut self.stats);
                    if self.clients.step(c, port, stats, |op, now, out| {
                        op.on_msg(now, from, payload, out)
                    }) {
                        self.finished(c);
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
        while let Some((at, token)) = self.port.due() {
            self.heard = Instant::now();
            let Endpoint::Proc(p) = at else { continue };
            let c = p.client.0 as usize;
            let (port, stats) = (&mut self.port, &mut self.stats);
            if self
                .clients
                .step(c, port, stats, |op, now, out| op.on_timer(now, token, out))
            {
                self.finished(c);
            }
        }
        let mut idle = std::mem::take(&mut self.idle);
        for c in idle.drain(..) {
            self.clients.issue(c, &mut self.port, &mut self.stats);
        }
        self.idle = idle;
        if self.clients.live() == 0 {
            self.send_report();
            return None;
        }
        if let Some(next) = self.port.until_next() {
            return Some(next);
        }
        let now = Instant::now();
        let silent_until = self.heard + CLIENT_SILENCE;
        if now < silent_until {
            return Some(silent_until - now);
        }
        let stuck: Vec<String> = self.clients.in_flight().map(|op| op.to_string()).collect();
        self.stats.ops_stuck += stuck.len() as u64;
        self.stats.leftovers.push(format!(
            "client host: no reply for {} s to {}",
            CLIENT_SILENCE.as_secs(),
            stuck.join(", ")
        ));
        self.stats.replay = self.port.now();
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
/// processes the host's transport can already reach), plus the fault
/// injector every in-process node's sends ask, if any.
pub(crate) struct Wired {
    pub host: NodeIo,
    pub servers: Vec<NodeIo>,
    pub faults: Option<SharedInjector>,
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
    let faults = wired.faults;

    // Every in-process transport, the host's first: the monitor and the
    // result sum wire throughput over them, and teardown shuts them all.
    let mut nets = vec![Arc::clone(&net)];
    // Each node runs on its transport's loop. A server is built, and
    // seeded, on the thread that runs it.
    let seeds = Arc::new(seeds);
    for (i, NodeIo { net: srv, inbound }) in wired.servers.into_iter().enumerate() {
        nets.push(Arc::clone(&srv));
        let (cfg, seeds, obs) = (cfg.clone(), Arc::clone(&seeds), opts.obs.clone());
        let (port, faults) = (Arc::clone(&srv), faults.clone());
        srv.serve(
            inbound,
            Box::new(move || {
                let me = ServerId(i as u32);
                Box::new(ServerNode::new(&cfg, me, &seeds, port, obs, faults))
            }),
        );
    }

    let monitor = opts
        .live
        .as_ref()
        .and_then(|l| Monitor::spawn(l, nets.clone(), opts.obs.clone()));
    let (ctrl_tx, ctrl_rx) = mpsc::channel::<(NodeId, Frame)>();
    let (report, reported) = mpsc::channel();
    let feed = OpFeed::new(ops, processes, total_ops_hint);
    let mut clients = ClientTable::new(&cfg, feed, processes);
    clients.registry = opts.live.as_ref().map(|l| l.registry.clone());
    let host = ClientHost {
        port: MsgPort::new(Arc::clone(&net), opts.obs.clone(), faults),
        idle: clients.starters().collect(),
        clients,
        heard: Instant::now(),
        stats: RunStats::new(cfg.protocol, cfg.servers, processes),
        drill: opts.drop_conns_after_ops,
        ctrl: ctrl_tx,
        report: Some(report),
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
        clocks,
    } = drain_and_stop(
        &*net,
        &ctrl_rx,
        cfg.servers,
        &opts.obs,
        &mut stats,
        &mut sent,
    );

    stats.drained = SimTime(net.now_ns());
    stats.set_msgs(&sent);
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
            for (series, hist) in telem.series() {
                l.registry.observe_hist(series, hist);
            }
            let wall = epoch.elapsed().as_secs_f64();
            set_wire_rates(&l.registry, wire, WireTotals::default(), wall);
        }
        if let Some(out) = &l.out {
            LiveMetrics::write_files(&l.registry, out);
        }
    }

    let violations = GlobalView::merge(stores.iter()).check(&roots);
    let mut reconnects = 0;
    if let Some(conn) = net.wire() {
        reconnects = conn.reconnects_total();
        // The coordinator's own rows take their probe columns from the
        // clocks the stitching above used.
        for (peer, mut row) in conn.net_rows() {
            if let Some(sync) = clocks.get(&peer) {
                sync.fill(&mut row);
            }
            net_rows.push(row);
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
    /// Every server's net-table rows.
    net_rows: Vec<NetPeerRow>,
    /// Each server's probe record: the offset its stamps were stitched
    /// with, and the coordinator's RTT and offset columns.
    clocks: HashMap<NodeId, ClockSync>,
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
    ctrl_rx: &mpsc::Receiver<(NodeId, Frame)>,
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
    let mut clocks: HashMap<NodeId, ClockSync> = HashMap::new();
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
            clocks
                .entry(node)
                .or_default()
                .sample(echo_t0_ns, remote_ns, net.now_ns());
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
        clocks,
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
        sent.merge(&report.sent);
        // Stitch the node's wall-clock telemetry onto our timeline: the
        // quiesce probes' min-RTT estimate says how far its clock
        // (= process epoch) sits from ours.
        let offset = state
            .clocks
            .get(&node)
            .and_then(|s| s.estimate())
            .map_or(0, |e| e.offset_ns);
        if !report.spans.is_empty() || !report.edges.is_empty() {
            obs.absorb_shard(&report.spans, &report.edges, offset);
        }
        state.telem.merge(&report.telem, offset);
        state.net_rows.extend(report.peers);
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
