//! The wall-clock runtime: the sans-IO engines at real-time rate over any
//! [`Transport`].
//!
//! One OS thread per metadata server runs [`server_node_loop`] (frame
//! batches in, engine actions out, node-local timers); the logical
//! clients — each strictly synchronous — are hosted a few to a *shepherd*
//! thread ([`shepherd_loop`]) on the client host, which is also the run's
//! coordinator ([`run_wired`]). Disk completions are immediate: this
//! runtime checks protocol correctness under true concurrency, timing is
//! the DES's job. The engines cannot tell which carrier moves their
//! frames; the DES remains the oracle for what the totals must be.
//!
//! Control traffic (quiesce/probe/stop) rides the same links as protocol
//! messages: quiesce rounds until every server reports quiesced, then a
//! `Stop` whose `StopResp` carries the server's stats as JSON plus a
//! snapshot of its [`MetaStore`] rows for the coordinator-side
//! [`GlobalView`] atomicity check ([`drain_and_stop`]).
//!
//! [`crate::threaded`] and [`crate::tcp`] are the entry points: each wires
//! the nodes with its transport and calls [`run_wired`]; external
//! `cx_net_server` processes run the same [`server_node_loop`].

use crate::des::{flow_node, obs_on_send, primary_op, MsgCounts};
use crate::feed::OpFeed;
use crate::live::{observe_wire_series, set_wire_rates, sum_wire, LiveMetrics, Monitor};
use crate::seed::seed_engine;
use crate::stats::RunStats;
use crate::tcp::{TcpOptions, TcpRunResult};
use crate::transport::Transport;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use cx_mdstore::{GlobalView, MetaStore};
use cx_net::conn::InboundBatches;
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
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

/// How a thread that steps protocol machines — a server node, a client
/// shepherd — puts their payloads on its node's transport: stamp the
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

/// Interpret engine actions. Disk operations complete immediately (their
/// completions can cascade, so a work queue avoids recursion); timers go
/// into the node's local queue.
fn process_server_actions(
    engine: &mut dyn ServerEngine,
    actions: Vec<Action>,
    me: ServerId,
    port: &mut MsgPort,
    timers: &mut TimerQueue<u64>,
) {
    let mut work: VecDeque<Action> = actions.into();
    while let Some(action) = work.pop_front() {
        match action {
            Action::Send { to, payload } => port.send(Endpoint::Server(me), to, payload),
            Action::Disk(req) => {
                let mut out = Vec::new();
                engine.on_disk_done(port.now(), req.token(), &mut out);
                work.extend(out);
            }
            Action::SetTimer { token, delay_ns } => {
                timers.push(SimTime(port.now().0 + delay_ns), token);
            }
        }
    }
}

/// Handle one inbound frame on a server node. Returns `true` when the
/// frame was the coordinator's `Stop` (the `StopResp` has been sent and
/// the engine loop must exit).
fn handle_server_frame(
    engine: &mut dyn ServerEngine,
    port: &mut MsgPort,
    timers: &mut TimerQueue<u64>,
    me: ServerId,
    shard_obs: bool,
    from_node: NodeId,
    frame: Frame,
) -> bool {
    match frame {
        Frame::Msg {
            sent_ns,
            from,
            to: _,
            payload,
        } => {
            let now = port.now();
            port.obs.msg_edge(
                primary_op(&payload),
                payload.kind(),
                flow_node(from),
                FlowNode::Server(me.0),
                sent_ns,
                now.0,
            );
            let mut out = Vec::new();
            engine.on_msg(now, from, payload, &mut out);
            process_server_actions(engine, out, me, port, timers);
        }
        Frame::Quiesce => {
            let mut out = Vec::new();
            engine.quiesce(port.now(), &mut out);
            process_server_actions(engine, out, me, port, timers);
        }
        Frame::Probe { token, t0_ns } => {
            // Echo the prober's clock back and stamp ours: together with
            // the prober's receive time this is a full NTP-style exchange
            // ([`cx_net::ClockSync`]). Our stamp shares the epoch of every
            // span phase this process records, so the estimated offset
            // corrects them all.
            port.net.send(
                from_node,
                Frame::ProbeResp {
                    token,
                    quiesced: engine.is_quiesced(),
                    echo_t0_ns: t0_ns,
                    remote_ns: port.net.now_ns(),
                },
            );
        }
        Frame::Stop => {
            let (spans, edges) = if shard_obs {
                port.obs.export_shard()
            } else {
                (Vec::new(), Vec::new())
            };
            let wire = port.net.wire();
            let report = WireReport {
                stats: *engine.stats(),
                proto: engine.proto_metrics(),
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
            let (inodes, dentries) = snapshot_rows(engine.store());
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

/// Batches of inbound batches a server node processes per wakeup before it
/// re-checks its timer queue: enough to amortize the channel wakeup under
/// load, small enough to keep wall-clock timer latency bounded.
const SERVER_DRAIN_BATCHES: usize = 512;

/// One server node's engine loop: frame batches in, frames out, local
/// timers at wall-clock rate, until the coordinator's `Stop` (or the
/// inbound disconnects). Shared verbatim between in-process threads — on
/// either transport — and external `cx_net_server` processes.
///
/// The inbound channel carries whole `Vec<Frame>` batches, and each wakeup
/// greedily drains up to [`SERVER_DRAIN_BATCHES`] more with `try_recv`, so
/// a busy server pays one channel wakeup and one timer check per *batch of
/// batches*, not per frame.
pub(crate) fn server_node_loop(
    cfg: &ClusterConfig,
    me: ServerId,
    seeds: &[SeedEntry],
    net: Arc<dyn Transport>,
    inbound: InboundBatches,
    obs: ObsSink,
    shard_obs: bool,
) {
    let placement = Placement::new(cfg.servers);
    let mut engine = cx_protocol::make_server(me, cfg);
    engine.install_obs(obs.clone());
    seed_engine(engine.as_mut(), &placement, seeds, me);

    let mut timers: TimerQueue<u64> = TimerQueue::new();
    let mut port = MsgPort::new(Arc::clone(&net), obs);

    let mut boot = Vec::new();
    engine.on_start(port.now(), &mut boot);
    process_server_actions(engine.as_mut(), boot, me, &mut port, &mut timers);

    let mut stop = false;
    while !stop {
        let timeout = timers
            .peek_deadline()
            .map_or(Duration::from_millis(20), |d| {
                Duration::from_nanos(d.0.saturating_sub(net.now_ns()))
            });
        let mut next = match inbound.recv_timeout(timeout) {
            Ok(batch) => Some(batch),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // One cork scope per wakeup: every frame this burst provokes
        // (replies, cross-server ops, ack fan-out) coalesces into one
        // delivery per peer when the guard drops below.
        let cork = net.cork_scope();
        let mut drained = 0;
        while let Some((from_node, mut frames)) = next.take() {
            for frame in frames.drain(..) {
                stop = handle_server_frame(
                    engine.as_mut(),
                    &mut port,
                    &mut timers,
                    me,
                    shard_obs,
                    from_node,
                    frame,
                );
                if stop {
                    break;
                }
            }
            net.recycle_batch(frames);
            drained += 1;
            if stop || drained >= SERVER_DRAIN_BATCHES {
                break;
            }
            next = inbound.try_recv().ok();
        }
        let now = port.now();
        while timers.peek_deadline().is_some_and(|d| d <= now) {
            let (_, token) = timers.pop().expect("peeked");
            let mut out = Vec::new();
            engine.on_timer(port.now(), token, &mut out);
            process_server_actions(engine.as_mut(), out, me, &mut port, &mut timers);
        }
        drop(cork);
    }
    // Orderly shutdown flushes what is queued outbound, so the StopResp
    // (and any trailing protocol messages) reach their peers.
    net.shutdown();
}

// ---- client host ----

/// One protocol message for a hosted client, as the demux pump hands it to
/// the shepherd hosting that client.
struct ProcMsg {
    client: u32,
    from: Endpoint,
    payload: Payload,
}

/// Mid-run connection-drop drill (see [`TcpOptions::drop_conns_after_ops`]);
/// only a socket plane has connections to drop.
struct DropDrill {
    after: u64,
    fired: AtomicBool,
    done_ops: AtomicU64,
    net: Arc<dyn Transport>,
    servers: u32,
}

impl DropDrill {
    fn tick(&self) {
        let n = self.done_ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.after && !self.fired.swap(true, Ordering::Relaxed) {
            if let Some(conn) = self.net.wire() {
                for s in 0..self.servers {
                    conn.drop_connection(NodeId::Server(s));
                }
            }
        }
    }
}

/// One hosted logical client on a shepherd thread: its identity, its op
/// sequence counter, and its in-flight op (at most one — logical clients
/// are strictly synchronous).
struct ClientSlot {
    me: u32,
    proc: ProcId,
    seq: u64,
    active: Option<InFlightOp>,
    feed_done: bool,
}

struct InFlightOp {
    op_id: OpId,
    class: OpClass,
    cross: bool,
    issued_at: SimTime,
    client: ClientOp,
    timer: Option<(Instant, u64)>,
}

/// Everything a shepherd needs besides its slots and its reply source.
struct ShepherdCtx {
    port: MsgPort,
    cfg: ClusterConfig,
    placement: Placement,
    /// This shepherd's share of the run's client-side accounting, merged
    /// into the result at join.
    stats: RunStats,
    registry: Option<MetricRegistry>,
    drill: Option<Arc<DropDrill>>,
}

/// Where a shepherd's replies come from.
enum ShepherdRx {
    /// A per-shepherd channel fed by the demux pump (several shepherds).
    Demuxed(Receiver<ProcMsg>),
    /// The client host's raw inbound, consumed directly (single shepherd):
    /// the pump hop — one futex wake plus one channel transfer per reply
    /// batch — disappears; the shepherd demuxes inline and forwards control
    /// frames itself. The receiver is handed back on exit so the
    /// coordinator can run the drain/stop protocol over it.
    Direct {
        inbound: InboundBatches,
        ctrl_tx: Sender<(NodeId, Frame)>,
    },
}

enum ShepherdWake {
    Replies,
    Timeout,
    Disconnected,
}

/// How long a shepherd none of whose clients has a timer armed listens to
/// a silent wire before it reports their operations stuck and gives up.
const CLIENT_SILENCE: Duration = Duration::from_secs(if cfg!(test) { 2 } else { 30 });

/// Drive a set of logical clients off one OS thread. Each wakeup drains
/// every queued reply (one `recv` then greedy `try_recv`), then refills
/// every idle slot with its next op — so request frames from several
/// clients enter the transport back-to-back and coalesce into shared
/// deliveries, and a batch of replies costs one futex wake instead of one
/// per client. A slot never has more than one op in flight, and its op
/// order is its feed order.
///
/// Returns what this shepherd counted and sent, plus the raw inbound
/// receiver when running in [`ShepherdRx::Direct`] mode, so the caller can
/// keep consuming control frames afterwards.
fn shepherd_loop(
    clients: Vec<u32>,
    feed: Arc<Mutex<OpFeed>>,
    rx: ShepherdRx,
    shepherds: usize,
    mut ctx: ShepherdCtx,
) -> (RunStats, MsgCounts, Option<InboundBatches>) {
    let net = Arc::clone(&ctx.port.net);
    let obs = ctx.port.obs.clone();
    let mut slots: Vec<ClientSlot> = clients
        .iter()
        .map(|&me| ClientSlot {
            me,
            proc: ProcId::new(me, 0),
            seq: 0,
            active: None,
            feed_done: false,
        })
        .collect();
    loop {
        // Refill every idle slot: one feed lock for the whole sweep, then
        // issue outside it (sends can block on wire-queue backpressure),
        // so the requests land back-to-back in the transport.
        let mut refill: Vec<(usize, FsOp)> = Vec::new();
        {
            let mut f = feed.lock();
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.active.is_none() && !slot.feed_done {
                    match f.next_for(slot.me) {
                        Some(op) => refill.push((i, op)),
                        None => slot.feed_done = true,
                    }
                }
            }
        }
        if !refill.is_empty() {
            // The whole refill sweep is one cork scope: requests from
            // every hosted client aimed at the same server share a flush.
            let _cork = net.cork_scope();
            for (i, op) in refill {
                slot_issue(&mut ctx, &mut slots[i], op);
            }
        }
        if slots.iter().all(|s| s.active.is_none() && s.feed_done) {
            break;
        }

        // Sleep until the earliest pending client timer (or a liveness
        // backstop), then drain every reply that has queued up. The reply
        // burst is corked too: protocol follow-ups (e.g. Cx cross-server
        // second phases) issued while draining share flushes the same way
        // the refill sweep does.
        let wait = slots
            .iter()
            .filter_map(|s| s.active.as_ref()?.timer.map(|(at, _)| at))
            .min()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(CLIENT_SILENCE);
        let wake = match &rx {
            ShepherdRx::Demuxed(ch) => match ch.recv_timeout(wait) {
                Ok(msg) => {
                    let _cork = net.cork_scope();
                    let mut next = Some(msg);
                    while let Some(m) = next {
                        shepherd_deliver(&mut ctx, &mut slots, shepherds, m);
                        next = ch.try_recv().ok();
                    }
                    ShepherdWake::Replies
                }
                Err(RecvTimeoutError::Timeout) => ShepherdWake::Timeout,
                Err(RecvTimeoutError::Disconnected) => ShepherdWake::Disconnected,
            },
            ShepherdRx::Direct { inbound, ctrl_tx } => match inbound.recv_timeout(wait) {
                Ok(batch) => {
                    let _cork = net.cork_scope();
                    let mut next = Some(batch);
                    while let Some((node, frames)) = next {
                        demux_batch(&*net, &obs, node, frames, ctrl_tx, |m| {
                            shepherd_deliver(&mut ctx, &mut slots, 1, m)
                        });
                        next = inbound.try_recv().ok();
                    }
                    ShepherdWake::Replies
                }
                Err(RecvTimeoutError::Timeout) => ShepherdWake::Timeout,
                Err(RecvTimeoutError::Disconnected) => ShepherdWake::Disconnected,
            },
        };
        match wake {
            ShepherdWake::Replies => {}
            ShepherdWake::Timeout => {
                let now = Instant::now();
                let mut fired = false;
                for slot in &mut slots {
                    let Some(active) = &mut slot.active else {
                        continue;
                    };
                    let Some((at, token)) = active.timer else {
                        continue;
                    };
                    if at > now {
                        continue;
                    }
                    fired = true;
                    active.timer = None;
                    let mut out = Vec::new();
                    let d = active.client.on_timer(ctx.port.now(), token, &mut out);
                    let from_me = Endpoint::Proc(slot.proc);
                    send_client_actions(&mut ctx.port, from_me, out, &mut active.timer);
                    if let ClientDecision::Done(outcome) = d {
                        slot_finish(&mut ctx, slot, outcome);
                    }
                }
                if !fired && wait >= CLIENT_SILENCE {
                    let stuck: Vec<String> = slots
                        .iter()
                        .filter_map(|s| Some(s.active.as_ref()?.op_id.to_string()))
                        .collect();
                    ctx.stats.ops_stuck += stuck.len() as u64;
                    ctx.stats.leftovers.push(format!(
                        "client host: no reply for {} s to {}",
                        CLIENT_SILENCE.as_secs(),
                        stuck.join(", ")
                    ));
                    break;
                }
            }
            ShepherdWake::Disconnected => break,
        }
    }
    ctx.stats.replay = ctx.port.now();
    let inbound = match rx {
        ShepherdRx::Demuxed(_) => None,
        ShepherdRx::Direct { inbound, .. } => Some(inbound),
    };
    (ctx.stats, ctx.port.sent, inbound)
}

/// Split one batch that arrived at the client host: protocol messages go
/// to `deliver` (their arrival edge stamped), probe/stop replies to the
/// coordinator's control channel, the spent vector back to the transport.
fn demux_batch(
    net: &dyn Transport,
    obs: &ObsSink,
    node: NodeId,
    mut frames: Vec<Frame>,
    ctrl_tx: &Sender<(NodeId, Frame)>,
    mut deliver: impl FnMut(ProcMsg),
) {
    for frame in frames.drain(..) {
        match frame {
            Frame::Msg {
                sent_ns,
                from,
                to: Endpoint::Proc(p),
                payload,
            } => {
                if obs.enabled() {
                    obs.msg_edge(
                        primary_op(&payload),
                        payload.kind(),
                        flow_node(from),
                        FlowNode::Client(p.client.0),
                        sent_ns,
                        net.now_ns(),
                    );
                }
                deliver(ProcMsg {
                    client: p.client.0,
                    from,
                    payload,
                });
            }
            Frame::ProbeResp { .. } | Frame::StopResp { .. } => {
                let _ = ctrl_tx.send((node, frame));
            }
            _ => {}
        }
    }
    net.recycle_batch(frames);
}

/// Start `op` on an idle slot: plan it, record issue-side observability,
/// and send the opening request(s).
fn slot_issue(ctx: &mut ShepherdCtx, slot: &mut ClientSlot, op: FsOp) {
    let op_id = OpId::new(slot.proc, slot.seq);
    slot.seq += 1;
    let plan = ctx.placement.plan(op);
    let cross = plan.is_cross_server();
    let issued_at = ctx.port.now();
    ctx.port.obs.op_issued(op_id, op.class(), cross, issued_at);
    ctx.stats.note_issued(cross);
    if let Some(reg) = &ctx.registry {
        // Concurrent atomic bumps from every shepherd; the registry
        // property test pins that these merge exactly.
        reg.inc(Counter::OpsIssued);
        if cross {
            reg.inc(Counter::CrossOps);
        }
    }
    let mut out = Vec::new();
    let client = ClientOp::start(ctx.cfg.protocol, op_id, plan, &ctx.cfg.cx, &mut out);
    let mut timer = None;
    send_client_actions(&mut ctx.port, Endpoint::Proc(slot.proc), out, &mut timer);
    slot.active = Some(InFlightOp {
        op_id,
        class: op.class(),
        cross,
        issued_at,
        client,
        timer,
    });
}

/// Route one inbound payload to the slot hosting its client and step that
/// client's protocol machine.
fn shepherd_deliver(
    ctx: &mut ShepherdCtx,
    slots: &mut [ClientSlot],
    shepherds: usize,
    msg: ProcMsg,
) {
    // Round-robin placement: client `c` lives on shepherd `c % shepherds`
    // at local slot `c / shepherds`.
    let Some(slot) = slots.get_mut(msg.client as usize / shepherds) else {
        return;
    };
    debug_assert_eq!(slot.me, msg.client);
    let Some(active) = &mut slot.active else {
        return; // late duplicate from an op that already completed
    };
    let mut out = Vec::new();
    let d = active
        .client
        .on_msg(ctx.port.now(), msg.from, msg.payload, &mut out);
    let from_me = Endpoint::Proc(slot.proc);
    send_client_actions(&mut ctx.port, from_me, out, &mut active.timer);
    if let ClientDecision::Done(outcome) = d {
        slot_finish(ctx, slot, outcome);
    }
}

/// Completion-side accounting for a finished op; the slot goes idle and is
/// refilled on the next shepherd sweep.
fn slot_finish(ctx: &mut ShepherdCtx, slot: &mut ClientSlot, outcome: OpOutcome) {
    let active = slot.active.take().expect("finishing an in-flight op");
    let done = ctx.port.now();
    // Only Cx leaves commitment running behind the reply; its engine
    // stamps `Completed` through the same sink when the ack lands.
    let awaits = active.cross && ctx.cfg.protocol == Protocol::Cx;
    ctx.port.obs.op_replied(active.op_id, done, outcome, awaits);
    let latency = done.0.saturating_sub(active.issued_at.0);
    ctx.port
        .obs
        .client_latency(active.class, active.cross, latency);
    ctx.stats.note_finished(outcome, active.cross, latency);
    if let Some(reg) = &ctx.registry {
        reg.inc(match outcome {
            OpOutcome::Applied => Counter::OpsApplied,
            OpOutcome::Failed => Counter::OpsFailed,
        });
        reg.observe(Series::ClientLatencyNs, latency);
    }
    if let Some(d) = &ctx.drill {
        d.tick();
    }
}

fn send_client_actions(
    port: &mut MsgPort,
    from: Endpoint,
    actions: Vec<Action>,
    timer: &mut Option<(Instant, u64)>,
) {
    for action in actions {
        match action {
            Action::Send { to, payload } => port.send(from, to, payload),
            Action::SetTimer { token, delay_ns } => {
                *timer = Some((Instant::now() + Duration::from_nanos(delay_ns), token));
            }
            other => unreachable!("clients have no disks: {other:?}"),
        }
    }
}

/// Spawn the inbound demux pump: protocol messages to their client's
/// shepherd channel, control replies to the coordinator's. It ends when
/// the client host's transport shuts down (the inbound disconnects).
fn spawn_pump(
    inbound: InboundBatches,
    net: Arc<dyn Transport>,
    obs: ObsSink,
    proc_tx: Vec<Sender<ProcMsg>>,
    ctrl_tx: Sender<(NodeId, Frame)>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("cx-pump".into())
        .spawn(move || {
            while let Ok((node, frames)) = inbound.recv() {
                demux_batch(&*net, &obs, node, frames, &ctrl_tx, |m| {
                    // No shepherd channels are left once the clients are
                    // done; only control frames matter then.
                    if let Some(tx) = proc_tx.get(m.client as usize % proc_tx.len().max(1)) {
                        let _ = tx.send(m);
                    }
                });
            }
        })
        .expect("spawn inbound pump")
}

// ---- the run ----

/// One node's two halves.
pub(crate) struct Node {
    pub net: Arc<dyn Transport>,
    pub inbound: InboundBatches,
}

/// A run's nodes, already wired to each other: the client host this thread
/// coordinates from, and the server nodes to host on threads of this
/// process (`Server(i)` at index `i`; empty when the servers are external
/// processes the host's transport can already reach).
pub(crate) struct Wired {
    pub host: Node,
    pub servers: Vec<Node>,
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
    let placement = Placement::new(cfg.servers);
    let Node { net, inbound } = wired.host;

    // Every in-process transport, the host's first: the monitor and the
    // result sum wire throughput over them, and teardown shuts them all.
    let mut nets = vec![Arc::clone(&net)];
    let seeds = Arc::new(seeds);
    let mut server_threads = Vec::new();
    for (i, node) in wired.servers.into_iter().enumerate() {
        nets.push(Arc::clone(&node.net));
        let cfg = cfg.clone();
        let seeds = Arc::clone(&seeds);
        let obs = opts.obs.clone();
        server_threads.push(
            thread::Builder::new()
                .name(format!("cx-srv{i}"))
                .spawn(move || {
                    let me = ServerId(i as u32);
                    server_node_loop(&cfg, me, &seeds, node.net, node.inbound, obs, false)
                })
                .expect("spawn server loop"),
        );
    }

    // Client shepherds: `client_threads` OS threads host the `processes`
    // logical clients round-robin (client `c` on shepherd `c % shepherds`).
    // Auto (0) picks enough shepherds for reply-batching to pay without
    // starving wide multi-core boxes of client-side parallelism.
    let shepherds = match opts.client_threads {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .clamp(1, processes.max(1) as usize);

    // Demux pump: protocol messages to their client's shepherd channel,
    // control replies (probe/stop) to the coordinator's control channel.
    // With a single shepherd the pump hop is skipped during the ops phase
    // entirely: the shepherd consumes the raw inbound directly (one futex
    // wake fewer per reply batch) and hands the receiver back when its
    // clients finish, at which point the pump spawns to carry the
    // drain/stop control traffic to `ctrl_rx`.
    let (ctrl_tx, ctrl_rx) = unbounded::<(NodeId, Frame)>();
    let (pump, feeds) = if shepherds == 1 {
        let direct = ShepherdRx::Direct {
            inbound,
            ctrl_tx: ctrl_tx.clone(),
        };
        (None, vec![direct])
    } else {
        let (proc_tx, feeds): (Vec<_>, Vec<_>) = (0..shepherds)
            .map(|_| {
                let (tx, rx) = unbounded::<ProcMsg>();
                (tx, ShepherdRx::Demuxed(rx))
            })
            .unzip();
        let obs = opts.obs.clone();
        let pump = spawn_pump(inbound, Arc::clone(&net), obs, proc_tx, ctrl_tx.clone());
        (Some(pump), feeds)
    };

    let monitor = opts
        .live
        .as_ref()
        .and_then(|l| Monitor::spawn(l, nets.clone(), opts.obs.clone()));
    let drill = opts.drop_conns_after_ops.map(|after| {
        Arc::new(DropDrill {
            after,
            fired: AtomicBool::new(false),
            done_ops: AtomicU64::new(0),
            net: Arc::clone(&net),
            servers: cfg.servers,
        })
    });

    // Shepherd threads, sharing one locked feed over the stream.
    let feed = Arc::new(Mutex::new(OpFeed::new(ops, processes, total_ops_hint)));
    let mut client_threads = Vec::new();
    for (i, rx) in feeds.into_iter().enumerate() {
        let clients: Vec<u32> = (i as u32..processes).step_by(shepherds).collect();
        let feed = Arc::clone(&feed);
        let ctx = ShepherdCtx {
            port: MsgPort::new(Arc::clone(&net), opts.obs.clone()),
            cfg: cfg.clone(),
            placement,
            stats: RunStats::new(cfg.protocol, cfg.servers, processes),
            registry: opts.live.as_ref().map(|l| l.registry.clone()),
            drill: drill.clone(),
        };
        client_threads.push(
            thread::Builder::new()
                .name(format!("cx-cli{i}"))
                .spawn(move || shepherd_loop(clients, feed, rx, shepherds, ctx))
                .expect("spawn client shepherd"),
        );
    }
    let mut stats = RunStats::new(cfg.protocol, cfg.servers, processes);
    let mut sent = MsgCounts::default();
    let mut leftover_inbound = None;
    for t in client_threads {
        let (part, counts, rx) = t.join().expect("client thread panicked");
        stats.merge_clients(part);
        sent.add(&counts.by_kind, counts.server_msgs, counts.client_msgs);
        leftover_inbound = leftover_inbound.or(rx);
    }

    // Direct mode hands the inbound back once the last op completes; the
    // pump starts now so the drain/stop exchanges below still reach
    // `ctrl_rx` (no protocol traffic remains, so no shepherd channels).
    let pump = pump.unwrap_or_else(|| {
        let inbound = leftover_inbound.expect("single shepherd hands back the inbound receiver");
        let obs = opts.obs.clone();
        spawn_pump(inbound, Arc::clone(&net), obs, Vec::new(), ctrl_tx)
    });

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
        // shepherds tapped per op, and the exposition files are refreshed
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

    // Shutting a transport down disconnects its inbound, so the pump and
    // any server loop that never saw its `Stop` end here too.
    for n in &nets {
        n.shutdown();
    }
    let _ = pump.join();
    for t in server_threads {
        let _ = t.join();
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
