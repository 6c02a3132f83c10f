//! The TCP runtime: the same sans-IO engines over real loopback sockets.
//!
//! Structurally a sibling of [`crate::threaded`] — one engine thread per
//! metadata server, synchronous client threads pulling from a shared
//! [`OpFeed`] — but every message crosses a real TCP connection through
//! `cx-net`'s [`ConnectionManager`]: length-prefixed wire frames, per-peer
//! writer threads with bounded (backpressuring) outbound queues, reconnect
//! with exponential backoff, per-peer health scoring. The engines cannot
//! tell; the DES remains the oracle for what the totals must be.
//!
//! Two deployment shapes share all of this code:
//!
//! * **in-process loopback** ([`TcpCluster::run_stream`]) — every server
//!   node lives on its own thread in this process, with a shared
//!   [`AddrBook`]; the integration tests and `perf_baseline --net tcp`
//!   use this.
//! * **multi-process** ([`TcpCluster::run_external`] + [`serve_one`]) —
//!   one OS process per server (`cx_net_server`); the coordinator knows
//!   only their socket addresses and gossips the peer map with a
//!   [`Frame::Peers`] frame so servers can dial each other.
//!
//! Control traffic (quiesce/probe/stop) rides the same connections as
//! protocol messages, so the threaded runtime's drain protocol works
//! unchanged: quiesce rounds until every server reports quiesced, then a
//! `Stop` whose `StopResp` carries the server's stats as JSON plus a
//! binary snapshot of its [`MetaStore`] rows for the coordinator-side
//! [`GlobalView`] atomicity check.

use crate::feed::OpFeed;
use crate::seed::seed_engine;
use crate::stats::RunStats;
use crate::threaded::LiveMetrics;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use cx_mdstore::{GlobalView, MetaStore, Violation};
use cx_net::{
    AddrBook, ClockSync, ConnectionManager, Frame, HealthSnapshot, NodeId, PlaneConfig,
    WireTelemetry, WireTotals,
};
use cx_obs::registry::{Counter, Gauge, MetricRegistry, Series};
use cx_obs::{FlowNode, MsgEdge, NetPeerRow, NetTable, ObsConfig, ObsSink, OpSpan, Phase};
use cx_protocol::{
    Action, ClientDecision, ClientOp, Endpoint, ProtoMetrics, ServerEngine, ServerStats,
};
use cx_sim::TimerQueue;
use cx_types::{
    ClusterConfig, FileKind, InodeNo, MsgKind, Name, OpId, OpOutcome, Payload, Placement, ProcId,
    Protocol, ServerId, SimTime, VecPool,
};
use cx_workloads::{SeedEntry, StreamTrace, Trace};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Map a protocol endpoint onto the wire node that hosts it: servers are
/// their own nodes; every client proc lives on the single client host.
fn node_of(ep: Endpoint) -> NodeId {
    match ep {
        Endpoint::Server(s) => NodeId::Server(s.0),
        Endpoint::Proc(_) => NodeId::ClientHost(0),
    }
}

fn flow_of(ep: Endpoint) -> FlowNode {
    match ep {
        Endpoint::Server(s) => FlowNode::Server(s.0),
        Endpoint::Proc(p) => FlowNode::Client(p.client.0),
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
    /// (external `cx_net_server` processes only — loopback nodes stamp
    /// straight into the coordinator's shared sink and ship nothing).
    /// Stamps are on the child's epoch clock; the coordinator corrects
    /// them by the probe-estimated offset before merging.
    spans: Vec<OpSpan>,
    edges: Vec<MsgEdge>,
    /// This node's wire-plane telemetry: flush/queue/stall histograms and
    /// (when enabled) the per-flush span log.
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
        .map(|(ino, inode)| {
            let kind = match inode.kind {
                FileKind::Regular => 0u8,
                FileKind::Directory => 1,
            };
            (ino.0, kind, inode.nlink)
        })
        .collect();
    let dentries = store
        .dentries()
        .map(|(&(parent, name), &child)| (parent.0, name.0, child.0))
        .collect();
    (inodes, dentries)
}

/// The coordinator's copy of a server's store, from its snapshot.
pub(crate) fn rebuild_store(inodes: InodeRows, dentries: EntryRows) -> MetaStore {
    let mut store = MetaStore::new();
    store.reserve_rows(inodes.len(), dentries.len());
    for (ino, kind, nlink) in inodes {
        let kind = if kind == 1 {
            FileKind::Directory
        } else {
            FileKind::Regular
        };
        store.seed_inode(InodeNo(ino), kind, nlink);
    }
    for (parent, name, child) in dentries {
        store.seed_dentry(InodeNo(parent), Name(name), InodeNo(child));
    }
    store
}

/// Options for a TCP run.
pub struct TcpOptions {
    /// Observability sink installed into every in-process engine and
    /// client (external server processes run with their own sinks off).
    pub obs: ObsSink,
    /// Wire-plane tuning (backoff plus the [`cx_types::NetTuning`] queue
    /// and read-buffer knobs).
    pub net: PlaneConfig,
    /// Live metric exposition, exactly as in the threaded runtime.
    pub live: Option<LiveMetrics>,
    /// Reconnect drill: after this many completed client operations, drop
    /// the coordinator's connection to every server once, mid-run. The
    /// run must still complete losslessly (pending frames are retained
    /// and re-sent after the backoff re-dial); `TcpRunResult::reconnects`
    /// reports the re-dials observed.
    pub drop_conns_after_ops: Option<u64>,
    /// OS threads hosting the logical clients (`0` = auto). Each logical
    /// client stays strictly synchronous — one op in flight, per-client
    /// FIFO — but several clients share one *shepherd* thread, so a
    /// single wakeup drains a batch of replies and refills a batch of
    /// requests back-to-back into the wire queue. On a box with few
    /// hardware threads this is the difference between one futex wake
    /// per reply and one per batch.
    pub client_threads: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            obs: ObsSink::Off,
            net: PlaneConfig::default(),
            live: None,
            drop_conns_after_ops: None,
            client_threads: 0,
        }
    }
}

/// Result of a TCP run: the same shape as a threaded run, plus the wire
/// plane's operational counters.
pub struct TcpRunResult {
    pub stats: RunStats,
    pub violations: Vec<Violation>,
    pub wall: Duration,
    /// Successful re-dials after a lost or dropped connection
    /// (coordinator side).
    pub reconnects: u64,
    /// Final health snapshot per peer the coordinator talked to.
    pub health: Vec<(NodeId, HealthSnapshot)>,
    /// Frames/bytes/flushes summed across every in-process connection
    /// manager (coordinator + loopback servers); external `cx_net_server`
    /// processes keep their counters to themselves.
    pub wire: WireTotals,
    /// Cluster-wide wall-clock wire telemetry: the coordinator's own
    /// histograms merged with every server's `StopResp`-shipped ones
    /// (loopback and external alike), flush-span stamps offset-corrected
    /// onto the coordinator's clock. Attach `telem.flush_spans` to an
    /// [`cx_obs::ObsReport`]'s `flushes` to get the Perfetto wire tracks.
    pub telem: WireTelemetry,
    /// Every node's view of every peer it talked to — rendered by
    /// `cx-obs net`.
    pub net: NetTable,
}

/// The TCP cluster runtime.
pub struct TcpCluster;

impl TcpCluster {
    /// Run `trace` over in-process loopback TCP.
    pub fn run(cfg: ClusterConfig, trace: &Trace) -> TcpRunResult {
        Self::run_stream(cfg, trace.to_stream())
    }

    /// Streamed form over in-process loopback TCP.
    pub fn run_stream(cfg: ClusterConfig, st: StreamTrace) -> TcpRunResult {
        Self::run_stream_opts(cfg, st, TcpOptions::default())
    }

    /// In-process loopback with explicit options.
    pub fn run_stream_opts(cfg: ClusterConfig, st: StreamTrace, opts: TcpOptions) -> TcpRunResult {
        run_inner(cfg, st, opts, None)
    }

    /// Multi-process form: the servers are external processes (started
    /// via [`serve_one`], typically the `cx_net_server` binary) already
    /// listening on `addrs[i]` for `ServerId(i)`. The coordinator gossips
    /// the full peer map to every server, then drives the identical
    /// client/drain/stop protocol over the wire.
    pub fn run_external(
        cfg: ClusterConfig,
        st: StreamTrace,
        addrs: &[SocketAddr],
        opts: TcpOptions,
    ) -> TcpRunResult {
        run_inner(cfg, st, opts, Some(addrs.to_vec()))
    }
}

/// Serve one metadata server over TCP until the coordinator sends `Stop`:
/// the body of the `cx_net_server` process. Binds an ephemeral loopback
/// port, reports it through `on_listen` (the parent reads it from stdout),
/// then runs the engine loop. Peer addresses arrive over the wire: the
/// coordinator's `Hello` registers the client host, a `Peers` frame names
/// the other servers.
pub fn serve_one(
    cfg: &ClusterConfig,
    me: ServerId,
    seeds: &[SeedEntry],
    on_listen: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    serve_one_opts(cfg, me, seeds, ServeOptions::default(), on_listen)
}

/// Options for a hosted server-node process ([`serve_one_opts`]).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Record a wall-clock span shard (phases stamped on this process's
    /// clock, spans created on first stamp) plus message edges, and ship
    /// both in the `StopResp` report for the coordinator to stitch into
    /// end-to-end spans.
    pub obs: bool,
    /// Wire-plane tuning, including `record_flush_spans`.
    pub net: PlaneConfig,
    /// Write this process's metric snapshot (`<path>.json` / `<path>.prom`)
    /// once at exit; `cx-obs top a.json b.json …` merges it with the
    /// coordinator's.
    pub metrics_out: Option<std::path::PathBuf>,
}

/// [`serve_one`] with explicit wire/observability options — the
/// `cx_net_server --config` body once the config asks for telemetry.
pub fn serve_one_opts(
    cfg: &ClusterConfig,
    me: ServerId,
    seeds: &[SeedEntry],
    opts: ServeOptions,
    on_listen: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    // One epoch for both the connection manager (probe timestamps, flush
    // spans) and the engine loop (phase stamps): every wall-clock stamp
    // this process emits is nanoseconds since this instant, so a single
    // probe-estimated offset corrects them all.
    let epoch = Instant::now();
    let book = Arc::new(AddrBook::new());
    let (conn, inbound) =
        ConnectionManager::start_with_epoch(NodeId::Server(me.0), book, opts.net.clone(), epoch)?;
    on_listen(conn.listen_addr());
    let conn = Arc::new(conn);
    let obs = if opts.obs {
        ObsSink::with_config(
            format!("{:?}", cfg.protocol).to_lowercase(),
            ObsConfig {
                shard_mode: true,
                ..ObsConfig::default()
            },
        )
    } else {
        ObsSink::Off
    };
    server_node_loop(
        cfg,
        me,
        seeds,
        Arc::clone(&conn),
        inbound,
        epoch,
        obs,
        opts.obs,
    );
    if let Some(out) = &opts.metrics_out {
        let reg = MetricRegistry::new();
        observe_wire_series(&reg, &conn.telemetry());
        LiveMetrics::write_files(&reg, out);
    }
    Ok(())
}

/// Fold one node's wire histograms into a registry's wire series.
fn observe_wire_series(reg: &MetricRegistry, t: &WireTelemetry) {
    reg.observe_hist(Series::WireQueueDepth, &t.queue_depth);
    reg.observe_hist(Series::WireFlushFrames, &t.flush_frames);
    reg.observe_hist(Series::WireFlushLatencyNs, &t.flush_latency_ns);
    reg.observe_hist(Series::WireCorkScopeNs, &t.cork_scope_ns);
    reg.observe_hist(Series::WireStallNs, &t.stall_ns);
}

// ---- server node ----

/// Everything a server node needs to put a payload on the wire, plus its
/// send-side message accounting (the DES counts sends the same way).
struct ServerNetCtx {
    conn: Arc<ConnectionManager>,
    epoch: Instant,
    me: ServerId,
    msg_counts: [u64; MsgKind::COUNT],
    server_msgs: u64,
    client_msgs: u64,
    /// The node's obs sink, for send-side lifecycle stamps (the wall-clock
    /// mirror of the DES's `obs_on_send`).
    obs: ObsSink,
    /// True when `obs` is a shard-mode sink private to this process: the
    /// `Stop` report then carries the span shard home to the coordinator.
    shard_obs: bool,
}

impl ServerNetCtx {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&mut self, to: Endpoint, payload: Payload) {
        if self.obs.enabled() {
            obs_on_send(&self.obs, Endpoint::Server(self.me), &payload, self.now());
        }
        self.msg_counts[payload.kind() as usize] += 1;
        match to {
            Endpoint::Server(_) => self.server_msgs += 1,
            Endpoint::Proc(_) => self.client_msgs += 1,
        }
        let frame = Frame::Msg {
            sent_ns: self.now().0,
            from: Endpoint::Server(self.me),
            to,
            payload,
        };
        let _ = self.conn.send(node_of(to), frame);
    }
}

/// Stamp lifecycle milestones from the send path: the payload kind names
/// the Cx phase the sender just entered. The wall-clock mirror of the
/// DES's `obs_on_send` — same phase mapping, `now` in nanoseconds since
/// the sender's epoch instead of virtual time. Stamping is
/// first-writer-wins, so retransmissions never move a milestone.
fn obs_on_send(obs: &ObsSink, from: Endpoint, payload: &Payload, now: SimTime) {
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

/// Interpret engine actions. Disk completions are immediate, as in the
/// threaded runtime (this runtime checks correctness under concurrency
/// and real sockets, not timing); timers go into the node's local queue.
fn process_server_actions(
    engine: &mut dyn ServerEngine,
    actions: Vec<Action>,
    ctx: &mut ServerNetCtx,
    timers: &mut TimerQueue<u64>,
) {
    let mut work: VecDeque<Action> = actions.into();
    while let Some(action) = work.pop_front() {
        match action {
            Action::Send { to, payload } => ctx.send(to, payload),
            Action::LogAppend { token, .. }
            | Action::DbSyncWrite { token, .. }
            | Action::DbWriteback { token, .. }
            | Action::LogRead { token, .. }
            | Action::DbRandomRead { token, .. } => {
                let mut out = Vec::new();
                engine.on_disk_done(ctx.now(), token, &mut out);
                work.extend(out);
            }
            Action::SetTimer { token, delay_ns } => {
                timers.push(SimTime(ctx.now().0 + delay_ns), token);
            }
        }
    }
}

/// Handle one inbound frame on a server node. Returns `true` when the
/// frame was the coordinator's `Stop` (the `StopResp` has been sent and
/// the engine loop must exit).
fn handle_server_frame(
    engine: &mut dyn ServerEngine,
    ctx: &mut ServerNetCtx,
    timers: &mut TimerQueue<u64>,
    obs: &ObsSink,
    me: ServerId,
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
            let now = ctx.now();
            obs.msg_edge(
                crate::des::primary_op(&payload),
                payload.kind().into(),
                flow_of(from),
                FlowNode::Server(me.0),
                sent_ns,
                now.0,
            );
            let mut out = Vec::new();
            engine.on_msg(now, from, payload, &mut out);
            process_server_actions(engine, out, ctx, timers);
        }
        Frame::Quiesce => {
            let mut out = Vec::new();
            engine.quiesce(ctx.now(), &mut out);
            process_server_actions(engine, out, ctx, timers);
        }
        Frame::Probe { token, t0_ns } => {
            // Echo the prober's clock back and stamp ours: together with
            // the prober's receive time this is a full NTP-style exchange
            // ([`cx_net::ClockSync`]). Our stamp shares the epoch of every
            // span phase this process records, so the estimated offset
            // corrects them all.
            let _ = ctx.conn.send(
                from_node,
                Frame::ProbeResp {
                    token,
                    quiesced: engine.is_quiesced(),
                    echo_t0_ns: t0_ns,
                    remote_ns: ctx.now().0,
                },
            );
        }
        Frame::Stop => {
            let (spans, edges) = if ctx.shard_obs {
                obs.export_shard()
            } else {
                (Vec::new(), Vec::new())
            };
            let peers = ctx
                .conn
                .health_all()
                .into_iter()
                .map(|(node, h)| (format!("{node}"), h))
                .collect();
            let report = WireReport {
                stats: *engine.stats(),
                proto: engine.proto_metrics(),
                msgs: ctx.msg_counts.to_vec(),
                server_msgs: ctx.server_msgs,
                client_msgs: ctx.client_msgs,
                spans,
                edges,
                telem: ctx.conn.telemetry(),
                peers,
            };
            let stats_json = serde_json::to_string(&report)
                .expect("server report serializes")
                .into_bytes();
            let (inodes, dentries) = snapshot_rows(engine.store());
            let _ = ctx.conn.send(
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
            for (s, addr) in servers {
                if NodeId::Server(s) != ctx.conn.me() {
                    if let Ok(a) = addr.parse() {
                        ctx.conn.book().set(NodeId::Server(s), a);
                    }
                }
            }
        }
        // Hello is consumed by the manager; other control frames
        // are coordinator-bound and never reach a server.
        _ => {}
    }
    false
}

/// Batches of inbound batches a server node processes per wakeup before it
/// re-checks its timer queue: enough to amortize the channel wakeup under
/// load, small enough to keep wall-clock timer latency bounded.
const SERVER_DRAIN_BATCHES: usize = 512;

/// One server node's engine loop: frame batches in, frames out, local
/// timers at wall-clock rate, until the coordinator's `Stop` (or the wire
/// plane disconnects). Shared verbatim between in-process threads and
/// external `cx_net_server` processes.
///
/// The inbound channel carries whole `Vec<Frame>` batches (one per reader
/// `read`), and each wakeup greedily drains up to [`SERVER_DRAIN_BATCHES`]
/// more with `try_recv`, so a busy server pays one channel wakeup and one
/// timer check per *batch of batches*, not per frame.
#[allow(clippy::too_many_arguments)]
fn server_node_loop(
    cfg: &ClusterConfig,
    me: ServerId,
    seeds: &[SeedEntry],
    conn: Arc<ConnectionManager>,
    inbound: Receiver<(NodeId, Vec<Frame>)>,
    epoch: Instant,
    obs: ObsSink,
    shard_obs: bool,
) {
    let placement = Placement::new(cfg.servers);
    let mut engine = cx_protocol::make_server(me, cfg);
    engine.install_obs(obs.clone());
    seed_engine(engine.as_mut(), &placement, seeds, me);

    let mut timers: TimerQueue<u64> = TimerQueue::new();
    let mut ctx = ServerNetCtx {
        conn,
        epoch,
        me,
        msg_counts: [0; MsgKind::COUNT],
        server_msgs: 0,
        client_msgs: 0,
        obs: obs.clone(),
        shard_obs,
    };

    let mut boot = Vec::new();
    engine.on_start(ctx.now(), &mut boot);
    process_server_actions(engine.as_mut(), boot, &mut ctx, &mut timers);

    let mut stop = false;
    while !stop {
        let timeout = timers
            .peek_deadline()
            .map(|d| {
                (ctx.epoch + Duration::from_nanos(d.0)).saturating_duration_since(Instant::now())
            })
            .unwrap_or(Duration::from_millis(20));
        let mut next = match inbound.recv_timeout(timeout) {
            Ok(batch) => Some(batch),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // One cork scope per wakeup: every frame this burst provokes
        // (replies, cross-server ops, ack fan-out) coalesces into one
        // write per peer when the guard drops below.
        let conn = Arc::clone(&ctx.conn);
        let cork = conn.cork_scope();
        let mut drained = 0;
        while let Some((from_node, mut frames)) = next.take() {
            for frame in frames.drain(..) {
                if handle_server_frame(
                    engine.as_mut(),
                    &mut ctx,
                    &mut timers,
                    &obs,
                    me,
                    from_node,
                    frame,
                ) {
                    stop = true;
                    break;
                }
            }
            ctx.conn.recycle_batch(frames);
            drained += 1;
            if stop || drained >= SERVER_DRAIN_BATCHES {
                break;
            }
            next = inbound.try_recv().ok();
        }
        let now = ctx.now();
        while timers.peek_deadline().is_some_and(|d| d <= now) {
            let (_, token) = timers.pop().expect("peeked");
            let mut out = Vec::new();
            engine.on_timer(ctx.now(), token, &mut out);
            process_server_actions(engine.as_mut(), out, &mut ctx, &mut timers);
        }
        drop(cork);
    }
    // Orderly shutdown flushes the outbound queues, so the StopResp (and
    // any trailing protocol messages) reach their peers.
    ctx.conn.shutdown();
}

// ---- client host (coordinator) ----

enum ProcMsg {
    Net {
        /// Logical client the frame addressed (`Endpoint::Proc`): the
        /// shepherd thread hosting several clients demuxes on it.
        client: u32,
        from: Endpoint,
        payload: Payload,
    },
}

/// The client host's sender: puts client payloads on the wire and keeps
/// the client-side share of the per-kind message accounting.
#[derive(Clone)]
struct ClientNet {
    conn: Arc<ConnectionManager>,
    epoch: Instant,
    counts: Arc<Mutex<[u64; MsgKind::COUNT]>>,
    client_msgs: Arc<AtomicU64>,
    obs: ObsSink,
}

impl ClientNet {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&self, from: Endpoint, to: Endpoint, payload: Payload) {
        if self.obs.enabled() {
            obs_on_send(&self.obs, from, &payload, self.now());
        }
        self.counts.lock()[payload.kind() as usize] += 1;
        self.client_msgs.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::Msg {
            sent_ns: self.now().0,
            from,
            to,
            payload,
        };
        let _ = self.conn.send(node_of(to), frame);
    }
}

/// Mid-run connection-drop drill (see [`TcpOptions::drop_conns_after_ops`]).
struct DropDrill {
    after: u64,
    fired: AtomicBool,
    done_ops: AtomicU64,
    conn: Arc<ConnectionManager>,
    servers: u32,
}

impl DropDrill {
    fn tick(&self) {
        let n = self.done_ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.after && !self.fired.swap(true, Ordering::Relaxed) {
            for s in 0..self.servers {
                self.conn.drop_connection(NodeId::Server(s));
            }
        }
    }
}

/// One hosted logical client on a shepherd thread: its identity, its op
/// sequence counter, and its in-flight op (at most one — logical clients
/// stay strictly synchronous, exactly as when each had its own thread).
struct ClientSlot {
    me: u32,
    proc: ProcId,
    seq: u64,
    active: Option<InFlightOp>,
    feed_done: bool,
}

struct InFlightOp {
    op_id: OpId,
    class: cx_types::OpClass,
    cross: bool,
    issued_at: SimTime,
    client: ClientOp,
    timer: Option<(Instant, u64)>,
}

/// Environment shared by every slot a shepherd hosts.
struct ShepherdCtx<'a> {
    net: &'a ClientNet,
    cfg: &'a ClusterConfig,
    placement: Placement,
    outcomes: &'a Mutex<Vec<(OpId, OpOutcome, bool)>>,
    obs: &'a ObsSink,
    registry: Option<&'a MetricRegistry>,
    drill: Option<&'a Arc<DropDrill>>,
}

/// Where a shepherd's replies come from.
enum ShepherdRx {
    /// A per-shepherd channel fed by the demux pump (several shepherds).
    Demuxed(Receiver<ProcMsg>),
    /// The connection manager's raw inbound, consumed directly (single
    /// shepherd): the pump hop — one futex wake plus one channel transfer
    /// per reply batch — disappears; the shepherd demuxes inline and
    /// forwards control frames itself. The receiver is handed back on
    /// exit so the coordinator can run the drain/stop protocol over it.
    Direct {
        inbound: Receiver<(NodeId, Vec<Frame>)>,
        ctrl_tx: Sender<(NodeId, Frame)>,
        pool: Arc<Mutex<VecPool<Frame>>>,
        epoch: Instant,
    },
}

enum ShepherdWake {
    Replies,
    Timeout,
    Disconnected,
}

/// Drive a set of logical clients off one OS thread. Each wakeup drains
/// every queued reply (one `recv` then greedy `try_recv`), then refills
/// every idle slot with its next op — so request frames from several
/// clients enter the wire queue back-to-back and coalesce into shared
/// flushes, and a batch of replies costs one futex wake instead of one
/// per client. Per-client semantics are identical to the one-thread-per-
/// client shape: a slot never has more than one op in flight, and its op
/// order is its feed order.
///
/// Returns the raw inbound receiver when running in [`ShepherdRx::Direct`]
/// mode, so the caller can keep consuming control frames afterwards.
#[allow(clippy::too_many_arguments)]
fn shepherd_loop(
    clients: Vec<u32>,
    feed: Arc<Mutex<OpFeed>>,
    rx: ShepherdRx,
    shepherds: usize,
    net: ClientNet,
    cfg: &ClusterConfig,
    placement: Placement,
    outcomes: Arc<Mutex<Vec<(OpId, OpOutcome, bool)>>>,
    obs: ObsSink,
    registry: Option<MetricRegistry>,
    drill: Option<Arc<DropDrill>>,
) -> Option<Receiver<(NodeId, Vec<Frame>)>> {
    let ctx = ShepherdCtx {
        net: &net,
        cfg,
        placement,
        outcomes: &outcomes,
        obs: &obs,
        registry: registry.as_ref(),
        drill: drill.as_ref(),
    };
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
        // so the requests land back-to-back in the wire queue.
        let mut refill: Vec<(usize, cx_types::FsOp)> = Vec::new();
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
            let _cork = net.conn.cork_scope();
            for (i, op) in refill {
                slot_issue(&ctx, &mut slots[i], op);
            }
        }
        if slots.iter().all(|s| s.active.is_none() && s.feed_done) {
            break;
        }

        // Sleep until the earliest pending client timer (or a liveness
        // backstop), then drain every reply that has queued up.
        let wait = slots
            .iter()
            .filter_map(|s| s.active.as_ref()?.timer.map(|(at, _)| at))
            .min()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_secs(30));
        let wake = match &rx {
            ShepherdRx::Demuxed(ch) => match ch.recv_timeout(wait) {
                Ok(msg) => {
                    // Cork the reply burst too: protocol follow-ups (e.g.
                    // Cx cross-server second phases) issued while draining
                    // share flushes the same way the refill sweep does.
                    let _cork = net.conn.cork_scope();
                    shepherd_deliver(&ctx, &mut slots, shepherds, msg);
                    while let Ok(msg) = ch.try_recv() {
                        shepherd_deliver(&ctx, &mut slots, shepherds, msg);
                    }
                    ShepherdWake::Replies
                }
                Err(RecvTimeoutError::Timeout) => ShepherdWake::Timeout,
                Err(RecvTimeoutError::Disconnected) => ShepherdWake::Disconnected,
            },
            ShepherdRx::Direct {
                inbound,
                ctrl_tx,
                pool,
                epoch,
            } => match inbound.recv_timeout(wait) {
                Ok((node, frames)) => {
                    let _cork = net.conn.cork_scope();
                    shepherd_deliver_raw(&ctx, &mut slots, node, frames, ctrl_tx, pool, *epoch);
                    while let Ok((node, frames)) = inbound.try_recv() {
                        shepherd_deliver_raw(&ctx, &mut slots, node, frames, ctrl_tx, pool, *epoch);
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
                    let d = active.client.on_timer(net.now(), token, &mut out);
                    let from_me = Endpoint::Proc(slot.proc);
                    send_client_actions(&net, from_me, out, &mut active.timer);
                    if let ClientDecision::Done(outcome) = d {
                        slot_finish(&ctx, slot, outcome);
                    }
                }
                if !fired && wait >= Duration::from_secs(30) {
                    let stuck: Vec<OpId> = slots
                        .iter()
                        .filter_map(|s| Some(s.active.as_ref()?.op_id))
                        .collect();
                    panic!("clients timed out waiting for ops {stuck:?} over TCP");
                }
            }
            ShepherdWake::Disconnected => break,
        }
    }
    match rx {
        ShepherdRx::Demuxed(_) => None,
        ShepherdRx::Direct { inbound, .. } => Some(inbound),
    }
}

/// Direct-mode demux: what the pump does per batch, done inline on the
/// shepherd thread. Protocol messages step their client's machine; control
/// responses are forwarded to the coordinator's control channel; the spent
/// batch vec goes back to the reader pool.
fn shepherd_deliver_raw(
    ctx: &ShepherdCtx<'_>,
    slots: &mut [ClientSlot],
    node: NodeId,
    mut frames: Vec<Frame>,
    ctrl_tx: &Sender<(NodeId, Frame)>,
    pool: &Arc<Mutex<VecPool<Frame>>>,
    epoch: Instant,
) {
    for frame in frames.drain(..) {
        match frame {
            Frame::Msg {
                sent_ns,
                from,
                to: Endpoint::Proc(p),
                payload,
            } => {
                ctx.obs.msg_edge(
                    crate::des::primary_op(&payload),
                    payload.kind().into(),
                    flow_of(from),
                    FlowNode::Client(p.client.0),
                    sent_ns,
                    epoch.elapsed().as_nanos() as u64,
                );
                shepherd_deliver(
                    ctx,
                    slots,
                    1,
                    ProcMsg::Net {
                        client: p.client.0,
                        from,
                        payload,
                    },
                );
            }
            Frame::ProbeResp { .. } | Frame::StopResp { .. } => {
                let _ = ctrl_tx.send((node, frame));
            }
            _ => {}
        }
    }
    pool.lock().put(frames);
}

/// Start `op` on an idle slot: plan it, record issue-side observability,
/// and put the opening request(s) on the wire.
fn slot_issue(ctx: &ShepherdCtx<'_>, slot: &mut ClientSlot, op: cx_types::FsOp) {
    let op_id = OpId::new(slot.proc, slot.seq);
    slot.seq += 1;
    let plan = ctx.placement.plan(op);
    let cross = plan.is_cross_server();
    let issued_at = ctx.net.now();
    ctx.obs.op_issued(op_id, op.class(), cross, issued_at);
    let mut out = Vec::new();
    let client = ClientOp::start(ctx.cfg.protocol, op_id, plan, &ctx.cfg.cx, &mut out);
    let mut timer = None;
    send_client_actions(ctx.net, Endpoint::Proc(slot.proc), out, &mut timer);
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
    ctx: &ShepherdCtx<'_>,
    slots: &mut [ClientSlot],
    shepherds: usize,
    msg: ProcMsg,
) {
    let ProcMsg::Net {
        client,
        from,
        payload,
    } = msg;
    // Round-robin placement: client `c` lives on shepherd `c % shepherds`
    // at local slot `c / shepherds`.
    let Some(slot) = slots.get_mut(client as usize / shepherds) else {
        return;
    };
    debug_assert_eq!(slot.me, client);
    let Some(active) = &mut slot.active else {
        return; // late duplicate from an op that already completed
    };
    let mut out = Vec::new();
    let d = active.client.on_msg(ctx.net.now(), from, payload, &mut out);
    let from_me = Endpoint::Proc(slot.proc);
    send_client_actions(ctx.net, from_me, out, &mut active.timer);
    if let ClientDecision::Done(outcome) = d {
        slot_finish(ctx, slot, outcome);
    }
}

/// Completion-side accounting for a finished op, identical to the former
/// per-thread client loop; the slot goes idle and is refilled on the next
/// shepherd sweep.
fn slot_finish(ctx: &ShepherdCtx<'_>, slot: &mut ClientSlot, outcome: OpOutcome) {
    let active = slot.active.take().expect("finishing an in-flight op");
    let done = ctx.net.now();
    let awaits = active.cross && ctx.cfg.protocol == Protocol::Cx;
    ctx.obs.op_replied(active.op_id, done, outcome, awaits);
    let latency = done.0.saturating_sub(active.issued_at.0);
    ctx.obs.client_latency(active.class, active.cross, latency);
    if let Some(reg) = ctx.registry {
        reg.inc(Counter::OpsIssued);
        reg.inc(match outcome {
            OpOutcome::Applied => Counter::OpsApplied,
            OpOutcome::Failed => Counter::OpsFailed,
        });
        if active.cross {
            reg.inc(Counter::CrossOps);
        }
        reg.observe(Series::ClientLatencyNs, latency);
    }
    ctx.outcomes
        .lock()
        .push((active.op_id, outcome, active.cross));
    if let Some(d) = ctx.drill {
        d.tick();
    }
}

fn send_client_actions(
    net: &ClientNet,
    from: Endpoint,
    actions: Vec<Action>,
    timer: &mut Option<(Instant, u64)>,
) {
    for action in actions {
        match action {
            Action::Send { to, payload } => net.send(from, to, payload),
            Action::SetTimer { token, delay_ns } => {
                *timer = Some((Instant::now() + Duration::from_nanos(delay_ns), token));
            }
            other => unreachable!("clients have no disks: {other:?}"),
        }
    }
}

/// Spawn the inbound demux pump: protocol messages to their client's
/// shepherd channel, control replies (probe/stop) to the coordinator's
/// control channel. The pump takes drained batch vectors back through the
/// pool handle rather than an `Arc<ConnectionManager>`: holding the
/// manager here would keep its inbound sender alive and the pump would
/// never see the channel disconnect.
fn spawn_pump(
    inbound: Receiver<(NodeId, Vec<Frame>)>,
    obs: ObsSink,
    proc_tx: Vec<Sender<ProcMsg>>,
    ctrl_tx: Sender<(NodeId, Frame)>,
    pool: Arc<Mutex<VecPool<Frame>>>,
    epoch: Instant,
    shepherds: usize,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("cx-pump".into())
        .spawn(move || {
            while let Ok((node, mut frames)) = inbound.recv() {
                for frame in frames.drain(..) {
                    match frame {
                        Frame::Msg {
                            sent_ns,
                            from,
                            to: Endpoint::Proc(p),
                            payload,
                        } => {
                            obs.msg_edge(
                                crate::des::primary_op(&payload),
                                payload.kind().into(),
                                flow_of(from),
                                FlowNode::Client(p.client.0),
                                sent_ns,
                                epoch.elapsed().as_nanos() as u64,
                            );
                            if let Some(tx) = proc_tx.get(p.client.0 as usize % shepherds) {
                                let _ = tx.send(ProcMsg::Net {
                                    client: p.client.0,
                                    from,
                                    payload,
                                });
                            }
                        }
                        Frame::ProbeResp { .. } | Frame::StopResp { .. } => {
                            let _ = ctrl_tx.send((node, frame));
                        }
                        _ => {}
                    }
                }
                pool.lock().put(frames);
            }
        })
        .expect("spawn inbound pump")
}

// ---- the run ----

fn run_inner(
    cfg: ClusterConfig,
    st: StreamTrace,
    opts: TcpOptions,
    external: Option<Vec<SocketAddr>>,
) -> TcpRunResult {
    let StreamTrace {
        name: _,
        processes,
        seeds,
        roots,
        total_ops_hint,
        ops,
    } = st;
    let start = Instant::now();
    let epoch = start;
    let placement = Placement::new(cfg.servers);

    let book = Arc::new(AddrBook::new());
    // Every in-process manager shares the run's epoch, so loopback stamps
    // (frame sent_ns, flush spans, probe timestamps) live on one clock and
    // need no offset correction; external processes have their own epochs
    // and get probe-estimated offsets instead.
    let (conn, inbound) = ConnectionManager::start_with_epoch(
        NodeId::ClientHost(0),
        Arc::clone(&book),
        opts.net.clone(),
        epoch,
    )
    .expect("bind coordinator listener");
    let conn = Arc::new(conn);

    // Server nodes: in-process threads sharing the address book, or
    // external processes reached through the gossiped peer map. Every
    // in-process manager is also tracked for cluster-wide wire-throughput
    // aggregation (external processes keep their counters to themselves).
    let mut server_threads = Vec::new();
    let mut wire_conns: Vec<Arc<ConnectionManager>> = vec![Arc::clone(&conn)];
    match &external {
        None => {
            // Bind every manager before spawning any engine thread, so
            // the boot-time `prime` sweep each server runs finds every
            // peer's address already in the shared book.
            let mut bound = Vec::new();
            for i in 0..cfg.servers {
                let (sconn, sin) = ConnectionManager::start_with_epoch(
                    NodeId::Server(i),
                    Arc::clone(&book),
                    opts.net.clone(),
                    epoch,
                )
                .expect("bind server listener");
                book.set(NodeId::Server(i), sconn.listen_addr());
                let sconn = Arc::new(sconn);
                wire_conns.push(Arc::clone(&sconn));
                bound.push((i, sconn, sin));
            }
            for (i, sconn, sin) in bound {
                let cfg = cfg.clone();
                let seeds = seeds.clone();
                let obs = opts.obs.clone();
                server_threads.push(
                    thread::Builder::new()
                        .name(format!("cx-srv{i}"))
                        .spawn(move || {
                            server_node_loop(
                                &cfg,
                                ServerId(i),
                                &seeds,
                                sconn,
                                sin,
                                epoch,
                                obs,
                                false,
                            )
                        })
                        .expect("spawn server loop"),
                );
            }
        }
        Some(addrs) => {
            assert_eq!(
                addrs.len(),
                cfg.servers as usize,
                "one external server address per configured server"
            );
            for (i, a) in addrs.iter().enumerate() {
                book.set(NodeId::Server(i as u32), *a);
            }
            let peers: Vec<(u32, String)> = addrs
                .iter()
                .enumerate()
                .map(|(i, a)| (i as u32, a.to_string()))
                .collect();
            for i in 0..cfg.servers {
                let _ = conn.send(
                    NodeId::Server(i),
                    Frame::Peers {
                        servers: peers.clone(),
                    },
                );
            }
        }
    }

    // Client shepherds: `client_threads` OS threads host the `processes`
    // logical clients round-robin (client `c` on shepherd `c % shepherds`).
    // Auto (0) picks enough shepherds for reply-batching to pay without
    // starving wide multi-core boxes of client-side parallelism.
    let shepherds = match opts.client_threads {
        0 => {
            let cores = thread::available_parallelism().map_or(1, |n| n.get());
            cores.clamp(1, processes.max(1) as usize)
        }
        n => n.clamp(1, processes.max(1) as usize),
    };

    // Demux pump: protocol messages to their client's shepherd channel,
    // control replies (probe/stop) to the coordinator's control channel.
    // With a single shepherd the pump hop is skipped during the ops phase
    // entirely: the shepherd consumes the manager's raw inbound directly
    // (one futex wake fewer per reply batch) and hands the receiver back
    // when its clients finish, at which point the pump spawns to carry
    // the drain/stop control traffic to `ctrl_rx`.
    let (ctrl_tx, ctrl_rx) = unbounded::<(NodeId, Frame)>();
    let (pump, feeds): (Option<thread::JoinHandle<()>>, Vec<ShepherdRx>) = if shepherds == 1 {
        (
            None,
            vec![ShepherdRx::Direct {
                inbound,
                ctrl_tx: ctrl_tx.clone(),
                pool: conn.batch_pool_handle(),
                epoch,
            }],
        )
    } else {
        let mut proc_tx = Vec::new();
        let mut feeds = Vec::new();
        for _ in 0..shepherds {
            let (tx, rx) = unbounded::<ProcMsg>();
            proc_tx.push(tx);
            feeds.push(ShepherdRx::Demuxed(rx));
        }
        let pump = spawn_pump(
            inbound,
            opts.obs.clone(),
            proc_tx,
            ctrl_tx.clone(),
            conn.batch_pool_handle(),
            epoch,
            shepherds,
        );
        (Some(pump), feeds)
    };

    // Live-exposition monitor: the threaded runtime's periodic snapshot
    // writer, plus the wire-throughput gauges — per-period deltas of the
    // aggregated frame/byte/flush totals across every in-process manager.
    let live_reg = opts.live.as_ref().map(|l| l.registry.clone());
    let monitor_stop = Arc::new(AtomicBool::new(false));
    let sum_wire = |conns: &[Arc<ConnectionManager>]| {
        let mut tot = WireTotals::default();
        for c in conns {
            tot.add(c.wire_totals());
        }
        tot
    };
    let monitor_thread = opts.live.as_ref().and_then(|l| {
        let out = l.out.clone()?;
        let reg = l.registry.clone();
        let period = l.period;
        let stop = Arc::clone(&monitor_stop);
        let wire = wire_conns.clone();
        let obs = opts.obs.clone();
        let wall_epoch = epoch;
        Some(
            thread::Builder::new()
                .name("cx-mon".into())
                .spawn(move || {
                    /// An op still shy of `Replied` after this much wall
                    /// time earns a watchdog line.
                    const STUCK_WARN_NS: u64 = 5_000_000_000;
                    /// …and one escalation if it is *still* stuck here
                    /// (the shepherds' own panic backstop fires at 30 s).
                    const STUCK_ESCALATE_NS: u64 = 30_000_000_000;
                    let mut prev = WireTotals::default();
                    let mut last = Instant::now();
                    // Warning stage per op: 1 after the first line, 2
                    // after the escalation — never re-warn per poll tick.
                    let mut warned: HashMap<OpId, u8> = HashMap::new();
                    while !stop.load(Ordering::Relaxed) {
                        let mut tot = WireTotals::default();
                        for c in &wire {
                            tot.add(c.wire_totals());
                        }
                        let now = Instant::now();
                        let dt = now.duration_since(last).as_secs_f64();
                        if dt > 0.0 {
                            let rate =
                                |cur: u64, old: u64| ((cur - old) as f64 / dt).round() as u64;
                            reg.set_gauge(Gauge::WireFramesPerSec, rate(tot.frames, prev.frames));
                            reg.set_gauge(Gauge::WireBytesPerSec, rate(tot.bytes, prev.bytes));
                            reg.set_gauge(
                                Gauge::WireFlushesPerSec,
                                rate(tot.flushes, prev.flushes),
                            );
                        }
                        prev = tot;
                        last = now;
                        // Wall-clock stuck-op watchdog: the obs live map
                        // names every op still in flight and the phase it
                        // stalled in; long-stalled ops get one line each,
                        // with wall seconds since their last milestone.
                        if obs.enabled() {
                            let stuck = obs.stuck_report();
                            reg.set_gauge(Gauge::OpsInFlight, stuck.len() as u64);
                            let now_ns = wall_epoch.elapsed().as_nanos() as u64;
                            // Ops that finally replied leave the stage map
                            // so a long run's watchdog state stays bounded.
                            warned.retain(|op, _| stuck.iter().any(|s| s.op == *op));
                            for s in &stuck {
                                let age = now_ns.saturating_sub(s.since.0);
                                let stage = warned.entry(s.op).or_insert(0);
                                if *stage == 0 && age > STUCK_WARN_NS {
                                    *stage = 1;
                                    eprintln!("[cx-mon] {s} ({:.1}s wall)", age as f64 / 1e9);
                                } else if *stage == 1 && age > STUCK_ESCALATE_NS {
                                    *stage = 2;
                                    eprintln!(
                                        "[cx-mon] STILL STUCK: {s} ({:.1}s wall; \
                                         shepherd backstop imminent)",
                                        age as f64 / 1e9
                                    );
                                }
                            }
                        }
                        LiveMetrics::write_files(&reg, &out);
                        thread::sleep(period);
                    }
                })
                .expect("spawn live monitor"),
        )
    });

    let client_counts = Arc::new(Mutex::new([0u64; MsgKind::COUNT]));
    let client_msgs = Arc::new(AtomicU64::new(0));
    let net = ClientNet {
        conn: Arc::clone(&conn),
        epoch,
        counts: Arc::clone(&client_counts),
        client_msgs: Arc::clone(&client_msgs),
        obs: opts.obs.clone(),
    };
    let drill = opts.drop_conns_after_ops.map(|after| {
        Arc::new(DropDrill {
            after,
            fired: AtomicBool::new(false),
            done_ops: AtomicU64::new(0),
            conn: Arc::clone(&conn),
            servers: cfg.servers,
        })
    });

    // Shepherd threads, sharing one locked feed over the stream.
    let outcomes = Arc::new(Mutex::new(Vec::<(OpId, OpOutcome, bool)>::new()));
    let feed = Arc::new(Mutex::new(OpFeed::new(ops, processes, total_ops_hint)));
    let mut client_threads = Vec::new();
    for (i, rx) in feeds.into_iter().enumerate() {
        let clients: Vec<u32> = (i as u32..processes).step_by(shepherds).collect();
        let net = net.clone();
        let cfg = cfg.clone();
        let outcomes = Arc::clone(&outcomes);
        let feed = Arc::clone(&feed);
        let obs = opts.obs.clone();
        let reg = live_reg.clone();
        let drill = drill.clone();
        client_threads.push(
            thread::Builder::new()
                .name(format!("cx-cli{i}"))
                .spawn(move || {
                    shepherd_loop(
                        clients, feed, rx, shepherds, net, &cfg, placement, outcomes, obs, reg,
                        drill,
                    )
                })
                .expect("spawn client shepherd"),
        );
    }
    let mut leftover_inbound = None;
    for t in client_threads {
        if let Some(rx) = t.join().expect("client thread panicked") {
            leftover_inbound = Some(rx);
        }
    }

    // Direct mode hands the inbound back once the last op completes; the
    // pump starts now so the drain/stop exchanges below still reach
    // `ctrl_rx` (no protocol traffic remains — an empty shepherd-channel
    // list is fine).
    let pump = match pump {
        Some(h) => h,
        None => spawn_pump(
            leftover_inbound.expect("single shepherd hands back the inbound receiver"),
            opts.obs.clone(),
            Vec::new(),
            ctrl_tx,
            conn.batch_pool_handle(),
            epoch,
            1,
        ),
    };
    // Drain: quiesce rounds over the wire until every server reports
    // quiesced (tokens tie probe replies to their round, so a straggling
    // reply from a timed-out round cannot satisfy a later one).
    let server_nodes: Vec<NodeId> = (0..cfg.servers).map(NodeId::Server).collect();
    // Every probe round trip doubles as an NTP-style clock-offset sample
    // (`t0` at send, the server's echoed stamp, `t3` at receipt): the
    // min-RTT estimate per server later pulls that process's span shard
    // and flush-span stamps onto the coordinator's clock. Loopback servers
    // share our epoch, so their measured offsets are ~0 — harmless.
    let mut clock_sync: HashMap<NodeId, ClockSync> = HashMap::new();
    for round in 0..200u64 {
        for &s in &server_nodes {
            let _ = conn.send(s, Frame::Quiesce);
        }
        thread::sleep(Duration::from_micros(200));
        let mut pending: HashMap<NodeId, u64> = server_nodes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, round * 4096 + i as u64))
            .collect();
        for (&s, &token) in &pending {
            let _ = conn.send(
                s,
                Frame::Probe {
                    token,
                    t0_ns: conn.now_ns(),
                },
            );
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut all = true;
        while !pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                all = false;
                break;
            }
            match ctrl_rx.recv_timeout(left) {
                Ok((
                    node,
                    Frame::ProbeResp {
                        token,
                        quiesced,
                        echo_t0_ns,
                        remote_ns,
                    },
                )) => {
                    let t3 = conn.now_ns();
                    let (rtt, offset) = clock_sync
                        .entry(node)
                        .or_default()
                        .sample(echo_t0_ns, remote_ns, t3);
                    conn.note_rtt(node, rtt, offset);
                    if pending.get(&node) == Some(&token) {
                        pending.remove(&node);
                        if !quiesced {
                            all = false;
                        }
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    all = false;
                    break;
                }
            }
        }
        if all && pending.is_empty() {
            break;
        }
    }

    // Collect final state: Stop each server; its StopResp carries stats,
    // the store snapshot for the global atomicity check, and the node's
    // wall-clock telemetry (span shard, wire histograms, per-peer rows).
    let mut stats = RunStats::new(cfg.protocol, cfg.servers, processes);
    let mut flat = [0u64; MsgKind::COUNT];
    let mut stores = Vec::new();
    let mut telem = conn.telemetry();
    let mut net_rows: Vec<NetPeerRow> = Vec::new();
    for &s in &server_nodes {
        let _ = conn.send(s, Frame::Stop);
    }
    let mut awaiting: HashSet<NodeId> = server_nodes.iter().copied().collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !awaiting.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        let (node, frame) = ctrl_rx
            .recv_timeout(left)
            .expect("server final state over TCP");
        if let Frame::StopResp {
            stats_json,
            inodes,
            dentries,
        } = frame
        {
            if !awaiting.remove(&node) {
                continue;
            }
            let text = String::from_utf8(stats_json).expect("stats json is utf-8");
            let report: WireReport = serde_json::from_str(&text).expect("stats json parses");
            stats.server_stats.merge(&report.stats);
            stats.proto.merge(&report.proto);
            for (slot, n) in flat.iter_mut().zip(report.msgs.iter()) {
                *slot += n;
            }
            stats.server_msgs += report.server_msgs;
            stats.client_msgs += report.client_msgs;
            // Stitch the node's wall-clock telemetry onto our timeline:
            // the quiesce probes' min-RTT estimate says how far its clock
            // (= process epoch) sits from ours.
            let offset = clock_sync
                .get(&node)
                .and_then(|s| s.estimate())
                .map_or(0, |e| e.offset_ns);
            if !report.spans.is_empty() || !report.edges.is_empty() {
                opts.obs.absorb_shard(&report.spans, &report.edges, offset);
            }
            telem.merge(&report.telem, offset);
            let on = format!("{node}");
            for (peer, h) in &report.peers {
                net_rows.push(peer_row(&on, peer, h));
            }
            stores.push(rebuild_store(inodes, dentries));
        }
    }

    for (slot, n) in flat.iter_mut().zip(client_counts.lock().iter()) {
        *slot += n;
    }
    stats.client_msgs += client_msgs.load(Ordering::Relaxed);
    for (kind, &n) in MsgKind::ALL.iter().zip(&flat) {
        if n > 0 {
            stats.msgs.insert(*kind, n);
        }
    }
    for (_, outcome, cross) in outcomes.lock().iter() {
        stats.record_outcome(*outcome);
        stats.ops_total += 1;
        if *cross {
            stats.cross_ops += 1;
        }
    }
    // Refresh the hang diagnostics now the run is over: anything still shy
    // of `Replied` here is genuinely stuck (the watchdog's mid-run
    // snapshots were transient and are overwritten by this read).
    stats.stuck_ops = opts.obs.stuck_report();
    stats.ops_stuck = stats.ops_stuck.max(stats.stuck_ops.len() as u64);
    // Blame attribution runs after the shard absorb above, so the table
    // covers the stitched, offset-corrected span plane.
    stats.blame = opts.obs.blame_table();
    if let Some(l) = &opts.live {
        stats.proto.publish(&l.registry);
        // The merged wire histograms land once, at the end: the series
        // carry per-flush samples from every node, which no periodic
        // monitor delta could reconstruct.
        observe_wire_series(&l.registry, &telem);
        monitor_stop.store(true, Ordering::Relaxed);
        if let Some(t) = monitor_thread {
            let _ = t.join();
        }
        // Final exposition carries whole-run average wire rates (the
        // per-period gauge from the monitor would be a stale last sample).
        let wall = start.elapsed().as_secs_f64();
        if wall > 0.0 {
            let tot = sum_wire(&wire_conns);
            let avg = |n: u64| (n as f64 / wall).round() as u64;
            l.registry
                .set_gauge(Gauge::WireFramesPerSec, avg(tot.frames));
            l.registry.set_gauge(Gauge::WireBytesPerSec, avg(tot.bytes));
            l.registry
                .set_gauge(Gauge::WireFlushesPerSec, avg(tot.flushes));
        }
        if let Some(out) = &l.out {
            LiveMetrics::write_files(&l.registry, out);
        }
    }

    let violations = GlobalView::merge(stores.iter()).check(&roots);
    let reconnects = conn.reconnects_total();
    let health = conn.health_all();
    let wire = sum_wire(&wire_conns);
    let on = format!("{}", conn.me());
    for (peer, h) in &health {
        net_rows.push(peer_row(&on, &format!("{peer}"), h));
    }

    conn.shutdown();
    drop(net);
    drop(drill);
    // Every manager handle must go before the pump can observe the
    // inbound channel disconnect.
    drop(wire_conns);
    drop(conn);
    let _ = pump.join();
    for t in server_threads {
        let _ = t.join();
    }

    TcpRunResult {
        stats,
        violations,
        wall: start.elapsed(),
        reconnects,
        health,
        wire,
        telem,
        net: NetTable { rows: net_rows },
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::BatchTrigger;
    use cx_workloads::{TraceBuilder, TraceProfile};

    fn fast_cfg(servers: u32, protocol: Protocol) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(servers, protocol);
        // wall-clock triggers must be short in tests
        cfg.cx.trigger = BatchTrigger::Timeout {
            period_ns: 5_000_000, // 5 ms
        };
        cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
        cfg
    }

    #[test]
    fn tcp_loopback_trace_replay_is_consistent() {
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.001)
            .build();
        let res = TcpCluster::run(fast_cfg(4, Protocol::Cx), &trace);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, trace.ops.len() as u64);
        assert!(res.stats.server_stats.ops_committed > 0);
        assert!(res.stats.total_msgs() > 0, "messages crossed real sockets");
    }

    #[test]
    fn tcp_reconnect_drill_completes_losslessly() {
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.001)
            .build();
        let opts = TcpOptions {
            drop_conns_after_ops: Some(20),
            ..TcpOptions::default()
        };
        let res = TcpCluster::run_stream_opts(fast_cfg(4, Protocol::Cx), trace.to_stream(), opts);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, trace.ops.len() as u64);
        assert!(
            res.reconnects >= 1,
            "the drill must force at least one re-dial"
        );
    }

    #[test]
    fn tcp_loopback_spans_are_complete_and_monotone() {
        // Wall-clock span coverage on the loopback plane: every op the
        // trace issued must come back with a merged span whose stamps are
        // monotone along the phase order and which reached `Completed`
        // (the protocol ack). The flush telemetry and the net table ride
        // on the same run.
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.001)
            .build();
        let sink = ObsSink::recording("cx");
        let opts = TcpOptions {
            obs: sink.clone(),
            net: PlaneConfig {
                record_flush_spans: true,
                ..PlaneConfig::default()
            },
            ..TcpOptions::default()
        };
        let res = TcpCluster::run_stream_opts(fast_cfg(3, Protocol::Cx), trace.to_stream(), opts);
        assert_eq!(res.violations, vec![]);
        let rep = sink.report().expect("recording sink yields a report");
        assert_eq!(rep.spans.len(), trace.ops.len());
        // Local ops finish at `Replied`; only cross ops go through the
        // decoupled commitment and earn a `Completed` stamp.
        let replied = rep
            .spans
            .iter()
            .filter(|s| s.at(Phase::Replied).is_some())
            .count();
        assert!(
            replied * 100 >= rep.spans.len() * 99,
            "{replied}/{} spans reached Replied",
            rep.spans.len()
        );
        let cross = rep.spans.iter().filter(|s| s.cross).count();
        let committed = rep
            .spans
            .iter()
            .filter(|s| s.cross && s.at(Phase::Completed).is_some())
            .count();
        assert!(
            cross > 0 && committed * 100 >= cross * 99,
            "{committed}/{cross} cross spans reached Completed"
        );
        // `check_accounting` enforces the client-visible prefix (Issued ≤
        // Dispatched ≤ Executed ≤ Replied, segments summing to the client
        // latency). The commitment phases run concurrently with the reply
        // and are deliberately not ordered against it.
        for s in &rep.spans {
            if let Err(e) = s.check_accounting() {
                panic!("span accounting: {e}");
            }
        }
        assert!(
            !res.telem.flush_spans.is_empty(),
            "wire flush spans recorded"
        );
        assert!(!res.net.rows.is_empty(), "net table populated");
        assert!(res.net.rows.iter().all(|r| r.frames > 0));
    }

    #[test]
    fn tcp_multiprocess_shape_in_threads() {
        // The external-address path, driven by in-process `serve_one`
        // nodes on their own threads: exercises the Peers gossip and the
        // wire-only stats/store collection that the `cx_net_server`
        // multi-process mode relies on.
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.0005)
            .build();
        let cfg = fast_cfg(2, Protocol::Cx);
        let (addr_tx, addr_rx) = unbounded();
        let mut nodes = Vec::new();
        for i in 0..cfg.servers {
            let cfg = cfg.clone();
            let seeds = trace.seeds.clone();
            let addr_tx = addr_tx.clone();
            nodes.push(thread::spawn(move || {
                serve_one(&cfg, ServerId(i), &seeds, |a| {
                    addr_tx.send((i, a)).unwrap();
                })
                .expect("serve_one binds");
            }));
        }
        let mut addrs = vec![None; cfg.servers as usize];
        for _ in 0..cfg.servers {
            let (i, a) = addr_rx.recv().unwrap();
            addrs[i as usize] = Some(a);
        }
        let addrs: Vec<SocketAddr> = addrs.into_iter().map(|a| a.unwrap()).collect();
        let res = TcpCluster::run_external(cfg, trace.to_stream(), &addrs, TcpOptions::default());
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, trace.ops.len() as u64);
        for t in nodes {
            t.join().unwrap();
        }
    }

    #[test]
    fn tcp_multiprocess_spans_stitch_across_nodes() {
        // The full cross-process tracing story in miniature: server nodes
        // run with their own epochs and shard-mode sinks, ship their span
        // shards in `StopResp`, and the coordinator stitches them into its
        // recording sink with the probe-measured clock offsets. Every op
        // must come out with a server-stamped `Executed` milestone that
        // lands between the coordinator-stamped `Issued` and `Replied`.
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.0005)
            .build();
        let cfg = fast_cfg(2, Protocol::Cx);
        let (addr_tx, addr_rx) = unbounded();
        let mut nodes = Vec::new();
        for i in 0..cfg.servers {
            let cfg = cfg.clone();
            let seeds = trace.seeds.clone();
            let addr_tx = addr_tx.clone();
            nodes.push(thread::spawn(move || {
                let sopts = ServeOptions {
                    obs: true,
                    net: PlaneConfig {
                        record_flush_spans: true,
                        ..PlaneConfig::default()
                    },
                    metrics_out: None,
                };
                serve_one_opts(&cfg, ServerId(i), &seeds, sopts, |a| {
                    addr_tx.send((i, a)).unwrap();
                })
                .expect("serve_one binds");
            }));
        }
        let mut addrs = vec![None; cfg.servers as usize];
        for _ in 0..cfg.servers {
            let (i, a) = addr_rx.recv().unwrap();
            addrs[i as usize] = Some(a);
        }
        let addrs: Vec<SocketAddr> = addrs.into_iter().map(|a| a.unwrap()).collect();
        let sink = ObsSink::recording("cx");
        let opts = TcpOptions {
            obs: sink.clone(),
            ..TcpOptions::default()
        };
        let res = TcpCluster::run_external(cfg, trace.to_stream(), &addrs, opts);
        assert_eq!(res.violations, vec![]);
        for t in nodes {
            t.join().unwrap();
        }
        let rep = sink.report().expect("recording sink yields a report");
        assert_eq!(rep.spans.len(), trace.ops.len());
        // Merge completeness: ≥99% of spans must come back with a
        // server-stamped Executed milestone absorbed from a shard.
        let stitched = rep
            .spans
            .iter()
            .filter(|s| {
                s.at(Phase::Executed).is_some() && s.server[Phase::Executed.index()] != u32::MAX
            })
            .count();
        assert!(
            stitched * 100 >= rep.spans.len() * 99,
            "{stitched}/{} spans carry a server-stamped Executed",
            rep.spans.len()
        );
        // Stitching sanity: the offset estimate is only good to ±rtt/2,
        // but the absorb clamp pins every shard stamp inside its causal
        // interval — at or after the preceding coordinator stamp, at or
        // before the following one — so the sandwich is unconditional.
        for s in &rep.spans {
            let (Some(issued), Some(exec), Some(replied)) = (
                s.at(Phase::Issued),
                s.at(Phase::Executed),
                s.at(Phase::Replied),
            ) else {
                continue;
            };
            assert!(
                issued <= exec && exec <= replied,
                "op {:?}: stitched Executed ({exec}) outside [{issued}, {replied}]",
                s.op
            );
        }
        // The stitched view also carries the servers' wire telemetry and
        // their per-peer health rows.
        assert!(res.net.rows.iter().any(|r| r.on.starts_with("srv")));
    }
}
