//! Connection management: one I/O thread per node, for both directions.
//!
//! Topology: every node runs one [`ConnectionManager`]. Connections are
//! simplex — a node dials out to write, and accepts to read. The first
//! frame on every connection is a [`Frame::Hello`] naming the dialer and
//! its own listen port, so the acceptor can attribute inbound frames and
//! learn the dial-back address without a rendezvous service.
//!
//! Per peer, the manager keeps a **bounded** outbound queue: when the peer
//! is slow (or reconnecting), `send` blocks the caller — the backpressure
//! policy, chosen over dropping because the protocol engines assume a
//! lossless transport (loss recovery belongs to the chaos plane). The I/O
//! thread never blocks; it stops admitting client work instead.
//!
//! **One writer per socket**: only the I/O thread dials or writes. `send`
//! queues the frame and hands the peer to the loop, waking it from another
//! thread; a served node's sends wait for the end of its turn. The peer's
//! writer drains the *entire* queue per round into one reusable scratch
//! buffer and one nonblocking `write` — one syscall per *batch*, so a burst
//! from any thread piles up behind the write in progress. A flush that
//! cannot finish (a full socket, a peer that is down, [`MAX_ROUNDS`] spent)
//! resumes on `POLLOUT` or re-dials with exponential backoff; no thread
//! blocks in a socket write. [`ConnectionManager::drop_connection`] queues a
//! kill behind the frames sent before it, so a connection closes at a frame
//! boundary, and a batch not yet written in full rides the next connection
//! generation: reconnects stay lossless and per-peer FIFO.
//!
//! The read side: the same thread `poll`s the listener and every accepted
//! socket, runs each `Hello` handshake as per-connection state (a silent
//! or garbage dialer delays nobody else), and hands every complete frame
//! of a `read` to the manager's [`Node`] as one batch: to a channel, or to
//! a served node — a server's engine, a client host — which then runs on
//! this thread, its sends flushed once per turn. Per node, only the
//! oldest connection is read, which keeps delivery FIFO across reconnects.

use crate::health::{PeerHealth, WireTotals};
use crate::wire::{encode_frame, write_frame, Frame, FrameBuffer};
use crate::{plock, NodeId};
use cx_obs::registry::Series;
use cx_obs::{correct_ns, FlushSpan, LogHistogram, NetPeerRow};
use cx_types::VecPool;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::ptr::null;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Encoded bytes gathered per flush round; a flush session with more
/// queued than this writes in several rounds.
const MAX_WRITE_BYTES: usize = 64 << 10;

/// Rounds one flush session runs before the writer waits on `POLLOUT`:
/// the I/O thread gets back to reading between rounds.
const MAX_ROUNDS: u32 = 64;

/// Outbound frames buffered per peer before `send` blocks (the
/// backpressure bound) or, past it on the I/O thread, admission closes.
const QUEUE_CAP: usize = 1024;

/// Size of each inbound connection's reusable receive buffer; each `read`
/// may yield many frames, which are decoded in place and delivered as one
/// batch.
const READ_BUF_BYTES: usize = 256 << 10;

/// Ceiling of the reconnect backoff, which starts at
/// [`PlaneConfig::backoff_base`] and doubles per consecutive failure.
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// How long a dial may wait for the peer's accept queue: the I/O thread
/// dials, and a full backlog must not stop it reading.
const DIAL_TIMEOUT: Duration = Duration::from_millis(100);

/// How long [`ConnectionManager::shutdown`] keeps writing to peers that
/// still take bytes; whatever is unsent then is dropped.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// Tuning knobs for the wire plane.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// First reconnect delay; doubles per consecutive failure up to
    /// [`BACKOFF_MAX`].
    pub backoff_base: Duration,
    /// Keep a per-flush [`FlushSpan`] log for the Perfetto trace (bounded;
    /// see [`FLUSH_SPAN_CAP`]). The telemetry histograms are always on —
    /// only the span log, whose memory grows with the run, is gated.
    pub record_flush_spans: bool,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_millis(10),
            record_flush_spans: false,
        }
    }
}

/// Shared map of node → listen address. Pre-populated for in-process
/// clusters; learned from `Hello` handshakes and `Peers` gossip frames in
/// multi-process mode.
#[derive(Default)]
pub struct AddrBook {
    inner: Mutex<HashMap<NodeId, SocketAddr>>,
}

impl AddrBook {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn set(&self, node: NodeId, addr: SocketAddr) {
        plock(&self.inner).insert(node, addr);
    }
    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        plock(&self.inner).get(&node).copied()
    }
}

/// Pending outbound items for one peer, guarded by [`PeerShared::queue`]:
/// a frame, or `None` — a kill, which closes the connection once every
/// frame queued before it is written. `shutdown` turns every sender away.
#[derive(Default)]
struct PeerQueue {
    q: VecDeque<Option<Frame>>,
    shutdown: bool,
    /// The peer is with the I/O thread — in its ready list, or its writer
    /// busy — so a send need not hand it over again. The writer clears it
    /// when it finds the queue empty.
    handed: bool,
    /// A [`ConnectionManager::prime`] caller waits for the loop's dial.
    prime: bool,
}

/// One peer's outbound queue, shared by its senders and the I/O thread.
/// `room` wakes senders blocked on a full queue, and `prime` callers.
struct PeerShared {
    to: NodeId,
    queue: Mutex<PeerQueue>,
    room: Condvar,
    health: Arc<PeerHealth>,
}

/// From [`ConnectionManager::serve`]: the channel of the node it replaces,
/// and what builds the next one on the I/O thread.
type Serve = (InboundBatches, Box<dyn FnOnce() -> Box<dyn Node> + Send>);

/// What other threads hand the I/O thread — peers with something queued,
/// a node to serve — and the socket that wakes it.
struct Handoff {
    ready: Mutex<Vec<Arc<PeerShared>>>,
    serve: Mutex<Option<Serve>>,
    /// Write half of the I/O thread's wake pair (nonblocking). A byte means
    /// "look at `ready` and `serve`"; shutting its write half, "drain and exit".
    wake: UnixStream,
}

impl Handoff {
    /// Give `peer` to the I/O thread, whose writer flushes it next turn.
    /// The I/O thread passes `wake` false: it takes the set every turn.
    fn hand(&self, peer: &Arc<PeerShared>, wake: bool) {
        let mut ready = plock(&self.ready);
        ready.push(Arc::clone(peer));
        // The loop reads the wake socket dry before it takes the set, so
        // only the first entry needs a byte. A full socket holds a wakeup
        // already; a shut one's loop is draining and looks every pass.
        if wake && ready.len() == 1 {
            let _ = (&self.wake).write(&[0]);
        }
    }
}

/// Upper bound on retained [`FlushSpan`]s per manager (~40 B each). Past
/// it flushes still count in the histograms; only the trace log saturates,
/// with the overflow tallied in [`WireTelemetry::spans_dropped`].
pub const FLUSH_SPAN_CAP: usize = 1 << 16;

/// Live wall-clock telemetry shared by every peer of one manager: the
/// flush/queue/stall histograms (always on — one locked record per
/// *flush*, not per frame) and the optional per-flush span log. All stamps
/// are nanoseconds since the manager's `epoch`, so one process's spans are
/// directly comparable and cross-process ones differ by a probe-estimated
/// offset ([`crate::ClockSync`]).
struct TelemetryState {
    epoch: Instant,
    record_spans: bool,
    /// The histograms and spans. The I/O thread holds it from a write to
    /// the write's record, and the readers of the counters take it first:
    /// whoever saw a write's bytes arrive then sees the write counted.
    live: Mutex<WireTelemetry>,
}

/// A point-in-time copy of one manager's wall-clock wire telemetry — what
/// [`ConnectionManager::telemetry`] returns and `StopResp` ships from
/// child processes. Histograms merge losslessly ([`LogHistogram::merge`]);
/// flush-span stamps are on the recording process's epoch clock and need
/// offset correction before cross-process comparison.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireTelemetry {
    pub queue_depth: LogHistogram,
    pub flush_frames: LogHistogram,
    pub flush_latency_ns: LogHistogram,
    pub stall_ns: LogHistogram,
    pub flush_spans: Vec<FlushSpan>,
    /// Flushes whose spans were discarded at [`FLUSH_SPAN_CAP`].
    pub spans_dropped: u64,
}

impl WireTelemetry {
    /// Fold another node's telemetry in. `offset_ns` is that node's clock
    /// offset (its clock minus ours, from [`crate::ClockSync`]): its
    /// flush-span stamps are pulled onto our clock before appending, so
    /// the merged span log shares one timeline. Histograms merge
    /// losslessly; offsets do not apply to them (durations and depths are
    /// clock-free).
    pub fn merge(&mut self, other: &WireTelemetry, offset_ns: i64) {
        self.queue_depth.merge(&other.queue_depth);
        self.flush_frames.merge(&other.flush_frames);
        self.flush_latency_ns.merge(&other.flush_latency_ns);
        self.stall_ns.merge(&other.stall_ns);
        self.spans_dropped += other.spans_dropped;
        self.flush_spans.extend(other.flush_spans.iter().map(|f| {
            let mut f = *f;
            f.start_ns = correct_ns(f.start_ns, offset_ns);
            f
        }));
    }

    /// The four histograms, each with the registry series it publishes as.
    pub fn series(&self) -> [(Series, &LogHistogram); 4] {
        [
            (Series::WireQueueDepth, &self.queue_depth),
            (Series::WireFlushFrames, &self.flush_frames),
            (Series::WireFlushLatencyNs, &self.flush_latency_ns),
            (Series::WireStallNs, &self.stall_ns),
        ]
    }
}

/// What a [`ConnectionManager`]'s I/O thread drives, with every batch it
/// reads and at the node's deadlines. A [`ConnectionManager::send`] made
/// there only queues; the loop flushes once per turn.
pub trait Node: Send {
    /// These frames arrived from `from`, in per-peer FIFO order. Take or
    /// drain all of them. False once the node is done: the loop then
    /// drains its outbound queues, exits and drops the node, and nothing
    /// sent later is written.
    fn on_frames(&mut self, from: NodeId, frames: &mut Vec<Frame>) -> bool;

    /// Fire what is due; return how long until the next deadline.
    fn on_due(&mut self) -> Option<Duration> {
        None
    }
}

impl<N: Node + ?Sized> Node for Box<N> {
    fn on_frames(&mut self, from: NodeId, frames: &mut Vec<Frame>) -> bool {
        (**self).on_frames(from, frames)
    }

    fn on_due(&mut self) -> Option<Duration> {
        (**self).on_due()
    }
}

/// The node [`ConnectionManager::start`] installs: each batch goes to the
/// channel it returns, the loop's vector replaced from the batch pool.
struct Forward(Sender<Batch>, Arc<Mutex<VecPool<Frame>>>);

impl Node for Forward {
    fn on_frames(&mut self, from: NodeId, frames: &mut Vec<Frame>) -> bool {
        let batch = std::mem::replace(frames, plock(&self.1).get());
        // A gone receiver means the node is going away; the frames too.
        let _ = self.0.send((from, batch));
        true
    }
}

/// One node's view of the wire: one I/O thread that reads every inbound
/// connection, drives the node and writes every outbound one.
pub struct ConnectionManager {
    /// Shared with the I/O thread.
    origin: Arc<Origin>,
    listen_addr: SocketAddr,
    peers: Mutex<HashMap<NodeId, Arc<PeerShared>>>,
    /// Every peer's counters, by node. Unlike `peers`, which `shutdown()`
    /// drains so the sockets close, these outlive the run.
    health: Mutex<BTreeMap<NodeId, Arc<PeerHealth>>>,
    shutdown: AtomicBool,
    /// The I/O thread. Its node owns the inbound channel's only sender, so
    /// joining it in [`Self::shutdown`] disconnects the receiver once the
    /// frames already queued are drained.
    io: Mutex<Option<JoinHandle<()>>>,
    io_id: ThreadId,
    handoff: Arc<Handoff>,
    /// Freelist for inbound batch vectors: the forwarding node draws,
    /// consumers return via [`ConnectionManager::recycle_batch`].
    batch_pool: Arc<Mutex<VecPool<Frame>>>,
}

/// The merged inbound stream a manager returns from [`ConnectionManager::start`]:
/// one `(sender, frames)` batch per reader `read`, in per-peer FIFO order.
pub type InboundBatches = Receiver<Batch>;
type Batch = (NodeId, Vec<Frame>);

impl ConnectionManager {
    /// Bind a loopback listener and start accepting. Returns the manager
    /// and the merged inbound channel: `(peer, frames)` batches — every
    /// frame any peer sends us, in per-peer FIFO order, possibly many per
    /// delivery (the `Hello` handshake itself is consumed internally).
    pub fn start(
        me: NodeId,
        book: Arc<AddrBook>,
        cfg: PlaneConfig,
    ) -> io::Result<(Self, InboundBatches)> {
        Self::start_with_epoch(me, book, cfg, Instant::now())
    }

    /// [`Self::start`] with an explicit telemetry epoch: all wall-clock
    /// stamps (flush spans, probe timestamps via [`Self::now_ns`]) are
    /// nanoseconds since `epoch`. Loopback clusters pass one shared epoch
    /// so every node's stamps are directly comparable; separate processes
    /// pass their own start instant and reconcile via probe-estimated
    /// clock offsets.
    pub fn start_with_epoch(
        me: NodeId,
        book: Arc<AddrBook>,
        cfg: PlaneConfig,
        epoch: Instant,
    ) -> io::Result<(Self, InboundBatches)> {
        // Loopback only: the I/O loop's read order across reconnects
        // relies on it (see `io_loop`).
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let listen_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake, wake_rx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let handoff = Arc::new(Handoff {
            ready: Mutex::default(),
            serve: Mutex::default(),
            wake,
        });
        let (tx, inbound_rx) = channel();
        let batch_pool: Arc<Mutex<VecPool<Frame>>> = Arc::new(Mutex::new(VecPool::default()));
        let forward = Box::new(Forward(tx, Arc::clone(&batch_pool)));
        let origin = Arc::new(Origin {
            me,
            listen_port: listen_addr.port(),
            book,
            backoff_base: cfg.backoff_base,
            telem: TelemetryState {
                epoch,
                record_spans: cfg.record_flush_spans,
                live: Mutex::default(),
            },
        });
        let (o, h) = (Arc::clone(&origin), Arc::clone(&handoff));
        let io = thread::Builder::new()
            .name("cx-io".into())
            .spawn(move || io_loop(listener, &wake_rx, forward, &o, &h))?;

        Ok((
            Self {
                origin,
                listen_addr,
                peers: Mutex::new(HashMap::new()),
                health: Mutex::default(),
                shutdown: AtomicBool::new(false),
                io_id: io.thread().id(),
                io: Mutex::new(Some(io)),
                handoff,
                batch_pool,
            },
            inbound_rx,
        ))
    }

    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    pub fn me(&self) -> NodeId {
        self.origin.me
    }

    /// The shared address book this manager dials through (peer-map
    /// gossip writes learned addresses here).
    pub fn book(&self) -> &AddrBook {
        &self.origin.book
    }

    /// Hand this node's inbound to the node `build` returns, in place of
    /// the channel [`Self::start`] returned: the I/O thread builds it and
    /// drives it, starting with the batches still queued on `inbound`.
    pub fn serve<N: Node + 'static>(
        &self,
        inbound: InboundBatches,
        build: impl FnOnce() -> N + Send + 'static,
    ) {
        let build = Box::new(move || Box::new(build()) as Box<dyn Node>);
        *plock(&self.handoff.serve) = Some((inbound, build));
        let _ = (&self.handoff.wake).write(&[0]);
    }

    /// Queue a frame for `to`, for the I/O thread to write. Blocks when the
    /// peer's outbound queue is full (backpressure), except on the I/O
    /// thread, where a send only queues until the turn ends (see
    /// [`io_loop`]). Errors only if the manager is shut down.
    pub fn send(&self, to: NodeId, frame: Frame) -> Result<(), &'static str> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err("connection manager is shut down");
        }
        self.push(&self.peer(to), Some(frame))
    }

    /// Queue `item` (a frame, or a kill) on `peer`; if its writer is idle,
    /// hand the peer to the I/O thread, waking it unless that is the caller.
    fn push(&self, peer: &Arc<PeerShared>, item: Option<Frame>) -> Result<(), &'static str> {
        let on_loop = thread::current().id() == self.io_id;
        // Time only real backpressure stalls: the common uncontended send
        // never reads the clock.
        let mut waited: Option<Instant> = None;
        let hand = {
            let mut q = plock(&peer.queue);
            while q.q.len() >= QUEUE_CAP && !q.shutdown && !on_loop {
                waited.get_or_insert_with(Instant::now);
                q = peer.room.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.shutdown {
                return Err("connection manager is shut down");
            }
            q.q.push_back(item);
            peer.health.note_queue_depth(q.q.len() as u64);
            !std::mem::replace(&mut q.handed, true)
        };
        if let Some(w) = waited {
            let stall = w.elapsed().as_nanos() as u64;
            plock(&self.origin.telem.live).stall_ns.record(stall);
        }
        if hand {
            self.handoff.hand(peer, !on_loop);
        }
        Ok(())
    }

    /// Eagerly establish the connection to `to` (the I/O thread dials and
    /// sends the `Hello`) without queueing a frame, and return once it has,
    /// so the first real send doesn't pay the connect + handshake on the
    /// critical path. A dial failure is not an error: the normal lazy
    /// dial-with-backoff path simply runs when the first frame goes out.
    pub fn prime(&self, to: NodeId) {
        if self.shutdown.load(Ordering::Relaxed) || to == self.origin.me {
            return;
        }
        let peer = self.peer(to);
        plock(&peer.queue).prime = true;
        let on_loop = thread::current().id() == self.io_id;
        self.handoff.hand(&peer, !on_loop);
        // On the loop the dial waits for the turn's end.
        let mut q = plock(&peer.queue);
        while q.prime && !q.shutdown && !on_loop {
            q = peer.room.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hand a drained inbound batch back to the reader freelist, keeping
    /// its capacity. Optional — dropping the vector is merely an
    /// allocation, not an error.
    pub fn recycle_batch(&self, batch: Vec<Frame>) {
        plock(&self.batch_pool).put(batch);
    }

    /// The outbound side for `to`, created on first use.
    fn peer(&self, to: NodeId) -> Arc<PeerShared> {
        let mut peers = plock(&self.peers);
        let shared = peers.entry(to).or_insert_with(|| {
            Arc::new(PeerShared {
                to,
                queue: Mutex::default(),
                room: Condvar::new(),
                health: Arc::clone(plock(&self.health).entry(to).or_default()),
            })
        });
        Arc::clone(shared)
    }

    /// Close the connection to `to` once every frame sent before this call
    /// is written; the next frame re-dials. No frames are lost: the close
    /// falls at a frame boundary, the peer reads to EOF, and frames sent
    /// after it ride the next connection generation. False if this node
    /// never sent to `to`.
    pub fn drop_connection(&self, to: NodeId) -> bool {
        let peer = plock(&self.peers).get(&to).cloned();
        peer.is_some_and(|p| self.push(&p, None).is_ok())
    }

    /// Every peer this node has written to, in node order, with its
    /// net-table row as this node sees it. The rows survive `shutdown()`;
    /// their probe columns are empty (see [`crate::ClockSync::fill`]).
    pub fn net_rows(&self) -> Vec<(NodeId, NetPeerRow)> {
        let on = self.origin.me.to_string();
        drop(plock(&self.origin.telem.live)); // a write in progress is counted first
        plock(&self.health)
            .iter()
            .map(|(n, h)| (*n, h.row(on.clone(), n.to_string())))
            .collect()
    }

    /// Frames/bytes/flushes this node ever wrote, summed over its peers'
    /// counters — the numerators for the wire-throughput rates the
    /// metrics plane exposes. Survives `shutdown()`.
    pub fn wire_totals(&self) -> WireTotals {
        let mut t = WireTotals::default();
        drop(plock(&self.origin.telem.live)); // a write in progress is counted first
        for h in plock(&self.health).values() {
            t.add(h.totals());
        }
        t
    }

    /// Successful re-dials summed over every peer (0 for a run where no
    /// connection was ever lost). Survives `shutdown()`.
    pub fn reconnects_total(&self) -> u64 {
        plock(&self.health).values().map(|h| h.reconnects()).sum()
    }

    /// Nanoseconds since this manager's telemetry epoch — the wall clock
    /// every flush span and probe timestamp is stamped on.
    pub fn now_ns(&self) -> u64 {
        crate::clock::ns_since(self.origin.telem.epoch)
    }

    /// A point-in-time copy of the wall-clock wire telemetry: the
    /// flush/queue/stall histograms plus the flush-span log (when
    /// [`PlaneConfig::record_flush_spans`] is set). Spans accumulated so
    /// far are *cloned*, not drained — calling twice is idempotent.
    pub fn telemetry(&self) -> WireTelemetry {
        plock(&self.origin.telem.live).clone()
    }

    /// Turn every sender away, let the I/O thread drain each outbound queue
    /// until it is empty, its peer is unreachable or [`DRAIN_DEADLINE`]
    /// passes, and join it — so it returns even behind a peer that never
    /// reads. The thread then closes every socket and disconnects the
    /// inbound channel, so its consumer sees the end of the run.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let Some(io) = plock(&self.io).take() else {
            return;
        };
        for (_, p) in plock(&self.peers).drain() {
            plock(&p.queue).shutdown = true;
            p.room.notify_all();
            self.handoff.hand(&p, true);
        }
        // EOF on the wake socket starts the drain; shutting a socket's
        // write half cannot fail the way a dial can.
        let _ = self.handoff.wake.shutdown(Shutdown::Write);
        // A node that dropped the last handle runs this on the I/O thread.
        if thread::current().id() != self.io_id {
            let _ = io.join();
        }
    }
}

impl Drop for ConnectionManager {
    /// A dropped manager must not leak its I/O thread — a caller need not
    /// call [`Self::shutdown`] explicitly. Idempotent.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Who the I/O thread's writers dial as, where they look peers up, and
/// where the manager records its wire telemetry.
struct Origin {
    me: NodeId,
    listen_port: u16,
    book: Arc<AddrBook>,
    backoff_base: Duration,
    telem: TelemetryState,
}

/// One peer's writer, owned by the I/O thread — the only thread that dials
/// or writes its socket. Invariants:
///
/// * `scratch` is exactly the encoding of the `frames` drained from the
///   queue and not yet written in full; `written` is how much of it the
///   current connection took. A short write resumes there; a failed one
///   resets it to 0, and the next generation resends every byte.
/// * A kill closes the connection only while `frames` is 0, a frame
///   boundary, so the peer's reader drains to EOF between frames.
/// * The loop resumes the flush when `fd` (the socket, while a write
///   waits on it; else -1) turns writable or `due` comes: this turn, or
///   the next dial. A writer with neither is idle, its flush finished.
struct Writer {
    peer: Arc<PeerShared>,
    conn: Option<TcpStream>,
    ever_connected: bool,
    frames: u64,
    scratch: Vec<u8>,
    written: usize,
    /// When this connection was first offered this batch: a flush's
    /// latency spans its stalls.
    write_t0: Option<Instant>,
    /// No dial before this instant (the last failure's backoff).
    next_dial_at: Option<Instant>,
    /// The next failure's backoff: doubles, and resets once a batch is out.
    backoff: Duration,
    fd: RawFd,
    due: Option<Instant>,
    /// Another thread handed this flush over: yield before each round, so
    /// a sender sharing the core is not preempted after every frame.
    yielding: bool,
}

impl Writer {
    /// A writer for `peer`, due `now`: it was handed over with work.
    fn new(peer: Arc<PeerShared>, o: &Origin, now: Instant, yielding: bool) -> Self {
        Self {
            peer,
            conn: None,
            ever_connected: false,
            frames: 0,
            scratch: Vec::with_capacity(MAX_WRITE_BYTES),
            written: 0,
            write_t0: None,
            next_dial_at: None,
            backoff: o.backoff_base,
            fd: -1,
            due: Some(now),
            yielding,
        }
    }

    /// Answer a waiting [`ConnectionManager::prime`], flush, and set what
    /// the writer waits on next. Draining, a peer that cannot be reached
    /// goes idle, its frames dropped with it.
    fn resume(&mut self, o: &Origin, draining: bool, now: Instant) {
        self.prime(o);
        (self.fd, self.due) = (-1, None);
        if self.flush(o, !draining) {
            match &self.conn {
                Some(c) => self.fd = c.as_raw_fd(),
                None if draining => {}
                None => self.due = self.next_dial_at.or(Some(now)),
            }
        }
    }

    /// Gather, encode and write until the queue is empty or the flush
    /// stalls: true with work left — the socket is full, the peer is down
    /// or [`MAX_ROUNDS`] ran out. Only the shutdown drain clears
    /// `pace_dials` to ignore `next_dial_at`.
    fn flush(&mut self, o: &Origin, pace_dials: bool) -> bool {
        for _ in 0..MAX_ROUNDS {
            if self.yielding {
                thread::yield_now();
            }
            if !self.gather(o) {
                self.yielding = false;
                return false;
            }
            if self.conn.is_none() {
                if pace_dials && self.next_dial_at.is_some_and(|at| Instant::now() < at) {
                    return true;
                }
                if self.dial(o).is_err() {
                    self.failed();
                    return true;
                }
            }
            let t0 = *self.write_t0.get_or_insert_with(Instant::now);
            // Held from the write to its record (see `TelemetryState::live`).
            let mut live = plock(&o.telem.live);
            match self.write_rest() {
                // The socket is full: `POLLOUT` resumes at `written`.
                Ok(false) => return true,
                Ok(true) => {
                    self.record(o, &mut live, t0);
                    self.frames = 0;
                    self.scratch.clear();
                    self.backoff = o.backoff_base;
                }
                // The scratch stays intact: the next generation resends
                // the identical bytes.
                Err(_) => self.conn = None,
            }
            drop(live);
            self.written = 0;
            self.write_t0 = None;
            if self.conn.is_none() {
                self.failed();
                return true;
            }
        }
        true
    }

    /// Move queued frames into the batch, encoding each into `scratch`
    /// back-to-back, up to the write cap. A kill at the head of the queue
    /// closes the connection once the batch ahead of it is out. False when
    /// there is nothing to write.
    fn gather(&mut self, o: &Origin) -> bool {
        let mut q = plock(&self.peer.queue);
        let depth = q.q.len();
        while self.scratch.len() < MAX_WRITE_BYTES {
            match q.q.pop_front() {
                Some(Some(f)) => {
                    encode_frame(&f, &mut self.scratch);
                    self.frames += 1;
                }
                Some(None) if self.frames == 0 => self.conn = None,
                Some(None) => {
                    q.q.push_front(None);
                    break;
                }
                None => break,
            }
        }
        if q.q.len() < depth {
            self.peer.room.notify_all();
        }
        q.handed = self.frames > 0;
        drop(q);
        // Sample the pre-gather backlog (outside the queue lock; zero
        // depths are the terminating empty checks, not signal).
        if depth > 0 {
            plock(&o.telem.live).queue_depth.record(depth as u64);
        }
        self.frames > 0
    }

    /// Offer the rest of the batch to the connection without blocking:
    /// `Ok(true)` once all of `scratch` is written, `Ok(false)` when the
    /// socket is full.
    fn write_rest(&mut self) -> io::Result<bool> {
        let Some(stream) = self.conn.as_mut() else {
            return Err(io::ErrorKind::NotConnected.into());
        };
        while self.written < self.scratch.len() {
            match stream.write(&self.scratch[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Count the batch just written in full, in the peer's counters and in
    /// `telem` (the manager's, locked): its size, latency and span.
    fn record(&self, o: &Origin, telem: &mut WireTelemetry, t0: Instant) {
        let (frames, bytes) = (self.frames, self.scratch.len() as u64);
        self.peer.health.note_flush(frames, bytes);
        let dur = t0.elapsed();
        telem.flush_frames.record(frames);
        telem.flush_latency_ns.record(dur.as_nanos() as u64);
        if !o.telem.record_spans {
            return;
        }
        if telem.flush_spans.len() < FLUSH_SPAN_CAP {
            telem.flush_spans.push(FlushSpan {
                from: o.me.flow(),
                to: self.peer.to.flow(),
                start_ns: t0.saturating_duration_since(o.telem.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                frames: frames.min(u32::MAX as u64) as u32,
                bytes: bytes.min(u32::MAX as u64) as u32,
            });
        } else {
            telem.spans_dropped += 1;
        }
    }

    /// A dial or write failed: count it, and back the next dial off.
    fn failed(&mut self) {
        self.peer.health.note_failure();
        self.next_dial_at = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
    }

    /// Connect to the peer and send the `Hello` handshake. On success the
    /// stream is stored in `conn`, nonblocking, and the dial throttle is
    /// cleared.
    fn dial(&mut self, o: &Origin) -> io::Result<()> {
        let Some(addr) = o.book.get(self.peer.to) else {
            return Err(io::ErrorKind::NotFound.into());
        };
        let mut stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
        stream.set_nodelay(true)?;
        let hello = Frame::Hello {
            node: o.me,
            listen_port: o.listen_port,
        };
        write_frame(&mut stream, &hello, &mut Vec::new())?;
        stream.set_nonblocking(true)?;
        if self.ever_connected {
            self.peer.health.note_reconnect();
        }
        self.ever_connected = true;
        self.next_dial_at = None;
        self.conn = Some(stream);
        Ok(())
    }

    /// If a [`ConnectionManager::prime`] waits, dial unless connected or
    /// backing off, then release its caller.
    fn prime(&mut self, o: &Origin) {
        if !plock(&self.peer.queue).prime {
            return;
        }
        if self.conn.is_none() && self.next_dial_at.is_none() {
            let _ = self.dial(o);
        }
        plock(&self.peer.queue).prime = false;
        self.peer.room.notify_all();
    }
}

/// How long an accepted connection may take to name itself with a `Hello`
/// before the I/O loop drops it — per connection, so a silent dialer costs
/// nobody else anything.
const HELLO_DEADLINE: Duration = Duration::from_secs(5);

/// Receive buffer of a connection still in its handshake. A `Hello` (13
/// bytes) fits many times over, so a full buffer without a complete frame
/// is not one; the buffer grows to [`READ_BUF_BYTES`] once it is.
const HELLO_BUF_BYTES: usize = 64;

/// How long the listener stays out of the poll set after an accept error
/// other than `WouldBlock` (fd exhaustion): the connection stays in the
/// backlog and keeps the listener readable, so retrying at once would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

// `ppoll(2)` on Linux, declared here: std already links libc. Its timeout,
// a `struct timespec` (two C `long`s), keeps a node's deadlines to the ns;
// `poll`'s whole milliseconds would fire a 5 ms timer up to 1 ms late.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

unsafe extern "C" {
    fn ppoll(fds: *mut PollFd, n: c_ulong, tmo: *const [c_long; 2], mask: *const c_void) -> c_int;
}

/// Add `fd` to the poll set; `poll` skips a negative one.
fn watch(fds: &mut Vec<PollFd>, fd: RawFd, events: c_short) {
    fds.push(PollFd {
        fd,
        events,
        revents: 0,
    });
}

/// Read the wake socket dry; true once its write half is shut.
fn wake_closed(mut wake: &UnixStream) -> bool {
    let mut buf = [0u8; 64];
    loop {
        match wake.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return e.kind() != io::ErrorKind::WouldBlock,
        }
    }
}

/// One accepted socket and its receive buffer.
struct Inbound {
    stream: TcpStream,
    fb: FrameBuffer,
}

impl Inbound {
    /// One nonblocking `read` into the buffer; false once the socket is
    /// finished (clean close at a frame boundary, or reset).
    fn fill(&mut self) -> bool {
        match self.fb.fill_from(&mut self.stream, 1) {
            Ok(n) => n > 0,
            Err(e) => e.kind() == io::ErrorKind::WouldBlock,
        }
    }
}

/// A node's inbound connections, oldest first: only `front` is read, and
/// each newer one takes over in turn once the one before it ends.
struct Reading {
    front: Inbound,
    newer: VecDeque<Inbound>,
    /// `front`'s place in this turn's poll set, if it is watched.
    slot: Option<usize>,
}

/// An accepted connection whose `Hello` has not arrived yet.
struct Pending {
    conn: Inbound,
    ip: IpAddr,
    deadline: Instant,
}

/// The node the loop drives and the batch it hands it; a done node hears
/// nothing more.
struct Driven {
    node: Box<dyn Node>,
    batch: Vec<Frame>,
    done: bool,
}

impl Driven {
    /// Hand the node every complete frame buffered on a connection from
    /// `from`; false on a malformed stream (the connection is dropped and
    /// its writer re-dials).
    fn deliver(&mut self, from: NodeId, conn: &mut Inbound) -> bool {
        let clean = conn.fb.drain_frames(&mut self.batch).is_ok();
        if !self.batch.is_empty() {
            self.done = self.done || !self.node.on_frames(from, &mut self.batch);
        }
        self.batch.clear();
        clean
    }
}

/// The node's one I/O thread. A turn hands its [`Node`] every batch read,
/// flushes every peer the node queued for, and sleeps until a socket is
/// ready or the first deadline: the node's, a dial's, a handshake's. Once
/// the node is done, or at shutdown, it drains every peer and returns.
///
/// Admission: the node's sends never wait, so only they take a queue past
/// [`QUEUE_CAP`], and a queue the turn's flush could not empty keeps its
/// writer busy. While one is over the cap, client hosts' connections go
/// unread — no new client operation is admitted — but servers' are read,
/// so admitted work completes. A queue stays within the cap plus one
/// `read`'s worth of frames per client host.
///
/// Order: it reads the listener, every connection still in its handshake
/// and, per node, only the oldest connection, so a newer one is read after
/// the older one's EOF and delivery stays FIFO across reconnects. Each
/// node's queue is in generation order because handshakes are read in
/// accept order and a dialer writes generation *k*'s `Hello` and closes
/// *k* before it dials *k+1*. That *k*'s bytes are then already on its
/// socket when *k+1*'s `Hello` is read holds because the listener is
/// loopback only, where a write is delivered in the writer's own send
/// path; it is an ordering of the kernel's, not one this loop enforces (a
/// deferred softirq plus a CPU migration between the two dials could
/// reorder them).
fn io_loop(
    listener: TcpListener,
    wake: &UnixStream,
    node: Box<dyn Node>,
    origin: &Origin,
    handoff: &Handoff,
) {
    let mut d = Driven {
        node,
        batch: Vec::new(),
        done: false,
    };
    let mut node_due: Option<Instant> = None;
    let mut pending: Vec<Pending> = Vec::new();
    let mut nodes: HashMap<NodeId, Reading> = HashMap::new();
    let mut writers: Vec<Writer> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut accept_paused: Option<Instant> = None;
    // The drain's deadline, once the node is done or the wake socket
    // reads EOF.
    let mut draining: Option<Instant> = None;
    let mut woken = false;
    loop {
        let now = Instant::now();
        if accept_paused.is_some_and(|until| now >= until) {
            accept_paused = None;
        }
        // Write side: every writer handed work (by any thread), whose
        // socket turned writable or whose time came, flushes.
        for peer in plock(&handoff.ready).drain(..) {
            match writers.iter_mut().find(|w| Arc::ptr_eq(&w.peer, &peer)) {
                Some(w) => (w.due, w.yielding) = (Some(now), w.yielding || woken),
                None => writers.push(Writer::new(peer, origin, now, woken)),
            }
        }
        for w in writers
            .iter_mut()
            .filter(|w| w.due.is_some_and(|t| t <= now))
        {
            w.resume(origin, draining.is_some(), now);
        }
        if draining.is_some_and(|deadline| {
            writers.iter().all(|w| w.fd < 0 && w.due.is_none()) || now >= deadline
        }) {
            // Dropping `writers` drops what is unsent and closes the
            // sockets; dropping the node disconnects its channel.
            return;
        }
        let admit = writers
            .iter()
            .filter(|w| w.fd >= 0 || w.due.is_some())
            .all(|w| plock(&w.peer.queue).q.len() <= QUEUE_CAP);
        // Poll set: [listener][wake][pending…][each node's oldest
        // connection…][each writer's socket…]; a paused listener, the
        // wake socket once draining, and a writer not waiting to write
        // are -1, which `ppoll` skips.
        fds.clear();
        let listen_fd = accept_paused.map_or(listener.as_raw_fd(), |_| -1);
        watch(&mut fds, listen_fd, POLLIN);
        watch(&mut fds, draining.map_or(wake.as_raw_fd(), |_| -1), POLLIN);
        for p in &pending {
            watch(&mut fds, p.conn.stream.as_raw_fd(), POLLIN);
        }
        for (peer, r) in &mut nodes {
            r.slot = None;
            if admit || matches!(peer, NodeId::Server(_)) {
                r.slot = Some(fds.len());
                watch(&mut fds, r.front.stream.as_raw_fd(), POLLIN);
            }
        }
        let first_out = fds.len();
        for w in &writers {
            watch(&mut fds, w.fd, POLLOUT);
        }
        // Sleep until something is readable or writable, a handshake runs
        // out, the listener's pause ends, a dial comes due, the node's
        // deadline comes or the drain's passes.
        let wake_at = pending
            .iter()
            .map(|p| p.deadline)
            .chain(accept_paused)
            .chain(draining)
            .chain(node_due)
            .chain(writers.iter().filter_map(|w| w.due));
        // The kernel saturates a `Duration::MAX` wait: no deadline.
        let left = wake_at.min().map_or(Duration::MAX, |at| {
            at.saturating_duration_since(Instant::now())
        });
        let tmo = [
            left.as_secs().min(c_long::MAX as u64) as c_long,
            left.subsec_nanos() as c_long,
        ];
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd records for the duration of the call.
        let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &tmo, null()) };
        if rc < 0 {
            continue; // EINTR
        }
        for (w, fd) in writers.iter_mut().zip(&fds[first_out..]) {
            if fd.revents != 0 {
                w.due = Some(now);
            }
        }
        let now = Instant::now();
        woken = fds[1].revents != 0;
        if woken {
            if wake_closed(wake) {
                draining.get_or_insert(now + DRAIN_DEADLINE);
            }
            // A served node starts with what the one it replaces forwarded.
            let served = plock(&handoff.serve).take();
            if let Some((inbound, build)) = served {
                d.node = build();
                while let Ok((from, mut frames)) = inbound.try_recv() {
                    d.done = d.done || !d.node.on_frames(from, &mut frames);
                }
            }
        }
        if fds[0].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            pending.push(Pending {
                                conn: Inbound {
                                    stream,
                                    fb: FrameBuffer::with_capacity(HELLO_BUF_BYTES),
                                },
                                ip: peer.ip(),
                                deadline: now + HELLO_DEADLINE,
                            });
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        accept_paused = Some(now + ACCEPT_RETRY);
                        break;
                    }
                }
            }
        }
        // Handshakes, in accept order, each read whether or not `poll`
        // flagged it: a dialer's generation *k* `Hello` is on its socket
        // before *k+1* connects, so reading them all in order registers
        // *k* first even when *k* turned readable after `poll` returned.
        for mut p in std::mem::take(&mut pending) {
            if !p.conn.fill() {
                continue; // closed before naming itself
            }
            match p.conn.fb.next_frame() {
                Ok(None) if now < p.deadline && p.conn.fb.pending() < HELLO_BUF_BYTES => {
                    pending.push(p)
                }
                Ok(Some(Frame::Hello { node, listen_port })) => {
                    if listen_port != 0 {
                        origin.book.set(node, SocketAddr::new(p.ip, listen_port));
                    }
                    p.conn.fb.reserve(READ_BUF_BYTES);
                    // Frames that rode in behind the `Hello` go out now
                    // only if no older connection from `node` is open.
                    match nodes.get_mut(&node) {
                        Some(r) => r.newer.push_back(p.conn),
                        None => {
                            if d.deliver(node, &mut p.conn) {
                                let newer = VecDeque::new();
                                let (front, slot) = (p.conn, None);
                                nodes.insert(node, Reading { front, newer, slot });
                            }
                        }
                    }
                }
                // Not a `Hello`, garbage, too long or out of time: dropped.
                _ => {}
            }
        }
        nodes.retain(|node, r| {
            if r.slot.is_none_or(|i| fds[i].revents == 0) {
                return true;
            }
            if r.front.fill() && d.deliver(*node, &mut r.front) {
                return true;
            }
            // The oldest connection is done: the next generation takes
            // over, starting with the frames buffered behind its `Hello`.
            while let Some(mut next) = r.newer.pop_front() {
                if d.deliver(*node, &mut next) {
                    r.front = next;
                    return true;
                }
            }
            false
        });
        if d.done {
            draining.get_or_insert(now + DRAIN_DEADLINE);
        }
        let due = if d.done { None } else { d.node.on_due() };
        node_due = due.map(|left| Instant::now() + left);
    }
}
