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
//! **Coalescing by lock combining**: after enqueuing, a sender tries the
//! peer's flush lock; whoever holds it drains the *entire* queue per round
//! into one reusable scratch buffer and hands that to one nonblocking
//! `write` — one syscall per *batch*, not per frame. Under load the holder
//! keeps absorbing frames that arrive mid-write; an idle peer's lone frame
//! goes out on its own sender at once. A flush that cannot finish — a full
//! socket, a peer that is down, or [`MAX_ROUNDS`] spent — goes to the I/O
//! thread, which resumes it on `POLLOUT` and re-dials with exponential
//! backoff. No thread blocks in a socket write, so the I/O thread never
//! stops reading because of one. A connection is closed only at a frame
//! boundary, and a batch not yet written in full rides the next connection
//! generation, so reconnects stay lossless and per-peer FIFO.
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
use crossbeam::channel::{unbounded, Receiver, Sender};
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Encoded bytes gathered per flush round; a flush session with more
/// queued than this writes in several rounds.
const MAX_WRITE_BYTES: usize = 64 << 10;

/// Rounds one flush session runs before the peer goes to the I/O thread:
/// a protocol thread is not conscripted as a peer's writer forever, and
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

/// How soon the draining I/O thread looks again at a peer whose flush
/// lock a sender held.
const DRAIN_RETRY: Duration = Duration::from_millis(1);

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

/// Pending outbound frames for one peer. Guarded by [`PeerShared::queue`];
/// `room` wakes senders blocked on a full queue, and `shutdown` turns them
/// and every later sender away.
#[derive(Default)]
struct PeerQueue {
    q: VecDeque<Frame>,
    shutdown: bool,
    /// A flush found the socket full: until the I/O thread resumes it on
    /// `POLLOUT`, senders only enqueue instead of retrying the write.
    parked: bool,
}

/// Connection + unflushed-batch state for one peer — the flush lock.
/// Invariants:
///
/// * `scratch` is exactly the encoding of `batch`, the frames drained from
///   the queue and not yet written in full; `written` is how much of it
///   the current connection took. A short write resumes there; a failed
///   one resets it to 0, and the next generation resends every byte.
/// * A kill closes the connection only while `written` is 0, a frame
///   boundary, so the peer's reader drains to EOF between frames.
/// * A holder of this lock finishes the flush (queue and batch empty at
///   release) or, after releasing it, hands the peer to the I/O thread.
#[derive(Default)]
struct FlushState {
    conn: Option<TcpStream>,
    ever_connected: bool,
    batch: VecDeque<Frame>,
    scratch: Vec<u8>,
    written: usize,
    /// When this connection was first offered this batch: a flush's
    /// latency spans its stalls.
    write_t0: Option<Instant>,
    hello_scratch: Vec<u8>,
    /// No dial before this instant (the last failure's backoff).
    next_dial_at: Option<Instant>,
    /// The next failure's backoff: doubles, and resets once a batch is out.
    backoff: Duration,
}

/// One peer's outbound side, shared by its senders and the I/O thread.
struct PeerShared {
    me: NodeId,
    to: NodeId,
    listen_port: u16,
    book: Arc<AddrBook>,
    backoff_base: Duration,
    queue: Mutex<PeerQueue>,
    room: Condvar,
    flush: Mutex<FlushState>,
    kill: AtomicBool,
    health: Arc<PeerHealth>,
    telem: Arc<TelemetryState>,
}

/// From [`ConnectionManager::serve`]: the channel of the node it replaces,
/// and what builds the next one on the I/O thread.
type Serve = (InboundBatches, Box<dyn FnOnce() -> Box<dyn Node> + Send>);

/// What other threads hand the I/O thread — peers whose flush they could
/// not finish, a node to serve — and the socket that wakes it.
struct Handoff {
    stalled: Mutex<Vec<Arc<PeerShared>>>,
    serve: Mutex<Option<Serve>>,
    /// Write half of the I/O thread's wake pair (nonblocking). A byte means
    /// "look at `stalled` and `serve`"; shutting its write half, "drain and exit".
    wake: UnixStream,
}

impl Handoff {
    /// Give `peer`'s flush to the I/O thread. Called only after releasing
    /// the peer's flush lock, so the thread's `try_lock` can take it. The
    /// I/O thread itself passes `wake` false: it takes the set every turn.
    fn stall(&self, peer: &Arc<PeerShared>, wake: bool) {
        let mut stalled = plock(&self.stalled);
        if stalled.iter().any(|p| Arc::ptr_eq(p, peer)) {
            return;
        }
        stalled.push(Arc::clone(peer));
        // The loop reads the wake socket dry before it takes the set, so
        // only the first entry needs a byte. A full socket holds a wakeup
        // already; a shut one's loop is draining and looks every pass.
        if wake && stalled.len() == 1 {
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
    /// The histograms and spans.
    live: Mutex<WireTelemetry>,
}

impl TelemetryState {
    fn note_queue_depth(&self, depth: u64) {
        plock(&self.live).queue_depth.record(depth);
    }

    /// Record the latency and size of a batch written in full.
    fn note_flush(&self, from: NodeId, to: NodeId, t0: Instant, frames: u64, bytes: u64) {
        let dur = t0.elapsed();
        let telem = &mut *plock(&self.live);
        telem.flush_frames.record(frames);
        telem.flush_latency_ns.record(dur.as_nanos() as u64);
        if !self.record_spans {
            return;
        }
        if telem.flush_spans.len() < FLUSH_SPAN_CAP {
            telem.flush_spans.push(FlushSpan {
                from: from.flow(),
                to: to.flow(),
                start_ns: t0.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                frames: frames.min(u32::MAX as u64) as u32,
                bytes: bytes.min(u32::MAX as u64) as u32,
            });
        } else {
            telem.spans_dropped += 1;
        }
    }

    fn note_stall(&self, dur: Duration) {
        plock(&self.live).stall_ns.record(dur.as_nanos() as u64);
    }
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
}

/// What a [`ConnectionManager`]'s I/O thread drives, with every batch it
/// reads and at the node's deadlines. A [`ConnectionManager::send`] made
/// there only queues; the loop flushes once per turn.
pub trait Node: Send {
    /// These frames arrived from `from`, in per-peer FIFO order. Take or
    /// drain all of them. False once the node is done: the loop then
    /// drains its outbound queues and exits, and drops the node.
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
/// connection, drives the node and finishes every flush a sender could not.
pub struct ConnectionManager {
    me: NodeId,
    listen_addr: SocketAddr,
    book: Arc<AddrBook>,
    backoff_base: Duration,
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
    /// Wall-clock flush/queue/stall telemetry, shared with every peer.
    telem: Arc<TelemetryState>,
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
            stalled: Mutex::default(),
            serve: Mutex::default(),
            wake,
        });
        let (tx, inbound_rx) = unbounded();
        let batch_pool: Arc<Mutex<VecPool<Frame>>> = Arc::new(Mutex::new(VecPool::default()));
        let forward = Box::new(Forward(tx, Arc::clone(&batch_pool)));
        let (b, h) = (Arc::clone(&book), Arc::clone(&handoff));
        let io = thread::Builder::new()
            .name("cx-io".into())
            .spawn(move || io_loop(listener, &wake_rx, forward, &b, &h))?;

        Ok((
            Self {
                me,
                listen_addr,
                book,
                backoff_base: cfg.backoff_base,
                peers: Mutex::new(HashMap::new()),
                health: Mutex::default(),
                shutdown: AtomicBool::new(false),
                io_id: io.thread().id(),
                io: Mutex::new(Some(io)),
                handoff,
                batch_pool,
                telem: Arc::new(TelemetryState {
                    epoch,
                    record_spans: cfg.record_flush_spans,
                    live: Mutex::default(),
                }),
            },
            inbound_rx,
        ))
    }

    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The shared address book this manager dials through (peer-map
    /// gossip writes learned addresses here).
    pub fn book(&self) -> &AddrBook {
        &self.book
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

    /// Queue a frame for `to`. Blocks when the peer's outbound queue is
    /// full (backpressure), except on the I/O thread, where a send only
    /// queues (see [`io_loop`]). Errors only if the manager is shut down.
    ///
    /// The sender then opportunistically becomes the peer's flusher: if
    /// the flush lock is free it drains the queue and writes inline (no
    /// thread handoff); if another thread holds it, that holder is
    /// guaranteed to pick this frame up — the `try_lock` happens inside
    /// the queue critical section, and a holder only releases the lock
    /// after observing an empty queue *under that same lock*, or hands
    /// the peer to the I/O thread, whose flush gathers the queue too.
    pub fn send(&self, to: NodeId, frame: Frame) -> Result<(), &'static str> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err("connection manager is shut down");
        }
        let shared = self.peer(to);
        let on_loop = thread::current().id() == self.io_id;
        let mut stalled: Option<Duration> = None;
        let flush = {
            let mut q = plock(&shared.queue);
            // Time only real backpressure stalls: the common uncontended
            // send never reads the clock.
            let mut waited: Option<Instant> = None;
            while q.q.len() >= QUEUE_CAP && !q.shutdown && !on_loop {
                waited.get_or_insert_with(Instant::now);
                q = shared.room.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(w) = waited {
                stalled = Some(w.elapsed());
            }
            if q.shutdown {
                return Err("connection manager is shut down");
            }
            q.q.push_back(frame);
            shared.health.note_queue_depth(q.q.len() as u64);
            // On the loop the frame just queues: the turn's end flushes
            // every peer its node queued for once, one write per peer. A
            // parked peer's queue is the I/O thread's to drain; otherwise
            // a current holder will observe this frame (see above).
            (!q.parked && !on_loop)
                .then(|| try_flush(&shared))
                .flatten()
        };
        if on_loop {
            self.handoff.stall(&shared, false);
        }
        if let Some(d) = stalled {
            shared.telem.note_stall(d);
        }
        if let Some(st) = flush {
            self.flush(&shared, st);
        }
        Ok(())
    }

    /// Eagerly establish the connection to `to` (dial, send the `Hello`)
    /// without queueing a frame, so the first real send doesn't pay the
    /// connect + handshake on the critical path. A dial failure is not an
    /// error: the normal lazy dial-with-backoff path simply runs when the
    /// first frame goes out.
    pub fn prime(&self, to: NodeId) {
        if self.shutdown.load(Ordering::Relaxed) || to == self.me {
            return;
        }
        let shared = self.peer(to);
        let mut st = plock(&shared.flush);
        if st.conn.is_none() && st.next_dial_at.is_none() {
            let _ = dial(&shared, &mut st);
        }
        // A lock holder finishes or hands off, so frames queued meanwhile
        // go out now.
        self.flush(&shared, st);
    }

    /// Run a flush session on a lock this thread holds; a flush that
    /// stalls goes to the I/O thread once the lock is released.
    fn flush(&self, shared: &Arc<PeerShared>, st: MutexGuard<'_, FlushState>) {
        if let Some(st) = flush_session(shared, st, true) {
            drop(st);
            self.handoff.stall(shared, true);
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
                me: self.me,
                to,
                listen_port: self.listen_addr.port(),
                book: Arc::clone(&self.book),
                backoff_base: self.backoff_base,
                queue: Mutex::default(),
                room: Condvar::new(),
                flush: Mutex::new(FlushState {
                    scratch: Vec::with_capacity(MAX_WRITE_BYTES),
                    backoff: self.backoff_base,
                    ..FlushState::default()
                }),
                kill: AtomicBool::new(false),
                health: Arc::clone(plock(&self.health).entry(to).or_default()),
                telem: Arc::clone(&self.telem),
            })
        });
        Arc::clone(shared)
    }

    /// Close the live connection to `to` at the next frame boundary; the
    /// next flush re-dials. No frames are lost: the close happens before
    /// any byte of a batch is written, the peer reads to EOF, and any
    /// coalesced-but-unflushed batch is re-encoded onto the next
    /// connection generation.
    pub fn drop_connection(&self, to: NodeId) -> bool {
        let peers = plock(&self.peers);
        let peer = peers.get(&to);
        peer.inspect(|p| p.kill.store(true, Ordering::Relaxed))
            .is_some()
    }

    /// Every peer this node has written to, in node order, with its
    /// net-table row as this node sees it. The rows survive `shutdown()`;
    /// their probe columns are empty (see [`crate::ClockSync::fill`]).
    pub fn net_rows(&self) -> Vec<(NodeId, NetPeerRow)> {
        let on = self.me.to_string();
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
        self.telem.epoch.elapsed().as_nanos() as u64
    }

    /// A point-in-time copy of the wall-clock wire telemetry: the
    /// flush/queue/stall histograms plus the flush-span log (when
    /// [`PlaneConfig::record_flush_spans`] is set). Spans accumulated so
    /// far are *cloned*, not drained — calling twice is idempotent.
    pub fn telemetry(&self) -> WireTelemetry {
        plock(&self.telem.live).clone()
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
            self.handoff.stall(&p, true);
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

/// Drain, encode and write until the queue is empty or the flush stalls.
/// Returns `None` once queue and batch are both empty, having released
/// the lock *inside* a queue critical section (the handshake that makes
/// `send`'s failed `try_lock` safe), or the still-held lock when the
/// socket is full, the peer is down or [`MAX_ROUNDS`] ran out. Only the
/// shutdown drain clears `pace_dials` to ignore [`FlushState::next_dial_at`].
fn flush_session<'a>(
    shared: &PeerShared,
    mut st: MutexGuard<'a, FlushState>,
    pace_dials: bool,
) -> Option<MutexGuard<'a, FlushState>> {
    let mut rounds = 0u32;
    loop {
        // Gather: move queued frames into the held batch, encoding each
        // into the scratch buffer back-to-back, up to the write cap.
        let gathered_depth: u64;
        {
            let mut q = plock(&shared.queue);
            gathered_depth = q.q.len() as u64;
            let mut took = false;
            while st.scratch.len() < MAX_WRITE_BYTES {
                let Some(f) = q.q.pop_front() else { break };
                encode_frame(&f, &mut st.scratch);
                st.batch.push_back(f);
                took = true;
            }
            if took {
                shared.room.notify_all();
            }
            if st.batch.is_empty() {
                // Nothing held and nothing queued: release the flush lock
                // while still holding the queue lock, so any sender whose
                // try_lock failed has either already enqueued (we'd see the
                // frame) or will acquire the flush lock itself.
                drop(st);
                return None;
            }
        }
        // Sample the pre-gather backlog (outside the queue lock; zero
        // depths are the terminating empty checks, not signal).
        if gathered_depth > 0 {
            shared.telem.note_queue_depth(gathered_depth);
        }
        if rounds == MAX_ROUNDS {
            return Some(st);
        }
        rounds += 1;
        // A kill (reconnect drill) closes the old connection at a frame
        // boundary; the held batch rides the next generation.
        if st.written == 0 && shared.kill.swap(false, Ordering::Relaxed) {
            st.conn = None;
        }
        if st.conn.is_none() {
            if pace_dials && st.next_dial_at.is_some_and(|at| Instant::now() < at) {
                return Some(st);
            }
            if dial(shared, &mut st).is_err() {
                failed(shared, &mut st);
                return Some(st);
            }
        }
        let t0 = *st.write_t0.get_or_insert_with(Instant::now);
        match write_rest(&mut st) {
            // The socket is full: the I/O thread resumes at `written`.
            Ok(false) => {
                plock(&shared.queue).parked = true;
                return Some(st);
            }
            Ok(true) => {
                let (frames, bytes) = (st.batch.len() as u64, st.scratch.len() as u64);
                shared
                    .telem
                    .note_flush(shared.me, shared.to, t0, frames, bytes);
                shared.health.note_flush(frames, bytes);
                st.batch.clear();
                st.scratch.clear();
                st.backoff = shared.backoff_base;
            }
            // Batch and scratch stay intact: the next generation resends
            // the identical bytes.
            Err(_) => st.conn = None,
        }
        st.written = 0;
        st.write_t0 = None;
        if st.conn.is_none() {
            failed(shared, &mut st);
            return Some(st);
        }
    }
}

/// Offer the rest of the batch to the connection without blocking:
/// `Ok(true)` once all of `scratch` is written, `Ok(false)` when the
/// socket is full.
fn write_rest(st: &mut FlushState) -> io::Result<bool> {
    let Some(stream) = st.conn.as_mut() else {
        return Err(io::ErrorKind::NotConnected.into());
    };
    while st.written < st.scratch.len() {
        match stream.write(&st.scratch[st.written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => st.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// A dial or write failed: count it, and back the next dial off.
fn failed(shared: &PeerShared, st: &mut FlushState) {
    shared.health.note_failure();
    st.next_dial_at = Some(Instant::now() + st.backoff);
    st.backoff = (st.backoff * 2).min(BACKOFF_MAX);
}

/// Connect to the peer and send the `Hello` handshake. On success the
/// stream is stored in `st.conn`, nonblocking, and the dial throttle is
/// cleared.
fn dial(shared: &PeerShared, st: &mut FlushState) -> io::Result<()> {
    let addr = shared
        .book
        .get(shared.to)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "peer address unknown"))?;
    let mut stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Frame::Hello {
            node: shared.me,
            listen_port: shared.listen_port,
        },
        &mut st.hello_scratch,
    )?;
    stream.set_nonblocking(true)?;
    if st.ever_connected {
        shared.health.note_reconnect();
    }
    st.ever_connected = true;
    st.next_dial_at = None;
    st.conn = Some(stream);
    Ok(())
}

/// A peer whose flush the I/O loop is finishing. It resumes when `fd`
/// (the peer's socket; -1 while there is none) turns writable or `due`
/// comes: the next dial, or another look at a lock a sender held.
struct Stalled {
    peer: Arc<PeerShared>,
    fd: RawFd,
    due: Option<Instant>,
}

/// The flush lock, if nobody holds it (a panicked holder released it).
fn try_flush(shared: &PeerShared) -> Option<MutexGuard<'_, FlushState>> {
    match shared.flush.try_lock() {
        Ok(st) => Some(st),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Resume `s`'s flush if nobody else holds its lock, and set what it
/// waits on next. False when the loop is done with the peer: its flush
/// finished, a sender holds the lock (and so finishes the flush or hands
/// the peer back), or — draining — the peer cannot be reached and its
/// frames are dropped with it.
fn resume(s: &mut Stalled, draining: bool, now: Instant) -> bool {
    plock(&s.peer.queue).parked = false;
    let Some(st) = try_flush(&s.peer) else {
        // A draining loop must not exit before the holder is done.
        (s.fd, s.due) = (-1, Some(now + DRAIN_RETRY));
        return draining;
    };
    let Some(st) = flush_session(&s.peer, st, !draining) else {
        return false;
    };
    (s.fd, s.due) = match &st.conn {
        Some(c) => (c.as_raw_fd(), None),
        None if draining => return false,
        None => (-1, st.next_dial_at.or(Some(now))),
    };
    true
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
/// peer in `out`. While one is over the cap, client hosts' connections go
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
    book: &AddrBook,
    handoff: &Handoff,
) {
    let mut d = Driven {
        node,
        batch: Vec::new(),
        done: false,
    };
    let mut node_due: Option<Instant> = None;
    let mut pending: Vec<Pending> = Vec::new();
    let mut nodes: HashMap<NodeId, VecDeque<Inbound>> = HashMap::new();
    let mut out: Vec<Stalled> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fronts: Vec<NodeId> = Vec::new();
    let mut accept_paused: Option<Instant> = None;
    // The drain's deadline, once the node is done or the wake socket
    // reads EOF.
    let mut draining: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if accept_paused.is_some_and(|until| now >= until) {
            accept_paused = None;
        }
        // Write side: adopt the peers the node queued for and those
        // senders handed over, then resume every flush whose socket turned
        // writable or whose time came.
        for peer in plock(&handoff.stalled).drain(..) {
            if !out.iter().any(|s| Arc::ptr_eq(&s.peer, &peer)) {
                out.push(Stalled {
                    peer,
                    fd: -1,
                    due: Some(now),
                });
            }
        }
        out.retain_mut(|s| s.due.is_none_or(|t| t > now) || resume(s, draining.is_some(), now));
        if draining.is_some_and(|deadline| out.is_empty() || now >= deadline) {
            // What is still unsent goes with `out`; dropping the sockets
            // closes them, dropping the node disconnects its channel.
            return;
        }
        let admit = out
            .iter()
            .all(|s| plock(&s.peer.queue).q.len() <= QUEUE_CAP);
        // Poll set: [listener][wake][pending…][each node's oldest
        // connection…][each stalled peer's socket…]; a paused listener,
        // the wake socket once draining, and a peer waiting to dial are
        // -1, which `ppoll` skips.
        fds.clear();
        fronts.clear();
        let listen_fd = accept_paused.map_or(listener.as_raw_fd(), |_| -1);
        watch(&mut fds, listen_fd, POLLIN);
        watch(&mut fds, draining.map_or(wake.as_raw_fd(), |_| -1), POLLIN);
        for p in &pending {
            watch(&mut fds, p.conn.stream.as_raw_fd(), POLLIN);
        }
        let first_front = fds.len();
        for (peer, q) in &nodes {
            if admit || matches!(peer, NodeId::Server(_)) {
                fronts.push(*peer);
                watch(&mut fds, q[0].stream.as_raw_fd(), POLLIN);
            }
        }
        let first_out = fds.len();
        for s in &out {
            watch(&mut fds, s.fd, POLLOUT);
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
            .chain(out.iter().filter_map(|s| s.due));
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
        for (s, fd) in out.iter_mut().zip(&fds[first_out..]) {
            if fd.revents != 0 {
                s.due = Some(now);
            }
        }
        let now = Instant::now();
        if fds[1].revents != 0 {
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
                        book.set(node, SocketAddr::new(p.ip, listen_port));
                    }
                    p.conn.fb.reserve(READ_BUF_BYTES);
                    // Frames that rode in behind the `Hello` go out now
                    // only if no older connection from `node` is open.
                    match nodes.get_mut(&node) {
                        Some(q) => q.push_back(p.conn),
                        None => {
                            if d.deliver(node, &mut p.conn) {
                                nodes.insert(node, VecDeque::from([p.conn]));
                            }
                        }
                    }
                }
                // Not a `Hello`, garbage, too long or out of time: dropped.
                _ => {}
            }
        }
        for (j, node) in fronts.iter().enumerate() {
            if fds[first_front + j].revents == 0 {
                continue;
            }
            let q = nodes.get_mut(node).expect("every front is a live queue");
            if q[0].fill() && d.deliver(*node, &mut q[0]) {
                continue;
            }
            // The oldest connection is done: the next generation takes
            // over, starting with the frames buffered behind its `Hello`.
            q.pop_front();
            while let Some(next) = q.front_mut() {
                if d.deliver(*node, next) {
                    break;
                }
                q.pop_front();
            }
            if q.is_empty() {
                nodes.remove(node);
            }
        }
        if d.done {
            draining.get_or_insert(now + DRAIN_DEADLINE);
        }
        let due = if d.done { None } else { d.node.on_due() };
        node_due = due.map(|left| Instant::now() + left);
    }
}

/// Test shorthand: the payload of a frame is irrelevant to the transport
/// tests, so they all ship probes with a zero send timestamp.
#[cfg(test)]
fn probe(token: u64) -> Frame {
    Frame::Probe { token, t0_ns: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect the next `n` frames from a batched inbound channel,
    /// tagging each with its sender.
    fn recv_n(rx: &Receiver<(NodeId, Vec<Frame>)>, n: usize) -> Vec<(NodeId, Frame)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (from, frames) = rx.recv_timeout(Duration::from_secs(5)).expect("inbound");
            assert!(!frames.is_empty(), "empty batches are never forwarded");
            out.extend(frames.into_iter().map(|f| (from, f)));
        }
        assert_eq!(out.len(), n, "over-delivery");
        out
    }

    #[test]
    fn two_nodes_exchange_frames_over_loopback() {
        let book = Arc::new(AddrBook::new());
        let (a, _rx_a) =
            ConnectionManager::start(NodeId::Server(0), Arc::clone(&book), PlaneConfig::default())
                .unwrap();
        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), PlaneConfig::default())
                .unwrap();
        book.set(NodeId::Server(0), a.listen_addr());
        book.set(NodeId::Server(1), b.listen_addr());

        for t in 0..100u64 {
            a.send(NodeId::Server(1), probe(t)).unwrap();
        }
        for (t, (from, f)) in recv_n(&rx_b, 100).into_iter().enumerate() {
            assert_eq!(from, NodeId::Server(0));
            assert_eq!(f, probe(t as u64), "in-order delivery");
        }
        let [(peer, h)] = &a.net_rows()[..] else {
            panic!("a wrote to one peer")
        };
        assert_eq!(
            (*peer, h.on.as_str(), h.peer.as_str()),
            (NodeId::Server(1), "srv0", "srv1")
        );
        assert_eq!(h.frames, 100);
        assert!(
            h.flushes <= h.frames,
            "coalescing can only merge frames into fewer flushes"
        );
        assert!(h.bytes > 0);
        assert_eq!(h.send_failures, 0);
        assert_eq!(a.reconnects_total(), 0);
        let t = a.wire_totals();
        assert_eq!(t.frames, 100);
        assert_eq!(t.flushes, h.flushes);
        a.shutdown();
        b.shutdown();
    }

    /// A served node that answers each probe `k` it reads with a burst of
    /// `burst` probes to `to`, numbered from `k * burst`, sent from its
    /// loop; with `kill`, it drops the connection to `to` halfway through
    /// every odd burst.
    struct Burst {
        mgr: Arc<ConnectionManager>,
        to: NodeId,
        burst: u64,
        kill: bool,
    }

    impl Node for Burst {
        fn on_frames(&mut self, _: NodeId, frames: &mut Vec<Frame>) -> bool {
            for f in frames.drain(..) {
                let Frame::Probe { token: k, .. } = f else {
                    continue;
                };
                for t in k * self.burst..(k + 1) * self.burst {
                    self.mgr.send(self.to, probe(t)).unwrap();
                    if self.kill && k % 2 == 1 && t % self.burst == self.burst / 2 {
                        assert!(self.mgr.drop_connection(self.to));
                    }
                }
            }
            true
        }
    }

    /// Serve `mgr`'s inbound with a [`Burst`] node.
    fn serve_burst(
        mgr: &Arc<ConnectionManager>,
        inbound: InboundBatches,
        to: NodeId,
        burst: u64,
        kill: bool,
    ) {
        let node = Burst {
            mgr: Arc::clone(mgr),
            to,
            burst,
            kill,
        };
        mgr.serve(inbound, move || node);
    }

    #[test]
    fn telemetry_histograms_and_flush_spans_populate() {
        let book = Arc::new(AddrBook::new());
        let cfg = PlaneConfig {
            record_flush_spans: true,
            ..PlaneConfig::default()
        };
        let epoch = Instant::now();
        let (a, rx_a) = ConnectionManager::start_with_epoch(
            NodeId::Server(0),
            Arc::clone(&book),
            cfg.clone(),
            epoch,
        )
        .unwrap();
        let (b, rx_b) = ConnectionManager::start_with_epoch(
            NodeId::ClientHost(1),
            Arc::clone(&book),
            cfg,
            epoch,
        )
        .unwrap();
        let (trigger, _rx_t) =
            ConnectionManager::start(NodeId::Server(2), Arc::clone(&book), PlaneConfig::default())
                .unwrap();
        book.set(NodeId::Server(0), a.listen_addr());
        book.set(NodeId::ClientHost(1), b.listen_addr());
        let a = Arc::new(a);
        serve_burst(&a, rx_a, NodeId::ClientHost(1), 50, false);

        // One probe, one turn: a's node sends the 50-frame burst from its loop.
        trigger.send(NodeId::Server(0), probe(0)).unwrap();
        recv_n(&rx_b, 50);
        let telem = a.telemetry();
        let flushes = a.wire_totals().flushes;
        assert_eq!(telem.flush_frames.summary().count, flushes);
        assert_eq!(telem.flush_latency_ns.summary().count, flushes);
        assert_eq!(telem.flush_spans.len() as u64, flushes);
        assert_eq!(telem.spans_dropped, 0);
        // The turn's burst gathered a visible backlog in one flush.
        assert!(telem.queue_depth.summary().max_ns >= 2);
        let total_frames: u64 = telem.flush_spans.iter().map(|s| s.frames as u64).sum();
        assert_eq!(total_frames, 50);
        for s in &telem.flush_spans {
            assert_eq!(s.from, cx_obs::FlowNode::Server(0));
            assert_eq!(s.to, cx_obs::FlowNode::Client(1));
        }
        // telemetry() clones rather than drains.
        assert_eq!(a.telemetry().flush_spans.len() as u64, flushes);
        // b never sent: nothing recorded on its side.
        assert!(b.telemetry().flush_spans.is_empty());
        a.shutdown();
        b.shutdown();
        trigger.shutdown();
    }

    #[test]
    fn prime_dials_eagerly_so_send_skips_the_connect() {
        let book = Arc::new(AddrBook::new());
        let (a, _rx_a) =
            ConnectionManager::start(NodeId::Server(0), Arc::clone(&book), PlaneConfig::default())
                .unwrap();
        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), PlaneConfig::default())
                .unwrap();
        book.set(NodeId::Server(0), a.listen_addr());
        book.set(NodeId::Server(1), b.listen_addr());

        // Priming an unknown peer is a harmless no-op on the dial path.
        a.prime(NodeId::Server(9));

        a.prime(NodeId::Server(1));
        // Poison the address book: `prime` dials synchronously, so the
        // send below rides the already-established session. Had prime
        // been lazy, the send would dial the dead address and stall.
        book.set(NodeId::Server(1), "127.0.0.1:1".parse().unwrap());
        a.send(NodeId::Server(1), probe(9)).unwrap();
        let (from, f) = recv_n(&rx_b, 1).pop().unwrap();
        assert_eq!(from, NodeId::Server(0));
        assert_eq!(f, probe(9));
        assert_eq!(a.reconnects_total(), 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dropped_connection_reconnects_without_frame_loss() {
        let book = Arc::new(AddrBook::new());
        let cfg = PlaneConfig {
            backoff_base: Duration::from_millis(1),
            ..PlaneConfig::default()
        };
        let (a, _rx_a) =
            ConnectionManager::start(NodeId::Server(0), Arc::clone(&book), cfg.clone()).unwrap();
        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), cfg).unwrap();
        book.set(NodeId::Server(1), b.listen_addr());

        // Phase 1: deliver a batch, and wait for it so the writer is
        // provably idle when the connection is dropped.
        for t in 0..200u64 {
            a.send(NodeId::Server(1), probe(t)).unwrap();
        }
        for (t, (_, f)) in recv_n(&rx_b, 200).into_iter().enumerate() {
            assert_eq!(f, probe(t as u64));
        }
        // Phase 2: drop the live socket, keep sending. The writer closes at
        // the next flush boundary and must re-dial to deliver the rest.
        assert!(a.drop_connection(NodeId::Server(1)));
        for t in 200..500u64 {
            a.send(NodeId::Server(1), probe(t)).unwrap();
        }
        for (i, (_, f)) in recv_n(&rx_b, 300).into_iter().enumerate() {
            let t = 200 + i as u64;
            assert_eq!(f, probe(t), "no loss across reconnect");
        }
        assert!(
            a.reconnects_total() >= 1,
            "the dropped connection must have been re-dialed"
        );
        assert_eq!(a.net_rows()[0].1.reconnects, a.reconnects_total());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn per_peer_counters_and_their_sums_outlive_shutdown() {
        let book = Arc::new(AddrBook::new());
        let cfg = PlaneConfig {
            backoff_base: Duration::from_millis(1),
            ..PlaneConfig::default()
        };
        let (a, _rx_a) =
            ConnectionManager::start(NodeId::Server(0), Arc::clone(&book), cfg.clone()).unwrap();
        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), cfg.clone()).unwrap();
        let (c, rx_c) =
            ConnectionManager::start(NodeId::ClientHost(0), Arc::clone(&book), cfg).unwrap();
        book.set(NodeId::Server(1), b.listen_addr());
        book.set(NodeId::ClientHost(0), c.listen_addr());
        // Two peers, one of them redialed once.
        for (to, rx) in [(NodeId::Server(1), &rx_b), (NodeId::ClientHost(0), &rx_c)] {
            for t in 0..50u64 {
                a.send(to, probe(t)).unwrap();
            }
            recv_n(rx, 50);
        }
        assert!(a.drop_connection(NodeId::Server(1)));
        a.send(NodeId::Server(1), probe(50)).unwrap();
        recv_n(&rx_b, 1);

        let rows = a.net_rows();
        let peers: Vec<NodeId> = rows.iter().map(|(n, _)| *n).collect();
        assert_eq!(peers, [NodeId::Server(1), NodeId::ClientHost(0)]);
        let sum = |f: fn(&NetPeerRow) -> u64| rows.iter().map(|(_, r)| f(r)).sum::<u64>();
        let totals = WireTotals {
            frames: sum(|r| r.frames),
            bytes: sum(|r| r.bytes),
            flushes: sum(|r| r.flushes),
        };
        assert_eq!(totals.frames, 101);
        assert_eq!(sum(|r| r.reconnects), 1, "one redial, counted once");
        a.shutdown();
        assert_eq!(a.wire_totals(), totals, "shutdown drained no counter");
        assert_eq!(a.reconnects_total(), 1);
        assert_eq!(a.net_rows(), rows);
        b.shutdown();
        c.shutdown();
    }

    #[test]
    fn kill_mid_corked_batch_stays_lossless_and_fifo() {
        // Each burst goes out from a served node's turn, so its frames pile
        // up queued and are encoded as one batch when the turn ends; a kill
        // issued mid-burst closes the connection between that encoding and
        // its write. Every frame must still arrive exactly once, in order,
        // across generations.
        let book = Arc::new(AddrBook::new());
        let cfg = PlaneConfig {
            backoff_base: Duration::from_millis(1),
            ..PlaneConfig::default()
        };
        let (a, rx_a) =
            ConnectionManager::start(NodeId::Server(0), Arc::clone(&book), cfg.clone()).unwrap();
        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), cfg.clone()).unwrap();
        let (trigger, _rx_t) =
            ConnectionManager::start(NodeId::Server(2), Arc::clone(&book), cfg).unwrap();
        book.set(NodeId::Server(0), a.listen_addr());
        book.set(NodeId::Server(1), b.listen_addr());
        const BURST: u64 = 125;
        const N: u64 = 16 * BURST;
        let a = Arc::new(a);
        serve_burst(&a, rx_a, NodeId::Server(1), BURST, true);

        // One trigger per burst, each after the last burst arrived: one
        // burst per turn.
        for burst in 0..N / BURST {
            trigger.send(NodeId::Server(0), probe(burst)).unwrap();
            for (i, (_, f)) in recv_n(&rx_b, BURST as usize).into_iter().enumerate() {
                assert_eq!(
                    f,
                    probe(burst * BURST + i as u64),
                    "lossless FIFO across kills mid-turn"
                );
            }
        }
        assert!(a.reconnects_total() >= 1, "kills must force a re-dial");
        let w = a.wire_totals();
        assert!(
            w.flushes < w.frames,
            "a turn's burst must coalesce: {} flushes for {} frames",
            w.flushes,
            w.frames
        );
        a.shutdown();
        b.shutdown();
        trigger.shutdown();
    }

    #[test]
    fn rapid_reconnects_stay_fifo() {
        // Every round closes the connection after a few frames and the
        // next round dials at once, so generations turn over as fast as
        // the dialer can connect: only the receiver's read order keeps
        // them in sequence.
        let book = Arc::new(AddrBook::new());
        let (a, _rx_a) =
            ConnectionManager::start(NodeId::Server(0), Arc::clone(&book), PlaneConfig::default())
                .unwrap();
        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), PlaneConfig::default())
                .unwrap();
        book.set(NodeId::Server(1), b.listen_addr());

        const ROUNDS: u64 = 400;
        const PER_ROUND: u64 = 3;
        for t in 0..ROUNDS * PER_ROUND {
            a.send(NodeId::Server(1), probe(t)).unwrap();
            if t % PER_ROUND == PER_ROUND - 1 {
                assert!(a.drop_connection(NodeId::Server(1)));
            }
        }
        for (t, (_, f)) in recv_n(&rx_b, (ROUNDS * PER_ROUND) as usize)
            .into_iter()
            .enumerate()
        {
            assert_eq!(f, probe(t as u64), "FIFO across fast reconnects");
        }
        assert!(
            a.reconnects_total() >= ROUNDS / 4,
            "{} reconnects in {ROUNDS} rounds",
            a.reconnects_total()
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dial_to_unknown_peer_backs_off_until_address_appears() {
        let book = Arc::new(AddrBook::new());
        let cfg = PlaneConfig {
            backoff_base: Duration::from_millis(1),
            ..PlaneConfig::default()
        };
        let (a, _rx_a) =
            ConnectionManager::start(NodeId::Server(0), Arc::clone(&book), cfg.clone()).unwrap();
        // Send before the peer address is known: the writer retries.
        a.send(NodeId::Server(1), probe(7)).unwrap();
        thread::sleep(Duration::from_millis(10));
        assert!(a.net_rows()[0].1.send_failures > 0);

        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), cfg).unwrap();
        book.set(NodeId::Server(1), b.listen_addr());
        let (_, f) = recv_n(&rx_b, 1).pop().unwrap();
        assert_eq!(f, probe(7));
        a.shutdown();
        b.shutdown();
    }
}
