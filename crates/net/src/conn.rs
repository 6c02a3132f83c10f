//! Connection management: one I/O thread for every inbound socket +
//! per-peer writer threads.
//!
//! Topology: every node runs one [`ConnectionManager`]. Connections are
//! simplex — a node dials out to write, and accepts to read. The first
//! frame on every connection is a [`Frame::Hello`] naming the dialer and
//! its own listen port, so the acceptor can attribute inbound frames and
//! learn the dial-back address without a rendezvous service.
//!
//! Per peer, the manager keeps a **bounded** outbound queue: when the peer
//! is slow (or reconnecting), `send` blocks the caller — that is the
//! backpressure policy, chosen over dropping because the protocol engines
//! assume a lossless transport (loss recovery belongs to the chaos plane,
//! not the wire).
//!
//! **Coalescing by lock combining**: after enqueuing, a sender tries the
//! peer's flush lock; whoever holds it drains the *entire* queue per
//! round, encodes every pending frame back-to-back into one reusable
//! scratch buffer, and issues a single `write_all` — one syscall per
//! *batch*, not per frame — looping until the queue is empty. Under load
//! the current holder keeps absorbing frames that arrive mid-write
//! (backlog combining: the busier the wire, the larger the batches), while
//! an idle peer's lone frame is flushed by its own sender immediately, at
//! no handoff or wakeup cost. [`MAX_WRITE_BYTES`] caps the encoded bytes
//! per write. A per-peer writer *daemon* thread backstops the inline
//! path: it owns reconnect backoff and drains frames a stalled
//! connection left behind. A connection is only ever closed at a **flush**
//! boundary — which is always a frame boundary — and the frames of a
//! coalesced-but-unflushed batch are retained (their encoding intact) for
//! the next connection generation, so reconnects stay lossless and
//! per-peer FIFO.
//!
//! The read side is one thread per node: it owns the listener and every
//! accepted socket, waits in `poll(2)` over all of them, runs each
//! connection's `Hello` handshake as per-connection state (a silent or
//! garbage dialer delays nobody else), and decodes each readable socket
//! into its own large reusable [`FrameBuffer`] — *every* complete frame
//! per `read`, forwarded as one `Vec<Frame>` batch through the merged
//! inbound channel: one channel wakeup per batch. Per node, only the
//! oldest connection is read; a newer generation's frames wait until the
//! older one reaches EOF, which keeps delivery FIFO across reconnects.
//! Batch vectors come from a shared [`VecPool`]; consumers hand drained
//! batches back via [`ConnectionManager::recycle_batch`], so the steady
//! state allocates nothing on either path.
//!
//! Reconnect: on dial/write failure the frames stay queued and the writer
//! daemon re-dials with exponential backoff (base doubling to a cap),
//! re-sends its `Hello`, and flushes the retained batch.
//! [`ConnectionManager::drop_connection`] closes a live socket at the next
//! flush boundary — the hook the reconnect drills use.

use crate::health::{HealthSnapshot, PeerHealth};
use crate::wire::{encode_frame, write_frame, Frame, FrameBuffer};
use crate::NodeId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use cx_obs::{FlushSpan, LogHistogram};
use cx_types::VecPool;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Encoded bytes gathered into one `write_all`; a flush session with more
/// queued than this writes in several rounds.
const MAX_WRITE_BYTES: usize = 64 << 10;

/// Outbound frames buffered per peer before `send` blocks (the
/// backpressure bound).
const QUEUE_CAP: usize = 1024;

/// Size of each inbound connection's reusable receive buffer; each `read`
/// may yield many frames, which are decoded in place and delivered as one
/// batch.
const READ_BUF_BYTES: usize = 256 << 10;

/// Lock a `std` mutex parking_lot-style: a panicked holder releases.
fn plock<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for the wire plane.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Keep a per-flush [`FlushSpan`] log for the Perfetto trace (bounded;
    /// see [`FLUSH_SPAN_CAP`]). The telemetry histograms are always on —
    /// only the span log, whose memory grows with the run, is gated.
    pub record_flush_spans: bool,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
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
        self.inner.lock().insert(node, addr);
    }
    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        self.inner.lock().get(&node).copied()
    }
}

/// Pending outbound frames for one peer. Guarded by [`PeerShared::queue`];
/// `room` wakes senders blocked on a full queue, `daemon` wakes the writer
/// daemon when an inline flush stalls (dead connection) or at shutdown.
struct PeerQueue {
    q: VecDeque<Frame>,
    shutdown: bool,
}

/// Connection + unflushed-batch state for one peer — the flush lock.
/// Invariants:
///
/// * `batch` holds every frame drained from the queue but not yet
///   confirmed written; `scratch` holds exactly the concatenated encoding
///   of `batch` at all times (a failed `write_all` leaves both intact, so
///   the next connection generation resends the identical bytes).
/// * A flush writes all of `scratch` in one `write_all`; only a fully
///   successful flush clears `batch`+`scratch` — lossless across
///   generations.
/// * The connection is closed (kill/drop/write error) only between
///   flushes, so the peer's reader always drains to EOF at a frame
///   boundary.
struct FlushState {
    conn: Option<TcpStream>,
    ever_connected: bool,
    batch: VecDeque<Frame>,
    scratch: Vec<u8>,
    hello_scratch: Vec<u8>,
    /// Inline flushers skip dialing before this instant; the daemon owns
    /// the exponential part of the backoff.
    next_dial_at: Option<Instant>,
}

/// Everything the inline flush path and the writer daemon share.
struct PeerShared {
    me: NodeId,
    to: NodeId,
    listen_port: u16,
    book: Arc<AddrBook>,
    cfg: PlaneConfig,
    queue: StdMutex<PeerQueue>,
    room: Condvar,
    daemon: Condvar,
    flush: StdMutex<FlushState>,
    kill: AtomicBool,
    health: Arc<PeerHealth>,
    shutdown: Arc<AtomicBool>,
    reconnects: Arc<AtomicU64>,
    wire: Arc<WireCounters>,
    telem: Arc<TelemetryState>,
}

struct Peer {
    shared: Arc<PeerShared>,
    handle: JoinHandle<()>,
}

/// How a flush session ended.
#[derive(PartialEq)]
enum SessionEnd {
    /// Queue and batch both empty at the moment of release.
    Done,
    /// Work remains but the connection is down (or the inline round cap
    /// was hit) — the writer daemon must take over.
    Stalled,
}

/// Aggregate send-side wire counters across every peer of one manager —
/// the raw material for frames/s, bytes/s, flushes/s rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Frames written (sum of all peers' flushed batch sizes).
    pub frames: u64,
    /// Encoded bytes written.
    pub bytes: u64,
    /// `write_all` calls (coalesced batches).
    pub flushes: u64,
}

impl WireTotals {
    /// Fold another node's totals in (cluster-wide aggregation).
    pub fn add(&mut self, other: WireTotals) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.flushes += other.flushes;
    }
}

/// Manager-level send counters, bumped by writers at each flush. Kept
/// separate from the per-peer [`PeerHealth`] map so totals survive peer
/// teardown: `shutdown()` drains the peers map, and a run's final
/// aggregation must still see everything the node ever wrote.
#[derive(Debug, Default)]
struct WireCounters {
    frames: AtomicU64,
    bytes: AtomicU64,
    flushes: AtomicU64,
}

impl WireCounters {
    fn note_flush(&self, frames: u64, bytes: u64) {
        self.frames.fetch_add(frames, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn totals(&self) -> WireTotals {
        WireTotals {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

/// Upper bound on retained [`FlushSpan`]s per manager (~40 B each). Past
/// it flushes still count in the histograms; only the trace log saturates,
/// with the overflow tallied in [`WireTelemetry::spans_dropped`].
pub const FLUSH_SPAN_CAP: usize = 1 << 16;

/// Live wall-clock telemetry shared by every peer of one manager: the
/// flush/queue/stall histograms (always on — one `Mutex`ed record per
/// *flush*, not per frame) and the optional per-flush span log. All stamps
/// are nanoseconds since the manager's `epoch`, so one process's spans are
/// directly comparable and cross-process ones differ by a probe-estimated
/// offset ([`crate::ClockSync`]).
struct TelemetryState {
    epoch: Instant,
    record_spans: bool,
    queue_depth: Mutex<LogHistogram>,
    flush_frames: Mutex<LogHistogram>,
    flush_latency_ns: Mutex<LogHistogram>,
    cork_scope_ns: Mutex<LogHistogram>,
    stall_ns: Mutex<LogHistogram>,
    spans: Mutex<Vec<FlushSpan>>,
    spans_dropped: AtomicU64,
}

impl TelemetryState {
    fn new(epoch: Instant, record_spans: bool) -> Self {
        Self {
            epoch,
            record_spans,
            queue_depth: Mutex::new(LogHistogram::default()),
            flush_frames: Mutex::new(LogHistogram::default()),
            flush_latency_ns: Mutex::new(LogHistogram::default()),
            cork_scope_ns: Mutex::new(LogHistogram::default()),
            stall_ns: Mutex::new(LogHistogram::default()),
            spans: Mutex::new(Vec::new()),
            spans_dropped: AtomicU64::new(0),
        }
    }

    fn note_queue_depth(&self, depth: u64) {
        self.queue_depth.lock().record(depth);
    }

    fn note_flush(
        &self,
        from: NodeId,
        to: NodeId,
        t0: Instant,
        dur: Duration,
        frames: u64,
        bytes: u64,
    ) {
        self.flush_frames.lock().record(frames);
        self.flush_latency_ns.lock().record(dur.as_nanos() as u64);
        if self.record_spans {
            let mut spans = self.spans.lock();
            if spans.len() < FLUSH_SPAN_CAP {
                spans.push(FlushSpan {
                    from: from.flow(),
                    to: to.flow(),
                    start_ns: t0.saturating_duration_since(self.epoch).as_nanos() as u64,
                    dur_ns: dur.as_nanos() as u64,
                    frames: frames.min(u32::MAX as u64) as u32,
                    bytes: bytes.min(u32::MAX as u64) as u32,
                });
            } else {
                self.spans_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn note_stall(&self, dur: Duration) {
        self.stall_ns.lock().record(dur.as_nanos() as u64);
    }

    fn note_cork_scope(&self, dur: Duration) {
        self.cork_scope_ns.lock().record(dur.as_nanos() as u64);
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
    pub cork_scope_ns: LogHistogram,
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
        self.cork_scope_ns.merge(&other.cork_scope_ns);
        self.stall_ns.merge(&other.stall_ns);
        self.spans_dropped += other.spans_dropped;
        self.flush_spans.extend(other.flush_spans.iter().map(|f| {
            let mut f = *f;
            f.start_ns = crate::clock::correct_ns(f.start_ns, offset_ns);
            f
        }));
    }
}

/// One node's view of the wire: one I/O thread reading every inbound
/// connection, plus on-demand writer threads (one per peer it has sent to).
pub struct ConnectionManager {
    me: NodeId,
    listen_addr: SocketAddr,
    book: Arc<AddrBook>,
    cfg: PlaneConfig,
    peers: Mutex<HashMap<NodeId, Peer>>,
    shutdown: Arc<AtomicBool>,
    /// The I/O thread and the write end of its wake socket. The thread
    /// owns the inbound channel's only sender, so joining it in
    /// [`Self::shutdown`] disconnects the receiver once the frames already
    /// queued are drained.
    io: Mutex<Option<(JoinHandle<()>, UnixStream)>>,
    reconnects: Arc<AtomicU64>,
    /// Freelist for inbound batch vectors: the I/O thread draws, consumers
    /// return via [`ConnectionManager::recycle_batch`].
    batch_pool: Arc<Mutex<VecPool<Frame>>>,
    /// Send-side totals across all peers, past and present.
    wire: Arc<WireCounters>,
    /// Live [`CorkGuard`] count: while non-zero, `send` only enqueues and
    /// the guard's drop flushes every dirty peer once.
    cork_depth: AtomicUsize,
    /// Wall-clock flush/queue/stall telemetry, shared with every peer.
    telem: Arc<TelemetryState>,
}

/// Scoped sender-side cork (see [`ConnectionManager::cork_scope`]).
/// Dropping the last live guard flushes every peer with queued frames.
pub struct CorkGuard<'a> {
    mgr: &'a ConnectionManager,
    start: Instant,
}

impl Drop for CorkGuard<'_> {
    fn drop(&mut self) {
        if self.mgr.cork_depth.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Only the guard that actually pops the cork measures the
            // scope: nested guards are part of the same held window.
            self.mgr.telem.note_cork_scope(self.start.elapsed());
            self.mgr.flush_all();
        }
    }
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
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        let (inbound_tx, inbound_rx) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let batch_pool: Arc<Mutex<VecPool<Frame>>> = Arc::new(Mutex::new(VecPool::default()));
        let cfg_record_spans = cfg.record_flush_spans;

        let io_handle = {
            let book = Arc::clone(&book);
            let pool = Arc::clone(&batch_pool);
            thread::Builder::new()
                .name("cx-io".into())
                .spawn(move || io_loop(listener, &wake_rx, inbound_tx, &book, &pool))
                .expect("spawn I/O thread")
        };

        Ok((
            Self {
                me,
                listen_addr,
                book,
                cfg,
                peers: Mutex::new(HashMap::new()),
                shutdown,
                io: Mutex::new(Some((io_handle, wake_tx))),
                reconnects: Arc::new(AtomicU64::new(0)),
                batch_pool,
                wire: Arc::new(WireCounters::default()),
                cork_depth: AtomicUsize::new(0),
                telem: Arc::new(TelemetryState::new(epoch, cfg_record_spans)),
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

    /// Queue a frame for `to`. Blocks when the peer's outbound queue is
    /// full (backpressure). Errors only if the manager is shut down.
    ///
    /// The sender then opportunistically becomes the peer's flusher: if
    /// the flush lock is free it drains the queue and writes inline (no
    /// thread handoff); if another thread holds it, that holder is
    /// guaranteed to pick this frame up — the `try_lock` happens inside
    /// the queue critical section, and a holder only releases the lock
    /// after observing an empty queue *under that same lock*.
    pub fn send(&self, to: NodeId, frame: Frame) -> Result<(), &'static str> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err("connection manager is shut down");
        }
        let shared = {
            let mut peers = self.peers.lock();
            let peer = peers.entry(to).or_insert_with(|| self.spawn_writer(to));
            Arc::clone(&peer.shared)
        };
        let mut stalled: Option<Duration> = None;
        let flush = {
            let mut q = plock(&shared.queue);
            // Time only real backpressure stalls: the common uncontended
            // send never reads the clock.
            let mut waited: Option<Instant> = None;
            while q.q.len() >= QUEUE_CAP && !q.shutdown {
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
            // Under a scoped cork the frame just queues: the guard's drop
            // flushes every dirty peer once, coalescing the whole burst
            // into one write per peer. A queue at capacity overrides the
            // cork — someone must drain it or later senders block forever.
            if self.cork_depth.load(Ordering::SeqCst) > 0 && q.q.len() < QUEUE_CAP {
                None
            } else {
                match shared.flush.try_lock() {
                    Ok(st) => Some(st),
                    Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
                    // The current holder will observe this frame (see above).
                    Err(TryLockError::WouldBlock) => None,
                }
            }
        };
        if let Some(d) = stalled {
            shared.telem.note_stall(d);
        }
        if let Some(st) = flush {
            // Inline sessions are round-capped so a protocol thread can't
            // be conscripted as the peer's writer forever under sustained
            // load; past the cap the daemon takes over.
            if flush_session(&shared, st, 64, true) == SessionEnd::Stalled {
                shared.daemon.notify_all();
            }
        }
        Ok(())
    }

    /// Eagerly establish the connection to `to` (spawn its writer, dial,
    /// send the `Hello`) without queueing a frame, so the first real send
    /// doesn't pay the connect + handshake on the critical path. A dial
    /// failure is not an error: the normal lazy dial-with-backoff path
    /// simply runs when the first frame goes out.
    pub fn prime(&self, to: NodeId) {
        if self.shutdown.load(Ordering::Relaxed) || to == self.me {
            return;
        }
        let shared = {
            let mut peers = self.peers.lock();
            let peer = peers.entry(to).or_insert_with(|| self.spawn_writer(to));
            Arc::clone(&peer.shared)
        };
        let mut st = plock(&shared.flush);
        if st.conn.is_none() && st.next_dial_at.is_none() {
            let _ = dial(&shared, &mut st);
        }
    }

    /// Scoped sender-side cork: while any guard from this call is alive,
    /// [`Self::send`] only enqueues — no inline flush, no daemon wake.
    /// When the last guard drops, every peer with queued frames is
    /// flushed once. For callers that already hold a batch of work (an
    /// engine loop draining one inbound wakeup, a client shepherd
    /// refilling its slots): all the frames that work provokes coalesce
    /// into one write per peer, with zero added latency — the cork lasts
    /// exactly as long as the processing it covers, never a timer.
    ///
    /// Guards may nest and overlap across threads (the flush happens when
    /// the count returns to zero). Losslessness is unaffected: a corked
    /// frame is in its peer queue, and the shutdown path and the writer
    /// daemon's periodic sweep flush queued frames regardless of corking.
    pub fn cork_scope(&self) -> CorkGuard<'_> {
        self.cork_depth.fetch_add(1, Ordering::SeqCst);
        CorkGuard {
            mgr: self,
            start: Instant::now(),
        }
    }

    /// Flush every peer with queued frames (the tail of a cork scope).
    fn flush_all(&self) {
        let shareds: Vec<Arc<PeerShared>> = {
            let peers = self.peers.lock();
            peers.values().map(|p| Arc::clone(&p.shared)).collect()
        };
        for shared in shareds {
            let flush = {
                let q = plock(&shared.queue);
                if q.q.is_empty() {
                    continue;
                }
                match shared.flush.try_lock() {
                    Ok(st) => Some(st),
                    Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
                    // The holder drains the queue before releasing.
                    Err(TryLockError::WouldBlock) => None,
                }
            };
            if let Some(st) = flush {
                if flush_session(&shared, st, 64, true) == SessionEnd::Stalled {
                    shared.daemon.notify_all();
                }
            }
        }
    }

    /// Hand a drained inbound batch back to the reader freelist, keeping
    /// its capacity. Optional — dropping the vector is merely an
    /// allocation, not an error.
    pub fn recycle_batch(&self, batch: Vec<Frame>) {
        self.batch_pool.lock().put(batch);
    }

    fn spawn_writer(&self, to: NodeId) -> Peer {
        let shared = Arc::new(PeerShared {
            me: self.me,
            to,
            listen_port: self.listen_addr.port(),
            book: Arc::clone(&self.book),
            cfg: self.cfg.clone(),
            queue: StdMutex::new(PeerQueue {
                q: VecDeque::new(),
                shutdown: false,
            }),
            room: Condvar::new(),
            daemon: Condvar::new(),
            flush: StdMutex::new(FlushState {
                conn: None,
                ever_connected: false,
                batch: VecDeque::new(),
                scratch: Vec::with_capacity(MAX_WRITE_BYTES),
                hello_scratch: Vec::with_capacity(64),
                next_dial_at: None,
            }),
            kill: AtomicBool::new(false),
            health: Arc::new(PeerHealth::new()),
            shutdown: Arc::clone(&self.shutdown),
            reconnects: Arc::clone(&self.reconnects),
            wire: Arc::clone(&self.wire),
            telem: Arc::clone(&self.telem),
        });
        let daemon_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("cx-wd".into())
            .spawn(move || writer_daemon(daemon_shared))
            .expect("spawn writer daemon");
        Peer { shared, handle }
    }

    /// Close the live connection to `to` at the next flush boundary; the
    /// writer re-dials with backoff. No frames are lost: the close happens
    /// between flushes (a frame boundary), the peer reads to EOF, and any
    /// coalesced-but-unflushed batch is re-encoded onto the next
    /// connection generation.
    pub fn drop_connection(&self, to: NodeId) -> bool {
        let peers = self.peers.lock();
        match peers.get(&to) {
            Some(p) => {
                p.shared.kill.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    pub fn health(&self, to: NodeId) -> Option<HealthSnapshot> {
        self.peers
            .lock()
            .get(&to)
            .map(|p| p.shared.health.snapshot())
    }

    /// Health of every peer this node has written to, in node order.
    pub fn health_all(&self) -> Vec<(NodeId, HealthSnapshot)> {
        let peers = self.peers.lock();
        let mut v: Vec<_> = peers
            .iter()
            .map(|(n, p)| (*n, p.shared.health.snapshot()))
            .collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// Aggregate frames/bytes/flushes this node ever wrote, across every
    /// peer past and present — the numerators for the wire-throughput
    /// rates the metrics plane exposes. Unlike [`Self::health_all`], the
    /// totals survive `shutdown()` draining the peers map.
    pub fn wire_totals(&self) -> WireTotals {
        self.wire.totals()
    }

    /// Total successful re-dials across all peers (0 for a run where no
    /// connection was ever lost).
    pub fn reconnects_total(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
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
        WireTelemetry {
            queue_depth: self.telem.queue_depth.lock().clone(),
            flush_frames: self.telem.flush_frames.lock().clone(),
            flush_latency_ns: self.telem.flush_latency_ns.lock().clone(),
            cork_scope_ns: self.telem.cork_scope_ns.lock().clone(),
            stall_ns: self.telem.stall_ns.lock().clone(),
            flush_spans: self.telem.spans.lock().clone(),
            spans_dropped: self.telem.spans_dropped.load(Ordering::Relaxed),
        }
    }

    /// Feed one probe RTT/offset sample into `to`'s health tracking (the
    /// quiesce loop samples these; the estimator itself lives with the
    /// caller as [`crate::ClockSync`]).
    pub fn note_rtt(&self, to: NodeId, rtt_ns: u64, offset_ns: i64) {
        if let Some(h) = self
            .peers
            .lock()
            .get(&to)
            .map(|p| Arc::clone(&p.shared.health))
        {
            h.note_rtt(rtt_ns, offset_ns);
        }
    }

    /// Flush and join every writer daemon, then stop the I/O thread, which
    /// closes every inbound socket and disconnects the inbound channel
    /// (whoever consumes it — a node loop, a demux pump — sees the end of
    /// the run whether or not it still holds this manager). Queued
    /// outbound frames are flushed before daemons exit (unless their peer
    /// is unreachable).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let peers: Vec<Peer> = self.peers.lock().drain().map(|(_, p)| p).collect();
        for p in &peers {
            let mut q = plock(&p.shared.queue);
            q.shutdown = true;
            p.shared.room.notify_all();
            p.shared.daemon.notify_all();
        }
        for p in peers {
            let _ = p.handle.join();
        }
        if let Some((h, wake)) = self.io.lock().take() {
            // Closing the wake socket's write end makes its read end
            // readable (EOF), which ends the loop's `poll`; closing cannot
            // fail the way a dial can.
            drop(wake);
            let _ = h.join();
        }
    }
}

impl Drop for ConnectionManager {
    /// A dropped manager must not leak its I/O or daemon threads —
    /// server runtimes drop managers when their node loop exits without
    /// always calling [`Self::shutdown`] explicitly. Idempotent.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drain-encode-write until the queue is empty or the connection stalls.
/// Called with the peer's flush lock held; consumes the guard and releases
/// it *inside* a queue critical section after observing the queue empty
/// (the handshake that makes `send`'s failed `try_lock` safe).
///
/// `max_rounds` bounds how long an inline caller can be conscripted as the
/// peer's writer; the daemon passes a large cap and backstops the rest.
/// `pace_dials` makes a session respect [`FlushState::next_dial_at`] — set
/// for inline senders so they never spin on a dead peer; the daemon
/// ignores it because its own exponential backoff is the pacer.
fn flush_session(
    shared: &PeerShared,
    mut st: MutexGuard<'_, FlushState>,
    max_rounds: u32,
    pace_dials: bool,
) -> SessionEnd {
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
                return SessionEnd::Done;
            }
        }
        // Sample the pre-gather backlog (outside the queue lock; zero
        // depths are the terminating empty checks, not signal).
        if gathered_depth > 0 {
            shared.telem.note_queue_depth(gathered_depth);
        }
        rounds += 1;
        if rounds > max_rounds {
            return SessionEnd::Stalled;
        }
        // A kill (reconnect drill) closes the old connection at this flush
        // boundary; the held batch rides the next generation.
        if shared.kill.swap(false, Ordering::Relaxed) {
            st.conn = None;
        }
        if st.conn.is_none() {
            if pace_dials {
                if let Some(at) = st.next_dial_at {
                    if Instant::now() < at {
                        // Recently failed dial: leave redial pacing to the
                        // daemon instead of burning sender time.
                        return SessionEnd::Stalled;
                    }
                }
            }
            match dial(shared, &mut st) {
                Ok(()) => {}
                Err(_) => {
                    shared.health.note_failure();
                    st.next_dial_at = Some(Instant::now() + shared.cfg.backoff_base);
                    return SessionEnd::Stalled;
                }
            }
        }
        // Single write for the whole batch. Disjoint borrows: the stream
        // and the scratch buffer live in the same struct.
        let FlushState {
            conn,
            scratch,
            batch,
            ..
        } = &mut *st;
        let stream = conn.as_mut().expect("connection established above");
        let t0 = Instant::now();
        match stream.write_all(scratch) {
            Ok(()) => {
                let dur = t0.elapsed();
                let (frames, bytes) = (batch.len() as u64, scratch.len() as u64);
                shared.health.note_flush(frames, bytes, dur);
                shared.wire.note_flush(frames, bytes);
                shared
                    .telem
                    .note_flush(shared.me, shared.to, t0, dur, frames, bytes);
                batch.clear();
                scratch.clear();
            }
            Err(_) => {
                // Batch and scratch stay intact: the next generation
                // resends the identical bytes.
                shared.health.note_failure();
                *conn = None;
                st.next_dial_at = Some(Instant::now() + shared.cfg.backoff_base);
                return SessionEnd::Stalled;
            }
        }
    }
}

/// Connect to the peer and send the `Hello` handshake. On success the
/// stream is stored in `st.conn` and the dial throttle is cleared.
fn dial(shared: &PeerShared, st: &mut FlushState) -> io::Result<()> {
    let addr = shared
        .book
        .get(shared.to)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "peer address unknown"))?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Frame::Hello {
            node: shared.me,
            listen_port: shared.listen_port,
        },
        &mut st.hello_scratch,
    )?;
    if st.ever_connected {
        shared.health.note_reconnect();
        shared.reconnects.fetch_add(1, Ordering::Relaxed);
    }
    st.ever_connected = true;
    st.next_dial_at = None;
    st.conn = Some(stream);
    Ok(())
}

/// The per-peer backstop thread. Inline senders do the fast-path flushing;
/// the daemon handles everything that must not block a protocol thread:
/// exponential reconnect backoff, frames a stalled session left behind,
/// and the final drain at shutdown.
fn writer_daemon(shared: Arc<PeerShared>) {
    let mut backoff = shared.cfg.backoff_base;
    loop {
        {
            let mut q = plock(&shared.queue);
            while q.q.is_empty() && !q.shutdown {
                let (guard, timeout) = shared
                    .daemon
                    .wait_timeout(q, Duration::from_millis(20))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
                // The periodic poll backstops anything whose notification
                // raced the wait (a stalled inline session's leftovers).
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let st = plock(&shared.flush);
        let end = flush_session(&shared, st, u32::MAX, false);
        let shut = shared.shutdown.load(Ordering::Relaxed);
        match end {
            SessionEnd::Done => {
                backoff = shared.cfg.backoff_base;
                if shut {
                    return;
                }
            }
            SessionEnd::Stalled => {
                if shut && shared.health.snapshot().consecutive_failures > 0 {
                    // Peer unreachable during shutdown: drop the queue.
                    return;
                }
                thread::sleep(backoff);
                backoff = (backoff * 2).min(shared.cfg.backoff_max);
            }
        }
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

// `poll(2)` and `sched_setscheduler(2)` on Linux, declared here: std
// already links libc.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const SCHED_BATCH: c_int = 3;

unsafe extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    /// `param` is a `struct sched_param`, whose one field is an `int`.
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

/// Add `fd` to the poll set; `poll` skips a negative one.
fn watch(fds: &mut Vec<PollFd>, fd: RawFd) {
    fds.push(PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
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

    /// Forward every complete buffered frame as one batch; false on a
    /// malformed stream (the connection is dropped and its writer
    /// re-dials).
    fn forward(&mut self, from: NodeId, tx: &Sender<Batch>, pool: &Mutex<VecPool<Frame>>) -> bool {
        let mut batch = pool.lock().get();
        let clean = self.fb.drain_frames(&mut batch).is_ok();
        if batch.is_empty() {
            pool.lock().put(batch);
        } else {
            // A gone receiver means the node is going away; the frames too.
            let _ = tx.send((from, batch));
        }
        clean
    }
}

/// An accepted connection whose `Hello` has not arrived yet.
struct Pending {
    conn: Inbound,
    ip: IpAddr,
    deadline: Instant,
}

/// The node's one reader: waits in `poll` over the listener, every
/// connection still in its handshake, and — per node — only the oldest
/// connection, so a node's newer connection is read only after its older
/// one reaches EOF and delivery stays FIFO across reconnects. Each node's
/// queue is in generation order because handshakes are read in accept
/// order and a dialer writes generation *k*'s `Hello` and closes *k*
/// before it dials *k+1*. That *k*'s bytes are then already on its socket
/// when *k+1*'s `Hello` is read holds because the listener is loopback
/// only, where a write is delivered in the writer's own send path; it is
/// an ordering of the kernel's, not one this loop enforces (a deferred
/// softirq plus a CPU migration between the two dials could reorder
/// them). Returns when the wake socket turns readable (its peer closed).
fn io_loop(
    listener: TcpListener,
    wake: &UnixStream,
    tx: Sender<Batch>,
    book: &AddrBook,
    pool: &Mutex<VecPool<Frame>>,
) {
    let mut pending: Vec<Pending> = Vec::new();
    let mut nodes: HashMap<NodeId, VecDeque<Inbound>> = HashMap::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fronts: Vec<NodeId> = Vec::new();
    let mut accept_paused: Option<Instant> = None;
    // Under SCHED_BATCH the scheduler never preempts a running thread to
    // run this one on wakeup; it takes an idle CPU or waits for the
    // running thread to block. The loop wakes because some thread just
    // wrote to one of its sockets. Under the default policy those wakeups
    // preempted the writers, and involuntary context switches per op rose
    // above the parent's thread-per-connection readers; under this one
    // they fall below them (EXPERIMENTS "PR 25"). A refusal is harmless.
    // SAFETY: pid 0 is this thread; the priority outlives the call.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &0) };
    loop {
        if accept_paused.is_some_and(|until| Instant::now() >= until) {
            accept_paused = None;
        }
        // Poll set: [listener][wake][pending…][each node's oldest
        // connection…]; a paused listener is -1, which `poll` skips.
        fds.clear();
        fronts.clear();
        watch(&mut fds, accept_paused.map_or(listener.as_raw_fd(), |_| -1));
        watch(&mut fds, wake.as_raw_fd());
        for p in &pending {
            watch(&mut fds, p.conn.stream.as_raw_fd());
        }
        for (node, q) in &nodes {
            fronts.push(*node);
            watch(&mut fds, q[0].stream.as_raw_fd());
        }
        // Sleep until something is readable, a handshake runs out or the
        // listener's pause ends.
        let wake_at = pending.iter().map(|p| p.deadline).chain(accept_paused);
        let timeout = wake_at.min().map_or(-1, |d| {
            let ms = d.saturating_duration_since(Instant::now()).as_millis();
            ms.min(i32::MAX as u128 - 1) as c_int + 1
        });
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd records for the duration of the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout) };
        if rc < 0 {
            continue; // EINTR
        }
        if fds[1].revents != 0 {
            // Shutdown. Dropping the sockets closes them; dropping `tx`
            // disconnects the inbound channel.
            return;
        }
        let now = Instant::now();
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
                            if p.conn.forward(node, &tx, pool) {
                                nodes.insert(node, VecDeque::from([p.conn]));
                            }
                        }
                    }
                }
                // Not a `Hello`, garbage, too long or out of time: dropped.
                _ => {}
            }
        }
        let first_front = fds.len() - fronts.len();
        for (j, node) in fronts.iter().enumerate() {
            if fds[first_front + j].revents == 0 {
                continue;
            }
            let q = nodes.get_mut(node).expect("every front is a live queue");
            if q[0].fill() && q[0].forward(*node, &tx, pool) {
                continue;
            }
            // The oldest connection is done: the next generation takes
            // over, starting with the frames buffered behind its `Hello`.
            q.pop_front();
            while let Some(next) = q.front_mut() {
                if next.forward(*node, &tx, pool) {
                    break;
                }
                q.pop_front();
            }
            if q.is_empty() {
                nodes.remove(node);
            }
        }
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
        let h = a.health(NodeId::Server(1)).unwrap();
        assert_eq!(h.sends, 100);
        assert!(
            h.flushes <= h.sends,
            "coalescing can only merge frames into fewer flushes"
        );
        assert!(h.bytes > 0);
        assert!(h.score > 0.5);
        assert_eq!(a.reconnects_total(), 0);
        let t = a.wire_totals();
        assert_eq!(t.frames, 100);
        assert_eq!(t.flushes, h.flushes);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn telemetry_histograms_and_flush_spans_populate() {
        let book = Arc::new(AddrBook::new());
        let cfg = PlaneConfig {
            record_flush_spans: true,
            ..PlaneConfig::default()
        };
        let epoch = Instant::now();
        let (a, _rx_a) = ConnectionManager::start_with_epoch(
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
        book.set(NodeId::Server(0), a.listen_addr());
        book.set(NodeId::ClientHost(1), b.listen_addr());

        {
            let _cork = a.cork_scope();
            for t in 0..50u64 {
                a.send(NodeId::ClientHost(1), probe(t)).unwrap();
            }
        }
        recv_n(&rx_b, 50);
        let telem = a.telemetry();
        let flushes = a.wire_totals().flushes;
        assert_eq!(telem.flush_frames.summary().count, flushes);
        assert_eq!(telem.flush_latency_ns.summary().count, flushes);
        assert_eq!(telem.flush_spans.len() as u64, flushes);
        assert_eq!(telem.spans_dropped, 0);
        // The corked burst gathered a visible backlog in one flush.
        assert!(telem.queue_depth.summary().max_ns >= 2);
        assert_eq!(telem.cork_scope_ns.summary().count, 1);
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
        assert!(a.health(NodeId::Server(1)).unwrap().reconnects >= 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn kill_mid_corked_batch_stays_lossless_and_fifo() {
        // Each burst goes out under a held cork scope, so its frames pile
        // up queued and are encoded as one batch when the guard drops; a
        // kill issued mid-burst closes the connection between that
        // encoding and its write. Every frame must still arrive exactly
        // once, in order, across generations.
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

        const BURST: u64 = 125;
        const N: u64 = 16 * BURST;
        for burst in 0..N / BURST {
            let _cork = a.cork_scope();
            for t in burst * BURST..(burst + 1) * BURST {
                a.send(NodeId::Server(1), probe(t)).unwrap();
                if burst % 2 == 1 && t % BURST == BURST / 2 {
                    assert!(a.drop_connection(NodeId::Server(1)));
                }
            }
        }
        for (t, (_, f)) in recv_n(&rx_b, N as usize).into_iter().enumerate() {
            assert_eq!(
                f,
                probe(t as u64),
                "lossless FIFO across kills under corking"
            );
        }
        assert!(a.reconnects_total() >= 1, "kills must force a re-dial");
        let w = a.wire_totals();
        assert!(
            w.flushes < w.frames,
            "corked bursts must coalesce: {} flushes for {} frames",
            w.flushes,
            w.frames
        );
        a.shutdown();
        b.shutdown();
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
        assert!(a.health(NodeId::Server(1)).unwrap().consecutive_failures > 0);

        let (b, rx_b) =
            ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), cfg).unwrap();
        book.set(NodeId::Server(1), b.listen_addr());
        let (_, f) = recv_n(&rx_b, 1).pop().unwrap();
        assert_eq!(f, probe(7));
        a.shutdown();
        b.shutdown();
    }
}
