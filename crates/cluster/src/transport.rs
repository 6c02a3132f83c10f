//! The seam between the wall-clock runtime and whatever carries its
//! frames: a node hands [`Frame`]s to a [`Transport`], and the transport
//! serves the node — a [`Node`] — on one thread, with `(sender, frames)`
//! batches, per-sender FIFO. Two carriers exist — `cx-net`'s
//! [`ConnectionManager`] (real sockets) and [`ChanNode`] (the same `Frame`
//! *values* over in-process channels, no encode, no socket) — and
//! [`crate::wall`] is written against the trait alone, so which one a run
//! uses is decided by the entry point called.

use cx_net::conn::{InboundBatches, Node};
use cx_net::{plock, ConnectionManager, Frame, NodeId};
use cx_types::VecPool;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// What a transport's loop builds, on its own thread, and then drives.
pub(crate) type BuildNode = Box<dyn FnOnce() -> Box<dyn Node> + Send>;

/// One node's transport.
pub(crate) trait Transport: Send + Sync {
    /// Queue `frame` for `to`. Frames from one node to one peer arrive in
    /// send order. A send made on the node's loop only queues, and the
    /// loop delivers what its turn queued at the turn's end, one batch per
    /// peer; any other thread's send goes out without waiting for a turn
    /// (on sockets, the loop is woken to write it), and may block while a
    /// socket peer's bounded queue is full. Never fails: after
    /// [`Transport::shutdown`] (or towards a peer that is gone) the frame
    /// is dropped, which the protocols' timeouts cover.
    fn send(&self, to: NodeId, frame: Frame);
    /// Build the node `build` returns on this transport's loop thread and
    /// drive it there: every batch on `inbound` (queued ones first) and
    /// every deadline it names, until it is done or the transport shuts
    /// down.
    fn serve(self: Arc<Self>, inbound: InboundBatches, build: BuildNode);
    /// Nanoseconds since the run epoch — the clock of `Frame::Msg::sent_ns`,
    /// probe stamps, span phases and node-local timers.
    fn now_ns(&self) -> u64;
    /// Stop sending and end the loop once the frames already queued on its
    /// inbound are read, and join it unless called there; it ends even if
    /// clones of this transport are still held elsewhere. Idempotent.
    fn shutdown(&self);
    /// The socket plane underneath, when there is one: per-peer counters,
    /// wire telemetry, peer gossip and the reconnect drill only exist there.
    fn wire(&self) -> Option<&ConnectionManager> {
        None
    }
}

impl Transport for ConnectionManager {
    fn send(&self, to: NodeId, frame: Frame) {
        let _ = ConnectionManager::send(self, to, frame);
    }
    fn serve(self: Arc<Self>, inbound: InboundBatches, build: BuildNode) {
        ConnectionManager::serve(&self, inbound, build);
    }
    fn now_ns(&self) -> u64 {
        ConnectionManager::now_ns(self)
    }
    fn shutdown(&self) {
        ConnectionManager::shutdown(self);
    }
    fn wire(&self) -> Option<&ConnectionManager> {
        Some(self)
    }
}

type Batch = (NodeId, Vec<Frame>);

/// One node of an in-process channel fabric (see [`channel_fabric`]).
pub(crate) struct ChanNode {
    me: NodeId,
    epoch: Instant,
    servers: u32,
    /// One link per node of the fabric, indexed servers-then-client-host;
    /// emptied by `shutdown`.
    links: Mutex<Vec<Link>>,
    pool: Mutex<VecPool<Frame>>,
    /// The loop thread [`Transport::serve`] started, whose sends only queue.
    looper: OnceLock<ThreadId>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

struct Link {
    tx: Sender<Batch>,
    /// Frames the loop's node sent this turn, awaiting its end.
    pending: Vec<Frame>,
}

/// Wire `servers` server nodes and one client host to each other with
/// unbounded channels. Returns the nodes in link order: `Server(0..n)`,
/// then `ClientHost(0)`.
pub(crate) fn channel_fabric(servers: u32, epoch: Instant) -> Vec<(Arc<ChanNode>, InboundBatches)> {
    let ids: Vec<NodeId> = (0..servers)
        .map(NodeId::Server)
        .chain([NodeId::ClientHost(0)])
        .collect();
    let (txs, rxs): (Vec<_>, Vec<_>) = ids.iter().map(|_| channel()).unzip();
    ids.into_iter()
        .zip(rxs)
        .map(|(me, rx)| {
            let links = txs
                .iter()
                .map(|tx| Link {
                    tx: tx.clone(),
                    pending: Vec::new(),
                })
                .collect();
            let node = ChanNode {
                me,
                epoch,
                servers,
                links: Mutex::new(links),
                pool: Mutex::new(VecPool::default()),
                looper: OnceLock::new(),
                thread: Mutex::new(None),
            };
            (Arc::new(node), rx)
        })
        .collect()
}

impl ChanNode {
    fn link_of(&self, to: NodeId) -> usize {
        match to {
            NodeId::Server(s) => s as usize,
            NodeId::ClientHost(_) => self.servers as usize,
        }
    }

    /// Deliver what is pending on `link` as one batch.
    fn flush(&self, link: &mut Link) {
        if !link.pending.is_empty() {
            let spare = plock(&self.pool).get();
            let batch = std::mem::replace(&mut link.pending, spare);
            let _ = link.tx.send((self.me, batch));
        }
    }

    fn flush_turn(&self) {
        for link in plock(&self.links).iter_mut() {
            self.flush(link);
        }
    }

    /// The loop [`Transport::serve`] runs: a turn takes every batch already
    /// queued, or a deadline, then asks the node for its next one, and
    /// delivers its sends as it ends. An empty batch — no flush sends one —
    /// is `shutdown`'s end marker.
    fn run(&self, build: BuildNode, inbound: InboundBatches) {
        let _ = self.looper.set(thread::current().id());
        let mut node = build();
        let mut wait = node.on_due();
        'turns: loop {
            self.flush_turn();
            let mut next = match inbound.recv_timeout(wait.unwrap_or(Duration::MAX)) {
                Ok(batch) => Some(batch),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            while let Some((from, mut frames)) = next {
                if frames.is_empty() || !node.on_frames(from, &mut frames) {
                    break 'turns;
                }
                plock(&self.pool).put(frames);
                next = inbound.try_recv().ok();
            }
            wait = node.on_due();
        }
        self.flush_turn();
    }
}

impl Transport for ChanNode {
    fn send(&self, to: NodeId, frame: Frame) {
        let on_loop = self.looper.get() == Some(&thread::current().id());
        let mut links = plock(&self.links);
        let Some(link) = links.get_mut(self.link_of(to)) else {
            return; // shut down
        };
        link.pending.push(frame);
        if !on_loop {
            self.flush(link);
        }
    }
    fn serve(self: Arc<Self>, inbound: InboundBatches, build: BuildNode) {
        let name = match self.me {
            NodeId::Server(s) => format!("cx-srv{s}"),
            NodeId::ClientHost(_) => "cx-host".into(),
        };
        let me = Arc::clone(&self);
        let t = thread::Builder::new()
            .name(name)
            .spawn(move || me.run(build, inbound))
            .expect("spawn a channel node's loop");
        *plock(&self.thread) = Some(t);
    }
    fn now_ns(&self) -> u64 {
        cx_net::clock::ns_since(self.epoch)
    }
    fn shutdown(&self) {
        let links = std::mem::take(&mut *plock(&self.links));
        let Some(t) = plock(&self.thread).take() else {
            return;
        };
        if let Some(own) = links.get(self.link_of(self.me)) {
            let _ = own.tx.send((self.me, Vec::new()));
        }
        drop(links);
        if t.thread().id() != thread::current().id() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn probe(token: u64) -> Frame {
        Frame::Probe { token, t0_ns: 0 }
    }

    fn tokens(batch: &[Frame]) -> Vec<u64> {
        batch
            .iter()
            .map(|f| match f {
                Frame::Probe { token, .. } => *token,
                other => panic!("unexpected frame {other:?}"),
            })
            .collect()
    }

    /// A served node that sends `PER_SENDER` probes to the client host
    /// from its loop, ten per turn, one turn after another.
    struct Burst {
        net: Arc<ChanNode>,
        next: u64,
    }

    const PER_SENDER: u64 = 2_000;

    impl Node for Burst {
        fn on_frames(&mut self, _: NodeId, frames: &mut Vec<Frame>) -> bool {
            frames.clear();
            true
        }

        fn on_due(&mut self) -> Option<Duration> {
            for _ in 0..10.min(PER_SENDER - self.next) {
                self.net.send(NodeId::ClientHost(0), probe(self.next));
                self.next += 1;
            }
            (self.next < PER_SENDER).then_some(Duration::ZERO)
        }
    }

    /// Four nodes send to one receiver at once, two from their served
    /// loops and two from threads of their own: the receiver sees each
    /// sender's frames in that sender's order.
    #[test]
    fn per_sender_fifo_under_four_concurrent_senders() {
        let mut fabric = channel_fabric(4, Instant::now());
        let (_, host_rx) = fabric.pop().expect("client host");
        let start = Arc::new(Barrier::new(4));
        let mut senders = Vec::new();
        let mut nodes = Vec::new();
        for (i, (node, rx)) in fabric.into_iter().enumerate() {
            let start = Arc::clone(&start);
            let net = Arc::clone(&node);
            if i % 2 == 0 {
                let build = move || {
                    start.wait();
                    Box::new(Burst { net, next: 0 }) as Box<dyn Node>
                };
                Arc::clone(&node).serve(rx, Box::new(build));
            } else {
                senders.push(thread::spawn(move || {
                    start.wait();
                    for t in 0..PER_SENDER {
                        net.send(NodeId::ClientHost(0), probe(t));
                    }
                }));
            }
            nodes.push(node);
        }
        let mut next = [0u64; 4];
        while next != [PER_SENDER; 4] {
            let (from, batch) = host_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{e:?} with {next:?} received"));
            let NodeId::Server(s) = from else {
                panic!("unexpected sender {from}");
            };
            for t in tokens(&batch) {
                assert_eq!(t, next[s as usize], "srv{s} out of order");
                next[s as usize] += 1;
            }
        }
        for t in senders {
            t.join().expect("sender thread");
        }
        for node in &nodes {
            node.shutdown();
        }
        assert!(host_rx.try_recv().is_err(), "nothing past the last probe");
    }

    /// Answers the first probe it reads with three probes to each server
    /// from `on_frames` and one more to `srv0` from the `on_due` that
    /// ends the same turn.
    struct Fan {
        net: Arc<ChanNode>,
        due: bool,
    }

    impl Node for Fan {
        fn on_frames(&mut self, _: NodeId, frames: &mut Vec<Frame>) -> bool {
            frames.clear();
            for t in 0..3 {
                self.net.send(NodeId::Server(0), probe(t));
                self.net.send(NodeId::Server(1), probe(10 + t));
            }
            self.due = true;
            true
        }

        fn on_due(&mut self) -> Option<Duration> {
            if std::mem::take(&mut self.due) {
                self.net.send(NodeId::Server(0), probe(3));
            }
            None
        }
    }

    /// A turn's sends go out when it ends: each peer gets one batch, in
    /// send order, and nothing trails it. A send from another thread goes
    /// out at once.
    #[test]
    fn a_turn_delivers_one_batch_per_link_and_nothing_late() {
        let mut fabric = channel_fabric(2, Instant::now());
        let (host, host_rx) = fabric.pop().expect("client host");
        let net = Arc::clone(&host);
        let build = move || Box::new(Fan { net, due: false }) as Box<dyn Node>;
        Arc::clone(&host).serve(host_rx, Box::new(build));
        fabric[0].0.send(NodeId::ClientHost(0), probe(7));
        let wait = Duration::from_secs(5);
        let (from, batch) = fabric[0].1.recv_timeout(wait).expect("srv0's batch");
        assert_eq!((from, tokens(&batch)), (host.me, vec![0, 1, 2, 3]));
        let (_, batch) = fabric[1].1.recv_timeout(wait).expect("srv1's batch");
        assert_eq!(tokens(&batch), vec![10, 11, 12]);
        thread::sleep(Duration::from_millis(50));
        for (_, rx) in &fabric {
            assert!(rx.try_recv().is_err(), "a frame trailed the turn");
        }
        host.send(NodeId::Server(1), probe(99));
        assert_eq!(tokens(&fabric[1].1.try_recv().expect("direct").1), [99]);
        host.shutdown();
    }

    /// Shutting every node down disconnects every receiver although all the
    /// `Arc<ChanNode>`s are still alive — no loop blocked on an inbound can
    /// outlive the run because someone kept a handle. Queued frames are
    /// still read first.
    #[test]
    fn shutdown_disconnects_every_inbound() {
        let fabric = channel_fabric(3, Instant::now());
        fabric[0].0.send(NodeId::Server(1), probe(7));
        for (node, _) in &fabric {
            node.shutdown();
        }
        fabric[0].0.send(NodeId::Server(1), probe(8)); // dropped
        assert_eq!(tokens(&fabric[1].1.recv().expect("queued").1), [7]);
        for (_, rx) in &fabric {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(5)).unwrap_err(),
                RecvTimeoutError::Disconnected
            );
        }
    }
}
