//! The seam between the wall-clock runtime and whatever carries its
//! frames: a node hands [`Frame`]s to a [`Transport`] and reads
//! `(sender, frames)` batches, per-sender FIFO, from the [`InboundBatches`]
//! channel wired up with it. Two carriers exist — `cx-net`'s
//! [`ConnectionManager`] (real sockets) and [`ChanNode`] (the same `Frame`
//! *values* over in-process channels, no encode, no socket) — and
//! [`crate::wall`] is written against the trait alone, so which one a run
//! uses is decided by the entry point called.

use crossbeam::channel::{unbounded, Sender};
use cx_net::conn::InboundBatches;
use cx_net::{ConnectionManager, CorkGuard, Frame, NodeId};
use cx_types::VecPool;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One node's outbound half.
pub(crate) trait Transport: Send + Sync {
    /// Queue `frame` for `to`. Frames from one node to one peer arrive in
    /// send order. May block while a socket peer's bounded queue is full;
    /// never fails: after [`Transport::shutdown`] (or towards a peer that
    /// is gone) the frame is dropped, which the protocols' timeouts cover.
    fn send(&self, to: NodeId, frame: Frame);
    /// While the returned guard lives, `send` only queues; dropping the
    /// last live guard of this node delivers everything queued, one batch
    /// per peer. Guards nest and may overlap across threads.
    fn cork_scope(&self) -> Cork<'_>;
    /// Hand a drained inbound batch back for reuse (optional).
    fn recycle_batch(&self, batch: Vec<Frame>);
    /// Nanoseconds since the run epoch — the clock of `Frame::Msg::sent_ns`,
    /// probe stamps, span phases and node-local timers.
    fn now_ns(&self) -> u64;
    /// Stop sending and disconnect this node's inbound channel once the
    /// frames already queued on it are read; a loop blocked on it exits even
    /// if clones of this transport are still held elsewhere. Idempotent.
    fn shutdown(&self);
    /// The socket plane underneath, when there is one: health rows, wire
    /// telemetry, peer gossip and the reconnect drill only exist there.
    fn wire(&self) -> Option<&ConnectionManager> {
        None
    }
}

/// A live cork scope (see [`Transport::cork_scope`]); held for its drop.
pub(crate) enum Cork<'a> {
    Wire(#[allow(dead_code)] CorkGuard<'a>),
    Chan(#[allow(dead_code)] ChanCork<'a>),
}

impl Transport for ConnectionManager {
    fn send(&self, to: NodeId, frame: Frame) {
        let _ = ConnectionManager::send(self, to, frame);
    }
    fn cork_scope(&self) -> Cork<'_> {
        Cork::Wire(ConnectionManager::cork_scope(self))
    }
    fn recycle_batch(&self, batch: Vec<Frame>) {
        ConnectionManager::recycle_batch(self, batch);
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

/// One node of an in-process channel fabric (see [`channel_fabric`]).
pub(crate) struct ChanNode {
    me: NodeId,
    epoch: Instant,
    servers: u32,
    /// One link per node of the fabric, indexed servers-then-client-host;
    /// emptied by `shutdown`, which is what disconnects the receivers.
    links: Mutex<Vec<Link>>,
    cork_depth: AtomicUsize,
    pool: Mutex<VecPool<Frame>>,
}

struct Link {
    tx: Sender<(NodeId, Vec<Frame>)>,
    /// Frames sent under a cork, awaiting the scope's end.
    pending: Vec<Frame>,
}

pub(crate) struct ChanCork<'a>(&'a ChanNode);

/// Wire `servers` server nodes and one client host to each other with
/// unbounded channels. Returns the nodes in link order: `Server(0..n)`,
/// then `ClientHost(0)`.
pub(crate) fn channel_fabric(servers: u32, epoch: Instant) -> Vec<(Arc<ChanNode>, InboundBatches)> {
    let ids: Vec<NodeId> = (0..servers)
        .map(NodeId::Server)
        .chain([NodeId::ClientHost(0)])
        .collect();
    let (txs, rxs): (Vec<_>, Vec<_>) = ids.iter().map(|_| unbounded()).unzip();
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
                cork_depth: AtomicUsize::new(0),
                pool: Mutex::new(VecPool::default()),
            };
            (Arc::new(node), rx)
        })
        .collect()
}

impl ChanNode {
    /// Deliver what is pending on `link` as one batch.
    fn flush(&self, link: &mut Link) {
        if !link.pending.is_empty() {
            let spare = self.pool.lock().get();
            let batch = std::mem::replace(&mut link.pending, spare);
            let _ = link.tx.send((self.me, batch));
        }
    }
}

impl Transport for ChanNode {
    fn send(&self, to: NodeId, frame: Frame) {
        let at = match to {
            NodeId::Server(s) => s,
            NodeId::ClientHost(_) => self.servers,
        };
        let mut links = self.links.lock();
        let Some(link) = links.get_mut(at as usize) else {
            return; // shut down
        };
        link.pending.push(frame);
        // The depth is read under the links lock and the last guard takes
        // that lock after its decrement, so a frame left pending here is
        // always seen by that guard's flush.
        if self.cork_depth.load(Ordering::SeqCst) == 0 {
            self.flush(link);
        }
    }
    fn cork_scope(&self) -> Cork<'_> {
        self.cork_depth.fetch_add(1, Ordering::SeqCst);
        Cork::Chan(ChanCork(self))
    }
    fn recycle_batch(&self, batch: Vec<Frame>) {
        self.pool.lock().put(batch);
    }
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
    fn shutdown(&self) {
        self.links.lock().clear();
    }
}

impl Drop for ChanCork<'_> {
    fn drop(&mut self) {
        if self.0.cork_depth.fetch_sub(1, Ordering::SeqCst) == 1 {
            for link in self.0.links.lock().iter_mut() {
                self.0.flush(link);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvTimeoutError;
    use std::sync::Barrier;
    use std::time::Duration;

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

    /// Four nodes send to one receiver at once, half of them corked: the
    /// receiver sees each sender's frames in that sender's order.
    #[test]
    fn per_sender_fifo_under_four_concurrent_senders() {
        const PER_SENDER: u64 = 2_000;
        let mut fabric = channel_fabric(4, Instant::now());
        let (_, host_rx) = fabric.pop().expect("client host");
        let start = Arc::new(Barrier::new(4));
        let senders: Vec<_> = fabric
            .into_iter()
            .enumerate()
            .map(|(i, (node, _rx))| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for chunk in 0..PER_SENDER / 10 {
                        let _cork = (i % 2 == 0).then(|| node.cork_scope());
                        for k in 0..10 {
                            node.send(NodeId::ClientHost(0), probe(chunk * 10 + k));
                        }
                    }
                    node.shutdown();
                })
            })
            .collect();
        let mut next = [0u64; 4];
        while let Ok((from, batch)) = host_rx.recv_timeout(Duration::from_secs(10)) {
            let NodeId::Server(s) = from else {
                panic!("unexpected sender {from}");
            };
            for t in tokens(&batch) {
                assert_eq!(t, next[s as usize], "srv{s} out of order");
                next[s as usize] += 1;
            }
        }
        assert_eq!(next, [PER_SENDER; 4]);
        for t in senders {
            t.join().expect("sender thread");
        }
    }

    /// Inside a scope nothing is delivered; when the (outermost) guard
    /// drops, each peer gets one batch, in send order, and nothing trails.
    #[test]
    fn cork_scope_delivers_one_batch_per_peer_and_nothing_late() {
        let fabric = channel_fabric(2, Instant::now());
        let host = Arc::clone(&fabric[2].0);
        {
            let _outer = host.cork_scope();
            {
                let _inner = host.cork_scope();
                for t in 0..3 {
                    host.send(NodeId::Server(0), probe(t));
                    host.send(NodeId::Server(1), probe(10 + t));
                }
            }
            host.send(NodeId::Server(0), probe(3));
            for (_, rx) in &fabric[..2] {
                assert!(rx.try_recv().is_err(), "delivered inside the scope");
            }
        }
        let (from, batch) = fabric[0].1.try_recv().expect("srv0's batch");
        assert_eq!((from, tokens(&batch)), (host.me, vec![0, 1, 2, 3]));
        let (_, batch) = fabric[1].1.try_recv().expect("srv1's batch");
        assert_eq!(tokens(&batch), vec![10, 11, 12]);
        for (_, rx) in &fabric[..2] {
            assert!(rx.try_recv().is_err(), "a frame trailed the scope");
        }
        // Uncorked sends go out at once, one frame per batch; a recycled
        // batch is what carries the next one.
        host.recycle_batch(batch);
        host.send(NodeId::Server(1), probe(99));
        assert_eq!(tokens(&fabric[1].1.try_recv().expect("direct").1), [99]);
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
