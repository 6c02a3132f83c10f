//! The connection manager through `cx_net`'s public API: frames cross
//! loopback in per-peer FIFO order, a dropped connection re-dials without
//! losing a frame (also mid-way through a served node's corked turn, and
//! hundreds of times in a row), `prime` dials before the first send, a
//! peer with no address backs off until one appears, and the per-peer
//! counters and flush telemetry add up and outlive `shutdown`.

use cx_net::conn::{InboundBatches, Node};
use cx_net::{AddrBook, ConnectionManager, Frame, NodeId, PlaneConfig, WireTotals};
use cx_obs::NetPeerRow;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Test shorthand: the payload of a frame is irrelevant to the transport
/// tests, so they all ship probes with a zero send timestamp.
fn probe(token: u64) -> Frame {
    Frame::Probe { token, t0_ns: 0 }
}

/// Collect the next `n` frames from a batched inbound channel,
/// tagging each with its sender.
fn recv_n(rx: &InboundBatches, n: usize) -> Vec<(NodeId, Frame)> {
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
    let (b, rx_b) =
        ConnectionManager::start_with_epoch(NodeId::ClientHost(1), Arc::clone(&book), cfg, epoch)
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
    let (b, rx_b) = ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), cfg).unwrap();
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

    let (b, rx_b) = ConnectionManager::start(NodeId::Server(1), Arc::clone(&book), cfg).unwrap();
    book.set(NodeId::Server(1), b.listen_addr());
    let (_, f) = recv_n(&rx_b, 1).pop().unwrap();
    assert_eq!(f, probe(7));
    a.shutdown();
    b.shutdown();
}

/// A served node that runs `turn` once per batch it reads, on its loop.
struct OnBatch<F>(F);

impl<F: FnMut() + Send> Node for OnBatch<F> {
    fn on_frames(&mut self, _: NodeId, frames: &mut Vec<Frame>) -> bool {
        frames.clear();
        (self.0)();
        true
    }
}

#[test]
fn an_off_loop_burst_is_written_in_few_flushes() {
    // One thread sends a burst a chunk at a time, each chunk queued while
    // the I/O thread is parked in its node (a trigger frame parks it): the
    // writer takes all that piled up in one gather, so the burst goes out
    // in batches, not one write per frame, however the two threads are
    // scheduled.
    let book = Arc::new(AddrBook::new());
    let start = |me| ConnectionManager::start(me, Arc::clone(&book), PlaneConfig::default());
    let (a, rx_a) = start(NodeId::Server(0)).unwrap();
    let (b, rx_b) = start(NodeId::Server(1)).unwrap();
    let (trigger, _rx_t) = start(NodeId::Server(2)).unwrap();
    book.set(NodeId::Server(0), a.listen_addr());
    book.set(NodeId::Server(1), b.listen_addr());
    a.send(NodeId::Server(1), probe(0)).unwrap();
    recv_n(&rx_b, 1);
    let (parked, held) = std::sync::mpsc::channel();
    let (release, released) = std::sync::mpsc::channel();
    a.serve(rx_a, move || {
        OnBatch(move || {
            parked.send(()).unwrap();
            released.recv().unwrap();
        })
    });

    const FRAMES: u64 = 20_000;
    // Within the queue's bound, so the sender never waits on the writer.
    const CHUNK: u64 = 1_000;
    let before = a.wire_totals();
    for first in (1..=FRAMES).step_by(CHUNK as usize) {
        trigger.send(NodeId::Server(0), probe(0)).unwrap();
        held.recv().unwrap();
        for t in first..first + CHUNK {
            a.send(NodeId::Server(1), probe(t)).unwrap();
        }
        release.send(()).unwrap();
        for (i, (_, f)) in recv_n(&rx_b, CHUNK as usize).into_iter().enumerate() {
            assert_eq!(f, probe(first + i as u64), "FIFO through the burst");
        }
    }
    let after = a.wire_totals();
    assert_eq!(after.frames - before.frames, FRAMES);
    let flushes = after.flushes - before.flushes;
    assert!(
        flushes <= FRAMES / 16,
        "{flushes} flushes for a {FRAMES}-frame burst"
    );
    a.shutdown();
    b.shutdown();
    trigger.shutdown();
}

#[test]
fn each_kill_in_one_turn_closes_its_own_generation() {
    // A kill is queued behind the frames sent before it: one turn's
    // a, kill, b, kill, c writes a on the first connection, b on the
    // second and c on the third.
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
    let a = Arc::new(a);
    a.send(NodeId::Server(1), probe(0)).unwrap();
    recv_n(&rx_b, 1);

    let mgr = Arc::clone(&a);
    a.serve(rx_a, move || {
        OnBatch(move || {
            let to = NodeId::Server(1);
            mgr.send(to, probe(1)).unwrap();
            assert!(mgr.drop_connection(to));
            mgr.send(to, probe(2)).unwrap();
            assert!(mgr.drop_connection(to));
            mgr.send(to, probe(3)).unwrap();
        })
    });
    trigger.send(NodeId::Server(0), probe(0)).unwrap();
    for (i, (_, f)) in recv_n(&rx_b, 3).into_iter().enumerate() {
        assert_eq!(f, probe(1 + i as u64), "FIFO across both kills");
    }
    assert_eq!(a.reconnects_total(), 2, "two kills, two generations closed");
    a.shutdown();
    b.shutdown();
    trigger.shutdown();
}
