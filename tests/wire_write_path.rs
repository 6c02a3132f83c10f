//! The wire's write path through `cx_net`'s public API only: no thread
//! blocks in a socket write, so a peer that never reads cannot wedge
//! `shutdown`, two nodes flooding each other cannot deadlock, and a
//! manager runs one thread of its own however many peers it writes to.
//! A node served on that thread never blocks it: a full queue stops
//! client reads instead, deadlines wake the loop without traffic, and a
//! node that is done ends it.

use cx_cluster::{TcpCluster, ThreadedCluster};
use cx_net::conn::Node;
use cx_net::{encode_to_vec, read_frame, AddrBook, ConnectionManager, Frame, NodeId, PlaneConfig};
use cx_types::{BatchTrigger, ClusterConfig, Protocol};
use cx_workloads::{StreamTrace, TraceBuilder, TraceProfile};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The thread census counts every `cx-` thread in the process, so the
/// cases here run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

fn probe(token: u64) -> Frame {
    Frame::Probe { token, t0_ns: 0 }
}

fn start(me: NodeId, book: &Arc<AddrBook>) -> (ConnectionManager, cx_net::conn::InboundBatches) {
    let (mgr, rx) =
        ConnectionManager::start(me, Arc::clone(book), PlaneConfig::default()).expect("bind");
    book.set(me, mgr.listen_addr());
    (mgr, rx)
}

/// Run `f` on its own thread and wait at most `limit` for it, so a hang
/// fails the case instead of the whole suite.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("still blocked after {limit:?}"))
}

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|s| s.trim_end().to_owned())
        .collect()
}

fn count(names: &[String], name: &str) -> usize {
    names.iter().filter(|n| *n == name).count()
}

/// A peer whose listener is bound but never accepts and never reads: the
/// kernel completes the dial, the socket buffers fill, and the sender ends
/// up blocked by backpressure. `shutdown` must still return, and turn the
/// sender away.
#[test]
fn shutdown_returns_behind_a_deaf_peer() {
    let _serial = one_at_a_time();
    let deaf = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind the deaf peer");
    let book = Arc::new(AddrBook::new());
    book.set(NodeId::Server(1), deaf.local_addr().expect("addr"));
    let (a, _rx) = start(NodeId::Server(0), &book);
    let a = Arc::new(a);

    let (sent_tx, sent_rx) = mpsc::channel();
    {
        let a = Arc::clone(&a);
        thread::spawn(move || {
            let mut t = 0u64;
            while a.send(NodeId::Server(1), probe(t)).is_ok() {
                t += 1;
            }
            let _ = sent_tx.send(t);
        });
    }
    thread::sleep(Duration::from_secs(2));
    assert!(
        sent_rx.try_recv().is_err(),
        "the sender was still sending when shutdown began"
    );
    let t = Instant::now();
    let took = within(Duration::from_secs(5), move || {
        a.shutdown();
        t.elapsed()
    });
    assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    let sent = sent_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the blocked sender gets Err from shutdown");
    assert!(sent > 0, "{sent} probes queued before the buffers filled");
    drop(deaf);
}

/// A peer that reads nothing for a while, then everything: the socket
/// fills, the flush parks with the I/O thread, and once the peer reads
/// again the thread resumes it on `POLLOUT` — every frame arrives, once
/// and in order — and a send after the backlog is gone still goes out.
#[test]
fn a_stalled_flush_resumes_when_the_peer_reads() {
    let _serial = one_at_a_time();
    const N: u32 = 2_000; // 16 MB of 8 KiB frames, past the socket buffers
    let slow = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind the slow peer");
    let book = Arc::new(AddrBook::new());
    book.set(NodeId::Server(1), slow.local_addr().expect("addr"));
    let (a, _rx) = start(NodeId::Server(0), &book);
    let a = Arc::new(a);
    let frame = |i: u32| Frame::Peers {
        servers: vec![(i, "x".repeat(8 << 10))],
    };
    let sender = {
        let a = Arc::clone(&a);
        thread::spawn(move || (0..N).all(|i| a.send(NodeId::Server(1), frame(i)).is_ok()))
    };
    let (mut conn, _) = slow.accept().expect("the manager dials");
    thread::sleep(Duration::from_millis(500));
    let (got, mut conn) = within(Duration::from_secs(60), move || {
        let hello = read_frame(&mut conn).expect("read").expect("a Hello");
        assert!(matches!(hello, Frame::Hello { .. }), "{hello:?}");
        let got = (0..N).all(|i| read_frame(&mut conn).ok().flatten() == Some(frame(i)));
        (got, conn)
    });
    assert!(got, "every frame, once and in order");
    assert!(sender.join().expect("sender"), "every send returned Ok");
    a.send(NodeId::Server(1), frame(N)).expect("send");
    let last = within(Duration::from_secs(10), move || {
        read_frame(&mut conn).ok().flatten()
    });
    assert_eq!(last, Some(frame(N)), "the link is live again");
    a.shutdown();
}

/// A manager that has written to four live peers adds exactly one thread
/// of its own: its `cx-io`, which reads and writes for every peer. The
/// cases run one at a time, so every `cx-` thread is one of these five
/// managers'.
#[test]
fn one_thread_per_manager() {
    let _serial = one_at_a_time();
    let book = Arc::new(AddrBook::new());
    let peers: Vec<_> = (1..=4).map(|s| start(NodeId::Server(s), &book)).collect();
    let (a, _rx) = start(NodeId::Server(0), &book);
    for t in 0..100 {
        for s in 1..=4 {
            a.send(NodeId::Server(s), probe(t)).expect("send");
        }
    }
    for (_, rx) in &peers {
        let mut got = 0;
        while got < 100 {
            let (_, batch) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every peer hears from the manager");
            got += batch.len();
        }
    }
    let after = thread_names();
    assert_eq!(count(&after, "cx-wd"), 0, "no writer daemons: {after:?}");
    assert_eq!(
        count(&after, "cx-io"),
        5,
        "one cx-io per manager: {after:?}"
    );
    // The four peers' `cx-io` plus the manager's: nothing else of cx-net's.
    let cx = after.iter().filter(|n| n.starts_with("cx-")).count();
    assert_eq!(cx, 5, "the five managers' threads: {after:?}");
    a.shutdown();
    for (p, _) in &peers {
        p.shutdown();
    }
}

/// Two managers each send a million probes to the other, from one thread
/// each, before either inbound channel is read: about 20 MB each way.
/// Loopback's readers keep up with one sender each, so the flood alone
/// rarely fills a socket; each manager's I/O thread therefore also holds a
/// flush stalled on a peer that never reads. Had that thread blocked in
/// the write, it would stop reading and the flood could not finish.
#[test]
fn mutual_flood_delivers_every_frame_once_in_order() {
    let _serial = one_at_a_time();
    const N: u64 = 1_000_000;
    const DEAF: NodeId = NodeId::Server(2);
    let deaf = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind the deaf peer");
    let book = Arc::new(AddrBook::new());
    book.set(DEAF, deaf.local_addr().expect("addr"));
    let (a, rx_a) = start(NodeId::Server(0), &book);
    let (b, rx_b) = start(NodeId::Server(1), &book);
    let (a, b) = (Arc::new(a), Arc::new(b));

    // 8 KiB frames fill the deaf peer's socket within milliseconds; the
    // senders then block on the full queue until shutdown turns them away.
    let stuck = [&a, &b].map(|m| {
        let m = Arc::clone(m);
        let big = Frame::Peers {
            servers: vec![(0, "x".repeat(8 << 10))],
        };
        thread::spawn(move || while m.send(DEAF, big.clone()).is_ok() {})
    });
    thread::sleep(Duration::from_millis(500));

    let flood = |from: &Arc<ConnectionManager>, to: NodeId| {
        let from = Arc::clone(from);
        thread::spawn(move || (0..N).all(|t| from.send(to, probe(t)).is_ok()))
    };
    let (to_b, to_a) = (flood(&a, NodeId::Server(1)), flood(&b, NodeId::Server(0)));
    let sent = within(Duration::from_secs(120), move || {
        (
            to_b.join().expect("a's sender"),
            to_a.join().expect("b's sender"),
        )
    });
    assert_eq!(sent, (true, true), "every send returned Ok");

    for (rx, from) in [(&rx_b, NodeId::Server(0)), (&rx_a, NodeId::Server(1))] {
        let mut next = 0u64;
        while next < N {
            let (who, batch) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the flood arrives");
            assert_eq!(who, from);
            for f in batch {
                assert_eq!(f, probe(next), "once and in order");
                next += 1;
            }
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "nothing past the last probe"
        );
    }
    within(Duration::from_secs(10), move || {
        a.shutdown();
        b.shutdown();
    });
    for s in stuck {
        s.join().expect("the deaf peer's sender");
    }
    drop(deaf);
}

/// Wait up to `limit` for `done`, failing with `what`.
fn wait_for(limit: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let t = Instant::now();
    while !done() {
        assert!(t.elapsed() < limit, "{what} within {limit:?}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// A node on its manager's loop that relays every client host frame to
/// `to` and counts the frames servers send it.
struct Relay {
    mgr: Arc<ConnectionManager>,
    to: NodeId,
    from_servers: Arc<AtomicU64>,
}

impl Node for Relay {
    fn on_frames(&mut self, from: NodeId, frames: &mut Vec<Frame>) -> bool {
        for f in frames.drain(..) {
            match from {
                NodeId::Server(_) => _ = self.from_servers.fetch_add(1, Ordering::Relaxed),
                NodeId::ClientHost(_) => _ = self.mgr.send(self.to, f),
            }
        }
        true
    }
}

/// Admission: a served node relays a client's flood to a server peer that
/// never reads. Its sends do not block the loop; once that peer's queue
/// passes the cap, the client goes unread while a live server's frames
/// still reach the node, and the queue stays within the cap plus one
/// `read` (256 KiB) of the client's frames.
#[test]
fn a_full_queue_stops_client_reads_but_not_server_reads() {
    let _serial = one_at_a_time();
    const NODE: NodeId = NodeId::Server(0);
    const DEAF: NodeId = NodeId::Server(1);
    const QUEUE_CAP: u64 = 1024;
    let one_read = (256 << 10) / encode_to_vec(&probe(0)).len() as u64 + 1;
    let deaf = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind the deaf peer");
    let book = Arc::new(AddrBook::new());
    book.set(DEAF, deaf.local_addr().expect("addr"));
    let (node, inbound) = start(NODE, &book);
    let node = Arc::new(node);
    let from_servers = Arc::new(AtomicU64::new(0));
    let relay = Relay {
        mgr: Arc::clone(&node),
        to: DEAF,
        from_servers: Arc::clone(&from_servers),
    };
    node.serve(inbound, move || relay);
    let (client, _rx) = start(NodeId::ClientHost(0), &book);
    let client = Arc::new(client);
    let flood = {
        let client = Arc::clone(&client);
        thread::spawn(move || (0..).all(|t| client.send(NODE, probe(t)).is_ok()))
    };
    let peak = {
        let node = Arc::clone(&node);
        move || {
            node.net_rows()
                .into_iter()
                .find(|(peer, _)| *peer == DEAF)
                .map_or(0, |(_, r)| r.queue_peak)
        }
    };
    wait_for(Duration::from_secs(60), "the deaf queue fills", || {
        peak() >= QUEUE_CAP
    });

    let (live, _rx) = start(NodeId::Server(2), &book);
    for t in 0..100 {
        live.send(NODE, probe(t)).expect("send");
    }
    wait_for(
        Duration::from_secs(10),
        "a live server's frames arrive",
        || from_servers.load(Ordering::Relaxed) == 100,
    );
    thread::sleep(Duration::from_secs(1));
    assert!(
        peak() <= QUEUE_CAP + one_read,
        "deaf queue peaked at {} > {QUEUE_CAP} + {one_read}",
        peak()
    );

    let t = Instant::now();
    let took = within(Duration::from_secs(5), move || {
        node.shutdown();
        t.elapsed()
    });
    assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    client.shutdown();
    live.shutdown();
    assert!(!flood.join().expect("the flood"), "shutdown ends the flood");
    drop(deaf);
}

/// The 4-server CTH run of the census cases, with a 5 ms batch trigger.
fn census_run() -> (ClusterConfig, StreamTrace) {
    let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
        .scale(0.001)
        .stream();
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5_000_000,
    };
    (cfg, trace)
}

/// Sample this process's thread names every 1 ms until `run` finishes;
/// returns its result and the samples.
fn census<T>(run: thread::JoinHandle<T>) -> (T, Vec<Vec<String>>) {
    let mut samples = Vec::new();
    while !run.is_finished() {
        samples.push(thread_names());
        thread::sleep(Duration::from_millis(1));
    }
    (run.join().expect("the run"), samples)
}

/// The most threads whose name starts with `prefix` in any one sample.
fn peak(samples: &[Vec<String>], prefix: &str) -> usize {
    let starts = |s: &Vec<String>| s.iter().filter(|n| n.starts_with(prefix)).count();
    samples.iter().map(starts).max().unwrap_or(0)
}

/// Frames one client operation can have queued to one server at once.
/// `ClientOp` sends at most one frame to each server when it starts (Cx
/// and SE: a sub-op request per server, 2PC/CE: one `OpReq` to the
/// coordinator), and every later frame — SE's second sub-op or `Clear`,
/// Cx's `LCom` — answers a reply from that server, which it sends only
/// after reading the op's earlier frame off the client host's queue.
const FRAMES_PER_OP_PER_SERVER: u64 = 1;

/// A 4-server loopback run: every node — four servers and the client host
/// with all its clients — runs on its manager's I/O loop, so the run shows
/// five `cx-io` threads, no `cx-srv` and no `cx-cli`. The host's sends on
/// its loop never block, so its queue to a server is bounded by the
/// closed loop instead: one frame per process at most.
#[test]
fn a_loopback_run_has_one_thread_per_server_node() {
    let _serial = one_at_a_time();
    let (cfg, trace) = census_run();
    let (ops, processes) = (trace.total_ops_hint, trace.processes as u64);
    let (res, samples) = census(thread::spawn(move || TcpCluster::run_stream(cfg, trace)));
    assert_eq!(res.violations, vec![]);
    assert_eq!(res.stats.ops_total, ops);
    let io_peak = samples.iter().map(|s| count(s, "cx-io")).max();
    assert_eq!(
        io_peak,
        Some(5),
        "cx-io threads over {} samples",
        samples.len()
    );
    assert_eq!(peak(&samples, "cx-srv"), 0, "cx-srv threads");
    assert_eq!(peak(&samples, "cx-cli"), 0, "cx-cli threads");
    let host: Vec<_> = res.net.rows.iter().filter(|r| r.on == "cli0").collect();
    assert_eq!(host.len(), 4, "the host wrote to every server");
    for r in host {
        assert!(
            r.queue_peak <= FRAMES_PER_OP_PER_SERVER * processes,
            "the host's queue to {} peaked at {} > {processes} processes",
            r.peer,
            r.queue_peak
        );
    }
}

/// The same run on channels: one loop thread per node — four `cx-srv`
/// and the client host's `cx-host` — and no `cx-cli` or `cx-pump`.
#[test]
fn a_channel_run_has_one_thread_per_node() {
    let _serial = one_at_a_time();
    let (cfg, trace) = census_run();
    let ops = trace.total_ops_hint;
    let (res, samples) = census(thread::spawn(move || {
        ThreadedCluster::run_stream(cfg, trace)
    }));
    assert_eq!(res.violations, vec![]);
    assert_eq!(res.stats.ops_total, ops);
    assert_eq!(peak(&samples, "cx-srv"), 4, "cx-srv threads");
    assert_eq!(peak(&samples, "cx-host"), 1, "cx-host threads");
    assert_eq!(peak(&samples, "cx-"), 5, "one thread per node");
    assert_eq!(peak(&samples, "cx-cli"), 0, "cx-cli threads");
    assert_eq!(peak(&samples, "cx-pump"), 0, "cx-pump threads");
}

/// A node whose only event is a deadline 30 ms out.
struct Alarm {
    at: Instant,
    fired: Option<mpsc::Sender<Instant>>,
}

impl Node for Alarm {
    fn on_frames(&mut self, _: NodeId, frames: &mut Vec<Frame>) -> bool {
        frames.clear();
        true
    }

    fn on_due(&mut self) -> Option<Duration> {
        let now = Instant::now();
        if now < self.at {
            return Some(self.at - now);
        }
        if let Some(tx) = self.fired.take() {
            let _ = tx.send(now);
        }
        None
    }
}

/// No frame ever arrives, so only the node's deadline in the poll
/// timeout can wake the loop: a timer-only path, like a presumed-abort
/// timeout, that no inbound traffic hides.
#[test]
fn a_node_deadline_fires_with_no_inbound_traffic() {
    let _serial = one_at_a_time();
    let book = Arc::new(AddrBook::new());
    let (node, inbound) = start(NodeId::Server(0), &book);
    let at = Instant::now() + Duration::from_millis(30);
    let (tx, fired) = mpsc::channel();
    let alarm = Alarm {
        at,
        fired: Some(tx),
    };
    node.serve(inbound, move || alarm);
    let when = fired
        .recv_timeout(Duration::from_secs(5))
        .expect("the deadline fires with no traffic");
    assert!(when >= at, "fired {:?} early", at - when);
    node.shutdown();
}

/// Replies to its first batch and is done.
struct Last {
    mgr: Arc<ConnectionManager>,
}

impl Node for Last {
    fn on_frames(&mut self, from: NodeId, frames: &mut Vec<Frame>) -> bool {
        frames.clear();
        self.mgr.send(from, probe(2)).expect("send");
        false
    }
}

/// A node that is done, as a server is after `Stop`, ends its loop: the
/// reply it sent last drains out, then the listener closes, which is what
/// a `cx_net_server` process waits for before it exits.
#[test]
fn a_done_node_drains_and_ends_its_loop() {
    let _serial = one_at_a_time();
    let book = Arc::new(AddrBook::new());
    let (node, inbound) = start(NodeId::Server(0), &book);
    let node = Arc::new(node);
    let mgr = Arc::clone(&node);
    node.serve(inbound, move || Last { mgr });
    let (peer, rx) = start(NodeId::Server(1), &book);
    peer.send(NodeId::Server(0), probe(1)).expect("send");
    let reply = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the last reply drains out");
    assert_eq!(reply, (NodeId::Server(0), vec![probe(2)]));
    let addr = node.listen_addr();
    wait_for(Duration::from_secs(5), "the listener closes", || {
        TcpStream::connect(addr).is_err()
    });
    node.shutdown();
    peer.shutdown();
}
