//! The wire's read path through `cx_net`'s public API only: nothing a
//! socket delivers before its `Hello` — silence, a wrong first frame, an
//! oversized length prefix, half a handshake — may delay another peer's
//! frames, and a node's connections are read one generation at a time.

use cx_net::conn::InboundBatches;
use cx_net::{
    encode_to_vec, AddrBook, ConnectionManager, Frame, NodeId, PlaneConfig, MAX_FRAME_LEN,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LIVE: NodeId = NodeId::Server(0);
const NODE: NodeId = NodeId::Server(1);

/// A receiving node and a live peer that has its address.
fn node_and_live_peer() -> (ConnectionManager, InboundBatches, ConnectionManager) {
    let book = Arc::new(AddrBook::new());
    let (node, rx) = ConnectionManager::start(NODE, Arc::clone(&book), PlaneConfig::default())
        .expect("bind node");
    book.set(NODE, node.listen_addr());
    let (live, _) =
        ConnectionManager::start(LIVE, book, PlaneConfig::default()).expect("bind live peer");
    (node, rx, live)
}

fn probe(token: u64) -> Frame {
    Frame::Probe { token, t0_ns: 0 }
}

/// Time from the live peer's first send to its frame leaving the node's
/// inbound channel; the peer dials (and sends its `Hello`) inside `send`.
fn live_first_frame(rx: &InboundBatches, live: &ConnectionManager) -> Duration {
    let t = Instant::now();
    live.send(NODE, probe(7)).expect("send");
    let got = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the live peer's frame arrives");
    let took = t.elapsed();
    assert_eq!(got, (LIVE, vec![probe(7)]), "only the live peer's frame");
    took
}

/// Has the node closed this dialer's connection (EOF or reset)?
fn dropped_by_node(mut s: TcpStream) -> bool {
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    match s.read(&mut [0u8; 16]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

fn dial(addr: SocketAddr, first_bytes: &[u8]) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("dial the node");
    s.write_all(first_bytes).expect("write");
    s
}

#[test]
fn silent_dialers_do_not_delay_a_live_peer() {
    let (node, rx, live) = node_and_live_peer();
    // Connected before the live peer dials, and never a byte sent.
    let silent: Vec<TcpStream> = (0..3).map(|_| dial(node.listen_addr(), &[])).collect();
    let took = live_first_frame(&rx, &live);
    assert!(
        took < Duration::from_secs(1),
        "first frame took {took:?} behind {} silent dialers",
        silent.len()
    );
    live.shutdown();
    node.shutdown();
}

/// A crowd of silent dialers: each one's handshake state is one fd and a
/// small buffer, and none of them delays the live peer.
#[test]
fn many_silent_dialers_do_not_delay_a_live_peer() {
    let (node, rx, live) = node_and_live_peer();
    let silent: Vec<TcpStream> = (0..256).map(|_| dial(node.listen_addr(), &[])).collect();
    let took = live_first_frame(&rx, &live);
    assert!(
        took < Duration::from_secs(1),
        "first frame took {took:?} behind {} silent dialers",
        silent.len()
    );
    live.shutdown();
    node.shutdown();
}

#[test]
fn garbage_first_bytes_are_dropped_without_delaying_a_live_peer() {
    let (node, rx, live) = node_and_live_peer();
    let not_hello = dial(node.listen_addr(), &encode_to_vec(&probe(1)));
    let oversized = dial(node.listen_addr(), &(MAX_FRAME_LEN + 1).to_le_bytes());
    let took = live_first_frame(&rx, &live);
    assert!(took < Duration::from_secs(1), "first frame took {took:?}");
    assert!(
        dropped_by_node(not_hello),
        "a first frame that is not a Hello"
    );
    assert!(
        dropped_by_node(oversized),
        "a length prefix over MAX_FRAME_LEN"
    );
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "nothing a garbage dialer sent is delivered"
    );
    live.shutdown();
    node.shutdown();
}

#[test]
fn half_a_hello_then_close_leaves_no_stall() {
    let (node, rx, live) = node_and_live_peer();
    let stranger = NodeId::ClientHost(9);
    let hello = encode_to_vec(&Frame::Hello {
        node: stranger,
        listen_port: 1,
    });
    drop(dial(node.listen_addr(), &hello[..hello.len() / 2]));
    let took = live_first_frame(&rx, &live);
    assert!(took < Duration::from_secs(1), "first frame took {took:?}");
    assert_eq!(node.book().get(stranger), None, "a half Hello names nobody");
    live.shutdown();
    node.shutdown();
}

/// Per-peer FIFO across reconnects: while a node's older connection is
/// open, nothing from its newer one is delivered, and the newer one's
/// frames — even those already buffered behind its `Hello` — follow the
/// older one's EOF. The older connection's frames are written *after* the
/// newer one's, so only the read order can put them first.
#[test]
fn a_newer_connection_is_read_only_after_the_older_one_closes() {
    let (node, rx, _live) = node_and_live_peer();
    let peer = NodeId::Server(5);
    let hello = encode_to_vec(&Frame::Hello {
        node: peer,
        listen_port: 0,
    });
    let frames = |tokens: std::ops::Range<u64>| -> Vec<u8> {
        tokens.flat_map(|t| encode_to_vec(&probe(t))).collect()
    };
    let mut older = dial(node.listen_addr(), &hello);
    let newer = dial(node.listen_addr(), &[hello, frames(100..200)].concat());
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the newer connection is not read while the older one is open"
    );
    older.write_all(&frames(0..100)).expect("write");
    drop(older);
    let mut got = Vec::new();
    while got.len() < 200 {
        let (from, batch) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("both generations arrive");
        assert_eq!(from, peer);
        got.extend(batch);
    }
    assert_eq!(got, (0..200).map(probe).collect::<Vec<_>>());
    drop(newer);
    node.shutdown();
}
