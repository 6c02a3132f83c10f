//! The wall-clock runtime over real loopback sockets.
//!
//! Every message of a [`crate::wall`] run crosses a TCP connection through
//! `cx-net`'s [`ConnectionManager`]: length-prefixed wire frames, bounded
//! (backpressuring) per-peer outbound queues flushed without blocking,
//! reconnect with exponential backoff, per-peer wire counters. Each node —
//! every server and the client host — runs on its manager's one I/O
//! thread. Two deployment shapes:
//!
//! * **in-process loopback** ([`TcpCluster::run_stream`]) — every server
//!   node lives on its own I/O thread in this process, with a shared
//!   [`AddrBook`]; the integration tests and the benchmark's `tcp-*`
//!   workloads use this.
//! * **multi-process** ([`TcpCluster::run_external`] + [`serve_one`]) —
//!   one OS process per server (`cx_net_server`); the coordinator knows
//!   only their socket addresses and gossips the peer map with a
//!   [`Frame::Peers`] frame so servers can dial each other.

use crate::stats::RunStats;
use crate::wall::{run_wired, NodeIo, ServerNode, Wired};
use cx_mdstore::Violation;
use cx_net::{AddrBook, ConnectionManager, Frame, NodeId, PlaneConfig, WireTelemetry, WireTotals};
use cx_obs::{MetricRegistry, NetTable, ObsSink};
use cx_types::{ClusterConfig, ServerId};
use cx_workloads::{SeedEntry, StreamTrace};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A wall-clock run's metric registry: the client host adds each op to
/// `registry` as it completes, and the run adds what only its end knows
/// (message totals, the engines' protocol series, blame, the merged wire
/// series and whole-run wire rates) once, when it ends. Read it back with
/// `registry.snapshot()`.
pub struct LiveMetrics {
    pub registry: MetricRegistry,
}

impl LiveMetrics {
    pub fn new(registry: MetricRegistry) -> Self {
        Self { registry }
    }
}

/// Options for a TCP run.
pub struct TcpOptions {
    /// Observability sink installed into every in-process engine and
    /// client (external server processes run with their own sinks off).
    pub obs: ObsSink,
    /// Wire-plane tuning (reconnect backoff, flush-span recording).
    pub net: PlaneConfig,
    /// The registry the run publishes into.
    pub live: Option<LiveMetrics>,
    /// Reconnect drill: after this many completed client operations, drop
    /// the coordinator's connection to every server once, mid-run. The
    /// run must still complete losslessly (pending frames are retained
    /// and re-sent after the backoff re-dial); `TcpRunResult::reconnects`
    /// reports the re-dials observed.
    pub drop_conns_after_ops: Option<u64>,
    /// Read by nothing: every logical client runs on the client host's
    /// loop. Kept only because existing callers still set it; it goes with
    /// the next change to those callers.
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
    /// Every node's view of every peer it wrote to — rendered by
    /// `cx-obs net`. The coordinator's rows to the servers also carry the
    /// probe RTT and clock-offset columns.
    pub net: NetTable,
}

/// The TCP cluster runtime.
pub struct TcpCluster;

impl TcpCluster {
    /// Run `st` over in-process loopback TCP.
    pub fn run_stream(cfg: ClusterConfig, st: StreamTrace) -> TcpRunResult {
        Self::run_stream_opts(cfg, st, TcpOptions::default())
    }

    /// In-process loopback with explicit options.
    pub fn run_stream_opts(cfg: ClusterConfig, st: StreamTrace, opts: TcpOptions) -> TcpRunResult {
        let epoch = Instant::now();
        let wired = wire_sockets(cfg.servers, &opts.net, epoch, None);
        run_wired(cfg, st, opts, wired)
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
        let epoch = Instant::now();
        let wired = wire_sockets(cfg.servers, &opts.net, epoch, Some(addrs));
        run_wired(cfg, st, opts, wired)
    }
}

/// Bind a connection manager for `me` on the run's epoch. Every in-process
/// manager shares it, so loopback stamps (frame `sent_ns`, flush spans,
/// probe timestamps) live on one clock and need no offset correction;
/// external processes have their own epochs and get probe-estimated
/// offsets instead.
fn bind(me: NodeId, book: &Arc<AddrBook>, plane: &PlaneConfig, epoch: Instant) -> NodeIo {
    let (conn, inbound) =
        ConnectionManager::start_with_epoch(me, Arc::clone(book), plane.clone(), epoch)
            .expect("bind loopback listener");
    if let NodeId::Server(_) = me {
        book.set(me, conn.listen_addr());
    }
    NodeIo {
        net: Arc::new(conn),
        inbound,
    }
}

/// The client host plus either `servers` loopback server nodes sharing its
/// address book, or — given `external` addresses — no in-process servers:
/// the host learns where the server processes listen and gossips the peer
/// map to each so they can dial one another.
pub(crate) fn wire_sockets(
    servers: u32,
    plane: &PlaneConfig,
    epoch: Instant,
    external: Option<&[SocketAddr]>,
) -> Wired {
    let book = Arc::new(AddrBook::new());
    let host = bind(NodeId::ClientHost(0), &book, plane, epoch);
    let Some(addrs) = external else {
        // Every manager is bound (and in the book) before `run_wired`
        // builds any engine, so the first send to any peer finds its
        // address.
        let servers = (0..servers)
            .map(|i| bind(NodeId::Server(i), &book, plane, epoch))
            .collect();
        return Wired {
            host,
            servers,
            faults: None,
        };
    };
    assert_eq!(
        addrs.len(),
        servers as usize,
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
    for i in 0..servers {
        let servers = peers.clone();
        host.net.send(NodeId::Server(i), Frame::Peers { servers });
    }
    Wired {
        host,
        servers: Vec::new(),
        faults: None,
    }
}

/// Serve one metadata server over TCP until the coordinator sends `Stop`:
/// the body of the `cx_net_server` process. Binds an ephemeral loopback
/// port, hands the engine to its I/O loop, reports the port through
/// `on_listen` (the parent reads it from stdout), and returns once the
/// loop has drained the `StopResp` and exited. Peer addresses arrive over
/// the wire: the coordinator's `Hello` registers the client host, a
/// `Peers` frame names the other servers.
pub fn serve_one(
    cfg: &ClusterConfig,
    me: ServerId,
    seeds: &[SeedEntry],
    on_listen: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    serve_one_opts(cfg, me, seeds, ServeOptions::default(), on_listen)
}

/// Options for a hosted server-node process ([`serve_one_opts`]). None is
/// about metrics: the node's stats, protocol series and wire telemetry
/// ride its `StopResp` to the coordinator, whose registry publishes them.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Record a wall-clock span shard (phases stamped on this process's
    /// clock, spans created on first stamp) plus message edges, and ship
    /// both in the `StopResp` report for the coordinator to stitch into
    /// end-to-end spans.
    pub obs: bool,
    /// Wire-plane tuning, including `record_flush_spans`.
    pub net: PlaneConfig,
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
    // The manager's epoch is the clock of every wall-clock stamp this
    // process emits (probe timestamps, flush spans, span phases), so a
    // single probe-estimated offset corrects them all.
    let book = Arc::new(AddrBook::new());
    let (conn, inbound) = ConnectionManager::start(NodeId::Server(me.0), book, opts.net.clone())?;
    let conn = Arc::new(conn);
    let obs = if opts.obs {
        ObsSink::shard(format!("{:?}", cfg.protocol).to_lowercase())
    } else {
        ObsSink::Off
    };
    let mut node = ServerNode::new(cfg, me, seeds, Arc::clone(&conn) as _, obs, None);
    let (exit, exited) = mpsc::channel::<()>();
    node.exit = Some(exit);
    conn.serve(inbound, move || node);
    on_listen(conn.listen_addr());
    // The loop drops the node as it exits, once `Stop` drained.
    let _ = exited.recv();
    conn.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_obs::Phase;
    use cx_types::{BatchTrigger, Protocol};
    use cx_workloads::{TraceBuilder, TraceProfile};
    use std::thread;

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
            .stream();
        let expected = trace.total_ops_hint;
        let res = TcpCluster::run_stream(fast_cfg(4, Protocol::Cx), trace);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, expected);
        assert!(res.stats.server_stats.ops_committed > 0);
        assert!(res.stats.total_msgs() > 0, "messages crossed real sockets");
    }

    #[test]
    fn tcp_reconnect_drill_completes_losslessly() {
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.001)
            .stream();
        let expected = trace.total_ops_hint;
        let opts = TcpOptions {
            drop_conns_after_ops: Some(20),
            ..TcpOptions::default()
        };
        let res = TcpCluster::run_stream_opts(fast_cfg(4, Protocol::Cx), trace, opts);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, expected);
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
            .stream();
        let expected = trace.total_ops_hint as usize;
        let sink = ObsSink::recording("cx");
        let opts = TcpOptions {
            obs: sink.clone(),
            net: PlaneConfig {
                record_flush_spans: true,
                ..PlaneConfig::default()
            },
            ..TcpOptions::default()
        };
        let res = TcpCluster::run_stream_opts(fast_cfg(3, Protocol::Cx), trace, opts);
        assert_eq!(res.violations, vec![]);
        let rep = sink.report().expect("recording sink yields a report");
        assert_eq!(rep.spans.len(), expected);
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
            .stream();
        let expected = trace.total_ops_hint;
        let cfg = fast_cfg(2, Protocol::Cx);
        let (addr_tx, addr_rx) = mpsc::channel();
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
        let res = TcpCluster::run_external(cfg, trace, &addrs, TcpOptions::default());
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, expected);
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
            .stream();
        let expected = trace.total_ops_hint;
        let cfg = fast_cfg(2, Protocol::Cx);
        let (addr_tx, addr_rx) = mpsc::channel();
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
        let res = TcpCluster::run_external(cfg, trace, &addrs, opts);
        assert_eq!(res.violations, vec![]);
        for t in nodes {
            t.join().unwrap();
        }
        let rep = sink.report().expect("recording sink yields a report");
        assert_eq!(rep.spans.len(), expected as usize);
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
        // their per-peer rows.
        assert!(res.net.rows.iter().any(|r| r.on.starts_with("srv")));
    }
}
