//! A real multi-threaded runtime for the protocol engines.
//!
//! One OS thread per metadata server, one per client process, crossbeam
//! channels as the network. Disk completions are immediate (the threaded
//! runtime checks protocol *correctness under true concurrency*, not
//! timing — timing is the DES's job); timers run on a dedicated timer
//! thread at wall-clock rate, so tests configure short trigger periods.
//!
//! This runtime deliberately shares every line of protocol code with the
//! simulation: the engines cannot tell which runtime drives them.

use crate::feed::OpFeed;
use crate::seed::seed_stores;
use crate::stats::RunStats;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use cx_mdstore::{GlobalView, MetaStore, Violation};
use cx_obs::registry::{Counter, MetricRegistry, Series};
use cx_protocol::{
    Action, ClientDecision, ClientOp, Endpoint, ProtoMetrics, ServerEngine, ServerStats,
};
use cx_sim::TimerQueue;
use cx_types::{
    ClusterConfig, OpId, OpOutcome, Payload, Placement, ProcId, Protocol, ServerId, SimTime,
};
use cx_workloads::{StreamTrace, Trace};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

enum ServerMsg {
    Net { from: Endpoint, payload: Payload },
    Timer { token: u64 },
    Quiesce,
    Probe(Sender<bool>),
    Stop(Sender<(MetaStore, ServerStats, ProtoMetrics)>),
}

enum ProcMsg {
    Net { from: Endpoint, payload: Payload },
}

#[derive(Clone)]
struct Router {
    servers: Arc<Vec<Sender<ServerMsg>>>,
    procs: Arc<Vec<Sender<ProcMsg>>>,
    timers: Sender<TimerReq>,
    epoch: Instant,
}

impl Router {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&self, from: Endpoint, to: Endpoint, payload: Payload) {
        match to {
            Endpoint::Server(s) => {
                let _ = self.servers[s.0 as usize].send(ServerMsg::Net { from, payload });
            }
            Endpoint::Proc(p) => {
                let _ = self.procs[p.client.0 as usize].send(ProcMsg::Net { from, payload });
            }
        }
    }
}

struct TimerReq {
    fire_at: Instant,
    server: u32,
    token: u64,
}

/// Result of a threaded run.
pub struct ThreadedRunResult {
    pub stats: RunStats,
    pub violations: Vec<Violation>,
    pub wall: Duration,
}

/// Live-exposition settings for a threaded run: client threads publish
/// into `registry` concurrently while the run executes, and — when `out`
/// is set — a monitor thread writes `<out>.prom` (Prometheus text) and
/// `<out>.json` (a [`cx_obs::MetricsSnapshot`], the input of `cx-obs top`)
/// every `period`, plus once more after the final server state lands.
pub struct LiveMetrics {
    pub registry: MetricRegistry,
    pub out: Option<std::path::PathBuf>,
    pub period: Duration,
}

impl LiveMetrics {
    pub fn new(registry: MetricRegistry) -> Self {
        Self {
            registry,
            out: None,
            period: Duration::from_millis(500),
        }
    }

    pub(crate) fn write_files(registry: &MetricRegistry, out: &std::path::Path) {
        let snap = registry.snapshot();
        let _ = std::fs::write(out.with_extension("prom"), snap.to_prometheus_text());
        let _ = std::fs::write(out.with_extension("json"), snap.to_json());
    }
}

/// The multi-threaded cluster.
pub struct ThreadedCluster;

impl ThreadedCluster {
    /// Run `trace` on real threads. Panics on channel failures (test
    /// runtime); returns outcomes, aggregated stats, and the consistency
    /// check result.
    pub fn run(cfg: ClusterConfig, trace: &Trace) -> ThreadedRunResult {
        Self::run_stream(cfg, trace.to_stream())
    }

    /// Streamed form: client threads pull their next op from a shared
    /// [`OpFeed`] over the workload stream instead of pre-built queues,
    /// so memory stays flat regardless of trace length.
    pub fn run_stream(cfg: ClusterConfig, st: StreamTrace) -> ThreadedRunResult {
        Self::run_stream_obs(cfg, st, cx_obs::ObsSink::Off)
    }

    /// Like [`ThreadedCluster::run_stream`] with an observability sink
    /// installed into every engine and carried by every client thread (the
    /// sink is `Arc<Mutex<…>>`-backed, so one recorder serves them all).
    /// Clients emit issue/reply lifecycle events and latencies; engines
    /// stamp commitment completion. The threaded runtime has no virtual
    /// clock; stamps use its wall-clock-derived `now` values, which is
    /// sufficient for phase *ordering* and count checks.
    pub fn run_stream_obs(
        cfg: ClusterConfig,
        st: StreamTrace,
        obs: cx_obs::ObsSink,
    ) -> ThreadedRunResult {
        Self::run_stream_inner(cfg, st, obs, None)
    }

    /// Like [`ThreadedCluster::run_stream_obs`], additionally publishing
    /// live metrics: clients bump the registry's atomic counters as
    /// operations complete, engines contribute their protocol series when
    /// they stop, and the optional monitor thread keeps the on-disk
    /// exposition files fresh for `cx-obs top` / Prometheus scraping.
    pub fn run_stream_live(
        cfg: ClusterConfig,
        st: StreamTrace,
        obs: cx_obs::ObsSink,
        live: LiveMetrics,
    ) -> ThreadedRunResult {
        Self::run_stream_inner(cfg, st, obs, Some(live))
    }

    fn run_stream_inner(
        cfg: ClusterConfig,
        st: StreamTrace,
        obs: cx_obs::ObsSink,
        live: Option<LiveMetrics>,
    ) -> ThreadedRunResult {
        let StreamTrace {
            name: _,
            processes,
            seeds,
            roots,
            total_ops_hint,
            ops,
        } = st;
        let start = Instant::now();
        let placement = Placement::new(cfg.servers);

        // Channels.
        let mut server_tx = Vec::new();
        let mut server_rx = Vec::new();
        for _ in 0..cfg.servers {
            let (tx, rx) = unbounded::<ServerMsg>();
            server_tx.push(tx);
            server_rx.push(rx);
        }
        let mut proc_tx = Vec::new();
        let mut proc_rx = Vec::new();
        for _ in 0..processes {
            let (tx, rx) = unbounded::<ProcMsg>();
            proc_tx.push(tx);
            proc_rx.push(rx);
        }
        let (timer_tx, timer_rx) = unbounded::<TimerReq>();
        let router = Router {
            servers: Arc::new(server_tx),
            procs: Arc::new(proc_tx),
            timers: timer_tx,
            epoch: start,
        };

        // Timer thread. It receives only the server senders — holding a
        // full Router clone would keep a sender to its own channel alive
        // and the loop would never observe the disconnect that stops it.
        let timer_servers = Arc::clone(&router.servers);
        let timer_thread = thread::spawn(move || timer_loop(timer_rx, timer_servers));

        // Server threads.
        let mut engines: Vec<Box<dyn ServerEngine>> = (0..cfg.servers)
            .map(|i| {
                let mut engine = cx_protocol::make_server(ServerId(i), &cfg);
                engine.install_obs(obs.clone());
                engine
            })
            .collect();
        let mut stores: Vec<_> = engines.iter_mut().map(|e| Some(e.store_mut())).collect();
        seed_stores(&placement, &seeds, &mut stores);
        let mut server_threads = Vec::new();
        for (i, (engine, rx)) in engines.into_iter().zip(server_rx).enumerate() {
            let r = router.clone();
            server_threads.push(thread::spawn(move || server_loop(i as u32, engine, rx, r)));
        }

        // Live-exposition monitor: refresh the on-disk snapshot files at
        // the configured period until the run signals completion.
        let live_reg = live.as_ref().map(|l| l.registry.clone());
        let monitor_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let monitor_thread = live.as_ref().and_then(|l| {
            let out = l.out.clone()?;
            let reg = l.registry.clone();
            let period = l.period;
            let stop = Arc::clone(&monitor_stop);
            Some(thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    LiveMetrics::write_files(&reg, &out);
                    thread::sleep(period);
                }
            }))
        });

        // Client threads, sharing one locked feed over the stream.
        let outcomes = Arc::new(Mutex::new(Vec::<(OpId, OpOutcome, bool)>::new()));
        let feed = Arc::new(Mutex::new(OpFeed::new(ops, processes, total_ops_hint)));
        let mut client_threads = Vec::new();
        for (i, rx) in proc_rx.into_iter().enumerate() {
            let r = router.clone();
            let cfg = cfg.clone();
            let outcomes = Arc::clone(&outcomes);
            let feed = Arc::clone(&feed);
            let obs = obs.clone();
            let reg = live_reg.clone();
            client_threads.push(thread::spawn(move || {
                client_loop(i as u32, feed, rx, r, &cfg, placement, outcomes, obs, reg)
            }));
        }
        for t in client_threads {
            t.join().expect("client thread panicked");
        }

        // Drain the servers: quiesce until every engine reports done.
        for _ in 0..200 {
            for tx in router.servers.iter() {
                let _ = tx.send(ServerMsg::Quiesce);
            }
            thread::sleep(Duration::from_millis(2));
            let mut all = true;
            for tx in router.servers.iter() {
                let (ptx, prx) = bounded(1);
                let _ = tx.send(ServerMsg::Probe(ptx));
                if !prx.recv_timeout(Duration::from_secs(5)).unwrap_or(false) {
                    all = false;
                }
            }
            if all {
                break;
            }
        }

        // Collect final state.
        let mut stats = RunStats::new(cfg.protocol, cfg.servers, processes);
        let mut stores = Vec::new();
        for tx in router.servers.iter() {
            let (stx, srx) = bounded(1);
            let _ = tx.send(ServerMsg::Stop(stx));
            let (store, sstats, proto) = srx.recv().expect("server final state");
            stats.server_stats.merge(&sstats);
            stats.proto.merge(&proto);
            stores.push(store);
        }
        drop(router); // stops the timer thread (channel disconnect)
        let _ = timer_thread.join();

        for (_, outcome, cross) in outcomes.lock().iter() {
            stats.record_outcome(*outcome);
            stats.ops_total += 1;
            if *cross {
                stats.cross_ops += 1;
            }
        }
        stats.stuck_ops = obs.stuck_report();
        stats.blame = obs.blame_table();
        if let Some(l) = &live {
            // Engines only report their protocol series at stop time;
            // fold them in and refresh the exposition files once more so
            // the final snapshot is complete.
            stats.proto.publish(&l.registry);
            monitor_stop.store(true, std::sync::atomic::Ordering::Relaxed);
            if let Some(t) = monitor_thread {
                let _ = t.join();
            }
            if let Some(out) = &l.out {
                LiveMetrics::write_files(&l.registry, out);
            }
        }
        let violations = GlobalView::merge(stores.iter()).check(&roots);
        ThreadedRunResult {
            stats,
            violations,
            wall: start.elapsed(),
        }
    }
}

fn server_loop(
    me: u32,
    mut engine: Box<dyn ServerEngine>,
    rx: Receiver<ServerMsg>,
    router: Router,
) {
    let from_me = Endpoint::Server(ServerId(me));
    let mut boot = Vec::new();
    engine.on_start(router.now(), &mut boot);
    process_actions(me, engine.as_mut(), boot, &router);

    while let Ok(msg) = rx.recv() {
        let now = router.now();
        match msg {
            ServerMsg::Net { from, payload } => {
                let mut out = Vec::new();
                engine.on_msg(now, from, payload, &mut out);
                process_actions(me, engine.as_mut(), out, &router);
            }
            ServerMsg::Timer { token } => {
                let mut out = Vec::new();
                engine.on_timer(now, token, &mut out);
                process_actions(me, engine.as_mut(), out, &router);
            }
            ServerMsg::Quiesce => {
                let mut out = Vec::new();
                engine.quiesce(now, &mut out);
                process_actions(me, engine.as_mut(), out, &router);
            }
            ServerMsg::Probe(reply) => {
                let _ = reply.send(engine.is_quiesced());
            }
            ServerMsg::Stop(reply) => {
                let _ = reply.send((
                    engine.store().clone(),
                    *engine.stats(),
                    engine.proto_metrics(),
                ));
                return;
            }
        }
        let _ = from_me;
    }
}

/// Interpret engine actions; disk operations complete immediately (their
/// completions can cascade, so a work queue avoids recursion).
fn process_actions(me: u32, engine: &mut dyn ServerEngine, actions: Vec<Action>, router: &Router) {
    let from = Endpoint::Server(ServerId(me));
    let mut work: VecDeque<Action> = actions.into();
    while let Some(action) = work.pop_front() {
        match action {
            Action::Send { to, payload } => router.send(from, to, payload),
            Action::LogAppend { token, .. }
            | Action::DbSyncWrite { token, .. }
            | Action::DbWriteback { token, .. }
            | Action::LogRead { token, .. }
            | Action::DbRandomRead { token, .. } => {
                let mut out = Vec::new();
                engine.on_disk_done(router.now(), token, &mut out);
                work.extend(out);
            }
            Action::SetTimer { token, delay_ns } => {
                let _ = router.timers.send(TimerReq {
                    fire_at: Instant::now() + Duration::from_nanos(delay_ns),
                    server: me,
                    token,
                });
            }
        }
    }
}

fn timer_loop(rx: Receiver<TimerReq>, servers: Arc<Vec<Sender<ServerMsg>>>) {
    // The DES kernel's TimerQueue orders equal deadlines FIFO, so two
    // timers armed for the same instant fire in arrival order — the ad-hoc
    // BinaryHeap this replaces left that tie unspecified.
    let epoch = Instant::now();
    let mut queue: TimerQueue<(u32, u64)> = TimerQueue::new();
    loop {
        let timeout = queue
            .peek_deadline()
            .map(|d| (epoch + Duration::from_nanos(d.0)).saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(req) => {
                let at = SimTime(req.fire_at.saturating_duration_since(epoch).as_nanos() as u64);
                queue.push(at, (req.server, req.token));
            }
            Err(RecvTimeoutError::Timeout) => {}
            // every Router clone is gone: the run is over
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let now = SimTime(Instant::now().duration_since(epoch).as_nanos() as u64);
        while queue.peek_deadline().is_some_and(|d| d <= now) {
            let (_, (server, token)) = queue.pop().expect("peeked");
            let _ = servers[server as usize].send(ServerMsg::Timer { token });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    me: u32,
    feed: Arc<Mutex<OpFeed>>,
    rx: Receiver<ProcMsg>,
    router: Router,
    cfg: &ClusterConfig,
    placement: Placement,
    outcomes: Arc<Mutex<Vec<(OpId, OpOutcome, bool)>>>,
    obs: cx_obs::ObsSink,
    registry: Option<MetricRegistry>,
) {
    let proc = ProcId::new(me, 0);
    let from_me = Endpoint::Proc(proc);
    let mut seq = 0u64;
    loop {
        // bind first: a `while let` scrutinee would hold the feed lock
        // across the synchronous wait below, serializing every client
        let next = feed.lock().next_for(me);
        let Some(op) = next else {
            return;
        };
        let op_id = OpId::new(proc, seq);
        seq += 1;
        let plan = placement.plan(op);
        let cross = plan.is_cross_server();
        let issued_at = router.now();
        obs.op_issued(op_id, op.class(), cross, issued_at);
        let mut out = Vec::new();
        let mut client = ClientOp::start(cfg.protocol, op_id, plan, &cfg.cx, &mut out);
        let mut timer: Option<(Instant, u64)> = None;
        send_client_actions(&router, from_me, out, &mut timer);

        // Wait for this operation to finish (clients are synchronous).
        let outcome = loop {
            let wait = timer
                .map(|(at, _)| at.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_secs(30));
            match rx.recv_timeout(wait) {
                Ok(ProcMsg::Net { from, payload }) => {
                    let mut out = Vec::new();
                    let d = client.on_msg(router.now(), from, payload, &mut out);
                    send_client_actions(&router, from_me, out, &mut timer);
                    if let ClientDecision::Done(outcome) = d {
                        break outcome;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let Some((_, token)) = timer.take() else {
                        panic!("client {me} timed out waiting for op {op_id}");
                    };
                    let mut out = Vec::new();
                    let d = client.on_timer(router.now(), token, &mut out);
                    send_client_actions(&router, from_me, out, &mut timer);
                    if let ClientDecision::Done(outcome) = d {
                        break outcome;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        let done = router.now();
        // Only Cx leaves commitment running behind the reply; its engine
        // stamps `Completed` through the same sink when the ack lands.
        let awaits = cross && cfg.protocol == Protocol::Cx;
        obs.op_replied(op_id, done, outcome, awaits);
        let latency = done.0.saturating_sub(issued_at.0);
        obs.client_latency(op.class(), cross, latency);
        if let Some(reg) = &registry {
            // Concurrent atomic bumps from every client thread; the
            // registry property test pins that these merge exactly.
            reg.inc(Counter::OpsIssued);
            reg.inc(match outcome {
                OpOutcome::Applied => Counter::OpsApplied,
                OpOutcome::Failed => Counter::OpsFailed,
            });
            if cross {
                reg.inc(Counter::CrossOps);
            }
            reg.observe(Series::ClientLatencyNs, latency);
        }
        outcomes.lock().push((op_id, outcome, cross));
    }
}

fn send_client_actions(
    router: &Router,
    from: Endpoint,
    actions: Vec<Action>,
    timer: &mut Option<(Instant, u64)>,
) {
    for action in actions {
        match action {
            Action::Send { to, payload } => router.send(from, to, payload),
            Action::SetTimer { token, delay_ns } => {
                *timer = Some((Instant::now() + Duration::from_nanos(delay_ns), token));
            }
            other => unreachable!("clients have no disks: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::{BatchTrigger, Protocol};
    use cx_workloads::{Metarates, MetaratesMix, TraceBuilder, TraceProfile};

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
    fn threaded_trace_replay_is_consistent() {
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.001)
            .build();
        for protocol in [Protocol::Cx, Protocol::Se, Protocol::SeBatched] {
            let res = ThreadedCluster::run(fast_cfg(4, protocol), &trace);
            assert_eq!(res.violations, vec![], "{protocol:?}");
            assert_eq!(res.stats.ops_total, trace.ops.len() as u64, "{protocol:?}");
        }
    }

    #[test]
    fn threaded_metarates_under_contention() {
        let trace = Metarates::new(MetaratesMix::UpdateDominated, 8)
            .seed_files(64)
            .ops_per_proc(50)
            .build();
        let res = ThreadedCluster::run(fast_cfg(2, Protocol::Cx), &trace);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, 8 * 50);
        // real concurrency must still commit everything
        assert!(res.stats.server_stats.ops_committed > 0);
    }

    #[test]
    fn threaded_twopc_and_ce_complete() {
        let trace = TraceBuilder::new(TraceProfile::by_name("home2").unwrap())
            .scale(0.0002)
            .build();
        for protocol in [Protocol::TwoPc, Protocol::Ce] {
            let res = ThreadedCluster::run(fast_cfg(4, protocol), &trace);
            assert_eq!(res.violations, vec![], "{protocol:?}");
            assert_eq!(res.stats.ops_total, trace.ops.len() as u64, "{protocol:?}");
        }
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use cx_types::{BatchTrigger, Protocol};
    use cx_workloads::{TraceBuilder, TraceProfile};

    /// Heavier concurrency: a conflict-rich slice with short wall-clock
    /// triggers, checking that invalidations/immediate commitments under
    /// true parallelism still converge to a consistent namespace.
    #[test]
    fn threaded_conflict_storm_converges() {
        let trace = TraceBuilder::new(TraceProfile::by_name("deasna2").unwrap())
            .scale(0.0006)
            .tweak(|p| p.shared_access_prob = 0.3)
            .build();
        let mut cfg = ClusterConfig::new(4, Protocol::Cx);
        cfg.cx.trigger = BatchTrigger::Timeout {
            period_ns: 3_000_000, // 3 ms wall clock
        };
        cfg.cx.hint_mismatch_timeout_ns = 15_000_000;
        cfg.cx.presumed_abort_timeout_ns = 30_000_000;
        let res = ThreadedCluster::run(cfg, &trace);
        assert_eq!(res.violations, vec![]);
        assert_eq!(res.stats.ops_total, trace.ops.len() as u64);
        assert!(
            res.stats.server_stats.conflicts > 0,
            "the storm must actually produce conflicts"
        );
    }

    /// The same engines under failure injection and real threads.
    #[test]
    fn threaded_failure_injection_stays_atomic() {
        let trace = TraceBuilder::new(TraceProfile::by_name("s3d").unwrap())
            .scale(0.0008)
            .build();
        let mut cfg = ClusterConfig::new(4, Protocol::Cx);
        cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: 16 };
        cfg.failure.subop_fail_prob = 0.03;
        let res = ThreadedCluster::run(cfg, &trace);
        assert_eq!(res.violations, vec![]);
        assert!(res.stats.ops_failed > 0, "injected failures surface");
        assert_eq!(res.stats.ops_total, trace.ops.len() as u64);
    }
}
