//! The discrete-event cluster simulation.
//!
//! Models what the paper's testbed provides (§IV-B): metadata servers with
//! one CPU queue and one 7200 rpm SATA disk each, a 10 GigE network, and
//! client nodes running synchronous processes. Interprets the protocol
//! engines' actions:
//!
//! * `Send` → arrival after `one_way + size/bandwidth`; at the server the
//!   message waits in the CPU queue (a [`FifoResource`]) before handling.
//! * `Disk` → the request is submitted as is to the server's [`Disk`],
//!   which group-commits appends and elevator-merges write-back pages.
//! * `SetTimer` → a virtual-time timer event.
//!
//! The run replays a [`Trace`]: each process issues its operations
//! synchronously (closed loop); "replay time" is the virtual time at which
//! the last operation response arrives, matching the paper's metric.

use crate::fault::{ClusterSnapshot, CrashCmd, FaultEvent, FaultInjector, MsgFate};
use crate::feed::OpFeed;
use crate::seed::seed_stores;
use crate::stats::{AckRecord, RecoveryCycle, RunStats};
use cx_mdstore::{GlobalView, Violation};
use cx_obs::{FlightEvent, FlightRecorder, FlowNode, GaugeKind, ObsSink, Phase};
use cx_protocol::{Action, ClientDecision, ClientOp, Endpoint, ServerEngine};
use cx_sim::{FifoResource, Sim};
use cx_simio::{Batch, Disk, DiskReq};
use cx_types::{
    ClusterConfig, FsOp, MsgKind, OpId, Payload, Placement, ProcId, Protocol, ServerId, SimTime,
    DUR_US,
};
use cx_wal::RecordFamily;
use cx_workloads::{StreamTrace, Trace};

/// Client-side overhead between completing one op and issuing the next.
const CLIENT_ISSUE_NS: u64 = 15 * DUR_US;
/// CPU cost per entry of a batched commitment message.
const PER_ENTRY_NS: u64 = 3 * DUR_US;

// Messages move through the plane by value and are never cloned on the
// delivery path: `send` moves the payload into the event, the simulator's
// slab (see `cx-sim::kernel`) parks it while only a 24-byte handle is
// sorted, and the engine receives it back by move. The one remaining
// `Payload::clone` is the duplication fault, which genuinely needs two
// copies in flight.
enum Ev {
    /// A message reached the server NIC; queue it on the CPU.
    ServerArrive {
        server: u32,
        from: Endpoint,
        payload: Payload,
    },
    /// The CPU got to the message; run the engine.
    ServerHandle {
        server: u32,
        from: Endpoint,
        payload: Payload,
    },
    /// A disk batch finished.
    DiskDone {
        server: u32,
        tokens: Vec<u64>,
        /// Disk incarnation the batch belonged to; stale completions from
        /// before a crash are discarded.
        generation: u64,
    },
    ServerTimer {
        server: u32,
        token: u64,
    },
    ProcDeliver {
        proc: u32,
        from: Endpoint,
        payload: Payload,
    },
    ProcTimer {
        proc: u32,
        token: u64,
    },
    ProcIssue {
        proc: u32,
    },
    /// A crashed server finished rebooting: start its recovery.
    Reboot {
        server: u32,
    },
}

/// When and how to crash a server mid-run (the Table V experiment).
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    pub server: ServerId,
    /// Crash once this server's valid-record volume reaches this size.
    pub valid_bytes_target: u64,
    /// Failure-detection delay before the reboot begins (§III-D: "the
    /// recovery process for node starts when the failure detection
    /// subsystem confirms a crash").
    pub detection_ns: u64,
    /// Process/OS restart time before the log scan starts.
    pub reboot_ns: u64,
}

/// The crash/recovery cycles a run observed. The one-shot Table V
/// experiment reads `cycles[0]`; multi-crash chaos schedules accumulate
/// several (possibly for several servers).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Completed cycles, in completion order.
    pub cycles: Vec<RecoveryCycle>,
}

impl RecoveryReport {
    /// The first completed cycle (the single-crash experiments' result).
    pub fn first(&self) -> Option<&RecoveryCycle> {
        self.cycles.first()
    }
}

/// Everything a fault-injected run reports (see [`DesCluster::run_chaos`]).
pub struct ChaosOutcome {
    pub stats: RunStats,
    /// Namespace-atomicity violations from the merged final view. Only
    /// meaningful when `quiesced` — a wedged cluster legitimately holds
    /// half-committed state — so it is left empty otherwise.
    pub violations: Vec<Violation>,
    /// Violation descriptions accumulated by the injector's oracle.
    pub oracle_report: Vec<String>,
    /// Whether every server drained all pending protocol state.
    pub quiesced: bool,
    /// Client-acked operations, in ack order.
    pub acks: Vec<AckRecord>,
    /// Every operation issued (acked or not).
    pub issued: Vec<(OpId, FsOp)>,
}

/// Per-server liveness during a run with crashes.
#[derive(Debug, Clone, Copy)]
enum SrvPhase {
    Up,
    Down {
        crashed_at: SimTime,
        valid_bytes: u64,
    },
    Recovering {
        crashed_at: SimTime,
        valid_bytes: u64,
        started: SimTime,
        scanned: u64,
    },
}

struct ProcRuntime {
    id: ProcId,
    current: Option<ClientOp>,
    /// Identity of the in-flight operation (durability-oracle input).
    current_meta: Option<(OpId, FsOp)>,
    issued_at: SimTime,
    current_cross: bool,
    next_seq: u64,
    done: bool,
}

/// The simulated cluster.
pub struct DesCluster {
    cfg: ClusterConfig,
    placement: Placement,
    servers: Vec<Box<dyn ServerEngine>>,
    disks: Vec<Disk>,
    cpus: Vec<FifoResource>,
    procs: Vec<ProcRuntime>,
    /// Op intake: per-process buffers over the workload stream.
    feed: OpFeed,
    sim: Sim<Ev>,
    stats: RunStats,
    roots: Vec<cx_types::InodeNo>,
    active_procs: u32,
    sample_every_ns: u64,
    next_sample: SimTime,
    /// Hard event cap (hang protection).
    max_events: u64,
    /// Per-server liveness (all `Up` unless crashes are in play).
    phases: Vec<SrvPhase>,
    /// Servers currently Down or Recovering; fast skip of the per-event
    /// recovery-completion scan.
    in_fault: u32,
    /// The legacy volume-triggered crash (Table V experiment).
    legacy_plan: Option<CrashPlan>,
    /// Stop the event loop at the first completed recovery cycle
    /// (`run_recovery_experiment` semantics).
    stop_after_first_cycle: bool,
    /// The fault plane; `None` on uninstrumented runs.
    injector: Option<Box<dyn FaultInjector>>,
    /// Crash requested by the injector during the current event; executed
    /// once the event finishes dispatching (first request wins).
    pending_crash: Option<CrashCmd>,
    /// Record per-op issue/ack logs for the durability oracle.
    record_ops: bool,
    acks: Vec<AckRecord>,
    issued: Vec<(OpId, FsOp)>,
    /// Per-server WAL/writeback counters already reported to the injector
    /// (FaultEvents are the diffs against these).
    wal_appended_seen: Vec<[u64; RecordFamily::COUNT]>,
    wal_durable_seen: Vec<[u64; RecordFamily::COUNT]>,
    writebacks_seen: Vec<u64>,
    /// Send counters — the send path is per-event hot, so the ordered
    /// `stats.msgs` map is only assembled once, in `finalize`.
    sent: MsgCounts,
    /// Reusable action buffer: every dispatch takes it, fills it, drains
    /// it through `do_actions`, and puts it back, so the per-event `Vec`
    /// allocation disappears. Handlers never reenter `dispatch`, so one
    /// buffer suffices.
    scratch: Vec<Action>,
    /// Observability sink. `Off` (the default) makes every emission a
    /// single-branch no-op; recording never schedules events or touches
    /// protocol state, so the golden digest is identical either way.
    obs: ObsSink,
    /// Always-on crash flight recorder: a fixed-size ring of recent
    /// message edges and lifecycle events, fed even when `obs` is `Off`,
    /// so a post-mortem can be dumped after a crash, a stuck op, or a
    /// failed oracle check. `None` (the default) costs nothing.
    flight: Option<FlightRecorder>,
}

impl DesCluster {
    /// Build a cluster from a materialized trace (vec-backed stream).
    pub fn new(cfg: ClusterConfig, trace: &Trace) -> Self {
        Self::new_stream(cfg, trace.to_stream())
    }

    /// Build a cluster over a streaming workload: the trace header
    /// (seeds, roots, process count) is consumed eagerly, operations are
    /// pulled on demand as processes issue them.
    pub fn new_stream(cfg: ClusterConfig, st: StreamTrace) -> Self {
        let StreamTrace {
            name: _,
            processes,
            seeds,
            roots,
            total_ops_hint,
            ops,
        } = st;
        let feed = OpFeed::new(ops, processes, total_ops_hint);
        let placement = Placement::new(cfg.servers);
        let mut servers: Vec<Box<dyn ServerEngine>> = (0..cfg.servers)
            .map(|i| cx_protocol::make_server(ServerId(i), &cfg))
            .collect();

        let mut stores: Vec<_> = servers.iter_mut().map(|s| Some(s.store_mut())).collect();
        seed_stores(&placement, &seeds, &mut stores);

        let procs: Vec<ProcRuntime> = (0..processes)
            .map(|i| ProcRuntime {
                id: ProcId::new(i, 0),
                done: feed.starts_empty(i),
                current: None,
                current_meta: None,
                issued_at: SimTime::ZERO,
                current_cross: false,
                next_seq: 0,
            })
            .collect();
        let active_procs = procs.iter().filter(|p| !p.done).count() as u32;

        let disks = (0..cfg.servers).map(|_| Disk::new(cfg.disk)).collect();
        let cpus = (0..cfg.servers).map(|_| FifoResource::new()).collect();
        let stats = RunStats::new(cfg.protocol, cfg.servers, processes);
        let max_events = 800 * feed.total_hint() + 10_000_000;

        let n = cfg.servers as usize;
        Self {
            cfg,
            placement,
            servers,
            disks,
            cpus,
            procs,
            feed,
            sim: Sim::new(),
            stats,
            roots,
            active_procs,
            sample_every_ns: 200_000_000, // 200 ms samples for Figure 7b
            next_sample: SimTime::ZERO,
            max_events,
            phases: vec![SrvPhase::Up; n],
            in_fault: 0,
            legacy_plan: None,
            stop_after_first_cycle: false,
            injector: None,
            pending_crash: None,
            record_ops: false,
            acks: Vec::new(),
            issued: Vec::new(),
            wal_appended_seen: vec![[0; RecordFamily::COUNT]; n],
            wal_durable_seen: vec![[0; RecordFamily::COUNT]; n],
            writebacks_seen: vec![0; n],
            sent: MsgCounts::default(),
            scratch: Vec::with_capacity(16),
            obs: ObsSink::Off,
            flight: None,
        }
    }

    /// Install an observability sink: the run records op-lifecycle spans,
    /// latency histograms, and virtual-time gauges into it. Engines get a
    /// clone so they can stamp milestones only they see (Cx `Completed`).
    pub fn with_obs(mut self, sink: ObsSink) -> Self {
        for s in self.servers.iter_mut() {
            s.install_obs(sink.clone());
        }
        self.obs = sink;
        self
    }

    /// Install a flight recorder. The caller keeps a clone (it is an
    /// `Arc` ring) and decides when to dump: the run itself only feeds it.
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Arm a crash: the run will kill `plan.server` once its valid-record
    /// volume reaches the target, reboot it after the detection delay, and
    /// time the recovery (Table V: "we killed the processes on a server
    /// after it has accepted a specific size of valid-records").
    pub fn with_crash(mut self, plan: CrashPlan) -> Self {
        self.legacy_plan = Some(plan);
        self
    }

    /// Install a fault injector. Message sends and protocol events route
    /// through it, and the per-op issue/ack logs the oracle needs are
    /// recorded. Use [`DesCluster::run_chaos`] afterwards.
    pub fn with_injector(mut self, injector: Box<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self.record_ops = true;
        self
    }

    /// Boot the servers and schedule the first client issues (process
    /// starts are staggered slightly to avoid artificial lockstep).
    fn boot(&mut self) {
        for i in 0..self.servers.len() {
            let mut out = std::mem::take(&mut self.scratch);
            self.servers[i].on_start(SimTime::ZERO, &mut out);
            self.do_actions(Endpoint::Server(ServerId(i as u32)), &mut out);
            self.scratch = out;
        }
        if self.injector.is_some() {
            self.probe_all(SimTime::ZERO);
            self.fire_pending_crash();
        }
        for p in 0..self.procs.len() {
            if !self.procs[p].done {
                self.sim
                    .schedule(p as u64 * 2 * DUR_US, 0, Ev::ProcIssue { proc: p as u32 });
            }
        }
    }

    /// Run until the armed crash has fully recovered; returns the timing
    /// report (None if the workload never produced enough valid records).
    pub fn run_recovery_experiment(mut self) -> Option<RecoveryReport> {
        assert!(
            self.legacy_plan.is_some(),
            "arm a crash with with_crash first"
        );
        self.stop_after_first_cycle = true;
        self.boot();
        self.event_loop();
        if self.stats.recovery_cycles.is_empty() {
            None
        } else {
            Some(RecoveryReport {
                cycles: self.stats.recovery_cycles.clone(),
            })
        }
    }

    /// Run the replay to completion and return the statistics.
    pub fn run(mut self) -> (RunStats, Vec<Violation>) {
        self.boot();
        self.event_loop();
        self.drain();
        self.stats.drained = self.sim.now();
        self.finalize();

        let violations =
            GlobalView::merge(self.servers.iter().map(|s| s.store())).check(&self.roots);
        (self.stats, violations)
    }

    /// Natural drain finished; force the remaining lazy work.
    fn drain(&mut self) {
        for _ in 0..16 {
            if self.quiesced() {
                break;
            }
            self.quiesce_round();
            self.event_loop();
        }
    }

    /// One forced-flush round over the Up servers, plus the fault probes
    /// a round may trigger.
    fn quiesce_round(&mut self) {
        for i in 0..self.servers.len() {
            if !matches!(self.phases[i], SrvPhase::Up) {
                continue; // a down server cannot be asked to flush
            }
            let mut out = std::mem::take(&mut self.scratch);
            let now = self.sim.now();
            self.servers[i].quiesce(now, &mut out);
            self.do_actions(Endpoint::Server(ServerId(i as u32)), &mut out);
            self.scratch = out;
        }
        if self.injector.is_some() {
            self.probe_all(self.sim.now());
            self.fire_pending_crash();
        }
    }

    /// Whether every server drained all pending protocol state.
    fn quiesced(&self) -> bool {
        self.in_fault == 0 && self.servers.iter().all(|s| s.is_quiesced())
    }

    /// Run a fault-injected replay to completion: like [`DesCluster::run`],
    /// but crashes can repeat, the namespace check is gated on quiescence,
    /// and the injector's oracle output is part of the result.
    pub fn run_chaos(mut self) -> ChaosOutcome {
        assert!(self.injector.is_some(), "install with_injector first");
        self.boot();
        self.event_loop();
        self.drain();
        self.stats.drained = self.sim.now();
        // Faults can wedge clients forever (a dropped message with no
        // retransmission); surface that instead of hanging.
        let stuck = self.feed.remaining() + self.in_flight();
        self.stats.ops_stuck = self.stats.ops_stuck.max(stuck);
        self.finalize();

        let quiesced = self.quiesced();
        let violations = if quiesced {
            GlobalView::merge(self.servers.iter().map(|s| s.store())).check(&self.roots)
        } else {
            Vec::new()
        };
        let mut oracle_report = Vec::new();
        if let Some(mut inj) = self.injector.take() {
            let snap = ClusterSnapshot {
                stores: self.servers.iter().map(|s| s.store()).collect(),
                acks: &self.acks,
                issued: &self.issued,
            };
            let v = inj.on_run_end(self.sim.now(), quiesced, snap);
            self.stats.faults.oracle_checks += 1;
            self.stats.faults.oracle_violations += v;
            oracle_report = inj.take_report();
        }
        ChaosOutcome {
            stats: self.stats,
            violations,
            oracle_report,
            quiesced,
            acks: self.acks,
            issued: self.issued,
        }
    }

    fn event_loop(&mut self) {
        while let Some((now, _, ev)) = self.sim.pop() {
            if now >= self.next_sample {
                self.sample(now);
            }
            self.dispatch(now, ev);
            if self.injector.is_some() {
                self.probe_all(now);
                self.fire_pending_crash();
            }
            self.check_fault_progress();
            if self.stop_after_first_cycle && !self.stats.recovery_cycles.is_empty() {
                break;
            }
            if self.sim.events_processed() > self.max_events {
                // hang protection: record and bail
                self.stats.ops_stuck = self.feed.remaining() + self.in_flight();
                break;
            }
        }
        self.stats.events = self.sim.events_processed();
    }

    /// Client ops issued and not yet answered.
    fn in_flight(&self) -> u64 {
        self.procs.iter().map(|p| p.current.is_some() as u64).sum()
    }

    /// Every 200 ms: the digested peak valid bytes, and the obs gauges.
    fn sample(&mut self, now: SimTime) {
        for s in &self.servers {
            self.stats.peak_valid_bytes = self.stats.peak_valid_bytes.max(s.valid_log_bytes());
        }
        if self.obs.enabled() {
            for (i, s) in self.servers.iter().enumerate() {
                let sid = i as u32;
                self.obs
                    .gauge(now, sid, GaugeKind::ValidLogBytes, s.valid_log_bytes());
                let g = s.obs_gauges();
                self.obs
                    .gauge(now, sid, GaugeKind::ActiveObjects, g.active_objects);
                self.obs
                    .gauge(now, sid, GaugeKind::PendingBatchOps, g.pending_batch_ops);
                self.obs.gauge(
                    now,
                    sid,
                    GaugeKind::QueueBacklogNs,
                    self.cpus[i].backlog_ns(now),
                );
            }
        }
        self.next_sample = now + self.sample_every_ns;
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::ServerArrive {
                server,
                from,
                payload,
            } => {
                if matches!(self.phases[server as usize], SrvPhase::Down { .. }) {
                    // a dead server's NIC receives nothing
                    self.stats.faults.dead_drops += 1;
                    return;
                }
                let cost = self.cfg.cpu.per_msg_ns + payload_cost(&payload, &self.cfg);
                let at = self.cpus[server as usize].reserve(now, cost);
                self.sim.schedule_at(
                    at,
                    0,
                    Ev::ServerHandle {
                        server,
                        from,
                        payload,
                    },
                );
            }
            Ev::ServerHandle {
                server,
                from,
                payload,
            } => {
                if self.injector.is_some() {
                    self.emit_fault(
                        now,
                        FaultEvent::Deliver {
                            server: ServerId(server),
                            kind: payload.kind(),
                        },
                    );
                    if let Some(cmd) = self.pending_crash {
                        if cmd.server.0 == server {
                            // crash at delivery: the message perishes with
                            // its server, unhandled
                            self.pending_crash = None;
                            self.crash_server(now, cmd);
                            return;
                        }
                    }
                }
                let mut out = std::mem::take(&mut self.scratch);
                self.servers[server as usize].on_msg(now, from, payload, &mut out);
                self.do_actions(Endpoint::Server(ServerId(server)), &mut out);
                self.scratch = out;
            }
            Ev::DiskDone {
                server,
                tokens,
                generation,
            } => {
                if generation != self.disks[server as usize].generation() {
                    return; // completion from a crashed incarnation
                }
                // start the next batch first: the disk works in parallel
                if let Some(next) = self.disks[server as usize].complete(now) {
                    self.schedule_batch(server, next);
                }
                let mut out = std::mem::take(&mut self.scratch);
                for token in tokens {
                    self.servers[server as usize].on_disk_done(now, token, &mut out);
                }
                self.do_actions(Endpoint::Server(ServerId(server)), &mut out);
                self.scratch = out;
            }
            Ev::ServerTimer { server, token } => {
                let mut out = std::mem::take(&mut self.scratch);
                self.servers[server as usize].on_timer(now, token, &mut out);
                self.do_actions(Endpoint::Server(ServerId(server)), &mut out);
                self.scratch = out;
            }
            Ev::ProcDeliver {
                proc,
                from,
                payload,
            } => {
                let mut out = std::mem::take(&mut self.scratch);
                let decision = match self.procs[proc as usize].current.as_mut() {
                    Some(op) => op.on_msg(now, from, payload, &mut out),
                    None => ClientDecision::Pending, // stale (op finished)
                };
                let id = self.procs[proc as usize].id;
                self.do_actions(Endpoint::Proc(id), &mut out);
                self.scratch = out;
                self.note_decision(now, proc, decision);
            }
            Ev::ProcTimer { proc, token } => {
                let mut out = std::mem::take(&mut self.scratch);
                let decision = match self.procs[proc as usize].current.as_mut() {
                    Some(op) => op.on_timer(now, token, &mut out),
                    None => ClientDecision::Pending,
                };
                let id = self.procs[proc as usize].id;
                self.do_actions(Endpoint::Proc(id), &mut out);
                self.scratch = out;
                self.note_decision(now, proc, decision);
            }
            Ev::ProcIssue { proc } => self.issue_next(now, proc),
            Ev::Reboot { server } => {
                let SrvPhase::Down {
                    crashed_at,
                    valid_bytes,
                } = self.phases[server as usize]
                else {
                    return;
                };
                let mut out = std::mem::take(&mut self.scratch);
                let scanned = self.servers[server as usize].recover(now, &mut out);
                self.do_actions(Endpoint::Server(ServerId(server)), &mut out);
                self.scratch = out;
                self.phases[server as usize] = SrvPhase::Recovering {
                    crashed_at,
                    valid_bytes,
                    started: now,
                    scanned,
                };
            }
        }
    }

    /// Crash bookkeeping, checked after every event: fire the legacy
    /// volume-triggered plan, and detect recovery completions.
    fn check_fault_progress(&mut self) {
        let now = self.sim.now();
        if let Some(plan) = self.legacy_plan {
            let idx = plan.server.0 as usize;
            if matches!(self.phases[idx], SrvPhase::Up)
                && self.servers[idx].valid_log_bytes() >= plan.valid_bytes_target
            {
                self.legacy_plan = None;
                self.crash_server(
                    now,
                    CrashCmd {
                        server: plan.server,
                        torn_extra_bytes: 0,
                        detection_ns: plan.detection_ns,
                        reboot_ns: plan.reboot_ns,
                    },
                );
            }
        }
        if self.in_fault == 0 {
            return;
        }
        for idx in 0..self.servers.len() {
            let SrvPhase::Recovering {
                crashed_at,
                valid_bytes,
                started,
                scanned,
            } = self.phases[idx]
            else {
                continue;
            };
            if self.servers[idx].is_recovering() {
                continue;
            }
            self.phases[idx] = SrvPhase::Up;
            self.in_fault -= 1;
            self.stats.faults.recoveries += 1;
            if let Some(fl) = &self.flight {
                fl.push(now.0, FlightEvent::Recovered { server: idx as u32 });
            }
            self.stats.recovery_cycles.push(RecoveryCycle {
                server: ServerId(idx as u32),
                crashed_at,
                valid_bytes_at_crash: valid_bytes,
                recovery_started: started,
                recovery_finished: now,
                scanned_bytes: scanned,
                resumed_commitments: self.servers[idx].proto_metrics().resumed_commitments,
            });
            self.oracle_check(now, ServerId(idx as u32));
        }
    }

    /// Kill a server now. No-op if it is already down or its engine has no
    /// crash/recovery path (fault plans only aim at crash-capable engines,
    /// but a shrunk plan may still carry a stale crash).
    fn crash_server(&mut self, now: SimTime, cmd: CrashCmd) {
        let idx = cmd.server.0 as usize;
        if !matches!(self.phases[idx], SrvPhase::Up) || !self.servers[idx].supports_crash() {
            return;
        }
        let valid = self.servers[idx].valid_log_bytes();
        if cmd.torn_extra_bytes > 0 {
            self.servers[idx].crash_torn(now, cmd.torn_extra_bytes);
            self.stats.faults.torn_crashes += 1;
        } else {
            self.servers[idx].crash(now);
        }
        self.stats.faults.crashes += 1;
        if let Some(fl) = &self.flight {
            fl.push(now.0, FlightEvent::Crash { server: idx as u32 });
        }
        self.disks[idx].crash();
        self.cpus[idx].reset(now);
        self.phases[idx] = SrvPhase::Down {
            crashed_at: now,
            valid_bytes: valid,
        };
        self.in_fault += 1;
        // The crash swallows whatever WAL/writeback deltas were unreported;
        // resync so they are not misattributed to the next incarnation.
        self.resync_probes(idx);
        self.sim.schedule(
            cmd.detection_ns + cmd.reboot_ns,
            0,
            Ev::Reboot {
                server: cmd.server.0,
            },
        );
    }

    fn fire_pending_crash(&mut self) {
        if let Some(cmd) = self.pending_crash.take() {
            self.crash_server(self.sim.now(), cmd);
        }
    }

    /// Feed one protocol event to the injector; a requested crash is
    /// parked until the current event finishes dispatching.
    fn emit_fault(&mut self, now: SimTime, ev: FaultEvent) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        if let Some(cmd) = inj.on_event(now, &ev) {
            if self.pending_crash.is_none() {
                self.pending_crash = Some(cmd);
            }
        }
    }

    /// Diff every server's WAL append/durable counters and write-back
    /// count against what the injector has already seen, emitting one
    /// [`FaultEvent`] per increment. Called after each event while an
    /// injector is installed.
    fn probe_all(&mut self, now: SimTime) {
        for idx in 0..self.servers.len() {
            let server = ServerId(idx as u32);
            if let Some(w) = self.servers[idx].wal() {
                let (ap, du) = (w.appended_counts(), w.durable_counts());
                for family in RecordFamily::ALL {
                    let i = family.index();
                    while self.wal_appended_seen[idx][i] < ap[i] {
                        self.wal_appended_seen[idx][i] += 1;
                        let nth = self.wal_appended_seen[idx][i];
                        self.emit_fault(
                            now,
                            FaultEvent::WalAppend {
                                server,
                                family,
                                nth,
                            },
                        );
                    }
                    while self.wal_durable_seen[idx][i] < du[i] {
                        self.wal_durable_seen[idx][i] += 1;
                        let nth = self.wal_durable_seen[idx][i];
                        self.emit_fault(
                            now,
                            FaultEvent::WalDurable {
                                server,
                                family,
                                nth,
                            },
                        );
                    }
                }
            }
            let wb = self.servers[idx].stats().writebacks;
            while self.writebacks_seen[idx] < wb {
                self.writebacks_seen[idx] += 1;
                let nth = self.writebacks_seen[idx];
                self.emit_fault(now, FaultEvent::Writeback { server, nth });
            }
        }
    }

    /// Fast-forward one server's probe counters without emitting events.
    fn resync_probes(&mut self, idx: usize) {
        if self.injector.is_none() {
            return;
        }
        if let Some(w) = self.servers[idx].wal() {
            self.wal_appended_seen[idx] = w.appended_counts();
            self.wal_durable_seen[idx] = w.durable_counts();
        }
        self.writebacks_seen[idx] = self.servers[idx].stats().writebacks;
    }

    /// Run the injector's oracle after a recovery completed.
    fn oracle_check(&mut self, now: SimTime, server: ServerId) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let snap = ClusterSnapshot {
            stores: self.servers.iter().map(|s| s.store()).collect(),
            acks: &self.acks,
            issued: &self.issued,
        };
        let v = inj.on_recovery_complete(now, server, snap);
        self.stats.faults.oracle_checks += 1;
        self.stats.faults.oracle_violations += v;
    }

    fn note_decision(&mut self, now: SimTime, proc: u32, decision: ClientDecision) {
        if let ClientDecision::Done(outcome) = decision {
            let p = &mut self.procs[proc as usize];
            p.current = None;
            let meta = p.current_meta.take();
            let latency = now.since(p.issued_at);
            self.stats.note_finished(outcome, p.current_cross, latency);
            if self.obs.enabled() {
                if let Some((op, fs_op)) = meta {
                    // Only Cx leaves commitment work running behind the
                    // reply; everyone else is fully done here.
                    let awaits = p.current_cross && self.cfg.protocol == Protocol::Cx;
                    self.obs.op_replied(op, now, outcome, awaits);
                    self.obs
                        .client_latency(fs_op.class(), p.current_cross, latency);
                }
            }
            if let (Some(fl), Some((op, _))) = (&self.flight, meta) {
                fl.push(
                    now.0,
                    FlightEvent::Replied {
                        op,
                        applied: outcome == cx_types::OpOutcome::Applied,
                    },
                );
            }
            if self.record_ops {
                if let Some((op, fs_op)) = meta {
                    self.acks.push(AckRecord {
                        op,
                        fs_op,
                        outcome,
                        at: now,
                    });
                }
            }
            self.sim
                .schedule(CLIENT_ISSUE_NS, 0, Ev::ProcIssue { proc });
        }
    }

    fn issue_next(&mut self, now: SimTime, proc: u32) {
        if self.procs[proc as usize].current.is_some() {
            return;
        }
        let next = self.feed.next_for(proc);
        let p = &mut self.procs[proc as usize];
        let Some(op) = next else {
            if !p.done {
                p.done = true;
                self.active_procs -= 1;
                if self.active_procs == 0 {
                    self.stats.replay = now;
                }
            }
            return;
        };
        let op_id = OpId::new(p.id, p.next_seq);
        p.next_seq += 1;
        let plan = self.placement.plan(op);
        p.current_cross = plan.is_cross_server();
        p.current_meta = Some((op_id, op));
        p.issued_at = now;
        self.obs.op_issued(op_id, op.class(), p.current_cross, now);
        let cross = p.current_cross;
        if let Some(fl) = &self.flight {
            fl.push(now.0, FlightEvent::Issued { op: op_id, cross });
        }
        self.stats.note_issued(cross);
        if self.record_ops {
            self.issued.push((op_id, op));
        }
        let mut out = std::mem::take(&mut self.scratch);
        let client = ClientOp::start(self.cfg.protocol, op_id, plan, &self.cfg.cx, &mut out);
        p.current = Some(client);
        let id = p.id;
        self.do_actions(Endpoint::Proc(id), &mut out);
        self.scratch = out;
    }

    fn do_actions(&mut self, from: Endpoint, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, payload } => self.send(from, to, payload),
                Action::Disk(req) => self.submit_disk(from, req),
                Action::SetTimer { token, delay_ns } => match from {
                    Endpoint::Server(s) => {
                        self.sim
                            .schedule(delay_ns, 0, Ev::ServerTimer { server: s.0, token })
                    }
                    Endpoint::Proc(p) => self.sim.schedule(
                        delay_ns,
                        0,
                        Ev::ProcTimer {
                            proc: p.client.0,
                            token,
                        },
                    ),
                },
            }
        }
    }

    fn send(&mut self, from: Endpoint, to: Endpoint, payload: Payload) {
        if self.obs.enabled() {
            obs_on_send(&self.obs, from, &payload, self.sim.now());
        }
        self.sent.count(from, to, payload.kind());
        let bytes = payload.size_bytes() as u64;
        let latency =
            self.cfg.net.one_way_ns + (bytes * 1_000_000_000) / self.cfg.net.bandwidth_bps.max(1);
        let mut extra_ns = 0;
        let mut hold_ns = 0;
        if let Some(inj) = self.injector.as_mut() {
            match inj.on_send(self.sim.now(), from, to, payload.kind()) {
                MsgFate::Deliver => {}
                MsgFate::Drop => {
                    self.stats.faults.drops += 1;
                    return;
                }
                MsgFate::Delay(ns) => {
                    self.stats.faults.delays += 1;
                    extra_ns = ns;
                }
                MsgFate::Duplicate(ns) => {
                    self.stats.faults.dups += 1;
                    // the one remaining payload clone: duplication faults
                    self.deliver(from, to, payload.clone(), latency + ns, 0);
                }
                MsgFate::ExecDelay(ns) => {
                    self.stats.faults.delays += 1;
                    hold_ns = ns;
                }
            }
        }
        self.deliver(from, to, payload, latency + extra_ns, hold_ns);
    }

    /// Schedule delivery `after_ns` from now, plus an optional `hold_ns`
    /// the receiver sits on the message before handling it. The traced
    /// edge records the wire arrival (`after_ns` only), so an injected
    /// [`MsgFate::ExecDelay`] shows up in blame attribution as receiver
    /// execution time, not network transit.
    fn deliver(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        payload: Payload,
        after_ns: u64,
        hold_ns: u64,
    ) {
        // Causal message edge: the send site knows the delivery time, so
        // the whole arc is recorded in one shot. Dropped messages never
        // reach here — an edge always means a delivery (duplicates draw
        // two arcs, which is exactly what happened).
        if self.obs.enabled() || self.flight.is_some() {
            let now = self.sim.now();
            let kind = payload.kind();
            let (fnode, tnode) = (flow_node(from), flow_node(to));
            let recv_ns = (now + after_ns).0;
            if self.obs.enabled() {
                self.obs
                    .msg_edge(primary_op(&payload), kind, fnode, tnode, now.0, recv_ns);
            }
            if let Some(fl) = &self.flight {
                fl.push(
                    now.0,
                    FlightEvent::Msg {
                        kind,
                        from: fnode,
                        to: tnode,
                        recv_ns,
                    },
                );
            }
        }
        // Past the traced wire arrival, the receiver-side hold (if any)
        // just pushes the handling event later.
        let after_ns = after_ns + hold_ns;
        match to {
            Endpoint::Server(s) => self.sim.schedule(
                after_ns,
                0,
                Ev::ServerArrive {
                    server: s.0,
                    from,
                    payload,
                },
            ),
            Endpoint::Proc(p) => self.sim.schedule(
                after_ns,
                0,
                Ev::ProcDeliver {
                    proc: p.client.0,
                    from,
                    payload,
                },
            ),
        }
    }

    fn submit_disk(&mut self, from: Endpoint, req: DiskReq) {
        let Endpoint::Server(s) = from else {
            unreachable!("only servers own disks");
        };
        let now = self.sim.now();
        if let Some(batch) = self.disks[s.0 as usize].submit(now, req) {
            self.schedule_batch(s.0, batch);
        }
    }

    fn schedule_batch(&mut self, server: u32, batch: Batch) {
        self.sim.schedule_at(
            batch.finish,
            0,
            Ev::DiskDone {
                server,
                tokens: batch.tokens,
                generation: self.disks[server as usize].generation(),
            },
        );
    }

    fn finalize(&mut self) {
        self.sent.publish(&mut self.stats);
        // Structured hang diagnostics: the recorder's live-op map names the
        // exact stalled phase for every op still short of its reply.
        self.stats.stuck_ops = self.obs.stuck_report();
        self.stats.blame = self.obs.blame_table();
        if let Some(fl) = &self.flight {
            let now = self.sim.now();
            for s in &self.stats.stuck_ops {
                fl.push(
                    now.0,
                    FlightEvent::Stuck {
                        op: s.op,
                        phase: s.phase,
                    },
                );
            }
        }
        for (i, s) in self.servers.iter().enumerate() {
            if !s.is_quiesced() {
                self.stats
                    .leftovers
                    .push(format!("server {i}: {}", s.debug_summary()));
            }
        }
        for s in &self.servers {
            self.stats.server_stats.merge(s.stats());
            self.stats.proto.merge(&s.proto_metrics());
            self.stats.final_inodes += s.store().inode_count() as u64;
            self.stats.final_dentries += s.store().dentry_count() as u64;
        }
        for d in &self.disks {
            self.stats.disk.merge(d.stats());
        }
    }
}

/// Send-side message accounting, the same in every runtime: by kind, and
/// by whether a client sits at either end.
#[derive(Default)]
pub(crate) struct MsgCounts {
    pub(crate) by_kind: [u64; MsgKind::COUNT],
    /// Server-to-server messages.
    pub(crate) server_msgs: u64,
    /// Messages with a client at either end.
    pub(crate) client_msgs: u64,
}

impl MsgCounts {
    pub(crate) fn count(&mut self, from: Endpoint, to: Endpoint, kind: MsgKind) {
        self.by_kind[kind as usize] += 1;
        match (from, to) {
            (Endpoint::Server(_), Endpoint::Server(_)) => self.server_msgs += 1,
            _ => self.client_msgs += 1,
        }
    }

    pub(crate) fn add(&mut self, by_kind: &[u64], server_msgs: u64, client_msgs: u64) {
        for (slot, n) in self.by_kind.iter_mut().zip(by_kind) {
            *slot += n;
        }
        self.server_msgs += server_msgs;
        self.client_msgs += client_msgs;
    }

    /// Write the totals into the run's statistics.
    pub(crate) fn publish(&self, stats: &mut RunStats) {
        for (kind, &n) in MsgKind::ALL.iter().zip(&self.by_kind) {
            if n > 0 {
                stats.msgs.insert(*kind, n);
            }
        }
        stats.server_msgs = self.server_msgs;
        stats.client_msgs = self.client_msgs;
    }
}

/// Stamp lifecycle milestones from the send path: the payload kind names
/// the Cx phase the sender just entered, at `now` on the sender's clock
/// (virtual time, or nanoseconds since its epoch). Stamps record the send
/// (a later drop fault does not unhappen the phase), and `OpSpan` stamping
/// is first-writer-wins, so re-driven batches and retransmissions never
/// move a milestone.
pub(crate) fn obs_on_send(obs: &ObsSink, from: Endpoint, payload: &Payload, now: SimTime) {
    let srv = match from {
        Endpoint::Server(s) => Some(s),
        Endpoint::Proc(_) => None,
    };
    match payload {
        // Client-visible path.
        Payload::SubOpReq { op_id, .. } | Payload::OpReq { op_id, .. } => {
            obs.op_phase(*op_id, Phase::Dispatched, now, None);
        }
        Payload::SubOpResp { op_id, .. } | Payload::OpResp { op_id, .. } => {
            obs.op_phase(*op_id, Phase::Executed, now, srv);
        }
        // Commitment path: batched Cx messages carry many ops; 2PC's
        // VoteExec and CE's migration round-trip are their (pre-reply)
        // analogues, so the same milestones work for every protocol.
        Payload::Vote { ops, .. } => {
            for &op in ops {
                obs.op_phase(op, Phase::VoteSent, now, srv);
            }
        }
        Payload::VoteExec { op_id, .. } | Payload::Migrate { op_id, .. } => {
            obs.op_phase(*op_id, Phase::VoteSent, now, srv);
        }
        Payload::CommitDecision { commits, aborts } => {
            for &op in commits.iter().chain(aborts) {
                obs.op_phase(op, Phase::DecisionSent, now, srv);
            }
        }
        Payload::MigrateBack { op_id, .. } => {
            obs.op_phase(*op_id, Phase::DecisionSent, now, srv);
        }
        Payload::Ack { ops } => {
            for &op in ops {
                obs.op_phase(op, Phase::Acked, now, srv);
            }
        }
        Payload::MigrateBackAck { op_id, .. } => {
            obs.op_phase(*op_id, Phase::Acked, now, srv);
        }
        _ => {}
    }
}

/// Runtime endpoint → tracer endpoint.
pub(crate) fn flow_node(e: Endpoint) -> FlowNode {
    match e {
        Endpoint::Server(s) => FlowNode::Server(s.0),
        Endpoint::Proc(p) => FlowNode::Client(p.client.0),
    }
}

/// The operation a message serves, for tying its edge to a span. Batched
/// commitment messages carry many ops; the first one stands in (the edge
/// still draws, and `cx-obs trace` matches any member by the args field).
pub(crate) fn primary_op(payload: &Payload) -> Option<OpId> {
    match payload {
        Payload::SubOpReq { op_id, .. }
        | Payload::SubOpResp { op_id, .. }
        | Payload::LCom { op_id }
        | Payload::AllNo { op_id }
        | Payload::Committed { op_id }
        | Payload::OpReq { op_id, .. }
        | Payload::OpResp { op_id, .. }
        | Payload::VoteExec { op_id, .. }
        | Payload::Clear { op_id, .. }
        | Payload::ClearResp { op_id }
        | Payload::Migrate { op_id, .. }
        | Payload::MigrateResp { op_id, .. }
        | Payload::MigrateBack { op_id, .. }
        | Payload::MigrateBackAck { op_id, .. } => Some(*op_id),
        Payload::CommitmentReq { pending, .. } => Some(*pending),
        Payload::Vote { ops, .. } | Payload::Ack { ops } | Payload::QueryOutcome { ops } => {
            ops.first().copied()
        }
        Payload::VoteResult { results } => results.first().map(|(op, _)| *op),
        Payload::CommitDecision { commits, aborts } => {
            commits.first().or_else(|| aborts.first()).copied()
        }
    }
}

/// CPU cost of handling one message beyond the fixed per-message cost:
/// executing a sub-op, or walking the entries of a batched commitment.
fn payload_cost(payload: &Payload, cfg: &ClusterConfig) -> u64 {
    match payload {
        Payload::SubOpReq { colocated, .. } => {
            cfg.cpu.per_subop_ns + colocated.map_or(0, |_| cfg.cpu.per_subop_ns)
        }
        Payload::OpReq { .. } | Payload::VoteExec { .. } => cfg.cpu.per_subop_ns,
        Payload::Vote { ops, order_after } => (ops.len() + order_after.len()) as u64 * PER_ENTRY_NS,
        Payload::VoteResult { results } => results.len() as u64 * PER_ENTRY_NS,
        Payload::CommitDecision { commits, aborts } => {
            (commits.len() + aborts.len()) as u64 * PER_ENTRY_NS
        }
        Payload::Ack { ops } | Payload::QueryOutcome { ops } => ops.len() as u64 * PER_ENTRY_NS,
        Payload::Migrate { objs, .. }
        | Payload::MigrateResp { objs, .. }
        | Payload::MigrateBack { objs, .. } => objs.len() as u64 * PER_ENTRY_NS,
        _ => 0,
    }
}

/// Convenience: build and run in one call.
pub fn run_trace(cfg: ClusterConfig, trace: &Trace) -> (RunStats, Vec<Violation>) {
    DesCluster::new(cfg, trace).run()
}

/// Streamed counterpart of [`run_trace`]: the workload is generated on
/// the fly as processes pull ops, so peak memory is independent of trace
/// length. Digest-identical to the materialized path for the same
/// workload parameters.
pub fn run_stream_trace(cfg: ClusterConfig, st: StreamTrace) -> (RunStats, Vec<Violation>) {
    DesCluster::new_stream(cfg, st).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::Protocol;
    use cx_workloads::{Metarates, MetaratesMix, TraceBuilder, TraceProfile};

    fn tiny_trace() -> Trace {
        TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.002) // ~1000 ops
            .build()
    }

    #[test]
    fn replay_completes_and_is_consistent() {
        for protocol in Protocol::ALL {
            let cfg = ClusterConfig::new(4, protocol);
            let trace = tiny_trace();
            let expected = trace.ops.len() as u64;
            let (stats, violations) = run_trace(cfg, &trace);
            assert_eq!(stats.ops_total, expected, "{protocol:?}");
            assert_eq!(stats.ops_stuck, 0, "{protocol:?}");
            assert_eq!(
                stats.ops_applied + stats.ops_failed,
                expected,
                "{protocol:?}"
            );
            assert_eq!(violations, vec![], "{protocol:?}");
            assert!(stats.replay > SimTime::ZERO);
            assert!(stats.drained >= stats.replay);
        }
    }

    #[test]
    fn des_is_deterministic() {
        let trace = tiny_trace();
        let (a, _) = run_trace(ClusterConfig::new(8, Protocol::Cx), &trace);
        let (b, _) = run_trace(ClusterConfig::new(8, Protocol::Cx), &trace);
        assert_eq!(a.replay, b.replay);
        assert_eq!(a.msgs, b.msgs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.server_stats, b.server_stats);
    }

    #[test]
    fn cx_beats_se_on_trace_replay() {
        // The headline Figure 5 effect, on a small slice.
        let trace = tiny_trace();
        let (se, _) = run_trace(ClusterConfig::new(8, Protocol::Se), &trace);
        let (cx, _) = run_trace(ClusterConfig::new(8, Protocol::Cx), &trace);
        assert!(
            cx.replay < se.replay,
            "Cx replay {} must beat OFS {}",
            cx.replay,
            se.replay
        );
    }

    #[test]
    fn cx_message_overhead_is_modest() {
        // Table IV: Cx sends only a few percent more messages than OFS.
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap())
            .scale(0.01)
            .build();
        let (se, _) = run_trace(ClusterConfig::new(8, Protocol::Se), &trace);
        let (cx, _) = run_trace(ClusterConfig::new(8, Protocol::Cx), &trace);
        let overhead = cx.total_msgs() as f64 / se.total_msgs() as f64 - 1.0;
        assert!(
            (0.0..0.10).contains(&overhead),
            "message overhead {overhead} should be small and positive"
        );
    }

    #[test]
    fn metarates_runs_on_all_protocols() {
        let trace = Metarates::new(MetaratesMix::UpdateDominated, 16)
            .seed_files(200)
            .ops_per_proc(40)
            .build();
        for protocol in [Protocol::Cx, Protocol::Se, Protocol::SeBatched] {
            let (stats, violations) = run_trace(ClusterConfig::new(4, protocol), &trace);
            assert_eq!(stats.ops_stuck, 0, "{protocol:?}");
            assert_eq!(violations, vec![], "{protocol:?}");
            assert!(stats.throughput() > 0.0);
        }
    }

    #[test]
    fn timeline_sampling_records_valid_bytes() {
        let trace = tiny_trace();
        let sink = ObsSink::recording("cx");
        let cluster = DesCluster::new(ClusterConfig::new(4, Protocol::Cx), &trace);
        let (stats, _) = cluster.with_obs(sink.clone()).run();
        let report = sink.report().expect("a recording sink");
        let series = report.gauge_series(GaugeKind::ValidLogBytes);
        assert!(!series.is_empty());
        let per_instant = report.gauges.len() / series.len();
        assert_eq!(
            per_instant,
            4 * GaugeKind::ALL.len(),
            "every server, every kind"
        );
        assert!(
            stats.peak_valid_bytes > 0,
            "Cx must accumulate valid records"
        );
        assert_eq!(
            series.iter().map(|s| s.2).max(),
            Some(stats.peak_valid_bytes)
        );
    }

    #[test]
    fn conflicts_are_rare_but_present() {
        let trace = TraceBuilder::new(TraceProfile::by_name("deasna2").unwrap())
            .scale(0.002)
            .build();
        let (stats, violations) = run_trace(ClusterConfig::new(8, Protocol::Cx), &trace);
        assert_eq!(violations, vec![]);
        let ratio = stats.conflict_ratio();
        assert!(
            ratio < 0.2,
            "conflict ratio {ratio} should stay low (paper: <4%)"
        );
    }
}
