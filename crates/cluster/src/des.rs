//! The discrete-event cluster simulation.
//!
//! Models what the paper's testbed provides (§IV-B): metadata servers with
//! one CPU queue and one 7200 rpm SATA disk each, a 10 GigE network, and
//! client nodes running synchronous processes. Its ports for the engine
//! host ([`cx_protocol::host`]), which carries the engines' actions out:
//!
//! * fate → the fault injector's verdict, if one is installed.
//! * send → arrival after `one_way + size/bandwidth`, plus the lateness the
//!   host passes on; at the server the message waits in the CPU queue (a
//!   [`FifoResource`]) before handling.
//! * disk → the request is submitted as is to the server's [`Disk`],
//!   which group-commits appends and elevator-merges write-back pages.
//! * timer → a virtual-time timer event.
//!
//! The run replays a [`StreamTrace`], pulling ops as processes issue them:
//! each process ([`ClientTable`]) issues its operations synchronously
//! (closed loop); "replay time" is the virtual time at which the last
//! operation response arrives, matching the paper's metric.

use crate::fault::{ClusterSnapshot, CrashCmd, FaultEvent, FaultInjector, MsgFate};
use crate::feed::{ClientTable, History, OpFeed};
use crate::seed::seed_stores;
use crate::stats::{FaultStats, RecoveryCycle, RunStats};
use cx_mdstore::{GlobalView, Violation};
use cx_obs::{GaugeKind, ObsSink};
use cx_protocol::host::{self, flow_node, primary_op, Lateness, MsgCounts, Ports};
use cx_protocol::{Action, ClientDecision, ClientOp, Endpoint, ServerEngine};
use cx_sim::{FifoResource, Sim};
use cx_simio::{Batch, Disk, DiskReq};
use cx_types::{ClusterConfig, MsgKind, NetConfig, Payload, Placement, ServerId, SimTime, DUR_US};
use cx_wal::RecordFamily;
use cx_workloads::StreamTrace;

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

/// The simulated cluster.
pub struct DesCluster {
    cfg: ClusterConfig,
    servers: Vec<Box<dyn ServerEngine>>,
    cpus: Vec<FifoResource>,
    /// Every client process, over the per-process workload intake.
    clients: ClientTable,
    /// The event queue, the network model and the disks.
    ports: DesPorts,
    stats: RunStats,
    roots: Vec<cx_types::InodeNo>,
    sample_every_ns: u64,
    next_sample: SimTime,
    /// Hard event cap (hang protection).
    max_events: u64,
    /// Per-server liveness (all `Up` unless crashes are in play).
    phases: Vec<SrvPhase>,
    /// Servers currently Down or Recovering; fast skip of the per-event
    /// recovery-completion scan.
    in_fault: u32,
    /// Crash requested by the injector during the current event; executed
    /// once the event finishes dispatching (first request wins).
    pending_crash: Option<CrashCmd>,
    /// Per-server WAL/writeback counters already reported to the injector
    /// (FaultEvents are the diffs against these).
    wal_appended_seen: Vec<[u64; RecordFamily::COUNT]>,
    wal_durable_seen: Vec<[u64; RecordFamily::COUNT]>,
    writebacks_seen: Vec<u64>,
    /// Reusable action buffer: every server step fills it and the host
    /// drains it, so the per-event `Vec` allocation disappears. Handlers
    /// never reenter `dispatch`, so one buffer suffices.
    scratch: Vec<Action>,
}

/// The DES's ports for the engine host: a send's fate is the fault
/// injector's, a send crosses the network model as events, a disk request
/// goes to the server's modelled [`Disk`], a timer is an event.
struct DesPorts {
    sim: Sim<Ev>,
    disks: Vec<Disk>,
    net: NetConfig,
    /// The fault plane; `None` on uninstrumented runs.
    injector: Option<Box<dyn FaultInjector>>,
    /// The run's crash, recovery and oracle counters, until `finalize`
    /// hands them over; the host counts message faults in `sent`.
    faults: FaultStats,
    /// Observability sink. `Off` (the default) makes every emission a
    /// single-branch no-op; recording never schedules events or touches
    /// protocol state, so the golden digest is identical either way.
    obs: ObsSink,
    sent: MsgCounts,
}

impl DesCluster {
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
        let max_events = 800 * feed.total_hint() + 10_000_000;
        let mut servers: Vec<Box<dyn ServerEngine>> = (0..cfg.servers)
            .map(|i| cx_protocol::make_server(ServerId(i), &cfg))
            .collect();

        let mut stores: Vec<_> = servers.iter_mut().map(|s| Some(s.store_mut())).collect();
        seed_stores(&Placement::new(cfg.servers), &seeds, &mut stores);

        let clients = ClientTable::new(&cfg, feed, processes);
        let cpus = (0..cfg.servers).map(|_| FifoResource::new()).collect();
        let stats = RunStats::new(cfg.protocol, cfg.servers, processes);
        let ports = DesPorts {
            sim: Sim::new(),
            disks: (0..cfg.servers).map(|_| Disk::new(cfg.disk)).collect(),
            net: cfg.net,
            injector: None,
            faults: FaultStats::default(),
            obs: ObsSink::Off,
            sent: MsgCounts::default(),
        };

        let n = cfg.servers as usize;
        Self {
            cfg,
            servers,
            cpus,
            clients,
            ports,
            stats,
            roots,
            sample_every_ns: 200_000_000, // 200 ms samples for Figure 7b
            next_sample: SimTime::ZERO,
            max_events,
            phases: vec![SrvPhase::Up; n],
            in_fault: 0,
            pending_crash: None,
            wal_appended_seen: vec![[0; RecordFamily::COUNT]; n],
            wal_durable_seen: vec![[0; RecordFamily::COUNT]; n],
            writebacks_seen: vec![0; n],
            scratch: Vec::with_capacity(16),
        }
    }

    /// Install an observability sink: the run records op-lifecycle spans,
    /// latency histograms, and virtual-time gauges into it. Engines get a
    /// clone so they can stamp milestones only they see (Cx `Completed`).
    pub fn with_obs(mut self, sink: ObsSink) -> Self {
        for s in self.servers.iter_mut() {
            s.install_obs(sink.clone());
        }
        self.ports.obs = sink;
        self
    }

    /// Install a fault injector. Message sends and protocol events route
    /// through it, and the per-op issue/ack logs the oracle needs are
    /// recorded. Use [`DesCluster::run_chaos`] afterwards.
    pub fn with_injector(mut self, injector: Box<dyn FaultInjector>) -> Self {
        self.ports.injector = Some(injector);
        self.clients.history = Some(History::default());
        self
    }

    /// Schedule the first client issues (process starts are staggered
    /// slightly to avoid artificial lockstep).
    fn boot(&mut self) {
        if self.ports.injector.is_some() {
            self.probe_all(SimTime::ZERO);
            self.fire_pending_crash();
        }
        for p in self.clients.starters() {
            self.ports
                .sim
                .schedule(p as u64 * 2 * DUR_US, 0, Ev::ProcIssue { proc: p as u32 });
        }
    }

    /// Run the replay to completion and return the statistics.
    pub fn run(mut self) -> (RunStats, Vec<Violation>) {
        self.boot();
        self.event_loop();
        self.drain();
        self.stats.drained = self.ports.sim.now();
        self.finalize();
        // The feed's rings, the wheel and the disk lanes are spent: free
        // them before the check allocates its own tables.
        drop(self.clients);
        drop(self.ports);

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
            self.step(i as u32, |e, now, out| e.quiesce(now, out));
        }
        if self.ports.injector.is_some() {
            self.probe_all(self.ports.sim.now());
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
        assert!(self.ports.injector.is_some(), "install with_injector first");
        self.boot();
        self.event_loop();
        self.drain();
        self.stats.drained = self.ports.sim.now();
        // Faults can wedge clients forever (a dropped message with no
        // retransmission); surface that instead of hanging.
        self.stats.ops_stuck = self.stats.ops_stuck.max(self.clients.unfinished());
        self.finalize();

        let quiesced = self.quiesced();
        let violations = if quiesced {
            GlobalView::merge(self.servers.iter().map(|s| s.store())).check(&self.roots)
        } else {
            Vec::new()
        };
        let mut oracle_report = Vec::new();
        if let Some(mut inj) = self.ports.injector.take() {
            let (acks, issued) = self.clients.history();
            let snap = ClusterSnapshot {
                stores: self.servers.iter().map(|s| s.store()).collect(),
                acks,
                issued,
            };
            let v = inj.on_run_end(self.ports.sim.now(), quiesced, snap);
            self.stats.faults.oracle_checks += 1;
            self.stats.faults.oracle_violations += v;
            oracle_report = inj.take_report();
        }
        ChaosOutcome {
            stats: self.stats,
            violations,
            oracle_report,
            quiesced,
        }
    }

    fn event_loop(&mut self) {
        while let Some((now, _, ev)) = self.ports.sim.pop() {
            if now >= self.next_sample {
                self.sample(now);
            }
            self.dispatch(now, ev);
            if self.ports.injector.is_some() {
                self.probe_all(now);
                self.fire_pending_crash();
            }
            self.check_fault_progress();
            if self.ports.sim.events_processed() > self.max_events {
                // hang protection: record and bail
                self.stats.ops_stuck = self.clients.unfinished();
                break;
            }
        }
        self.stats.events = self.ports.sim.events_processed();
    }

    /// Every 200 ms: the digested peak valid bytes, and the obs gauges.
    fn sample(&mut self, now: SimTime) {
        for s in &self.servers {
            self.stats.peak_valid_bytes = self.stats.peak_valid_bytes.max(s.valid_log_bytes());
        }
        let obs = &self.ports.obs;
        if obs.enabled() {
            for (i, s) in self.servers.iter().enumerate() {
                let sid = i as u32;
                obs.gauge(now, sid, GaugeKind::ValidLogBytes, s.valid_log_bytes());
                let g = s.obs_gauges();
                obs.gauge(now, sid, GaugeKind::ActiveObjects, g.active_objects);
                obs.gauge(now, sid, GaugeKind::PendingBatchOps, g.pending_batch_ops);
                obs.gauge(
                    now,
                    sid,
                    GaugeKind::QueueBacklogNs,
                    self.cpus[i].backlog_ns(now),
                );
            }
        }
        self.next_sample = now + self.sample_every_ns;
    }

    /// Step server `server`'s engine with `f` through the host.
    fn step(
        &mut self,
        server: u32,
        f: impl FnOnce(&mut dyn ServerEngine, SimTime, &mut Vec<Action>),
    ) {
        let me = Endpoint::Server(ServerId(server));
        let engine = self.servers[server as usize].as_mut();
        f(engine, self.ports.sim.now(), &mut self.scratch);
        host::carry_out(&mut self.ports, me, Some(engine), &mut self.scratch);
    }

    /// Step client `proc` with `f`; once its op is answered, it issues the
    /// next one a think time later.
    fn client(
        &mut self,
        proc: u32,
        f: impl FnOnce(&mut ClientOp, SimTime, &mut Vec<Action>) -> ClientDecision,
    ) {
        let (ports, stats) = (&mut self.ports, &mut self.stats);
        if self.clients.step(proc as usize, ports, stats, f) {
            ports
                .sim
                .schedule(CLIENT_ISSUE_NS, 0, Ev::ProcIssue { proc });
        }
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
                    self.ports.faults.dead_drops += 1;
                    return;
                }
                let cost = self.cfg.cpu.per_msg_ns + payload_cost(&payload, &self.cfg);
                let at = self.cpus[server as usize].reserve(now, cost);
                self.ports.sim.schedule_at(
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
                if self.ports.injector.is_some() {
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
                self.step(server, |e, now, out| e.on_msg(now, from, payload, out));
            }
            Ev::DiskDone {
                server,
                tokens,
                generation,
            } => {
                let disk = &mut self.ports.disks[server as usize];
                if generation != disk.generation() {
                    return; // completion from a crashed incarnation
                }
                // start the next batch first: the disk works in parallel
                if let Some(next) = disk.complete(now) {
                    self.ports.schedule_batch(server, next);
                }
                self.step(server, |e, now, out| {
                    for &token in &tokens {
                        e.on_disk_done(now, token, out);
                    }
                });
                self.ports.disks[server as usize].recycle(tokens);
            }
            Ev::ServerTimer { server, token } => {
                self.step(server, |e, now, out| e.on_timer(now, token, out));
            }
            Ev::ProcDeliver {
                proc,
                from,
                payload,
            } => self.client(proc, |op, now, out| op.on_msg(now, from, payload, out)),
            Ev::ProcTimer { proc, token } => {
                self.client(proc, |op, now, out| op.on_timer(now, token, out))
            }
            Ev::ProcIssue { proc } => {
                let (ports, stats) = (&mut self.ports, &mut self.stats);
                self.clients.issue(proc as usize, ports, stats)
            }
            Ev::Reboot { server } => {
                let SrvPhase::Down {
                    crashed_at,
                    valid_bytes,
                } = self.phases[server as usize]
                else {
                    return;
                };
                let mut scanned = 0;
                self.step(server, |e, now, out| scanned = e.recover(now, out));
                self.phases[server as usize] = SrvPhase::Recovering {
                    crashed_at,
                    valid_bytes,
                    started: now,
                    scanned,
                };
            }
        }
    }

    /// Crash bookkeeping, checked after every event: detect recovery
    /// completions.
    fn check_fault_progress(&mut self) {
        if self.in_fault == 0 {
            return;
        }
        let now = self.ports.sim.now();
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
            self.ports.faults.recoveries += 1;
            self.ports
                .obs
                .gauge(now, idx as u32, GaugeKind::Liveness, 1);
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
            self.ports.faults.torn_crashes += 1;
        } else {
            self.servers[idx].crash(now);
        }
        self.ports.faults.crashes += 1;
        self.ports
            .obs
            .gauge(now, idx as u32, GaugeKind::Liveness, 0);
        self.ports.disks[idx].crash();
        self.cpus[idx].reset(now);
        self.phases[idx] = SrvPhase::Down {
            crashed_at: now,
            valid_bytes: valid,
        };
        self.in_fault += 1;
        // The crash swallows whatever WAL/writeback deltas were unreported;
        // resync so they are not misattributed to the next incarnation.
        self.resync_probes(idx);
        self.ports.sim.schedule(
            cmd.detection_ns + cmd.reboot_ns,
            0,
            Ev::Reboot {
                server: cmd.server.0,
            },
        );
    }

    fn fire_pending_crash(&mut self) {
        if let Some(cmd) = self.pending_crash.take() {
            self.crash_server(self.ports.sim.now(), cmd);
        }
    }

    /// Feed one protocol event to the injector; a requested crash is
    /// parked until the current event finishes dispatching.
    fn emit_fault(&mut self, now: SimTime, ev: FaultEvent) {
        let Some(inj) = self.ports.injector.as_mut() else {
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
                let valid_bytes = w.valid_bytes();
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
                                valid_bytes,
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
        if self.ports.injector.is_none() {
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
        let Some(inj) = self.ports.injector.as_mut() else {
            return;
        };
        let (acks, issued) = self.clients.history();
        let snap = ClusterSnapshot {
            stores: self.servers.iter().map(|s| s.store()).collect(),
            acks,
            issued,
        };
        let v = inj.on_recovery_complete(now, server, snap);
        self.ports.faults.oracle_checks += 1;
        self.ports.faults.oracle_violations += v;
    }

    fn finalize(&mut self) {
        self.stats.faults = self.ports.faults;
        self.stats.set_msgs(&self.ports.sent);
        // Structured hang diagnostics: the recorder's live-op map names the
        // exact stalled phase for every op still short of its reply.
        self.stats.stuck_ops = self.ports.obs.stuck_report();
        self.stats.blame = self.ports.obs.blame_table();
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
        for d in &self.ports.disks {
            self.stats.disk.merge(d.stats());
        }
    }
}

impl Ports for DesPorts {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn obs(&self) -> &ObsSink {
        &self.obs
    }

    fn sent(&mut self) -> &mut MsgCounts {
        &mut self.sent
    }

    fn fate(&mut self, from: Endpoint, to: Endpoint, kind: MsgKind) -> MsgFate {
        match self.injector.as_mut() {
            Some(inj) => inj.on_send(self.sim.now(), from, to, kind),
            None => MsgFate::Deliver,
        }
    }

    /// Latency is `one_way + size/bandwidth`, plus what the fault added;
    /// at a server the message then waits in the CPU queue.
    fn send(&mut self, from: Endpoint, to: Endpoint, payload: Payload, late: Lateness) {
        let bytes = payload.size_bytes() as u64;
        let latency = self.net.one_way_ns + (bytes * 1_000_000_000) / self.net.bandwidth_bps.max(1);
        self.deliver(from, to, payload, latency + late.wire_ns, late.hold_ns);
    }

    /// The modelled disk group-commits appends and elevator-merges
    /// write-back pages; its batch completions are events.
    fn disk(&mut self, server: ServerId, req: DiskReq) -> Option<u64> {
        let now = self.sim.now();
        if let Some(batch) = self.disks[server.0 as usize].submit(now, req) {
            self.schedule_batch(server.0, batch);
        }
        None
    }

    fn set_timer(&mut self, at: Endpoint, token: u64, delay_ns: u64) {
        let ev = match at {
            Endpoint::Server(s) => Ev::ServerTimer { server: s.0, token },
            Endpoint::Proc(p) => Ev::ProcTimer {
                proc: p.client.0,
                token,
            },
        };
        self.sim.schedule(delay_ns, 0, ev);
    }
}

impl DesPorts {
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
        if self.obs.enabled() {
            let now = self.sim.now();
            let (fnode, tnode) = (flow_node(from), flow_node(to));
            let (op, kind) = (primary_op(&payload), payload.kind());
            self.obs
                .msg_edge(op, kind, fnode, tnode, now.0, (now + after_ns).0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::Protocol;
    use cx_workloads::{Metarates, MetaratesMix, TraceBuilder, TraceProfile};

    fn tiny_trace() -> TraceBuilder {
        TraceBuilder::new(TraceProfile::by_name("CTH").unwrap()).scale(0.002) // ~1000 ops
    }

    fn replay(cfg: ClusterConfig, st: StreamTrace) -> (RunStats, Vec<Violation>) {
        DesCluster::new_stream(cfg, st).run()
    }

    #[test]
    fn replay_completes_and_is_consistent() {
        for protocol in Protocol::ALL {
            let cfg = ClusterConfig::new(4, protocol);
            let trace = tiny_trace().stream();
            let expected = trace.total_ops_hint;
            let (stats, violations) = replay(cfg, trace);
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
        let (a, _) = replay(ClusterConfig::new(8, Protocol::Cx), trace.clone().stream());
        let (b, _) = replay(ClusterConfig::new(8, Protocol::Cx), trace.stream());
        assert_eq!(a.replay, b.replay);
        assert_eq!(a.msgs, b.msgs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.server_stats, b.server_stats);
    }

    #[test]
    fn cx_beats_se_on_trace_replay() {
        // The headline Figure 5 effect, on a small slice.
        let trace = tiny_trace();
        let (se, _) = replay(ClusterConfig::new(8, Protocol::Se), trace.clone().stream());
        let (cx, _) = replay(ClusterConfig::new(8, Protocol::Cx), trace.stream());
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
        let trace = TraceBuilder::new(TraceProfile::by_name("CTH").unwrap()).scale(0.01);
        let (se, _) = replay(ClusterConfig::new(8, Protocol::Se), trace.clone().stream());
        let (cx, _) = replay(ClusterConfig::new(8, Protocol::Cx), trace.stream());
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
            .ops_per_proc(40);
        for protocol in [Protocol::Cx, Protocol::Se, Protocol::SeBatched] {
            let (stats, violations) = replay(ClusterConfig::new(4, protocol), trace.stream());
            assert_eq!(stats.ops_stuck, 0, "{protocol:?}");
            assert_eq!(violations, vec![], "{protocol:?}");
            assert!(stats.throughput() > 0.0);
        }
    }

    #[test]
    fn timeline_sampling_records_valid_bytes() {
        let sink = ObsSink::recording("cx");
        let cluster =
            DesCluster::new_stream(ClusterConfig::new(4, Protocol::Cx), tiny_trace().stream());
        let (stats, _) = cluster.with_obs(sink.clone()).run();
        let report = sink.report().expect("a recording sink");
        let series = report.gauge_series(GaugeKind::ValidLogBytes);
        assert!(!series.is_empty());
        let per_instant = report.gauges.len() / series.len();
        // Every server, every kind but liveness, which only a crash and a
        // recovery write.
        let sampled_kinds = GaugeKind::ALL.len() - 1;
        assert_eq!(per_instant, 4 * sampled_kinds, "every server, every kind");
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
        let trace = TraceBuilder::new(TraceProfile::by_name("deasna2").unwrap()).scale(0.002);
        let (stats, violations) = replay(ClusterConfig::new(8, Protocol::Cx), trace.stream());
        assert_eq!(violations, vec![]);
        let ratio = stats.conflict_ratio();
        assert!(
            ratio < 0.2,
            "conflict ratio {ratio} should stay low (paper: <4%)"
        );
    }
}
