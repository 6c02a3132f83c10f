//! Per-layer micro-timings: the benchmark's own loops around each crate's
//! public functions, fed from the workload's own input — its ops, the
//! sub-ops its placement plans produce, and frames in the message-kind mix
//! its run reported. Every loop is two warm-up batches plus nine timed
//! ones; the reported number is the median batch's time per call.

use crate::measure::median;
use crate::spec::WorkloadSpec;
use crate::trace::Tracer;
use cx_core::{
    BatchTrigger, ClusterConfig, LogHistogram, MetricRegistry, MsgKind, ObsSink, OpOutcome, Phase,
    Protocol, RunStats, SimTime,
};
use cx_mdstore::{MetaStore, Undo};
use cx_net::{encode_frame, AddrBook, ConnectionManager, Frame, FrameBuffer, NodeId, PlaneConfig};
use cx_obs::registry::Series;
use cx_protocol::testkit::Kit;
use cx_protocol::Endpoint;
use cx_sim::{Sim, TimerQueue};
use cx_simio::{Disk, DiskReq};
use cx_types::{
    DiskConfig, FileKind, FsOp, Hint, InodeNo, Name, OpId, OpPlan, Payload, Placement, ProcId,
    Role, ServerId, SubOp, Verdict,
};
use cx_wal::{Record, Wal};
use cx_workloads::SeedEntry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops pulled from the head of the workload's stream to feed the loops.
const SAMPLE_OPS: usize = 20_000;

/// Input for the loops, drawn once from the workload.
pub struct Sample {
    spec: WorkloadSpec,
    seed: u64,
    quick: bool,
    seeds: Vec<SeedEntry>,
    pub plans: Vec<OpPlan>,
    /// Write sub-ops of `plans`, in issue order.
    writes: Vec<SubOp>,
    /// Read sub-ops of `plans`.
    reads: Vec<SubOp>,
    frames: Vec<Frame>,
}

impl Sample {
    /// `stats` is a finished rep of this workload: its per-kind message
    /// counts and commitment batch size shape the frame mix.
    pub fn draw(spec: &WorkloadSpec, seed: u64, quick: bool, stats: &RunStats) -> Self {
        let cfg = spec.cfg();
        let mut st = spec.stream(&cfg, seed, quick);
        let placement = Placement::new(cfg.servers);
        let mut plans = Vec::new();
        while plans.len() < SAMPLE_OPS {
            let Some(t) = st.ops.next_op() else { break };
            plans.push(placement.plan(t.op));
        }
        let subops = || {
            plans.iter().flat_map(|p: &OpPlan| {
                [Some(p.coord_subop), p.colocated, p.participant.map(|x| x.1)]
                    .into_iter()
                    .flatten()
            })
        };
        let writes = subops().filter(SubOp::is_write).collect();
        let reads = subops().filter(|s| !s.is_write()).collect();
        let batch = stats.proto.batch_size.percentile(50.0).max(1);
        let frames = frame_mix(&plans, &stats.msgs, batch);
        Self {
            spec: *spec,
            seed,
            quick,
            seeds: st.seeds,
            plans,
            writes,
            reads,
            frames,
        }
    }

    /// A store holding the workload's seeded namespace (every row on one
    /// store: the loops time the store, not placement).
    fn seeded_store(&self) -> MetaStore {
        let mut store = MetaStore::new();
        for seed in &self.seeds {
            match *seed {
                SeedEntry::Dir { ino } => store.seed_inode(ino, FileKind::Directory, 1),
                SeedEntry::File { parent, name, ino } => {
                    store.seed_dentry(parent, name, ino);
                    store.seed_inode(ino, FileKind::Regular, 1);
                }
            }
        }
        store
    }
}

/// 256 frames whose kinds follow `msgs` (a run's per-kind send counts);
/// an empty map (the threaded runtime counts no messages) falls back to
/// request/reply halves. Batched kinds carry `batch` op ids.
fn frame_mix(plans: &[OpPlan], msgs: &BTreeMap<MsgKind, u64>, batch: u64) -> Vec<Frame> {
    const RING: u64 = 256;
    let proc = ProcId::new(0, 0);
    let ops: Vec<OpId> = (0..batch).map(|i| OpId::new(proc, i)).collect();
    let payload = |kind: MsgKind, i: usize| -> Option<Payload> {
        let plan = plans[i % plans.len()];
        let op_id = OpId::new(proc, i as u64);
        Some(match kind {
            MsgKind::SubOpReq => Payload::SubOpReq {
                op_id,
                subop: plan.coord_subop,
                role: Role::Coordinator,
                peer: plan.participant.map(|p| p.0),
                colocated: plan.colocated,
            },
            MsgKind::SubOpResp => Payload::SubOpResp {
                op_id,
                verdict: Verdict::Yes,
                hint: Hint::null(),
            },
            MsgKind::Vote => Payload::Vote {
                ops: ops.clone(),
                order_after: Vec::new(),
            },
            MsgKind::VoteResult => Payload::VoteResult {
                results: ops.iter().map(|o| (*o, Verdict::Yes)).collect(),
            },
            MsgKind::CommitReq => Payload::CommitDecision {
                commits: ops.clone(),
                aborts: Vec::new(),
            },
            MsgKind::AbortReq => Payload::CommitDecision {
                commits: Vec::new(),
                aborts: ops.clone(),
            },
            MsgKind::Ack => Payload::Ack { ops: ops.clone() },
            MsgKind::LCom => Payload::LCom { op_id },
            MsgKind::AllNo => Payload::AllNo { op_id },
            MsgKind::Committed => Payload::Committed { op_id },
            MsgKind::CommitmentReq => Payload::CommitmentReq {
                pending: op_id,
                sweep: false,
            },
            // Baseline-protocol kinds never appear in a Cx run.
            _ => return None,
        })
    };
    let fallback: BTreeMap<MsgKind, u64> = [(MsgKind::SubOpReq, 1), (MsgKind::SubOpResp, 1)].into();
    let msgs = if msgs.is_empty() { &fallback } else { msgs };
    let total: u64 = msgs.values().sum();
    let mut frames = Vec::new();
    for (&kind, &n) in msgs {
        // At least one frame of every kind the run sent.
        let share = (n * RING).div_ceil(total).max(1);
        for _ in 0..share {
            if let Some(payload) = payload(kind, frames.len()) {
                frames.push(Frame::Msg {
                    sent_ns: 1_000_000 + frames.len() as u64,
                    from: Endpoint::Proc(proc),
                    to: Endpoint::Server(ServerId(0)),
                    payload,
                });
            }
        }
    }
    frames
}

/// Time of `f`, with its result kept from the optimiser.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// Runs every loop and collects `name → value`. `quick` trims batch
/// counts to one warm-up and three timed (the smoke test's budget).
pub struct Layers<'a> {
    pub out: BTreeMap<&'static str, f64>,
    tracer: &'a mut Tracer,
    parent: u64,
    quick: bool,
}

impl<'a> Layers<'a> {
    pub fn new(tracer: &'a mut Tracer, parent: u64, quick: bool) -> Self {
        Self {
            out: BTreeMap::new(),
            tracer,
            parent,
            quick,
        }
    }

    /// `batch` returns the time spent on `units` calls; the median batch's
    /// nanoseconds per call lands under `name`.
    fn bench(&mut self, name: &'static str, units: usize, mut batch: impl FnMut() -> Duration) {
        let span = self.tracer.begin(name, self.parent);
        let (warm, runs) = if self.quick { (1, 3) } else { (2, 9) };
        for _ in 0..warm {
            batch();
        }
        let samples: Vec<f64> = (0..runs)
            .map(|_| batch().as_secs_f64() * 1e9 / units.max(1) as f64)
            .collect();
        self.out.insert(name, median(&samples));
        self.tracer.end(span);
    }

    pub fn run(&mut self, s: &Sample) {
        self.workloads_and_types(s);
        self.sim();
        self.simio();
        self.wal(s);
        self.mdstore(s);
        self.protocol();
        self.net_wire(s);
        self.net_conn(s);
        self.chan();
        self.obs(s);
    }

    fn workloads_and_types(&mut self, s: &Sample) {
        let n = s.plans.len();
        let cfg = s.spec.cfg();
        self.bench("workloads.gen_ns_per_op", n, || {
            let mut st = s.spec.stream(&cfg, s.seed, s.quick);
            timed(|| {
                for _ in 0..n {
                    black_box(st.ops.next_op());
                }
            })
        });
        let placement = Placement::new(cfg.servers);
        let ops: Vec<FsOp> = s.plans.iter().map(|p| p.op).collect();
        self.bench("types.placement_plan_ns", n, || {
            timed(|| {
                let mut acc = 0u32;
                for op in &ops {
                    acc = acc.wrapping_add(black_box(placement.plan(*op)).coordinator.0);
                }
                acc
            })
        });
    }

    fn sim(&mut self) {
        const N: u64 = 100_000;
        // Near-future-dominated delays with an occasional long timer, the
        // shape of real replay traffic (same mix as the repo's micro bench).
        let delay = |i: u64| {
            if i.is_multiple_of(64) {
                1_000_000 + (i % 7) * 500_000
            } else {
                (i * 2_654_435_761) % 40_000
            }
        };
        self.bench("sim.schedule_pop_ns", N as usize, || {
            let mut sim: Sim<u64> = Sim::new();
            for i in 0..1024 {
                sim.schedule(delay(i), 0, i);
            }
            // Pop one, schedule one: the steady state of a replay.
            timed(|| {
                for i in 0..N {
                    if let Some((_, _, ev)) = sim.pop() {
                        sim.schedule(delay(i.wrapping_add(ev)), 0, i);
                    }
                }
                sim.events_processed()
            })
        });
        self.bench("sim.timerqueue_push_pop_ns", N as usize, || {
            let mut q: TimerQueue<u64> = TimerQueue::new();
            for i in 0..64 {
                q.push(SimTime(delay(i)), i);
            }
            timed(|| {
                for i in 0..N {
                    if let Some((at, ev)) = q.pop() {
                        q.push(SimTime(at.0 + delay(i.wrapping_add(ev))), i);
                    }
                }
                q.len()
            })
        });
    }

    fn simio(&mut self) {
        self.bench("simio.log_submit_ns", 512, || {
            let mut disk = Disk::new(DiskConfig::default());
            let append = |t| DiskReq::LogAppend {
                bytes: 200,
                token: t,
            };
            timed(move || {
                let mut batch = disk.submit(SimTime(0), append(0)).expect("idle start");
                for t in 1..512u64 {
                    disk.submit(SimTime(0), append(t));
                }
                while let Some(next) = disk.complete(batch.finish) {
                    batch = next;
                }
                disk
            })
        });
        self.bench("simio.writeback_ns_per_page", 1_000, || {
            let mut disk = Disk::new(DiskConfig::default());
            let pages: Vec<u64> = (0..1_000u64).map(|i| i * 3).collect();
            timed(move || {
                let batch = disk
                    .submit(SimTime(0), DiskReq::DbWriteback { pages, token: 0 })
                    .expect("idle start");
                let _ = disk.complete(batch.finish);
                disk
            })
        });
    }

    fn wal(&mut self, s: &Sample) {
        // One Result record per write sub-op the workload's plans produce,
        // each followed by its Commit — what a participant logs per op.
        let records: Vec<(Record, Record)> = s
            .writes
            .iter()
            .take(4_096)
            .enumerate()
            .map(|(i, subop)| {
                let op_id = OpId::new(ProcId::new(0, 0), i as u64);
                (
                    Record::Result {
                        op_id,
                        role: Role::Participant,
                        peer: Some(ServerId(1)),
                        subop: *subop,
                        verdict: Verdict::Yes,
                        invalidated: false,
                    },
                    Record::Commit { op_id },
                )
            })
            .collect();
        let fill = |wal: &mut Wal| {
            for (result, commit) in &records {
                let (seq, _) = wal.append(result.clone()).expect("unlimited log");
                wal.append(commit.clone()).expect("unlimited log");
                wal.mark_durable(seq);
            }
        };
        self.bench("wal.append_ns", records.len() * 2, || {
            let mut wal = Wal::new(None);
            timed(|| {
                fill(&mut wal);
                wal
            })
        });
        self.bench("wal.prune_ns", records.len(), || {
            let mut wal = Wal::new(None);
            fill(&mut wal);
            timed(|| wal.prune_all())
        });
        self.bench("wal.encode_decode_ns", records.len(), || {
            let mut buf = Vec::with_capacity(256);
            timed(|| {
                let mut used = 0usize;
                for (result, _) in &records {
                    buf.clear();
                    cx_wal::encode_record(&mut buf, result);
                    used += black_box(cx_wal::decode_record(&buf).expect("round trip")).1;
                }
                used
            })
        });
    }

    fn mdstore(&mut self, s: &Sample) {
        let base = s.seeded_store();
        // A sub-op the single merged store refuses (its other half ran
        // first) still costs its lookup; keep going.
        let apply_all = |store: &mut MetaStore| -> Vec<Undo> {
            s.writes
                .iter()
                .filter_map(|subop| store.apply(subop).ok())
                .collect()
        };
        self.bench("mdstore.apply_ns", s.writes.len(), || {
            let mut store = base.clone();
            timed(|| apply_all(&mut store))
        });
        // Undo and write-back start from the state the applies left.
        let mut applied = base.clone();
        let undos = apply_all(&mut applied);
        self.bench("mdstore.undo_ns", undos.len(), || {
            let mut store = applied.clone();
            timed(|| {
                for u in undos.iter().rev() {
                    store.undo(*u);
                }
            })
        });
        self.bench(
            "mdstore.take_dirty_ns_per_page",
            applied.dirty_count(),
            || {
                let mut store = applied.clone();
                timed(|| store.take_dirty_pages())
            },
        );
        // Reads go through `apply` too (that is what the engines call).
        let reads: Vec<SubOp> = if s.reads.is_empty() {
            vec![SubOp::ReadInode { ino: InodeNo(1) }]
        } else {
            s.reads.clone()
        };
        self.bench("mdstore.lookup_ns", reads.len(), || {
            let mut store = base.clone();
            timed(|| {
                let mut hits = 0usize;
                for subop in &reads {
                    hits += usize::from(store.apply(subop).is_ok());
                }
                hits
            })
        });
    }

    fn protocol(&mut self) {
        const OPS: u64 = 64;
        let kit = |protocol| {
            let mut cfg = ClusterConfig::new(4, protocol);
            cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: OPS };
            let mut kit = Kit::new(cfg);
            for srv in kit.servers.iter_mut() {
                srv.store_mut()
                    .seed_inode(InodeNo(1), FileKind::Directory, 1);
                for i in 0..OPS {
                    srv.store_mut()
                        .seed_inode(InodeNo(500 + i), FileKind::Regular, 1);
                }
            }
            kit
        };
        let create = |i: u64| FsOp::Create {
            parent: InodeNo(1),
            name: Name(100 + i),
            ino: InodeNo(1_000 + i),
        };
        for (name, protocol) in [
            ("protocol.engine_ns_per_create.cx", Protocol::Cx),
            ("protocol.engine_ns_per_create.se", Protocol::Se),
            ("protocol.engine_ns_per_create.twopc", Protocol::TwoPc),
        ] {
            self.bench(name, OPS as usize, || {
                let mut kit = kit(protocol);
                timed(move || {
                    for i in 0..OPS {
                        kit.run_op(ProcId::new((i % 4) as u32, 0), create(i));
                    }
                    kit.quiesce();
                    kit
                })
            });
        }
        self.bench("protocol.engine_ns_per_read", OPS as usize, || {
            let mut kit = kit(Protocol::Cx);
            timed(move || {
                for i in 0..OPS {
                    kit.run_op(
                        ProcId::new((i % 4) as u32, 0),
                        FsOp::Stat {
                            ino: InodeNo(500 + i),
                        },
                    );
                }
                kit
            })
        });
    }

    fn net_wire(&mut self, s: &Sample) {
        const ROUNDS: usize = 16;
        let n = s.frames.len() * ROUNDS;
        let mut bytes = Vec::new();
        for f in &s.frames {
            encode_frame(f, &mut bytes);
        }
        self.out.insert(
            "net.wire.bytes_per_frame",
            bytes.len() as f64 / s.frames.len() as f64,
        );
        self.bench("net.wire.encode_ns_per_frame", n, || {
            let mut buf = Vec::with_capacity(bytes.len());
            timed(|| {
                for _ in 0..ROUNDS {
                    buf.clear();
                    for f in &s.frames {
                        encode_frame(f, &mut buf);
                    }
                }
                buf.len()
            })
        });
        // The reader's path: one coalesced read's worth of bytes decoded
        // in place into a reused batch vector.
        self.bench("net.wire.decode_ns_per_frame", n, || {
            let mut fb = FrameBuffer::with_capacity(bytes.len());
            let mut out = Vec::with_capacity(s.frames.len());
            timed(|| {
                let mut seen = 0usize;
                for _ in 0..ROUNDS {
                    fb.extend(&bytes);
                    out.clear();
                    seen += fb.drain_frames(&mut out).expect("own encoding decodes");
                }
                seen
            })
        });
    }

    fn net_conn(&mut self, s: &Sample) {
        let span = self.tracer.begin("net.conn", self.parent);
        let book = Arc::new(AddrBook::new());
        let start = |node| {
            let (mgr, rx) =
                ConnectionManager::start(node, Arc::clone(&book), PlaneConfig::default())
                    .expect("bind loopback listener");
            book.set(node, mgr.listen_addr());
            (mgr, rx)
        };
        let (a, rx_a) = start(NodeId::Server(0));
        let (b, rx_b) = start(NodeId::Server(1));
        a.prime(NodeId::Server(1));
        b.prime(NodeId::Server(0));

        let (pings, streamed) = if self.quick {
            (200, 5_000)
        } else {
            (3_000, 60_000)
        };
        // Ping-pong: one frame each way, nothing to coalesce with — the
        // wake-up + syscall cost of one hop pair.
        // The inbound receivers are not `Sync`: the far side's moves into
        // its thread and comes back through the join.
        let b_ref = &b;
        let (rtts, rx_b) = std::thread::scope(|scope| {
            let echo = scope.spawn(move || {
                let mut echoed = 0;
                while echoed < pings {
                    let (_, batch) = rx_b.recv().expect("ping arrives");
                    for f in batch {
                        b_ref.send(NodeId::Server(0), f).expect("echo");
                        echoed += 1;
                    }
                }
                rx_b
            });
            let mut rtts = Vec::with_capacity(pings);
            for i in 0..pings {
                let t = Instant::now();
                a.send(NodeId::Server(1), s.frames[i % s.frames.len()].clone())
                    .expect("ping");
                let (_, batch) = rx_a.recv().expect("pong arrives");
                rtts.push(t.elapsed().as_secs_f64() * 1e9);
                a.recycle_batch(batch);
            }
            (rtts, echo.join().expect("echo thread panicked"))
        });
        // Skip the first tenth: connection warm-up.
        self.out
            .insert("net.conn.pingpong_rtt_p50_ns", median(&rtts[pings / 10..]));

        // Pipelined one-way stream: send as fast as the queue takes, time
        // until the far side has decoded every frame.
        let mut per_frame = Vec::new();
        let mut rx_b = Some(rx_b);
        for _ in 0..3 {
            let rx = rx_b.take().expect("receiver handed back");
            let t = Instant::now();
            rx_b = Some(std::thread::scope(|scope| {
                let sink = scope.spawn(move || {
                    let mut got = 0;
                    while got < streamed {
                        let (_, batch) = rx.recv().expect("stream arrives");
                        got += batch.len();
                        b_ref.recycle_batch(batch);
                    }
                    rx
                });
                for i in 0..streamed {
                    a.send(NodeId::Server(1), s.frames[i % s.frames.len()].clone())
                        .expect("stream");
                }
                sink.join().expect("sink thread panicked")
            }));
            per_frame.push(t.elapsed().as_secs_f64() * 1e9 / streamed as f64);
        }
        self.out
            .insert("net.conn.stream_ns_per_frame", median(&per_frame));
        a.shutdown();
        b.shutdown();
        self.tracer.end(span);
    }

    fn chan(&mut self) {
        let span = self.tracer.begin("chan.handoff_rtt_p50_ns", self.parent);
        let n = if self.quick { 500 } else { 10_000 };
        let (to_peer, peer_rx) = crossbeam::channel::unbounded::<u64>();
        let (to_me, my_rx) = crossbeam::channel::unbounded::<u64>();
        let rtts = std::thread::scope(|scope| {
            scope.spawn(move || {
                while let Ok(v) = peer_rx.recv() {
                    if to_me.send(v).is_err() {
                        break;
                    }
                }
            });
            let mut rtts = Vec::with_capacity(n);
            for i in 0..n as u64 {
                let t = Instant::now();
                to_peer.send(i).expect("peer alive");
                black_box(my_rx.recv().expect("reply"));
                rtts.push(t.elapsed().as_secs_f64() * 1e9);
            }
            drop(to_peer);
            rtts
        });
        self.out
            .insert("chan.handoff_rtt_p50_ns", median(&rtts[n / 10..]));
        self.tracer.end(span);
    }

    fn obs(&mut self, s: &Sample) {
        let n = s.plans.len();
        // What a traced run pays per op: issue, two server phases, reply
        // and the latency sample, into a recording sink.
        self.bench("obs.stamp_ns_per_op", n, || {
            let sink = ObsSink::recording("cx");
            timed(|| {
                for (i, plan) in s.plans.iter().enumerate() {
                    let op = OpId::new(ProcId::new(0, 0), i as u64);
                    let at = SimTime(i as u64 * 1_000);
                    let cross = plan.is_cross_server();
                    sink.op_issued(op, plan.op.class(), cross, at);
                    sink.op_phase(op, Phase::Dispatched, SimTime(at.0 + 100), None);
                    sink.op_phase(
                        op,
                        Phase::Executed,
                        SimTime(at.0 + 400),
                        Some(plan.coordinator),
                    );
                    sink.op_replied(op, SimTime(at.0 + 700), OpOutcome::Applied, false);
                    sink.client_latency(plan.op.class(), cross, 700);
                }
                sink
            })
        });
        let value = |i: usize| 50_000 + (i as u64 * 2_654_435_761) % 1_000_000;
        self.bench("obs.registry_observe_ns", 100_000, || {
            let reg = MetricRegistry::new();
            timed(|| {
                for i in 0..100_000 {
                    reg.observe(Series::ClientLatencyNs, value(i));
                }
                reg
            })
        });
        self.bench("obs.hist_record_ns", 100_000, || {
            let mut h = LogHistogram::new();
            timed(|| {
                for i in 0..100_000 {
                    h.record(value(i));
                }
                h
            })
        });
    }
}
