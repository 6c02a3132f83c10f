//! Seeded random schedule exploration and greedy shrinking.
//!
//! Each seed deterministically generates one fault plan inside the
//! protocol's *sound envelope* — the set of faults the protocol claims to
//! tolerate, so any oracle finding is a real bug, not a harness artifact:
//!
//! * **Cx** supports crash/recovery (§III-D), retries VOTEs and
//!   commitments on a timer, and handles duplicate commitment traffic
//!   idempotently → full envelope: drops, delays, duplicates, timed
//!   partitions, and up to two crash faults (optionally with torn tails).
//! * **2PC** (the comparison baseline) has no retransmission and no
//!   recovery path. Dropping a decision it already acked on, or crashing
//!   a server, *would* lose acked state — by design of the baseline, not
//!   as a bug — so its envelope is network-only: delays and duplicates
//!   widely, drops only of messages whose loss merely wedges the client.

use crate::plan::{CrashFault, CrashPoint, FaultPlan, NetAction, NetFault, Partition};
use crate::runner::{run_plan, ChaosScenario, Repro};
use cx_cluster::FaultStats;
use cx_types::rng::SmallRng;
use cx_types::{MsgKind, Protocol, ServerId, DUR_MS};
use cx_wal::RecordFamily;

/// Kinds whose loss Cx heals (retry timers, recovery queries) or safely
/// wedges a single client op.
const CX_DROP: &[MsgKind] = &[
    MsgKind::SubOpReq,
    MsgKind::SubOpResp,
    MsgKind::Vote,
    MsgKind::VoteResult,
    MsgKind::CommitReq,
    MsgKind::AbortReq,
    MsgKind::Ack,
    MsgKind::LCom,
    MsgKind::QueryOutcome,
];
/// Kinds Cx handles idempotently when duplicated.
const CX_DUP: &[MsgKind] = &[
    MsgKind::Vote,
    MsgKind::VoteResult,
    MsgKind::CommitReq,
    MsgKind::AbortReq,
    MsgKind::Ack,
    MsgKind::LCom,
    MsgKind::QueryOutcome,
];
/// 2PC drops: losing any of these only stalls the client (no ack was or
/// will be given). CommitReq/AbortReq are excluded — 2PC acks on the
/// decision and never retransmits it.
const TWOPC_DROP: &[MsgKind] = &[
    MsgKind::OpReq,
    MsgKind::OpResp,
    MsgKind::Vote,
    MsgKind::VoteResult,
    MsgKind::Ack,
];
/// 2PC duplicates: decision and ack handlers discard repeats for
/// already-finished operations. Vote is excluded — it doubles as the
/// execute-request (VoteExec) and re-executing is not idempotent.
const TWOPC_DUP: &[MsgKind] = &[
    MsgKind::VoteResult,
    MsgKind::CommitReq,
    MsgKind::AbortReq,
    MsgKind::Ack,
];
/// Crash-triggering delivery kinds worth aiming at for Cx.
const CX_CRASH_DELIVER: &[MsgKind] = &[
    MsgKind::Vote,
    MsgKind::VoteResult,
    MsgKind::CommitReq,
    MsgKind::Ack,
    MsgKind::LCom,
];

/// Deterministically generate one plan inside `scn.protocol`'s envelope.
pub fn generate_plan(rng: &mut SmallRng, scn: &ChaosScenario) -> FaultPlan {
    let cx = scn.protocol == Protocol::Cx;
    let (drop_kinds, dup_kinds) = if cx {
        (CX_DROP, CX_DUP)
    } else {
        (TWOPC_DROP, TWOPC_DUP)
    };
    let server = |rng: &mut SmallRng| ServerId(rng.gen_range(0..scn.servers));
    let mut plan = FaultPlan::default();

    for _ in 0..rng.gen_range(1..5u32) {
        let (kind, action) = match rng.gen_range(0..3u32) {
            0 => (*rng.choose(drop_kinds).unwrap(), NetAction::Drop),
            1 => (
                *rng.choose(drop_kinds).unwrap(),
                NetAction::Delay {
                    ns: rng.gen_range(200_000..8_000_000),
                },
            ),
            _ => (
                *rng.choose(dup_kinds).unwrap(),
                NetAction::Duplicate {
                    ns: rng.gen_range(100_000..4_000_000),
                },
            ),
        };
        plan.net.push(NetFault {
            kind,
            from: if rng.gen_bool(0.4) {
                Some(server(rng))
            } else {
                None
            },
            to: if rng.gen_bool(0.4) {
                Some(server(rng))
            } else {
                None
            },
            nth: rng.gen_range(1..60),
            action,
        });
    }

    if cx {
        for _ in 0..rng.gen_range(0..3u32) {
            let family = if rng.gen_bool(0.6) {
                RecordFamily::Result
            } else {
                RecordFamily::Commit
            };
            let point = match rng.gen_range(0..4u32) {
                0 => CrashPoint::WalAppend {
                    family,
                    nth: rng.gen_range(1..25),
                },
                1 => CrashPoint::WalDurable {
                    family,
                    nth: rng.gen_range(1..25),
                },
                2 => CrashPoint::Deliver {
                    kind: *rng.choose(CX_CRASH_DELIVER).unwrap(),
                    nth: rng.gen_range(1..40),
                },
                _ => CrashPoint::Writeback {
                    nth: rng.gen_range(1..3),
                },
            };
            plan.crashes.push(CrashFault {
                server: server(rng),
                point,
                torn_extra_bytes: if rng.gen_bool(0.4) {
                    rng.gen_range(32..512)
                } else {
                    0
                },
                detection_ns: rng.gen_range(20u64..120) * DUR_MS,
                reboot_ns: rng.gen_range(10u64..60) * DUR_MS,
            });
        }
        if rng.gen_bool(0.25) && scn.servers >= 2 {
            let a = server(rng);
            let mut b = server(rng);
            while b == a {
                b = server(rng);
            }
            let from_ns = rng.gen_range(0u64..1_500) * DUR_MS;
            plan.partitions.push(Partition {
                a,
                b,
                from_ns,
                until_ns: from_ns + rng.gen_range(5u64..60) * DUR_MS,
            });
        }
    }
    plan
}

/// Greedily remove faults while the failure reproduces; the fixpoint is a
/// locally-minimal failing schedule.
pub fn shrink(scn: &ChaosScenario, plan: &FaultPlan) -> FaultPlan {
    let mut cur = plan.clone();
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < cur.len() {
            let cand = cur.without(i);
            if !run_plan(scn, &cand).failures.is_empty() {
                cur = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    cur
}

/// What a budgeted exploration saw.
#[derive(Debug, Default)]
pub struct ExploreOutcome {
    pub seeds_run: u64,
    /// Runs where faults wedged clients (expected under drops; not a bug).
    pub wedged: u64,
    /// Fault totals across all runs, for coverage reporting.
    pub faults: FaultStats,
    /// One shrunken, replay-verified repro per violating seed.
    pub repros: Vec<Repro>,
    /// Non-empty if a shrunken plan failed to replay byte-identically.
    pub replay_mismatches: Vec<String>,
}

fn add_faults(acc: &mut FaultStats, s: &FaultStats) {
    acc.drops += s.drops;
    acc.delays += s.delays;
    acc.dups += s.dups;
    acc.dead_drops += s.dead_drops;
    acc.crashes += s.crashes;
    acc.torn_crashes += s.torn_crashes;
    acc.recoveries += s.recoveries;
    acc.oracle_checks += s.oracle_checks;
    acc.oracle_violations += s.oracle_violations;
}

/// Run `seeds` schedules starting at `first_seed`. Every violating
/// schedule is shrunk, replayed twice (digests must agree — the repro is
/// deterministic), and recorded.
pub fn explore(base: &ChaosScenario, first_seed: u64, seeds: u64) -> ExploreOutcome {
    let mut out = ExploreOutcome::default();
    for seed in first_seed..first_seed + seeds {
        let mut scn = *base;
        scn.workload_seed = seed;
        let mut rng = SmallRng::seed_from_u64(seed);
        let plan = generate_plan(&mut rng, &scn);
        let run = run_plan(&scn, &plan);
        out.seeds_run += 1;
        if !run.outcome.quiesced {
            out.wedged += 1;
        }
        add_faults(&mut out.faults, &run.outcome.stats.faults);
        if run.failures.is_empty() {
            continue;
        }
        let shrunk = shrink(&scn, &plan);
        let a = run_plan(&scn, &shrunk);
        let b = run_plan(&scn, &shrunk);
        if a.digest != b.digest {
            out.replay_mismatches.push(format!(
                "seed {seed}: shrunk plan replayed to digest {} then {}",
                a.digest, b.digest
            ));
        }
        out.repros.push(Repro {
            seed,
            scenario: scn,
            plan: shrunk,
            failures: a.failures,
            digest: a.digest,
        });
    }
    out
}
