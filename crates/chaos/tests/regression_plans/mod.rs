//! The hand-written regression fault plans, shared by `plans.rs` and the
//! root package's tier-1 smoke test (`tests/wire_and_chaos_smoke.rs`).

use cx_chaos::{CrashFault, CrashPoint, FaultPlan, NetAction, NetFault};
use cx_types::{MsgKind, ServerId, DUR_MS};
use cx_wal::RecordFamily;

pub fn crash(server: u32, point: CrashPoint, torn: u64) -> CrashFault {
    CrashFault {
        server: ServerId(server),
        point,
        torn_extra_bytes: torn,
        detection_ns: 30 * DUR_MS,
        reboot_ns: 15 * DUR_MS,
    }
}

pub fn delayed_votes_plan() -> FaultPlan {
    FaultPlan {
        net: (1..=3)
            .flat_map(|n| {
                [
                    NetFault {
                        kind: MsgKind::Vote,
                        from: None,
                        to: None,
                        nth: n * 2,
                        action: NetAction::Delay { ns: 3_000_000 },
                    },
                    NetFault {
                        kind: MsgKind::SubOpResp,
                        from: None,
                        to: None,
                        nth: n * 5,
                        action: NetAction::Delay { ns: 2_000_000 },
                    },
                ]
            })
            .collect(),
        ..FaultPlan::default()
    }
}

pub fn participant_crash_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![crash(
            2,
            CrashPoint::WalAppend {
                family: RecordFamily::Result,
                nth: 6,
            },
            0,
        )],
        ..FaultPlan::default()
    }
}

pub fn coordinator_crash_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![crash(
            0,
            CrashPoint::WalAppend {
                family: RecordFamily::Commit,
                nth: 1,
            },
            0,
        )],
        ..FaultPlan::default()
    }
}

pub fn double_crash_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![
            crash(
                0,
                CrashPoint::WalAppend {
                    family: RecordFamily::Commit,
                    nth: 1,
                },
                0,
            ),
            crash(
                3,
                CrashPoint::WalAppend {
                    family: RecordFamily::Result,
                    nth: 12,
                },
                0,
            ),
        ],
        ..FaultPlan::default()
    }
}

pub fn torn_tail_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![crash(
            1,
            CrashPoint::WalAppend {
                family: RecordFamily::Result,
                nth: 8,
            },
            300,
        )],
        ..FaultPlan::default()
    }
}

pub fn mixed_faults_plan() -> FaultPlan {
    FaultPlan {
        net: vec![
            NetFault {
                kind: MsgKind::CommitReq,
                from: None,
                to: None,
                nth: 2,
                action: NetAction::Drop,
            },
            NetFault {
                kind: MsgKind::VoteResult,
                from: Some(ServerId(1)),
                to: None,
                nth: 4,
                action: NetAction::Duplicate { ns: 500_000 },
            },
        ],
        crashes: vec![crash(
            2,
            CrashPoint::WalAppend {
                family: RecordFamily::Result,
                nth: 6,
            },
            128,
        )],
        ..FaultPlan::default()
    }
}

pub fn duplicate_storm_plan() -> FaultPlan {
    FaultPlan {
        net: vec![
            NetFault {
                kind: MsgKind::Vote,
                from: None,
                to: None,
                nth: 1,
                action: NetAction::Duplicate { ns: 250_000 },
            },
            NetFault {
                kind: MsgKind::Ack,
                from: None,
                to: None,
                nth: 3,
                action: NetAction::Drop,
            },
            NetFault {
                kind: MsgKind::CommitReq,
                from: None,
                to: None,
                nth: 5,
                action: NetAction::Delay { ns: 4_000_000 },
            },
        ],
        ..FaultPlan::default()
    }
}
