#![allow(dead_code)]
//! Shared fixtures of the root tests: the golden pin and the protocol
//! test kit's cluster set-ups. `regression_plans.rs` (the chaos plans) and
//! `counting.rs` (the counting allocator) sit beside this module and are
//! mounted by path where a test needs them.

use cx_protocol::testkit::Kit;
use cx_protocol::{Action, Endpoint};
use cx_simio::DiskReq;
use cx_types::{
    BatchTrigger, ClusterConfig, FileKind, InodeNo, Name, Placement, Protocol, ServerId, SimTime,
};

/// `stats.digest()` of the home2 replay every golden test runs:
/// `Workload::trace("home2").scale(0.005).seed(7)` on 8 servers under Cx,
/// cluster seed 42. Any change to simulated behaviour moves it; a change
/// that means to re-pins it here.
pub const GOLDEN_HOME2_DIGEST: u64 = 4_199_832_947_163_537_151;

/// A cluster whose lazy commitments never fire on their own, so tests
/// control exactly when commitment happens.
pub fn kit_never(servers: u32, protocol: Protocol) -> Kit {
    let mut cfg = ClusterConfig::new(servers, protocol);
    cfg.cx.trigger = BatchTrigger::Never;
    cfg.cx.log_limit_bytes = None;
    Kit::new(cfg)
}

/// Root directory inode used by the fixtures.
pub const ROOT: InodeNo = InodeNo(1);

/// Seed the root directory on every server (as a partition) plus the given
/// regular files with entries in the root.
pub fn seed_namespace(kit: &mut Kit, files: &[(Name, InodeNo)]) {
    let placement = kit.placement;
    for (i, server) in kit.servers.iter_mut().enumerate() {
        let store = server.store_mut();
        store.seed_inode(ROOT, FileKind::Directory, 1);
        for &(name, ino) in files {
            if placement.inode_server(ino) == ServerId(i as u32) {
                store.seed_inode(ino, FileKind::Regular, 1);
            }
            if placement.dentry_server(ROOT, name) == ServerId(i as u32) {
                store.seed_dentry(ROOT, name, ino);
            }
        }
    }
}

/// Roots that are exempt from the orphan check: the root directory exists
/// as a partition object on every server.
pub fn roots() -> Vec<InodeNo> {
    vec![ROOT]
}

/// Find a name whose root dentry lands on `server`.
pub fn name_on(placement: &Placement, server: ServerId, from: u64) -> Name {
    (from..)
        .map(Name)
        .find(|n| placement.dentry_server(ROOT, *n) == server)
        .expect("names are plentiful")
}

/// Find an inode (≥ from) that lands on `server`.
pub fn inode_on(placement: &Placement, server: ServerId, from: u64) -> InodeNo {
    (from..)
        .map(InodeNo)
        .find(|i| placement.inode_server(*i) == server)
        .expect("inodes are plentiful")
}

/// Find (name, inode) for a guaranteed cross-server create: the dentry and
/// the inode land on different servers.
pub fn cross_server_pair(placement: &Placement, name_from: u64, ino_from: u64) -> (Name, InodeNo) {
    for n in name_from..name_from + 10_000 {
        let name = Name(n);
        let coord = placement.dentry_server(ROOT, name);
        for i in ino_from..ino_from + 10_000 {
            let ino = InodeNo(i);
            if placement.inode_server(ino) != coord {
                return (name, ino);
            }
        }
    }
    panic!("no cross-server pair found");
}

/// Quiesce `server` by hand with its write-backs left in flight: the kit's
/// disk is instant, so every other action is interpreted as usual and the
/// write-back tokens are handed back for the test to complete itself.
pub fn quiesce_holding_writebacks(kit: &mut Kit, server: ServerId) -> Vec<u64> {
    let mut out = Vec::new();
    kit.servers[server.0 as usize].quiesce(SimTime::ZERO, &mut out);
    let mut tokens = Vec::new();
    for a in out {
        match a {
            Action::Disk(DiskReq::DbWriteback { token, .. }) => tokens.push(token),
            a => kit.inject_actions(Endpoint::Server(server), vec![a]),
        }
    }
    kit.run();
    tokens
}
