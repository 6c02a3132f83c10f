//! Every runtime counts its messages in the one engine host, so the DES,
//! the channel run and the loopback-socket run of one input must agree on
//! Table IV's unit, message counts per `MsgKind`, up to the schedule.
//!
//! The input is `tcp_equivalence.rs`'s: an 816-op home2 prefix on 4 Cx
//! servers. A `Threshold` trigger launches commitment batches by count, not
//! by the clock, so the three clocks batch alike. Which ops share a batch
//! still depends on arrival order at the coordinator, and with it how many
//! participants a batch's votes go to. So every kind gets that file's tie
//! band, `max(2, total/50)`.
//!
//! One kind is exact. A client sends each sub-op request once, when the op
//! starts: one per server the op's placement touches, so one per op plus
//! one per cross-server op. No runtime retransmits. `SubOpReq` is therefore
//! fixed by the workload and the placement alone, on every runtime.

use cx_core::{
    BatchTrigger, ClusterConfig, DesCluster, MsgKind, Protocol, RunStats, TcpCluster,
    ThreadedCluster, Workload, DUR_MS,
};

fn band(total: u64) -> u64 {
    (total / 50).max(2)
}

fn count(s: &RunStats, kind: MsgKind) -> u64 {
    s.msgs.get(&kind).copied().unwrap_or(0)
}

#[test]
fn des_channels_and_loopback_agree_on_message_counts() {
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    let trace = Workload::trace("home2").scale(0.0003);
    cfg.cx.trigger = BatchTrigger::Threshold { pending_ops: 8 };
    // Wall-clock runtimes need a wall-clock-sized hint-mismatch timeout.
    cfg.cx.hint_mismatch_timeout_ns = 20 * DUR_MS;

    let (des, violations) = DesCluster::new_stream(cfg.clone(), trace.stream(&cfg)).run();
    assert_eq!(violations, vec![]);
    let chan = ThreadedCluster::run_stream(cfg.clone(), trace.stream(&cfg));
    assert_eq!(chan.violations, vec![]);
    let sock = TcpCluster::run_stream(cfg.clone(), trace.stream(&cfg));
    let expected = trace.stream(&cfg).total_ops_hint;
    assert_eq!(sock.violations, vec![]);

    let b = band(des.ops_total);
    for (label, s) in [
        ("DES", &des),
        ("channels", &chan.stats),
        ("sockets", &sock.stats),
    ] {
        assert_eq!(s.ops_total, expected, "{label}: every op answered");
        assert_eq!(
            count(s, MsgKind::SubOpReq),
            s.ops_total + s.cross_ops,
            "{label}: one sub-op request per server an op touches"
        );
        assert_eq!(
            s.total_msgs(),
            s.server_msgs + s.client_msgs,
            "{label}: by end"
        );
        for kind in MsgKind::ALL {
            let (n, of_des) = (count(s, kind), count(&des, kind));
            assert!(
                n.abs_diff(of_des) <= b,
                "{label}: {kind:?} {n} vs the DES's {of_des}, beyond band {b}"
            );
        }
    }
}
