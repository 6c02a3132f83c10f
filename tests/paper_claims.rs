//! End-to-end assertions of the paper's headline claims, at reduced scale.
//!
//! These run the full stack (workload generator → placement → protocol
//! engines → DES cluster) and check the *shape* of every major result:
//! who wins, in which order, and that consistency always holds.

use cx_core::{Experiment, MetaratesMix, Protocol, Workload};

fn replay_secs(name: &str, scale: f64, servers: u32, protocol: Protocol) -> f64 {
    let r = Experiment::new(Workload::trace(name).scale(scale))
        .servers(servers)
        .protocol(protocol)
        .run();
    assert!(r.is_consistent(), "{name}/{protocol:?} diverged");
    assert_eq!(r.stats.ops_stuck, 0, "{name}/{protocol:?} hung");
    r.stats.replay_secs()
}

/// Figure 5's ordering: OFS-Cx < OFS-batched < OFS on trace replays.
#[test]
fn figure5_ordering_holds_on_every_trace() {
    for name in ["CTH", "s3d", "home2"] {
        let se = replay_secs(name, 0.004, 8, Protocol::Se);
        let batched = replay_secs(name, 0.004, 8, Protocol::SeBatched);
        let cx = replay_secs(name, 0.004, 8, Protocol::Cx);
        assert!(
            cx < batched && batched < se,
            "{name}: expected Cx < batched < OFS, got {cx:.3} / {batched:.3} / {se:.3}"
        );
    }
}

/// "OFS-Cx can significantly improve the performance of cross-server file
/// operations by more than 38%" — we assert a ≥25% improvement at reduced
/// scale (`experiments -- figure5_trace_replay --full` reproduces the full
/// figure).
#[test]
fn cx_improvement_is_substantial() {
    let se = replay_secs("CTH", 0.006, 8, Protocol::Se);
    let cx = replay_secs("CTH", 0.006, 8, Protocol::Cx);
    let improvement = 1.0 - cx / se;
    assert!(
        improvement > 0.25,
        "Cx improvement {improvement:.2} should be substantial"
    );
}

/// Table IV: Cx's message overhead over OFS stays in the low percent
/// range, thanks to batched commitment messages.
#[test]
fn table4_message_overhead_is_low() {
    let trace = Workload::trace("CTH").scale(0.008);
    let se = Experiment::new(trace.clone())
        .servers(8)
        .protocol(Protocol::Se)
        .run();
    let cx = Experiment::new(trace)
        .servers(8)
        .protocol(Protocol::Cx)
        .run();
    let overhead = cx.stats.total_msgs() as f64 / se.stats.total_msgs() as f64 - 1.0;
    assert!(
        (0.0..0.08).contains(&overhead),
        "message overhead {overhead:.3} out of range (paper: < 4%)"
    );
}

/// Figure 6: aggregated Metarates throughput grows with the cluster and
/// Cx leads both baselines, more so when update-dominated.
#[test]
fn figure6_scaling_and_ordering() {
    let run = |mix, servers, protocol| {
        let r = Experiment::new(Workload::Metarates {
            mix,
            ops_per_proc: 30,
            files_per_server: 400,
        })
        .servers(servers)
        .protocol(protocol)
        .run();
        assert!(r.is_consistent());
        r.stats.throughput()
    };

    for mix in [MetaratesMix::ReadDominated, MetaratesMix::UpdateDominated] {
        let cx4 = run(mix, 4, Protocol::Cx);
        let cx8 = run(mix, 8, Protocol::Cx);
        assert!(
            cx8 > cx4 * 1.3,
            "{mix:?}: Cx must scale with servers ({cx4:.0} → {cx8:.0})"
        );
        let se8 = run(mix, 8, Protocol::Se);
        assert!(cx8 > se8 * 1.25, "{mix:?}: Cx must lead OFS at 8 servers");
    }

    // The update-dominated gain exceeds the read-dominated gain (82% vs
    // 40% in the paper).
    let gain = |mix| run(mix, 8, Protocol::Cx) / run(mix, 8, Protocol::Se);
    assert!(
        gain(MetaratesMix::UpdateDominated) > gain(MetaratesMix::ReadDominated),
        "update-heavy workloads benefit more from Cx"
    );
}

/// Table II: the measured conflict ratios stay low (< 4%) and the NFS
/// traces conflict more than the checkpointing traces.
#[test]
fn table2_conflict_ratios_are_low_and_ordered() {
    let ratio = |name: &str| {
        let r = Experiment::new(Workload::trace(name).scale(0.01))
            .servers(8)
            .protocol(Protocol::Cx)
            .run();
        assert!(r.is_consistent(), "{name}");
        r.stats.conflict_ratio()
    };
    let cth = ratio("CTH");
    let deasna = ratio("deasna2");
    assert!(cth < 0.04, "CTH conflict ratio {cth} must stay below 4%");
    assert!(deasna < 0.08, "deasna2 conflict ratio {deasna}");
    assert!(
        deasna > cth,
        "research NFS trace conflicts more than checkpointing ({deasna} vs {cth})"
    );
}

/// Figure 8: injected conflicts erode Cx's advantage; at high ratios the
/// protocols converge (the paper's crossover sits near 20%).
#[test]
fn figure8_conflicts_erode_the_advantage() {
    let cx_time = |inject| {
        let r = Experiment::new(
            Workload::trace("home2")
                .scale(0.004)
                .inject_conflicts(inject),
        )
        .servers(8)
        .protocol(Protocol::Cx)
        .run();
        assert!(r.is_consistent());
        (
            r.stats.replay_secs(),
            r.stats.server_stats.immediate_commitments,
        )
    };
    let (t0, imm0) = cx_time(0.0);
    let (t_hi, imm_hi) = cx_time(0.10);
    assert!(
        imm_hi as f64 > imm0 as f64 * 1.5,
        "injection must multiply immediate commitments ({imm0} → {imm_hi})"
    );
    assert!(
        t_hi > t0,
        "immediate commitments must cost replay time ({t0:.3} → {t_hi:.3})"
    );
}

/// All five protocols (including the 2PC and CE baselines of §II-B)
/// agree on the final namespace for the same workload.
#[test]
fn all_protocols_agree_end_to_end() {
    let workload = Workload::trace("alegra").scale(0.002);
    let reference = Experiment::new(workload.clone())
        .servers(4)
        .protocol(Protocol::Cx)
        .run();
    for protocol in [
        Protocol::Se,
        Protocol::SeBatched,
        Protocol::TwoPc,
        Protocol::Ce,
    ] {
        let r = Experiment::new(workload.clone())
            .servers(4)
            .protocol(protocol)
            .run();
        assert!(r.is_consistent(), "{protocol:?}");
        // Mutations are per-process-private in the generated traces, so
        // the final namespace is protocol-independent; read outcomes can
        // differ by a handful of racy shared-file accesses whose timing
        // legitimately depends on the protocol.
        assert_eq!(
            r.stats.final_inodes, reference.stats.final_inodes,
            "{protocol:?} final inode count differs from Cx"
        );
        assert_eq!(
            r.stats.final_dentries, reference.stats.final_dentries,
            "{protocol:?} final dentry count differs from Cx"
        );
        let diff = (r.stats.ops_applied as i64 - reference.stats.ops_applied as i64).abs();
        assert!(
            diff <= 8,
            "{protocol:?}: applied-op count drifted by {diff} (racy reads only)"
        );
    }
}

/// 2PC and CE are slower than Cx (the motivation of §II-B: serial
/// executions and costly immediate commitments).
#[test]
fn legacy_protocols_are_slower_than_cx() {
    let workload = Workload::trace("s3d").scale(0.003);
    let cx = Experiment::new(workload.clone())
        .servers(8)
        .protocol(Protocol::Cx)
        .run();
    for protocol in [Protocol::TwoPc, Protocol::Ce] {
        let r = Experiment::new(workload.clone())
            .servers(8)
            .protocol(protocol)
            .run();
        assert!(r.is_consistent());
        assert!(
            r.stats.replay_secs() > cx.stats.replay_secs(),
            "{protocol:?} ({:.3}s) must be slower than Cx ({:.3}s)",
            r.stats.replay_secs(),
            cx.stats.replay_secs()
        );
    }
}
