//! What a warm DES operation allocates, counted.
//!
//! Cx keeps per-operation state from execution to commitment and runs a
//! commitment round per batch; once a run is set up, an operation should
//! cost the allocator nothing that the round before it did not hand back.
//! On the DES an allocation count is exact per input, so it can be a budget
//! where host time cannot. Three small inputs of the benchmark's three
//! shapes — `des-lowload` (one process, one op in flight: about one round
//! per op), `des-update` (many processes, batched rounds) and `des-home2`
//! (read-dominated) — are replayed under a counting allocator, and the
//! allocations the run makes after set-up, drain and run-end check
//! included, are bounded per op.

#[path = "kit/counting.rs"]
mod counting;

use counting::allocs;
use cx_core::{
    BatchTrigger, ClusterConfig, DesCluster, Metarates, MetaratesMix, Protocol, StreamTrace,
    TraceBuilder, TraceProfile,
};

/// The benchmark's cluster: eight servers, its seed and batch trigger.
fn cluster() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(8, Protocol::Cx);
    cfg.seed = 42;
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 20_000_000,
    };
    cfg
}

/// Metarates' update mix over the cluster's processes.
fn update_mix(cfg: &ClusterConfig, ops_per_proc: u32) -> StreamTrace {
    Metarates::new(MetaratesMix::UpdateDominated, cfg.total_processes())
        .seed_files(200 * cfg.servers)
        .ops_per_proc(ops_per_proc)
        .stream()
}

/// Allocations per op the replay of `stream` makes after set-up.
fn allocs_per_op(cfg: ClusterConfig, stream: StreamTrace) -> f64 {
    let cluster = DesCluster::new_stream(cfg, stream);
    let before = allocs();
    let (stats, violations) = cluster.run();
    let made = allocs() - before;
    assert_eq!(violations, vec![]);
    assert_eq!(stats.ops_stuck, 0);
    made as f64 / stats.ops_total as f64
}

fn assert_within(row: &str, per_op: f64, budget: f64) {
    assert!(
        per_op <= budget,
        "{row}: {per_op:.3} allocations per op after set-up, budget {budget}"
    );
}

/// One process, 20,000 ops: a commitment round and a write-back per
/// cross-server op. What is left is the write-back's page list, which the
/// disk request takes away; the rounds' own lists are recycled.
#[test]
fn a_lowload_op_allocates_within_budget() {
    let mut cfg = cluster();
    (cfg.clients, cfg.procs_per_client) = (1, 1);
    let stream = update_mix(&cfg, 20_000);
    assert_within("lowload", allocs_per_op(cfg, stream), LOWLOAD);
}

/// The benchmark's 256 processes, 64 ops each.
#[test]
fn an_update_op_allocates_within_budget() {
    let cfg = cluster();
    let stream = update_mix(&cfg, 64);
    assert_within("update", allocs_per_op(cfg, stream), UPDATE);
}

/// The benchmark's home2 profile (no shared access) at a small scale.
#[test]
fn a_home2_op_allocates_within_budget() {
    let stream = TraceBuilder::new(TraceProfile::by_name("home2").expect("a Table II profile"))
        .tweak(|p| p.shared_access_prob = 0.0)
        .scale(0.02)
        .seed(7000)
        .stream();
    assert_within("home2", allocs_per_op(cluster(), stream), HOME2);
}

/// Each budget is the measured count plus about a tenth. Measured per op:
/// lowload 1.352, update 0.524, home2 0.134 — where a commitment batch
/// kept a vote map and copied its op lists, the conflict table collected
/// a sub-op's objects to release them, and a disk dropped a token list at
/// every idle gap, 8.473, 2.505 and 0.614.
const LOWLOAD: f64 = 1.5;
const UPDATE: f64 = 0.58;
const HOME2: f64 = 0.15;
