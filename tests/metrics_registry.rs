//! The metric registry's three contracts, end to end.
//!
//! 1. **Cross-checked series**: the Cx-specific counters published into
//!    the registry equal the `RunStats`/`ServerStats` totals the paper's
//!    tables are built from, and both expositions (Prometheus text,
//!    JSON snapshot) carry them.
//! 2. **Zero interference**: publishing into the registry changes
//!    nothing — the golden home2 digest is identical before and after.
//! 3. **Wall-clock exactness**: the threaded runtime's client host bumps
//!    the shared atomics as its clients issue and retire ops, and the
//!    totals still match the deterministic DES run of the same workload.

mod common;

use common::GOLDEN_HOME2_DIGEST;
use cx_core::{
    Experiment, LiveMetrics, MetricRegistry, ObsSink, Protocol, ThreadedCluster, Workload,
};

fn home2(protocol: Protocol) -> Experiment {
    Experiment::new(Workload::trace("home2").scale(0.005).seed(7))
        .servers(8)
        .protocol(protocol)
        .seed(42)
}

/// The Cx series land in the registry and cross-check against the
/// aggregated `ServerStats`: every commitment-round metric pairs 1:1
/// with the counter the engines already kept, and the batch-size
/// histogram saw exactly one sample per round.
#[test]
fn registry_series_cross_check_run_stats() {
    let r = home2(Protocol::Cx).run();
    assert!(r.is_consistent());
    let stats = &r.stats;
    let proto = &stats.proto;
    let srv = &stats.server_stats;

    assert_eq!(proto.immediate_commitments, srv.immediate_commitments);
    assert_eq!(proto.batched_commitments, srv.lazy_batches);
    assert_eq!(proto.aborts, srv.ops_aborted);
    assert_eq!(proto.conflicts_disordered, srv.invalidations);
    assert!(proto.conflicts_ordered > 0, "home2 must hit conflicts");
    assert!(
        proto.conflicts_ordered <= srv.conflicts,
        "ordered conflicts are a subset of all detected conflicts"
    );
    assert_eq!(
        proto.batch_size.count,
        proto.immediate_commitments + proto.batched_commitments,
        "one batch-size sample per commitment round"
    );
    assert_eq!(proto.batch_age_ns.count, proto.batch_size.count);
    assert!(proto.batched_ops > 0, "lazy rounds carry ops on home2");

    let reg = MetricRegistry::new();
    stats.publish(&reg);
    let snap = reg.snapshot();
    for (name, want) in [
        ("cx_ops_issued_total", stats.ops_total),
        ("cx_ops_applied_total", stats.ops_applied),
        ("cx_ops_failed_total", stats.ops_failed),
        ("cx_cross_ops_total", stats.cross_ops),
        ("cx_messages_total", stats.total_msgs()),
        ("cx_conflicts_ordered_total", proto.conflicts_ordered),
        ("cx_conflicts_disordered_total", proto.conflicts_disordered),
        ("cx_hint_resolved_total", proto.hint_resolved),
        (
            "cx_immediate_commitments_total",
            proto.immediate_commitments,
        ),
        ("cx_batched_commitments_total", proto.batched_commitments),
        ("cx_batched_ops_total", proto.batched_ops),
        ("cx_aborts_total", proto.aborts),
        ("cx_wal_truncations_total", proto.wal_truncations),
    ] {
        assert_eq!(snap.value(name), Some(want), "{name}");
    }

    // Both expositions carry the series: Prometheus text line-per-sample…
    let prom = snap.to_prometheus_text();
    assert!(prom.contains(&format!("cx_ops_issued_total {}", stats.ops_total)));
    assert!(prom.contains(&format!("cx_cross_ops_total {}", stats.cross_ops)));
    assert!(prom.contains("# TYPE cx_immediate_commitments_total counter"));
    assert!(prom.contains("cx_commitment_batch_size{quantile=\"0.5\"}"));
    assert!(prom.contains("cx_client_latency_ns_count"));
    // …and the JSON snapshot round-trips value-identically.
    let back = cx_core::MetricsSnapshot::from_json(&snap.to_json()).expect("snapshot parses");
    assert_eq!(back.value("cx_ops_issued_total"), Some(stats.ops_total));
    assert_eq!(back.value("cx_batched_ops_total"), Some(proto.batched_ops));
    assert!(!back.render_top().is_empty());
}

/// Both conflict denominators are reported: the paper's Table II ratio
/// over all ops (<4%) and the cross-ops-only ratio, which is strictly
/// larger whenever local ops exist.
#[test]
fn conflict_ratios_use_both_denominators() {
    let r = home2(Protocol::Cx).run();
    let all = r.stats.conflict_ratio();
    let cross = r.stats.cross_conflict_ratio();
    assert!(
        all > 0.0 && all < 0.04,
        "Table II: <4% over all ops, got {all}"
    );
    assert!(
        cross > all,
        "cross-ops denominator is smaller, so the ratio must be larger: {cross} vs {all}"
    );
    assert!(cross < 1.0);
}

/// Publishing into the registry must not move the golden digest.
#[test]
fn registry_leaves_golden_digest_alone() {
    let r = home2(Protocol::Cx).run();
    assert!(r.is_consistent());
    assert_eq!(r.stats.digest(), GOLDEN_HOME2_DIGEST);
    let reg = MetricRegistry::new();
    r.stats.publish(&reg);
    assert_eq!(
        r.stats.digest(),
        GOLDEN_HOME2_DIGEST,
        "publishing into the registry must not touch the stats digest"
    );
}

/// The threaded runtime's client host publishes the same totals as the
/// deterministic DES run of the same workload (ops and cross-ops counts
/// are placement-determined, so they must agree exactly; the
/// applied/failed split must sum to issued).
#[test]
fn threaded_registry_totals_match_des() {
    let e = home2(Protocol::Cx);
    let des = e.run();
    assert!(des.is_consistent());

    let live = LiveMetrics::new(MetricRegistry::new());
    let registry = live.registry.clone();
    let st = e.workload.stream(&e.cfg);
    let res = ThreadedCluster::run_stream_live(e.cfg.clone(), st, ObsSink::Off, live);
    assert!(res.violations.is_empty(), "threaded run inconsistent");

    let snap = registry.snapshot();
    let v = |name: &str| snap.value(name).unwrap_or(0);
    assert_eq!(v("cx_ops_issued_total"), des.stats.ops_total);
    assert_eq!(v("cx_cross_ops_total"), des.stats.cross_ops);
    assert_eq!(
        v("cx_ops_applied_total") + v("cx_ops_failed_total"),
        v("cx_ops_issued_total")
    );
    // The engines' protocol series were folded in at stop: the threaded
    // run launches commitment rounds too, and each round left exactly
    // one batch-size sample.
    assert_eq!(
        v("cx_immediate_commitments_total") + v("cx_batched_commitments_total"),
        snap.series
            .iter()
            .find(|s| s.name == "cx_commitment_batch_size")
            .expect("batch-size series present")
            .summary
            .count
    );
    // Client latencies were recorded live, one per issued op.
    assert_eq!(
        snap.series
            .iter()
            .find(|s| s.name == "cx_client_latency_ns")
            .expect("client-latency series present")
            .summary
            .count,
        des.stats.ops_total
    );
}
