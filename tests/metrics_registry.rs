//! The metric registry's three contracts, end to end.
//!
//! 1. **Cross-checked series**: every protocol's commitment counters
//!    published into the registry equal the `RunStats`/`ServerStats`
//!    totals the paper's tables are built from, and both expositions
//!    (Prometheus text, JSON snapshot) carry them.
//! 2. **Zero interference**: publishing into the registry changes
//!    nothing — the golden home2 digest is identical before and after.
//! 3. **Wall-clock exactness**: the threaded runtime's client host bumps
//!    the shared atomics as its clients issue and retire ops, and the
//!    totals still match the deterministic DES run of the same workload.
//! 4. **One route for server metrics**: a socket run's wire histograms
//!    reach the registry once, the host's and every server's together.

mod kit;

use cx_core::{
    BatchTrigger, ClusterConfig, Experiment, LiveMetrics, MetricRegistry, ObsSink, Protocol,
    TcpCluster, TcpOptions, ThreadedCluster, TraceBuilder, TraceProfile, Workload,
};
use kit::GOLDEN_HOME2_DIGEST;

fn home2(protocol: Protocol) -> Experiment {
    Experiment::new(Workload::trace("home2").scale(0.005).seed(7))
        .servers(8)
        .protocol(protocol)
        .seed(42)
}

/// Every protocol's series land in the registry and cross-check against
/// the aggregated `ServerStats`: every commitment-round metric pairs 1:1
/// with the counter the engines already kept, and the batch-size
/// histogram saw exactly one sample per round. Only Cx must see
/// conflicts and batches on home2.
#[test]
fn registry_series_cross_check_run_stats() {
    for protocol in Protocol::ALL {
        cross_check(protocol);
    }
}

fn cross_check(protocol: Protocol) {
    let name = protocol.name();
    let r = home2(protocol).run();
    assert!(r.is_consistent(), "{name}");
    let stats = &r.stats;
    let proto = &stats.proto;
    let srv = &stats.server_stats;

    assert_eq!(
        proto.immediate_commitments, srv.immediate_commitments,
        "{name}"
    );
    assert_eq!(proto.batched_commitments, srv.lazy_batches, "{name}");
    assert_eq!(proto.aborts, srv.ops_aborted, "{name}");
    assert_eq!(proto.conflicts_disordered, srv.invalidations, "{name}");
    assert!(
        proto.conflicts_ordered <= srv.conflicts,
        "{name}: ordered conflicts are a subset of all detected conflicts"
    );
    assert_eq!(
        proto.batch_size.count,
        proto.immediate_commitments + proto.batched_commitments,
        "{name}: one batch-size sample per commitment round"
    );
    assert_eq!(proto.batch_age_ns.count, proto.batch_size.count, "{name}");
    if protocol == Protocol::Cx {
        assert!(proto.conflicts_ordered > 0, "home2 must hit conflicts");
        assert!(proto.batched_ops > 0, "lazy rounds carry ops on home2");
    }

    let reg = MetricRegistry::new();
    stats.publish(&reg);
    let snap = reg.snapshot();
    for (series, want) in [
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
        assert_eq!(snap.value(series), Some(want), "{name}: {series}");
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
    // What only the run's end knows was published once it ended: its
    // message total, and the engines' protocol series, folded in at stop.
    // The threaded run launches commitment rounds too, and each round
    // left exactly one batch-size sample.
    assert!(res.stats.total_msgs() > 0);
    assert_eq!(v("cx_messages_total"), res.stats.total_msgs());
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

/// A server's wire histograms travel to the coordinator in its `StopResp`
/// and nowhere else, so each of the registry's four wire series counts
/// exactly what the run's merged telemetry (the host's plus every
/// server's) counts: no flush missing, none counted twice.
#[test]
fn loopback_wire_series_count_each_flush_once() {
    let mut cfg = ClusterConfig::new(4, Protocol::Cx);
    // Wall-clock triggers: the default ~10 s batch period would be a real
    // ten-second stall here.
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 5_000_000,
    };
    cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
    let st = TraceBuilder::new(TraceProfile::by_name("CTH").expect("a Table II profile"))
        .scale(0.001)
        .stream();
    let live = LiveMetrics::new(MetricRegistry::new());
    let registry = live.registry.clone();
    let opts = TcpOptions {
        live: Some(live),
        ..TcpOptions::default()
    };
    let r = TcpCluster::run_stream_opts(cfg, st, opts);
    assert!(r.violations.is_empty(), "loopback run inconsistent");
    assert!(r.telem.flush_frames.count > 0, "the run flushed frames");

    let snap = registry.snapshot();
    for (series, hist) in r.telem.series() {
        let row = snap.series.iter().find(|row| row.name == series.name());
        assert_eq!(
            row.map(|row| row.summary.count),
            Some(hist.count),
            "{}",
            series.name()
        );
    }
}
