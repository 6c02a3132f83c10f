//! What a finished run's `RunStats` costs, counted.
//!
//! The benchmark keeps every rep's `RunStats` until the run ends, so what one
//! holds sits under every later rep's memory watermark. It must not grow with
//! the run's length: the per-sample series (Figure 7b) live in the obs
//! plane's gauge stream, not in the stats, and a histogram holds 8 B per
//! bucket up to its highest occupied one, capacity included. Measured as live
//! heap bytes under a counting allocator, on `des-lowload`'s shape — one
//! process, eight servers, Metarates' update mix — at two run lengths.

#[path = "kit/counting.rs"]
mod counting;

use counting::live;
use cx_core::{BatchTrigger, ClusterConfig, DesCluster, Metarates, MetaratesMix, Protocol};
use cx_obs::hist::bucket_of;
use cx_obs::LogHistogram;

/// Buckets up to the highest occupied one: what the histogram stores.
fn buckets(h: &LogHistogram) -> isize {
    if h.count == 0 {
        0
    } else {
        bucket_of(h.max) as isize + 1
    }
}

/// Replay `ops` operations of the lowload shape; the heap the returned
/// `RunStats` holds, and the buckets its four histograms store.
fn held_by_stats(ops: u32) -> (isize, isize) {
    let mut cfg = ClusterConfig::new(8, Protocol::Cx);
    cfg.seed = 42;
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 20_000_000,
    };
    (cfg.clients, cfg.procs_per_client) = (1, 1);
    let stream = Metarates::new(MetaratesMix::UpdateDominated, cfg.total_processes())
        .seed_files(800)
        .ops_per_proc(ops)
        .stream();
    let (stats, violations) = DesCluster::new_stream(cfg, stream).run();
    assert_eq!(violations, vec![]);
    assert_eq!((stats.ops_total, stats.ops_stuck), (ops as u64, 0));
    let hists = [
        &stats.latency_hist,
        &stats.cross_latency_hist,
        &stats.proto.batch_size,
        &stats.proto.batch_age_ns,
    ];
    let stored: isize = hists.into_iter().map(buckets).sum();
    let before = live();
    drop(stats);
    (before - live(), stored)
}

/// Four times the operations, and four times the virtual seconds sampled
/// every 200 ms: the stats may hold more only for the buckets the longer
/// run's histograms occupy past the shorter one's.
#[test]
fn a_finished_runs_stats_do_not_grow_with_its_length() {
    const N: u32 = 1_500;
    let (short, short_buckets) = held_by_stats(N);
    let (long, long_buckets) = held_by_stats(4 * N);
    let allowed = 8 * (long_buckets - short_buckets).abs();
    assert!(
        (long - short).abs() <= allowed,
        "RunStats holds {short} B after {N} ops and {long} B after {} ops; \
         the histograms' extra buckets allow {allowed} B",
        4 * N
    );
}
