//! Figure 6: benchmark-driven evaluation — aggregated Metarates throughput
//! as the cluster scales, for the update-dominated (80% updates) and
//! read-dominated (20% updates) mixes.
//!
//! Paper shape: OFS-Cx scales to 32 servers and gains ≥70% over OFS on
//! update-dominated runs (82% at 8 servers) and ≥40% on read-dominated
//! runs; OFS-batched sits between.

use super::{Output, Replay};
use crate::{gain, write_table, Args};
use cx_core::{Experiment, HistSummary, MetaratesMix, Protocol, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    mix: &'static str,
    servers: u32,
    ofs: f64,
    batched: f64,
    cx: f64,
    cx_gain_pct: f64,
    /// Client-visible latency quantiles under Cx (p50/p90/p99/p99.9 from
    /// the always-on histogram; mean kept for paper-parity).
    cx_latency: HistSummary,
    /// Conflicts per cross-server op under Cx at this cluster size.
    conflict_pct_cross: f64,
}

pub fn run(args: &Args) -> Output {
    let ops: u32 = args.value("--ops").unwrap_or(50);
    let max_servers: u32 = args.value("--max-servers").unwrap_or(32);
    let sizes: Vec<u32> = [4u32, 8, 16, 32]
        .into_iter()
        .filter(|s| *s <= max_servers)
        .collect();
    let mut out = format!(
        "Figure 6 — Metarates aggregated throughput (clients = 4×servers,\n\
         8 processes per client, {ops} ops per process)\n\n"
    );

    let mut points = Vec::new();
    for mix in [MetaratesMix::UpdateDominated, MetaratesMix::ReadDominated] {
        let mix_points: Vec<Point> = crate::par_map(&sizes, |&servers| {
            let run = |protocol| {
                let r = Experiment::new(Workload::Metarates {
                    mix,
                    ops_per_proc: ops,
                    files_per_server: 2_000,
                })
                .servers(servers)
                .protocol(protocol)
                .replay();
                (
                    r.throughput(),
                    r.latency_hist.summary(),
                    r.cross_conflict_ratio(),
                )
            };
            let ((se, _, _), (ba, _, _), (cx, cx_lat, cx_confl)) = (
                run(Protocol::Se),
                run(Protocol::SeBatched),
                run(Protocol::Cx),
            );
            Point {
                mix: mix.name(),
                servers,
                ofs: se,
                batched: ba,
                cx,
                cx_gain_pct: gain(se, cx),
                cx_latency: cx_lat,
                conflict_pct_cross: cx_confl * 100.0,
            }
        });
        outln!(out, "--- {} runs ---", mix.name());
        write_table(
            &mut out,
            &[
                "servers",
                "OFS op/s",
                "OFS-batched op/s",
                "OFS-Cx op/s",
                "Cx gain",
                "Cx lat mean",
                "Cx p50",
                "Cx p90",
                "Cx p99",
                "Cx p99.9",
                "confl%/cross",
            ],
            mix_points.iter().map(|p| {
                vec![
                    p.servers.to_string(),
                    format!("{:.0}", p.ofs),
                    format!("{:.0}", p.batched),
                    format!("{:.0}", p.cx),
                    format!("+{:.0}%", p.cx_gain_pct),
                    cx_core::fmt_ns_f(p.cx_latency.mean_ns),
                    HistSummary::fmt_ns(p.cx_latency.p50_ns),
                    HistSummary::fmt_ns(p.cx_latency.p90_ns),
                    HistSummary::fmt_ns(p.cx_latency.p99_ns),
                    HistSummary::fmt_ns(p.cx_latency.p999_ns),
                    format!("{:.2}%", p.conflict_pct_cross),
                ]
            }),
        );
        outln!(out);
        points.extend(mix_points);
    }

    outln!(
        out,
        "paper: Cx gains ≥70% (update-dominated, 82% at 8 servers) and ≥40%\n\
         (read-dominated) while \"the aggregated throughput of OFS-Cx scales\n\
         well when increasing the number of servers up to 32\"."
    );
    Output::new(out, &points)
}
