//! Figure 5: trace-driven evaluation — replay time of the six traces
//! under OFS, OFS-batched, and OFS-Cx on 8 metadata servers.
//!
//! Paper shape: OFS-Cx speeds up every trace by ≥38% (s3d by >50%,
//! tracking its ~48% cross-server share); OFS-batched improves ≥15%; Cx
//! beats OFS-batched by ≥16%.

use super::{Output, Replay};
use crate::{improvement, write_table, Args};
use cx_core::{Experiment, HistSummary, Protocol, Workload, PROFILES};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    trace: &'static str,
    ops: u64,
    cross_share: f64,
    ofs_secs: f64,
    batched_secs: f64,
    cx_secs: f64,
    cx_vs_ofs_pct: f64,
    batched_vs_ofs_pct: f64,
    cx_vs_batched_pct: f64,
    /// Client-visible latency quantiles under Cx (mean kept for
    /// paper-parity; p50/p90/p99/p99.9 come from the always-on histogram).
    cx_latency: HistSummary,
    ofs_latency: HistSummary,
    /// Conflicts over *all* ops — Table II's denominator (<4% claim).
    conflict_pct_all: f64,
    /// Conflicts over cross-server ops only: how often a concurrent
    /// execution actually collides, the rate that matters for Cx's
    /// immediate-commitment fallback.
    conflict_pct_cross: f64,
}

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.03);
    let servers: u32 = args.value("--servers").unwrap_or(8);
    let mut out = format!("Figure 5 — trace replay times ({servers} servers, scale {scale})\n\n");

    let rows: Vec<Row> = crate::par_map(&PROFILES, |p| {
        let run = |protocol| {
            Experiment::new(Workload::trace(p.name).scale(scale))
                .servers(servers)
                .protocol(protocol)
                .replay()
        };
        let se = run(Protocol::Se);
        let ba = run(Protocol::SeBatched);
        let cx = run(Protocol::Cx);
        Row {
            trace: p.name,
            ops: cx.ops_total,
            cross_share: cx.cross_ops as f64 / cx.ops_total as f64,
            ofs_secs: se.replay.as_secs_f64(),
            batched_secs: ba.replay.as_secs_f64(),
            cx_secs: cx.replay.as_secs_f64(),
            cx_vs_ofs_pct: improvement(se.replay.as_secs_f64(), cx.replay.as_secs_f64()),
            batched_vs_ofs_pct: improvement(se.replay.as_secs_f64(), ba.replay.as_secs_f64()),
            cx_vs_batched_pct: improvement(ba.replay.as_secs_f64(), cx.replay.as_secs_f64()),
            cx_latency: cx.latency_hist.summary(),
            ofs_latency: se.latency_hist.summary(),
            conflict_pct_all: cx.conflict_ratio() * 100.0,
            conflict_pct_cross: cx.cross_conflict_ratio() * 100.0,
        }
    });

    write_table(
        &mut out,
        &[
            "trace",
            "ops",
            "cross%",
            "OFS (s)",
            "batched (s)",
            "Cx (s)",
            "Cx vs OFS",
            "batched vs OFS",
            "Cx vs batched",
            "Cx lat mean",
            "Cx p50",
            "Cx p90",
            "Cx p99",
            "Cx p99.9",
            "confl%",
            "confl%/cross",
        ],
        rows.iter().map(|r| {
            vec![
                r.trace.to_string(),
                r.ops.to_string(),
                format!("{:.0}%", r.cross_share * 100.0),
                format!("{:.3}", r.ofs_secs),
                format!("{:.3}", r.batched_secs),
                format!("{:.3}", r.cx_secs),
                format!("+{:.0}%", r.cx_vs_ofs_pct),
                format!("+{:.0}%", r.batched_vs_ofs_pct),
                format!("+{:.0}%", r.cx_vs_batched_pct),
                cx_core::fmt_ns_f(r.cx_latency.mean_ns),
                HistSummary::fmt_ns(r.cx_latency.p50_ns),
                HistSummary::fmt_ns(r.cx_latency.p90_ns),
                HistSummary::fmt_ns(r.cx_latency.p99_ns),
                HistSummary::fmt_ns(r.cx_latency.p999_ns),
                format!("{:.2}%", r.conflict_pct_all),
                format!("{:.2}%", r.conflict_pct_cross),
            ]
        }),
    );
    outln!(
        out,
        "\npaper: Cx ≥38% on every trace (s3d >50%); batched ≥15%; Cx over\n\
         batched ≥16%. The improvement tracks the trace's cross-server share.\n\
         confl% is Table II's all-ops ratio (paper: <4% in every trace);\n\
         confl%/cross divides by cross-server ops only — the rate at which a\n\
         concurrent execution actually falls back to an immediate commitment."
    );
    Output::new(out, &rows)
}
