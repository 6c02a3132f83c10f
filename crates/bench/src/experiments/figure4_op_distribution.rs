//! Figure 4: metadata operation distribution in the six workloads, with
//! the total operation count on top of each bar.

use super::Output;
use crate::{write_table, Args};
use cx_core::{OpClass, TraceBuilder, PROFILES};
use cx_workloads::TraceSummary;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Dist {
    trace: &'static str,
    total_ops: u64,
    shares: BTreeMap<&'static str, f64>,
}

pub fn run(args: &Args) -> Output {
    let scale = args.scale(0.02);
    let mut out = format!("Figure 4 — metadata operation distribution (scale {scale})\n\n");

    let mut dists = Vec::new();
    for p in &PROFILES {
        // Class shares are placement-independent; any server count will do.
        let summary = TraceSummary::analyze(TraceBuilder::new(p).scale(scale).stream(), 8);
        dists.push(Dist {
            trace: p.name,
            total_ops: p.total_ops,
            shares: summary.class_shares,
        });
    }

    let mut headers = vec!["class"];
    headers.extend(dists.iter().map(|d| d.trace));
    let total = std::iter::once("total (paper)".to_string())
        .chain(dists.iter().map(|d| d.total_ops.to_string()));
    let shares = OpClass::ALL.iter().map(|class| {
        let share = |d: &Dist| d.shares.get(class.name()).copied().unwrap_or(0.0) * 100.0;
        std::iter::once(class.name().to_string())
            .chain(dists.iter().map(|d| format!("{:.1}%", share(d))))
            .collect()
    });
    write_table(
        &mut out,
        &headers,
        std::iter::once(total.collect()).chain(shares),
    );

    outln!(
        out,
        "\nnote: the original traces are not redistributable; these mixes are\n\
         the documented substitution (DESIGN.md §2): checkpoint-style\n\
         create/remove-heavy mixes for the Red Storm traces, lookup/getattr-\n\
         heavy mixes for the Harvard NFS traces."
    );
    Output::new(out, &dists)
}
