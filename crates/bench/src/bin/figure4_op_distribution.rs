//! Figure 4: metadata operation distribution in the six workloads, with
//! the total operation count on top of each bar.
//!
//!     cargo run --release -p cx-bench --bin figure4_op_distribution [--scale f]

use cx_bench::{print_table, write_json, Args};
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

fn main() {
    let args = Args::parse();
    let scale = args.scale(0.02);
    println!("Figure 4 — metadata operation distribution (scale {scale})\n");

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
    let mut rows = Vec::new();
    rows.push(
        std::iter::once("total (paper)".to_string())
            .chain(dists.iter().map(|d| d.total_ops.to_string()))
            .collect::<Vec<_>>(),
    );
    for class in OpClass::ALL {
        let mut row = vec![class.name().to_string()];
        for d in &dists {
            row.push(format!(
                "{:.1}%",
                d.shares.get(class.name()).copied().unwrap_or(0.0) * 100.0
            ));
        }
        rows.push(row);
    }
    print_table(&headers, &rows);

    println!(
        "\nnote: the original traces are not redistributable; these mixes are\n\
         the documented substitution (DESIGN.md §2): checkpoint-style\n\
         create/remove-heavy mixes for the Red Storm traces, lookup/getattr-\n\
         heavy mixes for the Harvard NFS traces."
    );
    write_json("figure4_op_distribution", &dists);
}
