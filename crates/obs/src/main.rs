//! `cx-obs` — inspect observability artifacts written by `--obs` runs.
//!
//! ```text
//! cx-obs report <report.json>            render the text dashboard
//! cx-obs check  <report.json>            validate phase accounting (CI smoke)
//! cx-obs trace  <report.json>            re-export the Chrome/Perfetto trace to stdout
//! cx-obs trace  <report.json> --op <id>  print one op's causal chain (phases + messages)
//! cx-obs doctor <report.json>            critical-path blame attribution
//! cx-obs doctor <report.json> --against <base.json>
//!                                        attribute the latency delta to segments
//! cx-obs doctor <report.json> --json     emit the blame table as JSON
//! cx-obs top    <metrics.json>…          render metric-registry snapshots (merged)
//! cx-obs net    <run.net.json>           render the per-peer wire table
//! ```
//!
//! `top` reads the snapshot a threaded run writes via `--metrics-out`;
//! pair it with `watch` for a live view:
//! `watch -n1 'cx-obs top target/live.metrics.json'`. A multiproc TCP run
//! writes one snapshot per process — pass them all and `top` merges them
//! (counters add; histogram quantiles merge conservatively from their
//! summaries). Snapshots that fail to read or parse are skipped with a
//! per-file warning on stderr, never silently folded into a partial view.

use cx_obs::{blame_diff, blame_span, MetricsSnapshot, NetTable, ObsReport};
use std::process::ExitCode;

fn load_report(path: &str) -> Result<ObsReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    ObsReport::from_json(&text)
}

/// Read every snapshot path and fold the parseable ones into one (see
/// [`MetricsSnapshot::merge`]), warning per unusable file.
fn load_merged_snapshots(paths: &[String]) -> Result<MetricsSnapshot, String> {
    let mut merged: Option<MetricsSnapshot> = None;
    let mut skipped = 0usize;
    for path in paths {
        let snap = std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| {
                MetricsSnapshot::from_json(&text).map_err(|e| format!("parse {path}: {e}"))
            });
        match snap {
            Ok(snap) => match &mut merged {
                Some(m) => m.merge(&snap),
                None => merged = Some(snap),
            },
            Err(e) => {
                eprintln!("cx-obs: warning: skipping snapshot: {e}");
                skipped += 1;
            }
        }
    }
    if skipped > 0 {
        eprintln!(
            "cx-obs: warning: {skipped} of {} snapshot file(s) skipped; \
             the merged view is incomplete",
            paths.len()
        );
    }
    merged.ok_or_else(|| {
        if skipped > 0 {
            format!("all {skipped} snapshot file(s) unusable")
        } else {
            "no snapshot files given".into()
        }
    })
}

/// `doctor`: blame attribution over one report, optionally diffed against
/// a base report's table.
fn doctor(path: &str, args: &[String]) -> ExitCode {
    let rep = match load_report(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cx-obs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = rep.blame();
    // Per-op invariants first: a table built from spans that don't sum is
    // not worth printing. Phase accounting, then the blame decomposition
    // itself — every decomposed op's client segments must sum exactly to
    // its client-visible window and its suffix to the commitment window.
    if let Err(e) = rep.validate() {
        eprintln!("cx-obs doctor: span accounting broken: {e}");
        return ExitCode::FAILURE;
    }
    for span in &rep.spans {
        let edges: Vec<&cx_obs::MsgEdge> =
            rep.edges.iter().filter(|e| e.op == Some(span.op)).collect();
        if let Some(b) = blame_span(span, &edges) {
            if let Err(e) = b.check() {
                eprintln!(
                    "cx-obs doctor: blame accounting broken for {}: {e}",
                    span.op
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let against = args
        .iter()
        .position(|a| a == "--against")
        .and_then(|i| args.get(i + 1));
    if let Some(base_path) = against {
        let base = match load_report(base_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cx-obs: {e}");
                return ExitCode::FAILURE;
            }
        };
        let d = blame_diff(&base.blame(), &table);
        if args.iter().any(|a| a == "--json") {
            match serde_json::to_string_pretty(&d) {
                Ok(js) => println!("{js}"),
                Err(e) => {
                    eprintln!("cx-obs: {e:?}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            print!("{}", d.render());
            match d.prime_suspect() {
                Some(s) => println!("prime suspect: {}", s.seg.name()),
                None => println!("prime suspect: none (no significant regression)"),
            }
        }
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", table.to_json());
    } else {
        print!("{}", table.render());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => {
            eprintln!(
                "usage: cx-obs <report|check|trace|doctor|top|net> \
                 <artifact.json>… [--op <id>] [--against <base.json>] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    if cmd == "top" {
        return match load_merged_snapshots(&args[1..]) {
            Ok(snap) => {
                print!("{}", snap.render_top());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cx-obs: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "doctor" {
        return doctor(path, &args[2..]);
    }
    if cmd == "net" {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cx-obs: read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match NetTable::from_json(&text) {
            Ok(table) => {
                print!("{}", table.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cx-obs: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let rep = match load_report(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cx-obs: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "report" => {
            print!("{}", rep.render_dashboard());
            ExitCode::SUCCESS
        }
        "check" => match rep.validate() {
            Ok(()) => {
                println!(
                    "ok: {} spans, {} ops, {} message edges, {} wire flushes, \
                     phase accounting sums to client latency",
                    rep.spans.len(),
                    rep.ops_issued,
                    rep.edges.len(),
                    rep.flushes.len(),
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cx-obs check failed: {e}");
                ExitCode::FAILURE
            }
        },
        "trace" => {
            // `--op <id>` switches from the full Perfetto export to the
            // one-op causal chain.
            let op = args
                .iter()
                .position(|a| a == "--op")
                .and_then(|i| args.get(i + 1));
            match op {
                Some(needle) => print!("{}", rep.render_causal(needle)),
                None => print!("{}", rep.to_chrome_trace()),
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "cx-obs: unknown command '{other}' \
                 (want report|check|trace|doctor|top|net)"
            );
            ExitCode::from(2)
        }
    }
}
