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
//! cx-obs top    <metrics.json>           render a metric-registry snapshot
//! cx-obs net    <run.net.json>           render the per-peer wire table
//! ```
//!
//! `top` reads the one snapshot a wall-clock run writes via
//! `--metrics-out`; pair it with `watch` for a live view:
//! `watch -n1 'cx-obs top target/live.metrics.json'`. A multiproc TCP run
//! writes one snapshot too, the coordinator's: every server's counters,
//! protocol series and wire histograms reach its registry in the server's
//! `StopResp`, so that file counts each process once.

use cx_obs::{blame_diff, blame_span, MetricsSnapshot, NetTable, ObsReport};
use std::process::ExitCode;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn load_report(path: &str) -> Result<ObsReport, String> {
    ObsReport::from_json(&read(path)?)
}

/// Print a rendered artifact, or the error that kept it from rendering.
fn show(rendered: Result<String, String>) -> ExitCode {
    match rendered {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cx-obs: {e}");
            ExitCode::FAILURE
        }
    }
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
                 <artifact.json> [--op <id>] [--against <base.json>] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    if cmd == "top" && args.len() > 2 {
        eprintln!(
            "usage: cx-obs top <metrics.json> (one snapshot: a multiproc run's \
             coordinator file already counts every server)"
        );
        return ExitCode::from(2);
    }
    match cmd {
        "doctor" => return doctor(path, &args[2..]),
        "top" => {
            return show(read(path).and_then(|t| Ok(MetricsSnapshot::from_json(&t)?.render_top())))
        }
        "net" => return show(read(path).and_then(|t| Ok(NetTable::from_json(&t)?.render()))),
        _ => {}
    }
    let rep = match load_report(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cx-obs: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "report" => show(Ok(rep.render_dashboard())),
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
