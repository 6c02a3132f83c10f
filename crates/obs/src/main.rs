//! `cx-obs` — inspect observability artifacts written by recorded runs.
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
//! `top` reads one snapshot, which a caller wrote with
//! `MetricRegistry::snapshot().to_json()` once its run ended. A multiproc
//! TCP run's registry is the coordinator's: every server's counters,
//! protocol series and wire histograms reach it in the server's
//! `StopResp`, so its snapshot counts each process once.

use cx_obs::{blame_diff, MetricsSnapshot, NetTable, ObsReport};
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
/// a base report's table. A report whose spans or blamed ops do not sum
/// gets no table.
fn doctor(path: &str, args: &[String]) -> Result<String, String> {
    let table = load_report(path)?
        .doctor()
        .map_err(|e| format!("doctor: {e}"))?;
    let json = args.iter().any(|a| a == "--json");
    let against = args.iter().position(|a| a == "--against");
    let Some(base_path) = against.and_then(|i| args.get(i + 1)) else {
        return Ok(if json {
            table.to_json() + "\n"
        } else {
            table.render()
        });
    };
    let d = blame_diff(&load_report(base_path)?.blame(), &table);
    if json {
        serde_json::to_string_pretty(&d)
            .map(|js| js + "\n")
            .map_err(|e| format!("{e:?}"))
    } else {
        Ok(format!("{}{}\n", d.render(), d.verdict()))
    }
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
        "doctor" => return show(doctor(path, &args[2..])),
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
