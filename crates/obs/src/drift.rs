//! `cx-obs bench-drift`: the perf-history trajectory table.
//!
//! `history/BENCH_PR<N>.json` is a frozen series: PRs 1–10 each recorded
//! labeled runs of named entries (wall seconds, events- or ops-per-second,
//! peak RSS) with a harness that no longer exists — measurement moved to
//! `benchmark/` (`BENCHMARK.json`), which compares parent and change
//! directly and keeps no files. The drift view folds the whole series
//! into one per-metric trajectory table without running anything. Parsing
//! is generic (the untyped [`Json`] tree), so it reads every schema
//! generation in the series.

use crate::hist::fmt_ns_f;
use serde::Json;

/// One benchmark snapshot: a labeled run and its entries' numeric metrics.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Run label (`pr9`), falling back to the file name.
    pub label: String,
    /// `(entry name, metric name, value)` triples, in file order.
    pub metrics: Vec<(String, String, f64)>,
}

fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(f) => Some(*f),
        _ => None,
    }
}

fn as_str(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// The metrics worth trending, in display order. Everything else in an
/// entry (iteration counts, raw totals) stays out of the table.
const TRENDED: [&str; 5] = [
    "events_per_sec",
    "ops_per_sec",
    "wall_secs",
    "peak_rss_kb",
    "span_ns_per_op",
];

/// Parse one `BENCH_PR*.json` into its labeled points (a file can hold
/// several runs; most hold one).
pub fn parse_bench_file(text: &str, fallback_label: &str) -> Result<Vec<BenchPoint>, String> {
    let v = serde_json::parse_value(text).map_err(|e| format!("{e:?}"))?;
    let runs = match get(&v, "runs") {
        Some(Json::Array(a)) => a.as_slice(),
        _ => return Err("no `runs` array".into()),
    };
    let mut points = Vec::new();
    for run in runs {
        let label = get(run, "label")
            .and_then(as_str)
            .unwrap_or(fallback_label)
            .to_string();
        let mut metrics = Vec::new();
        if let Some(Json::Array(entries)) = get(run, "entries") {
            for e in entries {
                let Some(name) = get(e, "name").and_then(as_str) else {
                    continue;
                };
                for m in TRENDED {
                    if let Some(val) = get(e, m).and_then(as_f64) {
                        metrics.push((name.to_string(), m.to_string(), val));
                    }
                }
            }
        }
        points.push(BenchPoint { label, metrics });
    }
    Ok(points)
}

/// Natural sort key: the first integer embedded in the label (`pr10` → 10),
/// so `pr10` trends after `pr9` instead of between `pr1` and `pr3`.
fn label_key(label: &str) -> (u64, String) {
    let digits: String = label
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    (digits.parse().unwrap_or(u64::MAX), label.to_string())
}

fn fmt_metric(metric: &str, v: f64) -> String {
    match metric {
        "events_per_sec" | "ops_per_sec" => {
            if v >= 1e6 {
                format!("{:.2}M/s", v / 1e6)
            } else {
                format!("{:.1}k/s", v / 1e3)
            }
        }
        "wall_secs" => format!("{v:.3}s"),
        "peak_rss_kb" => format!("{:.1}MB", v / 1024.0),
        "span_ns_per_op" => fmt_ns_f(v),
        _ => format!("{v:.3}"),
    }
}

/// Render the trajectory table over points from every snapshot, sorted by
/// PR number. Each (entry, metric) pair becomes one block with the value
/// and the ratio against the series' first appearance.
pub fn render_drift(points: &[BenchPoint]) -> String {
    let mut points: Vec<&BenchPoint> = points.iter().collect();
    points.sort_by_key(|p| label_key(&p.label));
    let mut out = String::new();
    out.push_str(&format!("== bench drift · {} snapshots: ", points.len()));
    out.push_str(
        &points
            .iter()
            .map(|p| p.label.as_str())
            .collect::<Vec<_>>()
            .join(" → "),
    );
    out.push_str(" ==\n");
    // Stable (entry, metric) order: first appearance across the series.
    let mut keys: Vec<(String, String)> = Vec::new();
    for p in &points {
        for (entry, metric, _) in &p.metrics {
            if !keys.iter().any(|(e, m)| e == entry && m == metric) {
                keys.push((entry.clone(), metric.clone()));
            }
        }
    }
    for (entry, metric) in keys {
        out.push_str(&format!("{entry} · {metric}:\n"));
        let mut first: Option<f64> = None;
        for p in &points {
            let Some((_, _, v)) = p
                .metrics
                .iter()
                .find(|(e, m, _)| *e == entry && *m == metric)
            else {
                continue;
            };
            let base = *first.get_or_insert(*v);
            let ratio = if base != 0.0 { v / base } else { 0.0 };
            // For time/memory metrics lower is better; flag growth either
            // way — the reader knows the metric's polarity.
            out.push_str(&format!(
                "  {:<10} {:>12} {:>8}\n",
                p.label,
                fmt_metric(&metric, *v),
                format!("{ratio:.2}x"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PR1: &str = r#"{"runs":[{"label":"pr1","iters":5,"entries":[
        {"name":"home2_replay_8s","wall_secs":0.2,"events_per_sec":2500000.0,"ops_total":136030,"peak_rss_kb":50000}]}]}"#;
    const PR10: &str = r#"{"runs":[{"label":"pr10","iters":5,"entries":[
        {"name":"home2_replay_8s","wall_secs":0.19,"events_per_sec":3100000.0,"ops_total":136030,"peak_rss_kb":51000},
        {"name":"home2_tcp_loopback_8s","wall_secs":0.12,"ops_per_sec":43000.0,"ops_total":5441,"peak_rss_kb":57000}]}]}"#;
    const PR9: &str = r#"{"runs":[{"label":"pr9","iters":5,"entries":[
        {"name":"home2_replay_8s","wall_secs":0.2,"events_per_sec":3000000.0,"ops_total":136030,"peak_rss_kb":51500}]}]}"#;

    #[test]
    fn parses_and_orders_naturally() {
        let mut pts = Vec::new();
        // Deliberately shuffled: lexical order would put pr10 before pr9.
        for (text, name) in [(PR10, "a"), (PR1, "b"), (PR9, "c")] {
            pts.extend(parse_bench_file(text, name).unwrap());
        }
        let table = render_drift(&pts);
        let pr9 = table.find("pr9").unwrap();
        let pr10 = table.find("pr10").unwrap();
        let pr1 = table.find("pr1 ").unwrap();
        assert!(pr1 < pr9 && pr9 < pr10, "natural order: {table}");
        assert!(table.contains("events_per_sec"));
        // Ratio against the first snapshot: 3.1M / 2.5M = 1.24x.
        assert!(table.contains("1.24x"), "{table}");
        // Entries absent from early snapshots still get a block.
        assert!(table.contains("home2_tcp_loopback_8s · ops_per_sec"));
    }

    /// The frozen series itself: nine files, all under `history/` and none
    /// left at the root, each whole, trending in PR order.
    #[test]
    fn the_history_series_loads_and_trends_in_pr_order() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let snapshots_in = |dir: &str| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap_or_else(|e| panic!("read {dir}: {e}"))
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.starts_with("BENCH_PR"))
                .collect();
            names.sort_by_key(|name| label_key(name));
            names
        };
        assert_eq!(snapshots_in(root), Vec::<String>::new());
        let history = format!("{root}/history");
        let names = snapshots_in(&history);
        let prs = [1, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(names, prs.map(|n| format!("BENCH_PR{n}.json")));

        let mut pts = Vec::new();
        for name in &names {
            let text = std::fs::read_to_string(format!("{history}/{name}")).unwrap();
            let runs = parse_bench_file(&text, name).unwrap_or_else(|e| panic!("{name}: {e}"));
            // Every run of every snapshot timed the home2 replay.
            let timed_home2 = |run: &BenchPoint| {
                let mut metrics = run.metrics.iter();
                metrics.any(|(e, m, _)| e == "home2_replay_8s" && m == "events_per_sec")
            };
            assert!(!runs.is_empty() && runs.iter().all(timed_home2), "{name}");
            pts.extend(runs);
        }
        // Twelve labelled runs in the nine files: PR 1 and PR 3 each hold a
        // `before` and an `after`, which carry no number and so trend last.
        let table = render_drift(&pts);
        let numbered = "pr4 → pr5 → pr6 → pr6b → pr7 → pr8 → pr9 → pr10 → after";
        assert!(
            table.starts_with(&format!("== bench drift · 12 snapshots: {numbered}")),
            "{table}"
        );
    }

    #[test]
    fn rejects_junk() {
        assert!(parse_bench_file("not json", "x").is_err());
        assert!(parse_bench_file("{\"no_runs\":1}", "x").is_err());
    }
}
