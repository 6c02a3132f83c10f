//! Runs every workload at `--quick` size, both with `--trace 0` and
//! `--trace 1`, and holds the output against `BENCHMARK.json`: each result
//! line carries exactly the manifest's metric names with its units — so the
//! manifest and the program cannot drift apart. The wall-clock workloads,
//! which the manifest does not list, print the same names except the
//! cross-server latency their runtimes do not record untraced.

use serde::Json;
use std::path::Path;
use std::process::Command;

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Object(o) => o
            .iter()
            .find(|kv| kv.0 == key)
            .map(|kv| &kv.1)
            .unwrap_or_else(|| panic!("no key {key:?}")),
        other => panic!("expected an object with {key:?}, got {other:?}"),
    }
}

fn text(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every entry in one of the manifest's lists.
fn names_and_units(manifest: &Json, list: &str) -> Vec<(String, String)> {
    let Json::Array(items) = field(manifest, list) else {
        panic!("{list} is a list");
    };
    items
        .iter()
        .map(|m| {
            let unit = match m {
                Json::Object(o) if o.iter().any(|kv| kv.0 == "unit") => text(field(m, "unit")),
                _ => "",
            };
            (text(field(m, "name")).to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn quick_run_prints_exactly_the_manifests_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let manifest = serde_json::parse_value(&manifest).expect("BENCHMARK.json parses");

    let listed: Vec<String> = names_and_units(&manifest, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(listed, ["des-home2", "des-update", "des-lowload"]);
    let unlisted = ["tcp-home2", "tcp-update", "tcp-lowload", "threaded-update"];
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut all = names_and_units(&manifest, list);
        all.sort();
        let workloads = listed.iter().map(String::as_str).chain(unlisted);
        for workload in workloads {
            let mut want = all.clone();
            if unlisted.contains(&workload) {
                want.retain(|m| m.0 != "cross_lat_p50_us");
            }
            let out = Command::new(env!("CARGO_BIN_EXE_cx-benchmark"))
                .current_dir(root)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("run the benchmark");
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let line = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(line).expect("result line is JSON");
            assert_eq!(field(&result, "correct"), &Json::Bool(true));
            assert!(matches!(field(&result, "attempted"), Json::U64(n) if *n >= 1));
            assert_eq!(field(&result, "failed"), &Json::U64(0));
            let Json::Object(metrics) = field(&result, "metrics") else {
                panic!("metrics is an object");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        matches!(field(m, "value"), Json::F64(_) | Json::U64(_)),
                        "{workload}: {name} is not a number"
                    );
                    (name.clone(), text(field(m, "unit")).to_string())
                })
                .collect();
            got.sort();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
    // An unknown workload is refused, not silently run.
    let out = Command::new(env!("CARGO_BIN_EXE_cx-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
