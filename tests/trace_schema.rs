//! Schema validation for the Chrome-trace-event exporters.
//!
//! Perfetto is permissive, so a malformed field silently drops events
//! instead of failing loudly; these tests parse the exported JSON with
//! the vendored shim and assert the trace-event contract directly:
//! every event carries `ph`/`pid`/`tid`, non-metadata events carry a
//! numeric `ts`, and the `s`/`f` flow events that draw the causal arcs
//! pair up one-to-one on their shared `id`.

use cx_chaos::{run_plan_obs, ChaosScenario};
use cx_core::{Experiment, ObsSink, Protocol, Workload};
use serde::Json;
use std::collections::HashMap;

// The plans of `plans.rs`; one runs here.
#[allow(dead_code)]
#[path = "kit/regression_plans.rs"]
mod regression_plans;

fn home2(protocol: Protocol) -> Experiment {
    Experiment::new(Workload::trace("home2").scale(0.005).seed(7))
        .servers(8)
        .protocol(protocol)
        .seed(42)
}

fn obj(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Object(fields) => fields,
        other => panic!("expected object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Json, name: &str) -> Option<&'a Json> {
    obj(v).iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn str_field<'a>(v: &'a Json, name: &str) -> &'a str {
    match field(v, name) {
        Some(Json::Str(s)) => s,
        other => panic!("field {name}: expected string, got {other:?}"),
    }
}

fn is_number(v: &Json) -> bool {
    matches!(v, Json::U64(_) | Json::I64(_) | Json::F64(_))
}

/// Walk one exported trace document and validate every event, returning
/// the multiset of flow-event ids seen per phase (`s` and `f`).
fn check_trace(text: &str) -> (HashMap<String, u64>, HashMap<String, u64>) {
    let doc = serde_json::parse_value(text).expect("trace JSON parses");
    let events = match field(&doc, "traceEvents") {
        Some(Json::Array(evs)) => evs,
        other => panic!("traceEvents: expected array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must not be empty");

    let (mut starts, mut finishes) = (HashMap::new(), HashMap::new());
    for ev in events {
        let ph = str_field(ev, "ph");
        assert!(
            ["M", "X", "C", "i", "s", "f"].contains(&ph),
            "unexpected phase {ph:?}"
        );
        assert!(
            field(ev, "pid").map(is_number).unwrap_or(false),
            "every event needs a numeric pid: {ev:?}"
        );
        assert!(
            field(ev, "tid").map(is_number).unwrap_or(false),
            "every event needs a numeric tid: {ev:?}"
        );
        if ph != "M" {
            assert!(
                field(ev, "ts").map(is_number).unwrap_or(false),
                "non-metadata events need a numeric ts: {ev:?}"
            );
        }
        if ph == "X" {
            assert!(
                field(ev, "dur").map(is_number).unwrap_or(false),
                "complete events need a duration: {ev:?}"
            );
        }
        if ph == "s" || ph == "f" {
            let id = match field(ev, "id") {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::U64(n)) => n.to_string(),
                other => panic!("flow event without usable id: {other:?}"),
            };
            let bucket = if ph == "s" {
                &mut starts
            } else {
                &mut finishes
            };
            *bucket.entry(id).or_insert(0u64) += 1;
        }
    }
    (starts, finishes)
}

fn assert_flows_pair(starts: &HashMap<String, u64>, finishes: &HashMap<String, u64>) {
    assert!(!starts.is_empty(), "a Cx run must produce flow arcs");
    assert_eq!(
        starts, finishes,
        "every flow start needs exactly one matching finish (and vice versa)"
    );
    for (id, n) in starts {
        assert_eq!(*n, 1, "flow id {id} reused {n} times");
    }
}

/// The recorded-run exporter: spans, counters, and causal message arcs,
/// all schema-valid, with every flow pair closed. Two inputs: a home2
/// replay, and a chaos run with one crash, whose report — the chaos
/// replay's post-mortem — adds the victim's liveness counter track and an
/// instant for every stuck op.
#[test]
fn obs_report_chrome_trace_is_schema_valid() {
    let sink = ObsSink::recording("cx");
    let r = home2(Protocol::Cx).run_obs(sink.clone());
    assert!(r.is_consistent());
    let report = sink.report().expect("recording sink yields a report");
    assert!(
        !report.edges.is_empty(),
        "a Cx replay sends cross-server messages"
    );
    let (starts, finishes) = check_trace(&report.to_chrome_trace());
    assert_flows_pair(&starts, &finishes);

    let plan = regression_plans::participant_crash_plan();
    let victim = plan.crashes[0].server.0;
    let sink = ObsSink::recording("cx");
    let run = run_plan_obs(&ChaosScenario::new(Protocol::Cx), &plan, sink.clone());
    assert_eq!(run.outcome.stats.faults.crashes, 1, "the crash must fire");
    let report = sink.report().expect("recording sink yields a report");
    let trace = report.to_chrome_trace();
    let (starts, finishes) = check_trace(&trace);
    assert_flows_pair(&starts, &finishes);
    let liveness = format!("\"name\":\"liveness s{victim}\",\"ph\":\"C\"");
    assert_eq!(trace.matches(&liveness).count(), 2, "crash and recovery");
    // The crash leaves clients wedged (`ops_stuck`), so the report has
    // stuck ops to draw.
    let wedged = run.outcome.stats.ops_stuck > 0;
    assert_eq!(
        !report.stuck.is_empty(),
        wedged,
        "stuck ops iff wedged clients"
    );
    let stuck_instants = trace.matches("\"cat\":\"stuck\",\"ph\":\"i\"").count();
    assert_eq!(
        stuck_instants,
        report.stuck.len(),
        "one instant per stuck op"
    );
    // The JSONL side of the post-mortem is one parseable object per line.
    let jsonl = report.to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        serde_json::parse_value(line).expect("each JSONL line parses");
    }
}
