//! The observability plane's two load-bearing contracts, end to end.
//!
//! 1. **Zero interference**: a recording sink must not change a single
//!    simulator decision — the obs-on and obs-off replays of the same
//!    configuration produce identical digests (the golden home2 pin
//!    among them).
//! 2. **Span completeness**: every operation the replay applied closed
//!    its lifecycle — phases stamped in order, the commitment phases
//!    present for Cx cross ops, and per-phase segments summing to the
//!    client-visible latency, in the report and in its JSON read back.

mod kit;

use cx_core::{Experiment, ObsReport, ObsSink, Phase, Protocol, Workload};
use kit::GOLDEN_HOME2_DIGEST;

fn home2(protocol: Protocol) -> Experiment {
    Experiment::new(Workload::trace("home2").scale(0.005).seed(7))
        .servers(8)
        .protocol(protocol)
        .seed(42)
}

/// Golden-digest equivalence: recording on/off replay to the same digest
/// for every protocol, and the Cx digest is the pinned golden one.
#[test]
fn obs_on_off_digests_are_identical() {
    for protocol in [
        Protocol::Cx,
        Protocol::Se,
        Protocol::SeBatched,
        Protocol::TwoPc,
    ] {
        let off = home2(protocol).run();
        let sink = ObsSink::recording(format!("{protocol:?}"));
        let on = home2(protocol).run_obs(sink.clone());
        assert!(off.is_consistent() && on.is_consistent(), "{protocol:?}");
        assert_eq!(
            off.stats.digest(),
            on.stats.digest(),
            "{protocol:?}: recording perturbed the replay"
        );
        if protocol == Protocol::Cx {
            assert_eq!(off.stats.digest(), GOLDEN_HOME2_DIGEST);
        }
        // The sink did observe the run it rode along on.
        let report = sink.report().expect("recording sink yields a report");
        assert_eq!(report.ops_issued, on.stats.ops_total);
    }
}

/// The commitment milestones the runtimes' send tap stamps (VOTE,
/// COMMIT-REQ/ABORT-REQ and ACK under Cx; their pre-reply analogues under
/// 2PC and CE).
const COMMITMENT_SENDS: [Phase; 3] = [Phase::VoteSent, Phase::DecisionSent, Phase::Acked];

fn assert_stamped(s: &cx_obs::OpSpan, phases: &[Phase]) {
    for &phase in phases {
        assert!(s.at(phase).is_some(), "{:?} never stamped {phase:?}", s.op);
    }
}

/// Span-lifecycle completeness under Cx: every sampled op that the
/// cluster answered reached `Replied` with monotone phase stamps, every
/// applied cross op also closed the commitment path (`Completed`), and
/// phase accounting sums to the client-visible latency span by span.
#[test]
fn cx_spans_close_all_opened_phases() {
    let sink = ObsSink::recording("cx");
    let r = home2(Protocol::Cx).run_obs(sink.clone());
    assert!(r.is_consistent());
    assert_eq!(
        r.stats.ops_stuck, 0,
        "hung ops would legitimately leave open spans"
    );

    let report = sink.report().expect("report");
    report
        .validate()
        .expect("phase accounting sums to client latency");
    assert!(!report.spans.is_empty(), "sampled window must not be empty");

    let mut cross_completed = 0u64;
    for s in &report.spans {
        assert!(
            s.at(Phase::Replied).is_some(),
            "{:?} never answered the client",
            s.op
        );
        s.check_accounting()
            .unwrap_or_else(|e| panic!("{:?}: {e}", s.op));
        assert_stamped(s, &[Phase::Dispatched, Phase::Executed]);
        if s.cross && s.outcome.is_some() {
            assert!(
                s.at(Phase::Completed).is_some(),
                "{:?}: cross op left its commitment open (stuck at {:?})",
                s.op,
                s.last_phase()
            );
            assert_stamped(s, &COMMITMENT_SENDS);
            cross_completed += 1;
        }
    }
    assert!(cross_completed > 0, "home2 must exercise cross-server ops");

    // The decoupling claim, measured: commitment latency exists for Cx
    // and is excluded from (not added to) the client-visible histogram.
    assert!(report.commitment.count > 0);
    assert_eq!(
        report.client_all.count,
        report.client_cross.count + report.client_local.count
    );

    // Nothing is left in flight after a drained run.
    assert!(sink.stuck_report().is_empty());

    // The exported report reads back whole: what `cx-obs check` and
    // `cx-obs doctor` load from disk keeps its phase accounting, its
    // spans, edges and op count, and every blamed op's segment sums.
    let back = ObsReport::from_json(&report.to_json()).expect("report JSON reads back");
    back.validate()
        .expect("read-back phase accounting sums to client latency");
    assert_eq!(
        (back.spans.len(), back.edges.len(), back.ops_issued),
        (report.spans.len(), report.edges.len(), report.ops_issued)
    );
    back.doctor().expect("every blamed op's segments sum");
}

/// The threaded runtime carries the same sink: a recording run under
/// real concurrency stays consistent and the recorder observes every
/// issued op (wall-clock stamps jitter, so only counts are asserted).
#[test]
fn threaded_runtime_records_through_the_same_sink() {
    let e = home2(Protocol::Cx);
    let sink = ObsSink::recording("cx");
    let st = e.workload.stream(&e.cfg);
    let res = cx_cluster::ThreadedCluster::run_stream_obs(e.cfg.clone(), st, sink.clone());
    assert!(res.violations.is_empty(), "threaded run inconsistent");
    let report = sink.report().expect("report");
    assert_eq!(report.ops_issued, res.stats.ops_total);
    assert_eq!(report.client_all.count, res.stats.ops_total);
    assert_eq!(
        report.client_all.count,
        report.client_cross.count + report.client_local.count
    );
}

/// The commitment histogram stays empty for the protocols whose
/// commitment work sits *on* the client-visible path — the contrast the
/// paper draws (Cx is the only one that defers it past the reply).
#[test]
fn only_cx_records_post_reply_commitment() {
    for protocol in [
        Protocol::Se,
        Protocol::SeBatched,
        Protocol::TwoPc,
        Protocol::Ce,
    ] {
        let sink = ObsSink::recording(format!("{protocol:?}"));
        let r = home2(protocol).run_obs(sink.clone());
        assert!(r.is_consistent());
        let report = sink.report().expect("report");
        assert_eq!(
            report.commitment.count, 0,
            "{protocol:?} commits before replying; nothing is post-reply"
        );
        // 2PC's and CE's rounds are stamped all the same, before the reply.
        let two_phase = matches!(protocol, Protocol::TwoPc | Protocol::Ce);
        for s in &report.spans {
            assert_stamped(s, &[Phase::Dispatched, Phase::Executed, Phase::Replied]);
            if two_phase && s.cross {
                assert_stamped(s, &COMMITMENT_SENDS);
            }
        }
    }
}
