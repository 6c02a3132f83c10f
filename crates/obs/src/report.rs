//! The exportable snapshot of a run's observability data, plus the
//! exporters: Chrome-trace-event JSON (loadable in Perfetto / chrome://
//! tracing), a JSONL event stream, and the text dashboard rendered by
//! `cx-obs report`.

use crate::blame::{blame_spans, BlameTable};
use crate::flow::MsgEdge;
use crate::hist::{fmt_ns_f, HistSummary, LogHistogram};
use crate::net::FlushSpan;
use crate::sink::{GaugeKind, GaugeSample, Recorder};
use crate::span::{OpSpan, Phase, StuckOp};
use serde::{Deserialize, Serialize};

/// Client-visible latency of one op class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassRow {
    pub class: String,
    pub hist: LogHistogram,
}

/// Everything a run recorded, in one serializable artifact. This is what
/// a recorded run exports and what `cx-obs report` reads back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsReport {
    pub protocol: String,
    /// Ops whose issue the recorder saw (sampled or not).
    pub ops_issued: u64,

    /// Client-visible latency (Issued → Replied), every op.
    pub client_all: LogHistogram,
    /// …cross-server ops only.
    pub client_cross: LogHistogram,
    /// …single-server ops only.
    pub client_local: LogHistogram,
    /// Commitment-path latency (Replied → Completed), cross ops. Only Cx
    /// populates this: the other protocols commit before replying.
    pub commitment: LogHistogram,
    /// Per-op-class client latency (empty classes omitted).
    pub per_class: Vec<ClassRow>,

    /// The sampled span window, in issue order.
    pub spans: Vec<OpSpan>,
    /// Causal message edges (send → delivery), rendered as flow arcs.
    pub edges: Vec<MsgEdge>,
    /// Wall-clock wire flushes (TCP runs with flush-span recording on;
    /// empty under the DES). The runtime attaches these after
    /// [`ObsReport::from_recorder`] — the recorder itself never sees the
    /// wire plane.
    pub flushes: Vec<FlushSpan>,
    /// Virtual-time gauge samples.
    pub gauges: Vec<GaugeSample>,
    /// Ops still short of their reply when the run ended.
    pub stuck: Vec<StuckOp>,

    pub dropped_spans: u64,
    pub dropped_edges: u64,
    pub dropped_gauges: u64,
}

impl ObsReport {
    pub fn from_recorder(rec: &Recorder) -> Self {
        let spans = rec.spans();
        let per_class = cx_types::OpClass::ALL
            .iter()
            .zip(&rec.client_by_class)
            .filter(|(_, h)| h.count > 0)
            .map(|(c, h)| ClassRow {
                class: c.name().to_string(),
                hist: h.clone(),
            })
            .collect();
        Self {
            protocol: rec.protocol.clone(),
            ops_issued: rec.ops_issued(),
            client_all: rec.client_all.clone(),
            client_cross: rec.client_cross.clone(),
            client_local: rec.client_local.clone(),
            commitment: rec.commitment.clone(),
            per_class,
            spans,
            edges: rec.edges.clone(),
            flushes: Vec::new(),
            gauges: rec.gauges.clone(),
            stuck: rec.stuck.clone(),
            dropped_spans: rec.dropped_spans,
            dropped_edges: rec.dropped_edges,
            dropped_gauges: rec.dropped_gauges,
        }
    }

    /// One gauge over time: `(at, mean, max)` over the servers sampled at
    /// each instant, in time order — Figure 7b for `ValidLogBytes`.
    pub fn gauge_series(&self, kind: GaugeKind) -> Vec<(cx_types::SimTime, u64, u64)> {
        let samples: Vec<&GaugeSample> = self.gauges.iter().filter(|g| g.kind == kind).collect();
        let row = |at: &[&GaugeSample]| {
            let values = at.iter().map(|g| g.value);
            let mean = values.clone().sum::<u64>() / at.len() as u64;
            (at[0].at, mean, values.max().unwrap_or(0))
        };
        samples.chunk_by(|a, b| a.at == b.at).map(row).collect()
    }

    /// Compute the blame table over this report's spans and edges. Always
    /// derived on the fly — the report's JSON schema stays unchanged, so
    /// `cx-obs doctor --against` works on artifacts from older runs.
    pub fn blame(&self) -> BlameTable {
        BlameTable::from_spans(&self.protocol, &self.spans, &self.edges)
    }

    /// The blame table `cx-obs doctor` prints, built only from spans that
    /// add up: phase accounting ([`Self::validate`]), then each blamed op's
    /// segment sums ([`crate::OpBlame::check`]). `Err` names the first break.
    pub fn doctor(&self) -> Result<BlameTable, String> {
        self.validate()
            .map_err(|e| format!("span accounting broken: {e}"))?;
        let blamed = blame_spans(&self.spans, &self.edges);
        if let Some((op, e)) = blamed.iter().find_map(|b| Some((b.op, b.check().err()?))) {
            return Err(format!("blame accounting broken for {op}: {e}"));
        }
        Ok(BlameTable::from_blames(&self.protocol, blamed))
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ObsReport serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad ObsReport JSON: {e:?}"))
    }

    /// The CI smoke contract: every sampled span's phases are ordered and
    /// their segment durations sum to the client-visible latency.
    pub fn validate(&self) -> Result<(), String> {
        for span in &self.spans {
            span.check_accounting()?;
        }
        Ok(())
    }

    /// Chrome trace-event JSON (the `traceEvents` array format), loadable
    /// in Perfetto (ui.perfetto.dev) and chrome://tracing. Written by
    /// hand: the format is flat and the shim serde stack stays out of the
    /// hot loop. Timestamps are virtual-time microseconds.
    ///
    /// Layout: pid 1 = client-visible path (one track per process, with
    /// an instant where each stuck op stalled), pid 2 = commitment path
    /// (one track per coordinator server), pid 3 = gauges as counter
    /// tracks (a crashed server's liveness among them), pid 4 = message
    /// flows (one track per node) with `s`/`f` arcs tying sender to
    /// receiver, pid 5 = wire flushes (one track per sending node; TCP
    /// runs only).
    pub fn to_chrome_trace(&self) -> String {
        let us = |ns: u64| ns as f64 / 1000.0;
        let mut ev: Vec<String> = Vec::new();
        for (pid, name) in [(1, "client-visible"), (2, "commitment"), (3, "gauges")] {
            ev.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for s in &self.spans {
            let tid = s.op.proc.client.0;
            let outcome = match s.outcome {
                Some(cx_types::OpOutcome::Applied) => "applied",
                Some(cx_types::OpOutcome::Failed) => "failed",
                None => "in-flight",
            };
            if let (Some(issued), Some(total)) = (s.at(Phase::Issued), s.client_visible_ns()) {
                ev.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"op\":\"{}\",\
                     \"cross\":{},\"outcome\":\"{outcome}\"}}}}",
                    s.class.name(),
                    us(issued),
                    us(total),
                    s.op,
                    s.cross,
                ));
                // Sub-slices for the client-visible segments, nested under
                // the op slice on the same track.
                let mut prev: Option<(Phase, u64)> = None;
                for p in [
                    Phase::Issued,
                    Phase::Dispatched,
                    Phase::Executed,
                    Phase::Replied,
                ] {
                    let Some(t) = s.at(p) else { continue };
                    if let Some((pp, pt)) = prev {
                        ev.push(format!(
                            "{{\"name\":\"{}→{}\",\"cat\":\"segment\",\"ph\":\"X\",\
                             \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid}}}",
                            pp.name(),
                            p.name(),
                            us(pt),
                            us(t.saturating_sub(pt)),
                        ));
                    }
                    prev = Some((p, t));
                }
            }
            // The decoupled commitment path gets its own process so the
            // trace shows it visibly *off* the client track.
            if let (Some(replied), Some(commit)) = (s.at(Phase::Replied), s.commitment_ns()) {
                if s.cross && s.at(Phase::Completed).is_some() {
                    let srv = s.server[Phase::Completed.index()];
                    let ctid = if srv == u32::MAX { 0 } else { srv };
                    ev.push(format!(
                        "{{\"name\":\"commit {}\",\"cat\":\"commitment\",\"ph\":\"X\",\
                         \"ts\":{:.3},\"dur\":{:.3},\"pid\":2,\"tid\":{ctid},\
                         \"args\":{{\"op\":\"{}\"}}}}",
                        s.class.name(),
                        us(replied),
                        us(commit),
                        s.op,
                    ));
                }
            }
        }
        for g in &self.gauges {
            ev.push(format!(
                "{{\"name\":\"{} s{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":3,\"tid\":0,\
                 \"args\":{{\"value\":{}}}}}",
                g.kind.name(),
                g.server,
                us(g.at.0),
                g.value,
            ));
        }
        // An op still short of its reply: an instant on its client's
        // track where it stalled.
        for st in &self.stuck {
            ev.push(format!(
                "{{\"name\":\"stuck at {}\",\"cat\":\"stuck\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":\"{st}\"}}}}",
                st.phase.name(),
                us(st.since.0),
                st.op.proc.client.0,
            ));
        }
        crate::flow::chrome_flow_events(&self.edges, 4, &mut ev);
        crate::net::chrome_flush_events(&self.flushes, 5, &mut ev);
        // pid 6: the blame doctor's tail exemplars — each slowest op's
        // critical path as one track of named segment slices, aligned with
        // the client/commitment tracks via the span's issue stamp.
        let blame = self.blame();
        if !blame.exemplars.is_empty() {
            ev.push(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":6,\"tid\":0,\
                 \"args\":{\"name\":\"critical paths (tail exemplars)\"}}"
                    .to_string(),
            );
            for (rank, ex) in blame.exemplars.iter().enumerate() {
                let Some(issued) = self
                    .spans
                    .iter()
                    .find(|s| s.op.to_string() == ex.op)
                    .and_then(|s| s.at(Phase::Issued))
                else {
                    continue;
                };
                ev.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":6,\"tid\":{rank},\
                     \"args\":{{\"name\":\"#{} {} ({})\"}}}}",
                    rank + 1,
                    ex.op,
                    ex.class,
                ));
                for row in &ex.chain {
                    ev.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"blame\",\"ph\":\"X\",\"ts\":{:.3},\
                         \"dur\":{:.3},\"pid\":6,\"tid\":{rank},\
                         \"args\":{{\"detail\":\"{}\"}}}}",
                        row.seg.name(),
                        us(issued + row.t_rel_ns),
                        us(row.dur_ns),
                        row.label,
                    ));
                }
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            ev.join(",\n")
        )
    }

    /// One JSON object per line: spans, gauges, stuck ops. Grep-friendly
    /// and streamable, unlike the single-document report.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |kind: &str, body: String| {
            out.push_str(&format!("{{\"type\":\"{kind}\",\"data\":{body}}}\n"));
        };
        for s in &self.spans {
            push("span", serde_json::to_string(s).expect("span serializes"));
        }
        for e in &self.edges {
            push("edge", serde_json::to_string(e).expect("edge serializes"));
        }
        for g in &self.gauges {
            push("gauge", serde_json::to_string(g).expect("gauge serializes"));
        }
        for st in &self.stuck {
            push(
                "stuck",
                serde_json::to_string(st).expect("stuck serializes"),
            );
        }
        out
    }

    /// The per-op causal chain behind `cx-obs trace --op`: the op's
    /// lifecycle stamps interleaved with every message edge recorded for
    /// it, in time order. `needle` matches against the op's rendered id
    /// (`op(1/0#3)`), substring semantics, so `1/0#3` works as-is.
    pub fn render_causal(&self, needle: &str) -> String {
        let mut out = String::new();
        let spans: Vec<&OpSpan> = self
            .spans
            .iter()
            .filter(|s| s.op.to_string().contains(needle))
            .collect();
        let edges: Vec<&MsgEdge> = self
            .edges
            .iter()
            .filter(|e| e.op.is_some_and(|op| op.to_string().contains(needle)))
            .collect();
        if spans.is_empty() && edges.is_empty() {
            return format!(
                "no span or message edge matches \"{needle}\" \
                 ({} sampled spans, {} edges in this report)\n",
                self.spans.len(),
                self.edges.len()
            );
        }
        for s in &spans {
            let outcome = match s.outcome {
                Some(cx_types::OpOutcome::Applied) => "applied",
                Some(cx_types::OpOutcome::Failed) => "failed",
                None => "in-flight",
            };
            out.push_str(&format!(
                "== {} · {} · {} · {outcome} ==\n",
                s.op,
                s.class.name(),
                if s.cross {
                    "cross-server"
                } else {
                    "single-server"
                },
            ));
            // Merge phase stamps and message edges into one timeline.
            let mut rows: Vec<(u64, String)> = s
                .reached()
                .map(|(p, t)| {
                    let srv = s.server[p.index()];
                    let at = if srv == u32::MAX {
                        "client".to_string()
                    } else {
                        format!("s{srv}")
                    };
                    (t, format!("phase {:<13} @ {at}", p.name()))
                })
                .collect();
            for e in &edges {
                if e.op.map(|op| op == s.op).unwrap_or(false) {
                    rows.push((
                        e.sent_ns,
                        format!(
                            "msg   {:<13} {} → {} (flight {})",
                            e.kind.name(),
                            e.from,
                            e.to,
                            HistSummary::fmt_ns(e.recv_ns.saturating_sub(e.sent_ns)),
                        ),
                    ));
                }
            }
            rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let t0 = rows.first().map(|r| r.0).unwrap_or(0);
            for (t, line) in rows {
                out.push_str(&format!(
                    "  +{:<11} {line}\n",
                    HistSummary::fmt_ns(t.saturating_sub(t0))
                ));
            }
            if let Some(v) = s.client_visible_ns() {
                out.push_str(&format!("  client-visible {}", HistSummary::fmt_ns(v)));
                if let Some(c) = s.commitment_ns() {
                    out.push_str(&format!(
                        ", commitment ran {} behind",
                        HistSummary::fmt_ns(c)
                    ));
                }
                out.push('\n');
            }
        }
        if spans.is_empty() {
            out.push_str(&format!(
                "(op outside the sampled span window; {} matching edges)\n",
                edges.len()
            ));
            for e in edges {
                out.push_str(&format!(
                    "  @{:<12} msg {:<13} {} → {}\n",
                    HistSummary::fmt_ns(e.sent_ns),
                    e.kind.name(),
                    e.from,
                    e.to,
                ));
            }
        }
        out
    }

    /// The text dashboard `cx-obs report` prints.
    pub fn render_dashboard(&self) -> String {
        fn row(label: &str, s: &HistSummary) -> String {
            format!(
                "  {label:<28} n={:<8} mean={:<9} p50={:<9} p90={:<9} p99={:<9} p99.9={:<9} max={}\n",
                s.count,
                fmt_ns_f(s.mean_ns),
                HistSummary::fmt_ns(s.p50_ns),
                HistSummary::fmt_ns(s.p90_ns),
                HistSummary::fmt_ns(s.p99_ns),
                HistSummary::fmt_ns(s.p999_ns),
                HistSummary::fmt_ns(s.max_ns),
            )
        }
        let mut out = String::new();
        out.push_str(&format!(
            "== observability report · protocol {} · {} ops ==\n",
            self.protocol, self.ops_issued
        ));
        out.push_str("client-visible latency (issued → replied):\n");
        out.push_str(&row("all ops", &self.client_all.summary()));
        if self.client_cross.count > 0 {
            out.push_str(&row("cross-server", &self.client_cross.summary()));
        }
        if self.client_local.count > 0 {
            out.push_str(&row("single-server", &self.client_local.summary()));
        }
        if self.commitment.count > 0 {
            out.push_str("commitment path (replied → completed, off the client path):\n");
            out.push_str(&row("cross-server", &self.commitment.summary()));
            let c = self.commitment.summary();
            let v = self.client_cross.summary();
            out.push_str(&format!(
                "  => p50 commitment {} runs behind a p50 client reply of {} — \
                 excluded from client-visible latency\n",
                HistSummary::fmt_ns(c.p50_ns),
                HistSummary::fmt_ns(v.p50_ns),
            ));
        } else {
            out.push_str(&format!(
                "commitment path: none recorded ({} commits before replying)\n",
                self.protocol
            ));
        }
        if !self.per_class.is_empty() {
            out.push_str("per-class client latency:\n");
            for c in &self.per_class {
                out.push_str(&row(&c.class, &c.hist.summary()));
            }
        }
        let blame = self.blame();
        let top = blame.top_segments();
        if !top.is_empty() {
            out.push_str(&format!(
                "blame (critical-path segments over {} sampled spans, by total; \
                 `cx-obs doctor` for detail):\n",
                self.spans.len()
            ));
            for (seg, hist) in top {
                out.push_str(&row(seg.name(), &hist.summary()));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("gauges: {} samples\n", self.gauges.len()));
            for kind in GaugeKind::ALL {
                let vals: Vec<u64> = self
                    .gauges
                    .iter()
                    .filter(|g| g.kind == kind)
                    .map(|g| g.value)
                    .collect();
                if let (Some(&last), Some(&max)) = (vals.last(), vals.iter().max()) {
                    out.push_str(&format!(
                        "  {:<28} samples={:<8} last={:<12} max={}\n",
                        kind.name(),
                        vals.len(),
                        last,
                        max
                    ));
                }
            }
        }
        if self.stuck.is_empty() {
            out.push_str("stuck ops: none\n");
        } else {
            out.push_str(&format!("stuck ops: {}\n", self.stuck.len()));
            for s in self.stuck.iter().take(20) {
                out.push_str(&format!("  {s}\n"));
            }
            if self.stuck.len() > 20 {
                out.push_str(&format!("  … and {} more\n", self.stuck.len() - 20));
            }
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!(
                "spans: {} sampled, {} beyond the sampling window\n",
                self.spans.len(),
                self.dropped_spans
            ));
        }
        if !self.edges.is_empty() || self.dropped_edges > 0 {
            out.push_str(&format!(
                "message edges: {} recorded, {} beyond the cap\n",
                self.edges.len(),
                self.dropped_edges
            ));
        }
        if self.dropped_gauges > 0 {
            let (kept, dropped) = (self.gauges.len(), self.dropped_gauges);
            out.push_str(&format!("gauges: {kept} kept, {dropped} beyond the cap\n"));
        }
        if !self.flushes.is_empty() {
            let frames: u64 = self.flushes.iter().map(|f| f.frames as u64).sum();
            out.push_str(&format!(
                "wire flushes: {} spans covering {} frames\n",
                self.flushes.len(),
                frames
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ObsSink;
    use cx_types::{OpClass, OpId, OpOutcome, ProcId, ServerId, SimTime};

    fn op(seq: u64) -> OpId {
        OpId::new(ProcId::new(2, 0), seq)
    }

    fn recorded_sink() -> ObsSink {
        let s = ObsSink::recording("cx");
        s.op_issued(op(1), OpClass::Create, true, SimTime(1_000));
        s.op_phase(op(1), Phase::Dispatched, SimTime(2_000), None);
        s.op_phase(op(1), Phase::Executed, SimTime(9_000), Some(ServerId(4)));
        s.op_replied(op(1), SimTime(12_000), OpOutcome::Applied, true);
        s.client_latency(OpClass::Create, true, 11_000);
        s.op_phase(op(1), Phase::VoteSent, SimTime(50_000), Some(ServerId(4)));
        s.op_phase(
            op(1),
            Phase::DecisionSent,
            SimTime(60_000),
            Some(ServerId(4)),
        );
        s.op_phase(op(1), Phase::Acked, SimTime(70_000), Some(ServerId(5)));
        s.op_phase(op(1), Phase::Completed, SimTime(80_000), Some(ServerId(4)));
        s.op_issued(op(2), OpClass::Stat, false, SimTime(3_000));
        s.op_replied(op(2), SimTime(4_000), OpOutcome::Applied, false);
        s.client_latency(OpClass::Stat, false, 1_000);
        s.gauge(SimTime(10_000), 0, GaugeKind::ValidLogBytes, 4096);
        s.gauge(SimTime(10_000), 0, GaugeKind::ActiveObjects, 3);
        s.msg_edge(
            Some(op(1)),
            cx_types::MsgKind::Vote,
            crate::flow::FlowNode::Server(4),
            crate::flow::FlowNode::Server(5),
            50_000,
            55_000,
        );
        s.msg_edge(
            Some(op(1)),
            cx_types::MsgKind::Ack,
            crate::flow::FlowNode::Server(5),
            crate::flow::FlowNode::Server(4),
            65_000,
            70_000,
        );
        s
    }

    #[test]
    fn report_round_trips_and_validates() {
        let rep = recorded_sink().report().unwrap();
        assert!(rep.validate().is_ok());
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.per_class.len(), 2);
        let back = ObsReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back.spans.len(), 2);
        assert_eq!(back.client_all.count, rep.client_all.count);
        assert_eq!(back.commitment.max, 68_000);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_slices() {
        let mut rep = recorded_sink().report().unwrap();
        rep.flushes.push(crate::net::FlushSpan {
            from: crate::flow::FlowNode::Server(4),
            to: crate::flow::FlowNode::Server(5),
            start_ns: 50_000,
            dur_ns: 3_000,
            frames: 8,
            bytes: 512,
        });
        rep.stuck.push(StuckOp {
            op: op(2),
            phase: Phase::Dispatched,
            server: None,
            since: SimTime(70_000),
        });
        let trace = rep.to_chrome_trace();
        serde_json::parse_value(&trace).expect("chrome trace must parse as JSON");
        assert!(trace.contains("\"ph\":\"X\""), "complete events present");
        assert!(trace.contains("\"ph\":\"C\""), "counter events present");
        assert!(trace.contains("commit create"), "commitment slice present");
        assert!(trace.contains("valid_log_bytes"));
        assert!(
            trace.contains("\"ph\":\"s\"") && trace.contains("\"ph\":\"f\""),
            "flow arcs present"
        );
        assert!(trace.contains("wire flushes"), "flush track present");
        assert!(trace.contains("flush → s5"));
        assert!(
            trace.contains("\"stuck at dispatched\",\"cat\":\"stuck\",\"ph\":\"i\""),
            "an instant where the stuck op stalled"
        );
    }

    #[test]
    fn causal_render_merges_phases_and_edges() {
        let rep = recorded_sink().report().unwrap();
        let text = rep.render_causal("2/0#1");
        assert!(text.contains("phase vote-sent"));
        assert!(text.contains("msg   VOTE"));
        assert!(text.contains("msg   ACK"));
        assert!(text.contains("commitment ran"));
        assert!(rep
            .render_causal("9/9#99")
            .contains("no span or message edge"));
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let rep = recorded_sink().report().unwrap();
        let jsonl = rep.to_jsonl();
        let mut n = 0;
        for line in jsonl.lines() {
            serde_json::parse_value(line).expect("each line parses");
            n += 1;
        }
        assert_eq!(n, 6); // 2 spans + 2 edges + 2 gauges
    }

    #[test]
    fn dashboard_mentions_the_decoupling() {
        let rep = recorded_sink().report().unwrap();
        let text = rep.render_dashboard();
        assert!(text.contains("client-visible latency"));
        assert!(text.contains("excluded from client-visible latency"));
        assert!(text.contains("create"));
        assert!(text.contains("stuck ops: none"));
        // The latency decomposition is the blame table's: every non-empty
        // segment gets a row, the off-path suffix included.
        let blame = rep.blame();
        let live: Vec<_> = blame.segs.iter().filter(|r| r.hist.count > 0).collect();
        assert!(live.len() > 4, "the fixture fills more than four segments");
        for r in live {
            assert!(
                text.contains(&format!("  {:<28} n=", r.seg.name())),
                "{:?}",
                r.seg
            );
        }
    }

    #[test]
    fn gauge_series_is_mean_and_max_per_instant() {
        let s = ObsSink::recording("cx");
        for (at, server, v) in [(0, 0, 10), (0, 1, 30), (200, 0, 7), (200, 1, 2)] {
            s.gauge(SimTime(at), server, GaugeKind::ValidLogBytes, v);
            s.gauge(SimTime(at), server, GaugeKind::ActiveObjects, 99);
        }
        let series = s.report().unwrap().gauge_series(GaugeKind::ValidLogBytes);
        assert_eq!(series, vec![(SimTime(0), 20, 30), (SimTime(200), 4, 7)]);
    }
}
