//! cx-obs — the observability plane for the Cx reproduction.
//!
//! Four pieces, layered so the protocol engines and runtimes only ever see
//! the cheap sink:
//!
//! - [`span`]: the op-lifecycle phase model (Issued → … → Completed) with
//!   virtual-time stamps, split into the client-visible prefix and the
//!   decoupled commitment suffix, plus structured [`StuckOp`] diagnostics.
//! - [`hist`]: log-bucketed, mergeable latency histograms (p50/p99/p99.9)
//!   replacing mean-only reporting.
//! - [`sink`]: the enum collector. `ObsSink::Off` makes every emission a
//!   single-branch no-op; recording never touches protocol or scheduler
//!   state, so golden digests are identical with the sink on or off.
//! - [`report`]: the exportable snapshot and the exporters — Chrome
//!   trace-event JSON for Perfetto, a JSONL event stream, and the text
//!   dashboard behind `cx-obs report`.
//!
//! The introspection plane adds two more:
//!
//! - [`registry`]: the typed metric registry — Cx-specific counters,
//!   gauges and histogram series with Prometheus-text and JSON
//!   exposition, safe for concurrent publication from the threaded
//!   runtime and consumed live by `cx-obs top`.
//! - [`flow`]: causal message-edge tracing — every cross-server message
//!   becomes a flow arc connecting coordinator and participant tracks in
//!   the Perfetto trace, and feeds `cx-obs trace --op`.
//!
//! A chaos replay's post-mortem is the same report: its JSONL stream and
//! its Perfetto trace, where a crashed server's liveness gauge (0 at the
//! crash, 1 when recovery finishes) draws a counter track and every op
//! still short of its reply is an instant where it stalled.
//!
//! The wall-clock wire plane (PR 9) adds:
//!
//! - [`net`]: per-flush spans for the Perfetto trace, the per-peer
//!   table (wire totals, RTT percentiles, clock offsets) behind
//!   `cx-obs net`, and [`correct_ns`], which pulls every cross-process
//!   stamp onto the coordinator's clock.
//!
//! The blame plane (PR 10) adds:
//!
//! - [`path`]: critical-path extraction over one op's span + message
//!   edges, with the exact-sum clamping invariant.
//! - [`blame`]: the segment taxonomy, per-op decomposition, mergeable
//!   blame tables, tail exemplars, and the run-diff — all behind
//!   `cx-obs doctor`.

pub mod blame;
pub mod flow;
pub mod hist;
pub mod net;
pub mod path;
pub mod registry;
pub mod report;
pub mod sink;
pub mod span;

pub use blame::{blame_span, blame_spans, diff as blame_diff, BlameDiff, BlameTable, OpBlame, Seg};
pub use flow::{FlowNode, MsgEdge};
pub use hist::{fmt_ns_f, HistSummary, LogHistogram};
pub use net::{chrome_flush_events, correct_ns, FlushSpan, NetPeerRow, NetTable};
pub use path::{critical_path, CriticalPath, EdgeClass, WalkHop};
pub use registry::{Counter, Gauge, MetricRegistry, MetricsSnapshot, Series};
pub use report::{ClassRow, ObsReport};
pub use sink::{EngineGauges, GaugeKind, GaugeSample, ObsSink, Recorder};
pub use span::{OpSpan, Phase, StuckOp};
