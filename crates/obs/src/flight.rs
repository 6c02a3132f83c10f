//! Crash flight recorder: a fixed-size ring of the most recent protocol
//! events, always on — even when the histogram sink is `Off` — so a
//! post-mortem exists the moment chaos detects a crash, a stuck op, or a
//! digest/oracle mismatch. The last few thousand events before the
//! failure are exactly the ones a distributed-protocol bug hides in.
//!
//! Events are tiny `Copy` records (no strings, no per-event allocation);
//! pushing into a pre-sized ring is two index ops and a store behind a
//! mutex, cheap enough to leave on for every benchmarked run.

use crate::flow::FlowNode;
use crate::span::Phase;
use cx_types::{MsgKind, OpId};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// What the recorder remembers. One variant per event family the
/// post-mortem needs to reconstruct "what was the cluster doing".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlightEvent {
    /// A message delivery (stamped at the send site with its scheduled
    /// arrival, like the flow tracer).
    Msg {
        kind: MsgKind,
        from: FlowNode,
        to: FlowNode,
        recv_ns: u64,
    },
    Issued {
        op: OpId,
        cross: bool,
    },
    Replied {
        op: OpId,
        applied: bool,
    },
    Crash {
        server: u32,
    },
    Recovered {
        server: u32,
    },
    Stuck {
        op: OpId,
        phase: Phase,
    },
}

/// A ring entry: the event plus when it happened and a global sequence
/// number (so a wrapped ring still reads in true order).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    pub at_ns: u64,
    pub seq: u64,
    pub ev: FlightEvent,
}

struct Ring {
    buf: Vec<TimedEvent>,
    cap: usize,
    next: usize,
    seq: u64,
}

/// The recorder handle. Cloning shares the ring; the runtime holds one
/// clone, the chaos driver holds another to dump on failure.
#[derive(Clone)]
pub struct FlightRecorder {
    ring: Arc<Mutex<Ring>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAP)
    }
}

impl FlightRecorder {
    pub const DEFAULT_CAP: usize = 4096;

    pub fn new(cap: usize) -> Self {
        Self {
            ring: Arc::new(Mutex::new(Ring {
                buf: Vec::with_capacity(cap.max(1)),
                cap: cap.max(1),
                next: 0,
                seq: 0,
            })),
        }
    }

    #[inline]
    pub fn push(&self, at_ns: u64, ev: FlightEvent) {
        let mut r = self.ring.lock().expect("flight ring");
        let seq = r.seq;
        r.seq += 1;
        let entry = TimedEvent { at_ns, seq, ev };
        if r.buf.len() < r.cap {
            r.buf.push(entry);
        } else {
            let slot = r.next;
            r.buf[slot] = entry;
        }
        r.next = (r.next + 1) % r.cap;
    }

    /// Total events ever pushed (retained or overwritten).
    pub fn total(&self) -> u64 {
        self.ring.lock().expect("flight ring").seq
    }

    /// The retained window, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        let r = self.ring.lock().expect("flight ring");
        let mut out = Vec::with_capacity(r.buf.len());
        if r.buf.len() == r.cap {
            out.extend_from_slice(&r.buf[r.next..]);
            out.extend_from_slice(&r.buf[..r.next]);
        } else {
            out.extend_from_slice(&r.buf);
        }
        out
    }

    /// One JSON object per line, oldest first — greppable post-mortem.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&serde_json::to_string(&e).expect("flight event serializes"));
            out.push('\n');
        }
        out
    }

    /// A self-contained Chrome trace of the retained window: message
    /// edges as flow arcs (process 4, like the live trace) and the
    /// lifecycle/crash events as instants on a timeline process.
    pub fn to_chrome_trace(&self) -> String {
        let events = self.events();
        let mut ev: Vec<String> = Vec::new();
        let us = |ns: u64| ns as f64 / 1000.0;
        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"flight recorder\"}}"
                .to_string(),
        );
        let mut edges = Vec::new();
        for (i, t) in events.iter().enumerate() {
            match t.ev {
                FlightEvent::Msg {
                    kind,
                    from,
                    to,
                    recv_ns,
                } => edges.push(crate::flow::MsgEdge {
                    id: i as u64 + 1,
                    op: None,
                    kind,
                    from,
                    to,
                    sent_ns: t.at_ns,
                    recv_ns,
                }),
                other => {
                    let (name, scope) = match other {
                        FlightEvent::Issued { op, cross } => {
                            (format!("issued {op}{}", if cross { " ×" } else { "" }), "t")
                        }
                        FlightEvent::Replied { op, applied } => (
                            format!("replied {op} {}", if applied { "ok" } else { "failed" }),
                            "t",
                        ),
                        FlightEvent::Crash { server } => (format!("CRASH s{server}"), "g"),
                        FlightEvent::Recovered { server } => (format!("RECOVERED s{server}"), "g"),
                        FlightEvent::Stuck { op, phase } => {
                            (format!("STUCK {op} at {phase:?}"), "g")
                        }
                        FlightEvent::Msg { .. } => unreachable!(),
                    };
                    let tid = match other {
                        FlightEvent::Crash { server } | FlightEvent::Recovered { server } => server,
                        _ => 0,
                    };
                    ev.push(format!(
                        "{{\"name\":\"{name}\",\"cat\":\"flight\",\"ph\":\"i\",\
                         \"s\":\"{scope}\",\"ts\":{:.3},\"pid\":1,\"tid\":{tid}}}",
                        us(t.at_ns),
                    ));
                }
            }
        }
        crate::flow::chrome_flow_events(&edges, 4, &mut ev);
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            ev.join(",\n")
        )
    }

    /// Write the post-mortem pair: `<prefix>.flight.jsonl` and
    /// `<prefix>.flight.trace.json`. Returns the two paths.
    pub fn dump_to(&self, prefix: &str) -> std::io::Result<(String, String)> {
        let jsonl = format!("{prefix}.flight.jsonl");
        let trace = format!("{prefix}.flight.trace.json");
        std::fs::write(&jsonl, self.to_jsonl())?;
        std::fs::write(&trace, self.to_chrome_trace())?;
        Ok((jsonl, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::ProcId;

    fn op(n: u64) -> OpId {
        OpId::new(ProcId::new(1, 0), n)
    }

    #[test]
    fn ring_wraps_and_reads_in_order() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.push(
                i * 100,
                FlightEvent::Issued {
                    op: op(i),
                    cross: false,
                },
            );
        }
        assert_eq!(fr.total(), 10);
        let evs = fr.events();
        assert_eq!(evs.len(), 4);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(evs.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn chrome_trace_contains_flow_arcs_and_instants() {
        let fr = FlightRecorder::new(16);
        fr.push(
            1_000,
            FlightEvent::Issued {
                op: op(1),
                cross: true,
            },
        );
        fr.push(
            2_000,
            FlightEvent::Msg {
                kind: MsgKind::Vote,
                from: FlowNode::Server(0),
                to: FlowNode::Server(1),
                recv_ns: 3_000,
            },
        );
        fr.push(4_000, FlightEvent::Crash { server: 1 });
        fr.push(
            5_000,
            FlightEvent::Stuck {
                op: op(1),
                phase: Phase::VoteSent,
            },
        );
        let trace = fr.to_chrome_trace();
        assert!(serde_json::parse_value(&trace).is_ok(), "trace parses");
        assert!(trace.contains("\"ph\":\"s\"") && trace.contains("\"ph\":\"f\""));
        assert!(trace.contains("CRASH s1"));
        assert!(trace.contains("STUCK"));
        let jsonl = fr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            assert!(serde_json::parse_value(line).is_ok());
        }
    }
}
