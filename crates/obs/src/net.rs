//! Wire-plane observability types: per-flush spans for the Perfetto
//! trace, the per-peer table behind `cx-obs net`, and the clock-offset
//! correction that puts another process's stamps on our timeline.
//!
//! `cx-net` records these (it depends on this crate, not the other way
//! around); the TCP runtime collects one [`NetTable`] per process and the
//! coordinator merges them next to the span shards.

use crate::flow::FlowNode;
use crate::hist::fmt_ns_f;
use serde::{Deserialize, Serialize};

/// One coalesced `write_all` on a peer connection: where it went, when it
/// started on the recording process's clock, how long the syscall took,
/// and how much it carried. Compact and `Copy` so the writer path can
/// stamp one per flush without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlushSpan {
    pub from: FlowNode,
    pub to: FlowNode,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub frames: u32,
    pub bytes: u32,
}

/// Pull a stamp from a remote process's clock onto ours: subtract the
/// estimated offset (its clock minus ours), saturating at zero — a stamp
/// from before our epoch cannot be represented, and clamping is what the
/// span-merge monotone pass expects.
pub fn correct_ns(remote_stamp_ns: u64, offset_ns: i64) -> u64 {
    (remote_stamp_ns as i128 - offset_ns as i128).clamp(0, u64::MAX as i128) as u64
}

/// Render flush spans as Chrome-trace slices under process `pid`: one
/// track per sending node, one `X` slice per flush, named for the
/// destination and sized by the syscall duration.
pub fn chrome_flush_events(spans: &[FlushSpan], pid: u32, ev: &mut Vec<String>) {
    if spans.is_empty() {
        return;
    }
    ev.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"wire flushes\"}}}}"
    ));
    let mut named: Vec<FlowNode> = Vec::new();
    for s in spans {
        if !named.contains(&s.from) {
            named.push(s.from);
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"name\":\"{} out\"}}}}",
                s.from.tid(),
                s.from.label(),
            ));
        }
        let us = |ns: u64| ns as f64 / 1000.0;
        ev.push(format!(
            "{{\"name\":\"flush → {}\",\"cat\":\"wire\",\"ph\":\"X\",\"ts\":{:.3},\
             \"dur\":{:.3},\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"frames\":{},\"bytes\":{}}}}}",
            s.to,
            us(s.start_ns),
            us(s.dur_ns).max(0.001),
            s.from.tid(),
            s.frames,
            s.bytes,
        ));
    }
}

/// One peer's row in the `cx-obs net` table: what the observing node's
/// connection manager counted for this peer, plus — on the coordinator's
/// rows to the servers it probes — the RTT and clock-offset columns of its
/// `ClockSync`. Every other row leaves those at 0 samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetPeerRow {
    /// The observing node (rows are grouped by observer in multiproc runs).
    pub on: String,
    /// The peer being described.
    pub peer: String,
    /// Frames written (every frame of every flushed batch).
    pub frames: u64,
    /// Encoded bytes written.
    pub bytes: u64,
    /// Batches written in full (coalesced flushes, not frames).
    pub flushes: u64,
    /// Failed dials and writes.
    pub send_failures: u64,
    /// Successful re-dials after a lost or dropped connection.
    pub reconnects: u64,
    /// Probe RTT percentiles (0 while `rtt_samples` is 0).
    pub rtt_p50_ns: u64,
    pub rtt_p99_ns: u64,
    /// Smallest probe RTT: the sample `clock_offset_ns` comes from.
    pub rtt_min_ns: u64,
    pub rtt_samples: u64,
    /// Peer's clock minus ours at the min-RTT probe, good to
    /// `± rtt_min_ns / 2` (0 when unsampled).
    pub clock_offset_ns: i64,
    /// Deepest outbound queue to this peer right after a send queued.
    pub queue_peak: u64,
}

/// The `cx-obs net` table: every (observer, peer) pair in the run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetTable {
    pub rows: Vec<NetPeerRow>,
}

impl NetTable {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("net table serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad net table: {e:?}"))
    }

    /// Fold another process's rows in (multiproc merge at the coordinator).
    pub fn merge(&mut self, other: &NetTable) {
        self.rows.extend(other.rows.iter().cloned());
    }

    /// Fixed-width terminal rendering, one line per (observer, peer).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<6} {:<6} {:>10} {:>12} {:>8} {:>5} {:>5} {:>9} {:>9} {:>9} {:>6}\n",
            "on",
            "peer",
            "frames",
            "bytes",
            "flushes",
            "fail",
            "reconn",
            "rtt p50",
            "rtt p99",
            "offset",
            "qpeak",
        ));
        let mut rows: Vec<&NetPeerRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| (&a.on, &a.peer).cmp(&(&b.on, &b.peer)));
        for r in rows {
            let rtt = |ns: u64| {
                if r.rtt_samples == 0 {
                    "-".to_string()
                } else {
                    fmt_ns_f(ns as f64)
                }
            };
            let offset = if r.rtt_samples == 0 {
                "-".to_string()
            } else if r.clock_offset_ns < 0 {
                format!("-{}", fmt_ns_f(-r.clock_offset_ns as f64))
            } else {
                fmt_ns_f(r.clock_offset_ns as f64)
            };
            out.push_str(&format!(
                "{:<6} {:<6} {:>10} {:>12} {:>8} {:>5} {:>5} {:>9} {:>9} {:>9} {:>6}\n",
                r.on,
                r.peer,
                r.frames,
                r.bytes,
                r.flushes,
                r.send_failures,
                r.reconnects,
                rtt(r.rtt_p50_ns),
                rtt(r.rtt_p99_ns),
                offset,
                r.queue_peak,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(on: &str, peer: &str) -> NetPeerRow {
        NetPeerRow {
            on: on.into(),
            peer: peer.into(),
            frames: 1000,
            bytes: 64_000,
            flushes: 100,
            send_failures: 0,
            reconnects: 1,
            rtt_p50_ns: 120_000,
            rtt_p99_ns: 900_000,
            rtt_min_ns: 80_000,
            rtt_samples: 17,
            clock_offset_ns: -2_500_000,
            queue_peak: 42,
        }
    }

    #[test]
    fn net_table_round_trips_and_renders() {
        let mut t = NetTable::default();
        t.rows.push(row("srv0", "srv1"));
        let mut unsampled = row("srv1", "cli0");
        unsampled.rtt_samples = 0;
        t.rows.push(unsampled);
        let back = NetTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[0].clock_offset_ns, -2_500_000);
        let text = back.render();
        assert!(text.contains("srv0"));
        assert!(
            text.contains("-2.50ms"),
            "negative offset renders signed: {text}"
        );
        // Unsampled RTT columns show '-' instead of zeros.
        let cli_line = text.lines().find(|l| l.contains("cli0")).unwrap();
        assert!(cli_line.split_whitespace().any(|w| w == "-"));
    }

    #[test]
    fn correction_round_trips_and_saturates() {
        // A remote stamp taken `skew` ahead of us comes back to our clock.
        assert_eq!(correct_ns(5_000_000, 2_000_000), 3_000_000);
        assert_eq!(correct_ns(5_000_000, -2_000_000), 7_000_000);
        // Stamps from before our epoch clamp to zero instead of wrapping.
        assert_eq!(correct_ns(1_000, 5_000_000), 0);
    }

    #[test]
    fn merge_concatenates_rows() {
        let mut a = NetTable::default();
        a.rows.push(row("srv0", "srv1"));
        let mut b = NetTable::default();
        b.rows.push(row("srv1", "srv0"));
        a.merge(&b);
        assert_eq!(a.rows.len(), 2);
    }

    #[test]
    fn flush_events_are_valid_json_slices() {
        let spans = [
            FlushSpan {
                from: FlowNode::Server(0),
                to: FlowNode::Server(1),
                start_ns: 10_000,
                dur_ns: 4_000,
                frames: 16,
                bytes: 1024,
            },
            FlushSpan {
                from: FlowNode::Server(0),
                to: FlowNode::Client(2),
                start_ns: 20_000,
                dur_ns: 0,
                frames: 1,
                bytes: 64,
            },
        ];
        let mut ev = Vec::new();
        chrome_flush_events(&spans, 5, &mut ev);
        assert!(ev.iter().all(|l| serde_json::parse_value(l).is_ok()));
        let slices = ev.iter().filter(|l| l.contains("\"ph\":\"X\"")).count();
        assert_eq!(slices, 2);
        // One sender → one thread_name metadata record.
        let threads = ev.iter().filter(|l| l.contains("thread_name")).count();
        assert_eq!(threads, 1);
        assert!(ev.iter().any(|l| l.contains("\"frames\":16")));
    }
}
