//! Per-peer wire counters.
//!
//! Every peer a node writes to has one [`PeerHealth`], and each wire fact
//! is counted there once: a **flush** — one coalesced batch written in
//! full, with its frame and byte counts, so coalescing (many frames per
//! syscall) does not inflate the flush count — a failed dial or write, a
//! re-dial after a lost connection, and the deepest outbound queue a send
//! left. [`crate::ConnectionManager::wire_totals`] and
//! [`crate::ConnectionManager::reconnects_total`] are sums over these
//! records, which are the raw material for the wire-throughput rates
//! (frames/s, bytes/s, flushes/s) of the `--live` metrics plane and
//! `cx-obs top`. Flush latency is a histogram in
//! [`crate::WireTelemetry`]; probe RTT and clock offset are
//! [`crate::ClockSync`]'s.

use cx_obs::NetPeerRow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, lock-free counters for one peer. Writers update them from the
/// send path; any thread may read them.
#[derive(Debug, Default)]
pub struct PeerHealth {
    frames: AtomicU64,
    bytes: AtomicU64,
    flushes: AtomicU64,
    failures: AtomicU64,
    reconnects: AtomicU64,
    queue_peak: AtomicU64,
}

/// Send-side wire counters summed over peers — the numerators of the
/// frames/s, bytes/s and flushes/s rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Frames written (sum of all peers' flushed batch sizes).
    pub frames: u64,
    /// Encoded bytes written.
    pub bytes: u64,
    /// Batches written (coalesced flushes).
    pub flushes: u64,
}

impl WireTotals {
    /// Fold another node's totals in (cluster-wide aggregation).
    pub fn add(&mut self, other: WireTotals) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.flushes += other.flushes;
    }
}

impl PeerHealth {
    /// Record one flush: a batch of `frames` coalesced frames totalling
    /// `bytes` encoded bytes, written in full.
    pub fn note_flush(&self, frames: u64, bytes: u64) {
        self.frames.fetch_add(frames, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a failed dial or write.
    pub fn note_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a successful re-dial after the connection was lost or dropped.
    pub fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the outbound queue depth right after a send queued (peak wins).
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Frames, bytes and flushes written so far.
    pub fn totals(&self) -> WireTotals {
        WireTotals {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }

    /// Re-dials so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// This peer's net-table row as `on` sees `peer`. The probe columns
    /// stay empty: only a `ClockSync` fills them.
    pub fn row(&self, on: String, peer: String) -> NetPeerRow {
        let t = self.totals();
        NetPeerRow {
            on,
            peer,
            frames: t.frames,
            bytes: t.bytes,
            flushes: t.flushes,
            send_failures: self.failures.load(Ordering::Relaxed),
            reconnects: self.reconnects(),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            ..NetPeerRow::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_flushes_count_frames_and_bytes_once_per_flush() {
        let h = PeerHealth::default();
        assert_eq!(h.totals(), WireTotals::default());
        // Two 64-frame batches: two flushes, 128 frames.
        h.note_flush(64, 4096);
        h.note_flush(64, 4096);
        h.note_failure();
        h.note_reconnect();
        let r = h.row("srv0".into(), "srv1".into());
        assert_eq!((r.frames, r.bytes, r.flushes), (128, 8192, 2));
        assert_eq!((r.send_failures, r.reconnects), (1, 1));
        assert_eq!(r.rtt_samples, 0, "probe columns are ClockSync's");
    }

    #[test]
    fn queue_peak_is_monotone() {
        let h = PeerHealth::default();
        h.note_queue_depth(3);
        h.note_queue_depth(17);
        h.note_queue_depth(5);
        assert_eq!(h.row(String::new(), String::new()).queue_peak, 17);
    }
}
