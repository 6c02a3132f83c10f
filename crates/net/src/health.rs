//! Per-peer health scoring and wire throughput counters.
//!
//! Every peer keeps a [`PeerHealth`] updated from its flushes. The unit
//! of accounting is a **flush** — one coalesced batch written in full —
//! not a frame: successful flushes feed a latency EWMA and reset
//! the consecutive-failure streak, and carry the frame/byte counts of the
//! batch they wrote, so coalescing (many frames per syscall) neither
//! inflates the sample count nor skews the latency distribution the score
//! is built from. Failed dials/writes extend the streak. The combined
//! [`score`] folds both signals into `(0, 1]` — 1.0 is a healthy
//! low-latency peer, each consecutive failure halves the score, and
//! sustained flush latency above the 1 ms loopback target decays it
//! smoothly.
//!
//! The `frames` / `bytes` / `flushes` counters are also the raw material
//! for the wire-throughput rates (frames/s, bytes/s, flushes/s) surfaced
//! by the `--live` metrics plane and `cx-obs top`.
//!
//! [`score`]: PeerHealth::score

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Flush latency at which the latency factor reaches 0.5 (loopback
/// flushes are typically tens of microseconds, so a healthy peer stays
/// near 1.0).
const TARGET_LATENCY_NS: u64 = 1_000_000;

/// EWMA weight for new samples: `ewma += (sample - ewma) / 5` (α = 0.2).
const EWMA_DIV: u64 = 5;

/// RTT sample ring capacity: enough for every quiesce-round probe of a
/// long run while bounding the percentile sort at snapshot time.
const RTT_RING: usize = 512;

/// Shared, lock-free health record for one peer. Writers update it from the
/// send path; any thread may snapshot it. (The RTT ring is the one mutexed
/// field — it is written only by the probe path, a few samples per quiesce
/// round, never by the flush hot path.)
#[derive(Debug, Default)]
pub struct PeerHealth {
    frames: AtomicU64,
    bytes: AtomicU64,
    flushes: AtomicU64,
    failures: AtomicU64,
    consecutive_failures: AtomicU64,
    reconnects: AtomicU64,
    ewma_ns: AtomicU64,
    /// Probe round-trip samples (ns), ring-buffered for p50/p99.
    rtt: Mutex<Vec<u64>>,
    rtt_samples: AtomicU64,
    /// Smallest RTT observed (0 = no sample yet) — the sample whose offset
    /// estimate carries the tightest error bound (± rtt/2).
    rtt_min_ns: AtomicU64,
    /// Clock offset (peer minus us, ns) estimated at the min-RTT sample.
    clock_offset_ns: AtomicI64,
    /// Deepest outbound queue observed at a flush gather.
    queue_peak: AtomicU64,
}

/// Point-in-time copy of a peer's health counters. Serializable so child
/// server processes can ship their rows in `StopResp` for the
/// cluster-wide per-peer net table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Frames successfully written (every frame of every flushed batch).
    pub sends: u64,
    /// Encoded bytes successfully written.
    pub bytes: u64,
    /// Batches written in full (flushes, not frames).
    pub flushes: u64,
    pub failures: u64,
    pub consecutive_failures: u64,
    pub reconnects: u64,
    /// Exponentially-weighted moving average of flush (write) latency.
    pub ewma_ns: u64,
    /// Combined health in `(0, 1]`; see module docs.
    pub score: f64,
    /// Probe RTT percentiles (0 until the first probe sample lands).
    pub rtt_p50_ns: u64,
    pub rtt_p99_ns: u64,
    /// Smallest probe RTT seen (0 = never probed).
    pub rtt_min_ns: u64,
    pub rtt_samples: u64,
    /// Estimated clock offset (peer clock minus ours, ns) at min RTT;
    /// error bound is ± `rtt_min_ns / 2`.
    pub clock_offset_ns: i64,
    /// Deepest outbound queue a flush ever gathered from.
    pub queue_peak: u64,
}

impl PeerHealth {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one successful flush: a batch of `frames` coalesced frames
    /// totalling `bytes` encoded bytes, taking `latency` of wall time. The
    /// EWMA samples per *flush*, so a 64-frame batch contributes one
    /// latency sample, not 64.
    pub fn note_flush(&self, frames: u64, bytes: u64, latency: Duration) {
        let sample = latency.as_nanos().min(u64::MAX as u128) as u64;
        // Single-writer EWMA: only the holder of the peer's flush lock
        // calls this, so a read-modify-write without CAS is race-free.
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else if sample >= old {
            old + (sample - old) / EWMA_DIV
        } else {
            old - (old - sample) / EWMA_DIV
        };
        self.ewma_ns.store(new, Ordering::Relaxed);
        self.frames.fetch_add(frames, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// Record a failed dial or write.
    pub fn note_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a successful re-dial after the connection was lost or dropped.
    pub fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one probe round trip and its offset estimate. The min-RTT
    /// sample wins the offset slot: the shorter the round trip, the
    /// tighter the `± rtt/2` bound on `offset = t1 - (t0 + t3)/2`.
    pub fn note_rtt(&self, rtt_ns: u64, offset_ns: i64) {
        let n = self.rtt_samples.fetch_add(1, Ordering::Relaxed) as usize;
        {
            let mut ring = self.rtt.lock();
            if ring.len() < RTT_RING {
                ring.push(rtt_ns);
            } else {
                ring[n % RTT_RING] = rtt_ns;
            }
        }
        let min = self.rtt_min_ns.load(Ordering::Relaxed);
        if min == 0 || rtt_ns < min {
            self.rtt_min_ns.store(rtt_ns, Ordering::Relaxed);
            self.clock_offset_ns.store(offset_ns, Ordering::Relaxed);
        }
    }

    /// Record the outbound queue depth a flush gathered from (peak wins).
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Combined health in `(0, 1]`: `2^-consecutive_failures` (saturating)
    /// times a latency factor `target / (target + ewma)`.
    pub fn score(&self) -> f64 {
        let streak = self.consecutive_failures.load(Ordering::Relaxed).min(32);
        let failure_factor = 0.5f64.powi(streak as i32);
        let ewma = self.ewma_ns.load(Ordering::Relaxed);
        let latency_factor = TARGET_LATENCY_NS as f64 / (TARGET_LATENCY_NS + ewma) as f64;
        failure_factor * latency_factor
    }

    pub fn snapshot(&self) -> HealthSnapshot {
        // Percentiles over the (unordered) ring; snapshotting is a cold
        // path, so the sort of ≤512 samples is fine.
        let (p50, p99) = {
            let ring = self.rtt.lock();
            if ring.is_empty() {
                (0, 0)
            } else {
                let mut sorted = ring.clone();
                sorted.sort_unstable();
                let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
                (at(0.50), at(0.99))
            }
        };
        HealthSnapshot {
            sends: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            ewma_ns: self.ewma_ns.load(Ordering::Relaxed),
            score: self.score(),
            rtt_p50_ns: p50,
            rtt_p99_ns: p99,
            rtt_min_ns: self.rtt_min_ns.load(Ordering::Relaxed),
            rtt_samples: self.rtt_samples.load(Ordering::Relaxed),
            clock_offset_ns: self.clock_offset_ns.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_peer_scores_one() {
        let h = PeerHealth::new();
        assert_eq!(h.score(), 1.0);
        let s = h.snapshot();
        assert_eq!(s.sends, 0);
        assert_eq!(s.flushes, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.reconnects, 0);
    }

    #[test]
    fn failures_halve_the_score_and_success_resets() {
        let h = PeerHealth::new();
        h.note_failure();
        assert!(h.score() <= 0.5);
        h.note_failure();
        assert!(h.score() <= 0.25);
        h.note_flush(1, 32, Duration::from_micros(10));
        assert!(h.score() > 0.9, "success resets the streak");
    }

    #[test]
    fn latency_ewma_converges_and_decays_score() {
        let h = PeerHealth::new();
        for _ in 0..64 {
            h.note_flush(1, 64, Duration::from_millis(10));
        }
        let s = h.snapshot();
        assert!(
            s.ewma_ns > 8_000_000,
            "ewma {} should approach 10ms",
            s.ewma_ns
        );
        assert!(s.score < 0.2, "10ms loopback latency is unhealthy");
        for _ in 0..256 {
            h.note_flush(1, 64, Duration::from_micros(20));
        }
        assert!(h.snapshot().score > 0.5, "ewma recovers after fast sends");
    }

    #[test]
    fn coalesced_flushes_count_frames_and_bytes_but_sample_once() {
        let h = PeerHealth::new();
        // One 64-frame batch: one flush, one EWMA sample, 64 frames.
        h.note_flush(64, 4096, Duration::from_micros(50));
        let s = h.snapshot();
        assert_eq!(s.sends, 64);
        assert_eq!(s.bytes, 4096);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.ewma_ns, 50_000, "first sample seeds the ewma directly");
        // A second batch moves the EWMA by one α-step, not 64.
        h.note_flush(64, 4096, Duration::from_micros(100));
        assert_eq!(h.snapshot().flushes, 2);
        assert_eq!(h.snapshot().ewma_ns, 60_000, "one sample per flush");
    }

    #[test]
    fn rtt_ring_tracks_min_offset_and_percentiles() {
        let h = PeerHealth::new();
        assert_eq!(h.snapshot().rtt_min_ns, 0, "no probe yet");
        // 100 slow samples with a noisy offset, one fast sample with the
        // true offset: min-RTT must pin the fast sample's estimate.
        for i in 0..100u64 {
            h.note_rtt(200_000 + i, 9_999);
        }
        h.note_rtt(50_000, -1_234);
        let s = h.snapshot();
        assert_eq!(s.rtt_min_ns, 50_000);
        assert_eq!(s.clock_offset_ns, -1_234);
        assert_eq!(s.rtt_samples, 101);
        assert!(s.rtt_p50_ns >= 50_000 && s.rtt_p50_ns <= 200_100);
        assert!(s.rtt_p99_ns >= s.rtt_p50_ns);
        // Queue-depth peak is monotone.
        h.note_queue_depth(3);
        h.note_queue_depth(17);
        h.note_queue_depth(5);
        assert_eq!(h.snapshot().queue_peak, 17);
    }

    #[test]
    fn score_saturates_instead_of_underflowing() {
        let h = PeerHealth::new();
        for _ in 0..100 {
            h.note_failure();
        }
        let s = h.score();
        assert!(s > 0.0 && s < 1e-9);
    }
}
