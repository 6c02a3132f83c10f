//! NTP-style clock-offset estimation from probe round trips.
//!
//! Every `Probe`/`ProbeResp` exchange yields four timestamps: the prober's
//! clock at send (`t0`) and receive (`t3`), and the responder's clock when
//! it built the reply (`t1`, which also stands in for NTP's `t2` — the
//! responder turns the probe around in-process, so the server-side dwell
//! is part of the path asymmetry the error bound already covers). The
//! classic estimate is
//!
//! ```text
//! rtt    = t3 - t0
//! offset = t1 - (t0 + t3) / 2        (responder clock minus ours)
//! ```
//!
//! which is exact when the outbound and return paths take equal time, and
//! off by at most `± rtt / 2` under arbitrary asymmetry. [`ClockSync`]
//! therefore keeps the sample with the **smallest RTT**: it carries the
//! tightest bound, and queueing delay — the dominant noise source on a
//! loaded loopback — only ever inflates RTTs, never deflates them.
//!
//! Offsets here are *epoch* offsets: each process stamps nanoseconds since
//! its own start instant, so cross-process offsets are dominated by the
//! difference in process start times (milliseconds to seconds), not clock
//! drift. The same estimator corrects both, through
//! [`cx_obs::correct_ns`].

use cx_obs::{LogHistogram, NetPeerRow};
use std::time::Instant;

/// Nanoseconds since `epoch`: a run's wall clock, on either carrier. Frame
/// `sent_ns`, probe stamps, span phases and node-local timers all read it.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The probe record for one peer: the running best (min-RTT) offset
/// estimate and every sample's RTT — the only record of either.
#[derive(Debug, Clone, Default)]
pub struct ClockSync {
    /// `(rtt_ns, offset_ns)` of the best sample so far.
    best: Option<(u64, i64)>,
    /// Every sample's RTT, for the net table's percentiles.
    rtt: LogHistogram,
}

/// A finished estimate: the peer's clock reads `offset_ns` ahead of ours
/// (negative = behind), known to within `± error_bound_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetEstimate {
    pub offset_ns: i64,
    /// RTT of the winning sample.
    pub rtt_ns: u64,
    /// Half the winning RTT — the asymmetry bound on `offset_ns`.
    pub error_bound_ns: u64,
    pub samples: u64,
}

impl ClockSync {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one probe exchange. `t0_ns`/`t3_ns` are our clock at probe
    /// send and response receipt; `remote_ns` is the responder's clock
    /// from the reply.
    pub fn sample(&mut self, t0_ns: u64, remote_ns: u64, t3_ns: u64) {
        let rtt = t3_ns.saturating_sub(t0_ns);
        // i128 midpoint: u64 epochs near the end of a long run would
        // overflow an i64 sum.
        let midpoint = (t0_ns as i128 + t3_ns as i128) / 2;
        let offset =
            (remote_ns as i128 - midpoint).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        self.rtt.record(rtt);
        if self.best.is_none_or(|(best_rtt, _)| rtt < best_rtt) {
            self.best = Some((rtt, offset));
        }
    }

    /// The min-RTT estimate, if any sample landed.
    pub fn estimate(&self) -> Option<OffsetEstimate> {
        self.best.map(|(rtt_ns, offset_ns)| OffsetEstimate {
            offset_ns,
            rtt_ns,
            error_bound_ns: rtt_ns / 2,
            samples: self.rtt.count,
        })
    }

    /// Fill `row`'s probe columns: RTT percentiles, the min-RTT sample and
    /// its offset estimate. A peer never probed keeps 0 samples.
    pub fn fill(&self, row: &mut NetPeerRow) {
        row.rtt_p50_ns = self.rtt.percentile(50.0);
        row.rtt_p99_ns = self.rtt.percentile(99.0);
        row.rtt_samples = self.rtt.count;
        if let Some((rtt, offset)) = self.best {
            row.rtt_min_ns = rtt;
            row.clock_offset_ns = offset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate a probe exchange against a responder whose clock runs
    /// `skew` ns ahead of ours, with the given one-way delays. `t0` must
    /// be large enough that the responder's (skewed) clock stays
    /// non-negative — epoch stamps are unsigned.
    fn exchange(sync: &mut ClockSync, t0: u64, skew: i64, out_delay: u64, back_delay: u64) {
        let arrive_remote = t0 + out_delay; // in our clock
        let remote_ns = (arrive_remote as i64 + skew) as u64; // responder's clock
        assert!(
            arrive_remote as i64 + skew >= 0,
            "test setup: remote clock underflow"
        );
        let t3 = arrive_remote + back_delay;
        sync.sample(t0, remote_ns, t3);
    }

    /// A base far enough into both epochs for any skew in these tests.
    const T0: u64 = 10_000_000_000;

    #[test]
    fn symmetric_delay_recovers_the_offset_exactly() {
        for skew in [-5_000_000i64, 0, 12_345, 8_000_000_000] {
            let mut sync = ClockSync::new();
            exchange(&mut sync, T0, skew, 40_000, 40_000);
            let est = sync.estimate().unwrap();
            assert_eq!(est.offset_ns, skew, "symmetric paths are exact");
            assert_eq!(est.rtt_ns, 80_000);
            assert_eq!(est.error_bound_ns, 40_000);
        }
    }

    #[test]
    fn asymmetric_delay_stays_within_the_min_rtt_bound() {
        let skew = -3_000_000i64;
        // Wildly asymmetric paths: 5us out, 95us back, and vice versa.
        for (out, back) in [(5_000u64, 95_000u64), (95_000, 5_000), (1_000, 99_000)] {
            let mut sync = ClockSync::new();
            exchange(&mut sync, T0, skew, out, back);
            let est = sync.estimate().unwrap();
            let err = (est.offset_ns - skew).unsigned_abs();
            assert!(
                err <= est.error_bound_ns,
                "error {err} exceeds bound {} for delays ({out},{back})",
                est.error_bound_ns
            );
        }
    }

    #[test]
    fn min_rtt_sample_wins_over_noisy_queued_ones() {
        let skew = 2_000_000i64;
        let mut sync = ClockSync::new();
        // Queued probes: symmetric base delay plus a large asymmetric
        // queueing term that corrupts their individual estimates.
        for i in 0..50u64 {
            exchange(
                &mut sync,
                T0 + i * 1_000_000,
                skew,
                30_000,
                30_000 + i * 7_000,
            );
        }
        // One uncongested probe.
        exchange(&mut sync, T0 + 60_000_000, skew, 10_000, 10_000);
        let est = sync.estimate().unwrap();
        assert_eq!(est.rtt_ns, 20_000, "min-RTT sample selected");
        assert_eq!(est.offset_ns, skew, "and it is the exact one");
        assert_eq!(est.samples, 51);
    }

    #[test]
    fn fill_writes_percentiles_and_the_min_rtt_offset() {
        let mut row = NetPeerRow::default();
        ClockSync::new().fill(&mut row);
        assert_eq!(row, NetPeerRow::default(), "no probe, no columns");
        let mut sync = ClockSync::new();
        // 100 slow samples with a noisy offset, one fast sample with the
        // true offset: min-RTT must pin the fast sample's estimate.
        for i in 0..100u64 {
            exchange(&mut sync, T0 + i * 1_000_000, 9_999, 100_000 + i, 100_000);
        }
        exchange(&mut sync, T0 + 200_000_000, -1_234, 25_000, 25_000);
        sync.fill(&mut row);
        assert_eq!(row.rtt_min_ns, 50_000);
        assert_eq!(row.clock_offset_ns, -1_234);
        assert_eq!(row.rtt_samples, 101);
        assert!(row.rtt_min_ns <= row.rtt_p50_ns && row.rtt_p50_ns <= row.rtt_p99_ns);
        assert!(row.rtt_p99_ns <= 200_099);
    }
}
