//! Log-bucketed latency histograms (HDR-style).
//!
//! Values land in buckets whose width grows with magnitude: values below
//! 64 are exact, larger values share an octave split into 32 linear
//! sub-buckets, so any reported quantile is within ~3% of the true value
//! while the whole structure is a flat `Vec<u64>` grown to exactly its
//! highest occupied bucket (at most 1,920 counters), capacity included.
//! Histograms merge by element-wise addition, which makes them composable
//! across servers, runs, and processes. `count`, `sum`, `min` and `max`
//! are exact, so one histogram is also a run's mean-latency accumulator.

use serde::{Deserialize, Serialize};

/// log2 of the linear sub-buckets per octave (32 → ≤3.1% relative error).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// A mergeable latency histogram over `u64` nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Meaningful only when `count > 0`.
    pub min: u64,
    /// Bucket counters up to the highest occupied bucket, in length and in
    /// capacity: a finished run keeps its histograms, so no slack doubling.
    counts: Vec<u64>,
}

/// The bucket a value falls into; public so tests can assert the oracle
/// property "reported quantile lands in the true quantile's bucket".
pub fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let group = (top - SUB_BITS) as usize;
        let sub = ((v >> (top - SUB_BITS)) as usize) & (SUB - 1);
        (group + 1) * SUB + sub
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 2 * SUB {
        (idx as u64, idx as u64)
    } else {
        let group = (idx / SUB - 1) as u32;
        let sub = (idx % SUB) as u64;
        let lo = (SUB as u64 + sub) << group;
        (lo, lo + ((1u64 << group) - 1))
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = bucket_of(v);
        if idx >= self.counts.len() {
            self.counts.reserve_exact(idx + 1 - self.counts.len());
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Element-wise merge: `self` afterwards describes the union of both
    /// sample sets.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts
                .reserve_exact(other.counts.len() - self.counts.len());
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (0 < q ≤ 100): the upper bound of the
    /// bucket holding the rank-`ceil(q/100·count)` sample, capped at the
    /// exact observed maximum so `percentile(100) == max`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let (_, hi) = bucket_bounds(idx);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Approximate sample variance, reconstructed from bucket midpoints.
    /// Good to the bucket resolution (≤3.1% relative on the values), which
    /// is all the blame run-diff's significance band needs.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let mut acc = 0.0f64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(idx);
            let mid = (lo as f64 + hi as f64) / 2.0;
            let d = mid - mean;
            acc += d * d * n as f64;
        }
        acc / (self.count - 1) as f64
    }

    /// Compact fixed-quantile digest for tables and JSON artifacts.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean_ns: self.mean(),
            min_ns: if self.count == 0 { 0 } else { self.min },
            p50_ns: self.percentile(50.0),
            p90_ns: self.percentile(90.0),
            p99_ns: self.percentile(99.0),
            p999_ns: self.percentile(99.9),
            max_ns: self.max,
        }
    }
}

/// Fixed quantiles of one histogram, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    pub count: u64,
    pub mean_ns: f64,
    pub min_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

impl HistSummary {
    /// `12.3µs`-style rendering used by the text dashboard and tables.
    pub fn fmt_ns(ns: u64) -> String {
        fmt_ns_f(ns as f64)
    }
}

/// Human units for a nanosecond quantity.
pub fn fmt_ns_f(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = 0;
        for v in (0..4096).chain([1 << 20, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}] of bucket {b}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 5, 42, 63] {
            h.record(v);
        }
        assert_eq!(h.percentile(100.0), 63);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.min, 0);
        assert_eq!(h.count, 5);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..100_000u64 {
            h.record(v * 17);
        }
        for q in [50.0, 90.0, 99.0, 99.9] {
            let exact = {
                let rank = ((q / 100.0) * h.count as f64).ceil() as u64;
                rank * 17
            };
            let got = h.percentile(q) as f64;
            let err = (got - exact as f64).abs() / exact as f64;
            assert!(err < 0.04, "q={q}: got {got}, exact {exact}, err {err}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let (mut a, mut b, mut c) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for v in [3u64, 900, 1_000_000, 7] {
            a.record(v);
            c.record(v);
        }
        for v in [1u64, 88_888, 12] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
        let mut empty = LogHistogram::new();
        empty.merge(&c);
        assert_eq!(empty, c);
    }

    #[test]
    fn counts_grow_exactly_to_the_highest_bucket() {
        let mut h = LogHistogram::new();
        for v in [1u64, 100, 5_000, 3, 1_000_000] {
            h.record(v);
            assert_eq!(h.counts.capacity(), h.counts.len(), "after {v}");
        }
        assert_eq!(h.counts.len(), bucket_of(1_000_000) + 1);
        let mut m = LogHistogram::new();
        m.record(100_000); // doubling its 401 buckets would overshoot 510
        m.merge(&h);
        assert_eq!(m.counts.capacity(), m.counts.len());
        assert_eq!(m.counts.len(), h.counts.len());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(1_000_000);
        let js = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&js).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.summary().count, 2);
    }

    #[test]
    fn human_units() {
        assert_eq!(fmt_ns_f(900.0), "900ns");
        assert_eq!(fmt_ns_f(1500.0), "1.5µs");
        assert_eq!(fmt_ns_f(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns_f(3_000_000_000.0), "3.00s");
    }
}
