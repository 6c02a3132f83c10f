//! Small measuring tools: order statistics over reps, process CPU / RSS
//! from `/proc`, and an interpolated quantile over a `LogHistogram`.

use cx_core::LogHistogram;
use serde::{Json, Serialize};

/// Median, quartiles and sample count of one metric over a run's reps.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles with the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread printed here is
/// the spread the driver computes from the same values.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        if n == 1 {
            return v[0];
        }
        // position k*(n+1)/4, 1-based, clamped to the sample
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Process-wide user+sys CPU seconds (all threads, dead ones included),
/// from `/proc/self/stat`. Resolution is one clock tick (10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 overall, so 12 and 13 after the closing paren.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks as f64 / 100.0
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: give the free pages of the heap back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Restart the kernel's peak-RSS watermark at the current RSS, so each rep
/// reports its own peak. Free heap the earlier reps left behind is handed
/// back first: it is resident but not in use, and how much of it there is
/// depends on which rep happened to fragment the heap (one run in five
/// read 50 MiB instead of 40 on `des-update` for that alone). Where the
/// write is not permitted the watermark simply survives and every rep
/// reports the process's peak so far.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and glibc allows it at any
    // time from any thread; it only releases memory the allocator holds
    // free.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// First three fields of `/proc/loadavg`, for the noise record.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "?".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Inclusive value range of `LogHistogram` bucket `idx`: values below 64
/// are exact, above that every octave splits into 32 linear sub-buckets.
/// The layout is the one the histogram serialises; `hist_quantile`
/// cross-checks it against `LogHistogram::percentile` on every call.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    const SUB: usize = 32;
    if idx < 2 * SUB {
        (idx as u64, idx as u64)
    } else {
        let group = (idx / SUB - 1) as u32;
        let lo = (SUB as u64 + (idx % SUB) as u64) << group;
        (lo, lo + ((1u64 << group) - 1))
    }
}

/// Quantile `q` (0..=100) of `h`, interpolated linearly by rank inside the
/// bucket that holds it. `LogHistogram::percentile` reports the bucket's
/// upper bound — a 3.1% grid on which a deterministic run reads the same
/// on every seed; the interpolated value moves with the samples.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let Json::Object(fields) = h.to_json() else {
        panic!("LogHistogram serialises as an object");
    };
    let counts: Vec<u64> = fields
        .iter()
        .find(|(k, _)| k == "counts")
        .and_then(|(_, v)| match v {
            Json::Array(a) => Some(
                a.iter()
                    .map(|c| match c {
                        Json::U64(n) => *n,
                        _ => 0,
                    })
                    .collect(),
            ),
            _ => None,
        })
        .expect("LogHistogram serialises its bucket counts");
    let rank = ((q / 100.0) * h.count as f64)
        .ceil()
        .clamp(1.0, h.count as f64);
    let mut cum = 0u64;
    for (idx, &n) in counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (cum + n) as f64 >= rank {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(
                hi.min(h.max),
                h.percentile(q),
                "bucket layout drifted from cx_obs::hist"
            );
            let lo = lo.max(h.min) as f64;
            let hi = hi.min(h.max) as f64;
            return lo + (hi - lo) * (rank - cum as f64) / n as f64;
        }
        cum += n;
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_reported_bucket() {
        let mut h = LogHistogram::new();
        for v in 0..10_000u64 {
            h.record(1_000 + v * 37);
        }
        for q in [50.0, 99.0, 99.9] {
            let exact = hist_quantile(&h, q);
            let grid = h.percentile(q) as f64;
            assert!(
                exact <= grid && exact >= grid * 0.96,
                "{q}: {exact} vs {grid}"
            );
        }
    }
}
