//! Property tests for `LogHistogram` against a sorted-vec oracle: any
//! reported percentile must land in the same log-bucket as the exact
//! rank-order statistic, merging must equal combined recording, and the
//! moment fields (count/sum/min/max) must be exact.

use cx_obs::hist::{bucket_of, LogHistogram};
use cx_types::check::check;

fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn check_quantiles(h: &LogHistogram, mut values: Vec<u64>) {
    values.sort_unstable();
    for q in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
        let exact = oracle_percentile(&values, q);
        let got = h.percentile(q);
        // The reported quantile is the bucket's upper bound (capped at
        // max), so it shares the exact value's bucket or is the cap.
        assert!(
            bucket_of(got) == bucket_of(exact) || got == h.max,
            "q={}: got {} (bucket {}), exact {} (bucket {})",
            q,
            got,
            bucket_of(got),
            exact,
            bucket_of(exact)
        );
        assert!(got >= exact || bucket_of(got) == bucket_of(exact));
    }
}

#[test]
fn quantiles_match_sorted_vec_oracle() {
    check("quantiles_match_sorted_vec_oracle", 48, |g| {
        let values = g.vec(1..300, |g| g.gen_range(0u64..2_000_000_000));
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count, values.len() as u64);
        assert_eq!(h.sum, values.iter().sum::<u64>());
        assert_eq!(h.max, *values.iter().max().unwrap());
        assert_eq!(h.min, *values.iter().min().unwrap());
        check_quantiles(&h, values);
    });
}

#[test]
fn merge_equals_combined_recording() {
    check("merge_equals_combined_recording", 48, |g| {
        let a = g.vec(0..150, |g| g.gen_range(0u64..1_000_000));
        let b = g.vec(0..150, |g| g.gen_range(0u64..1_000_000_000));
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hc = LogHistogram::new();
        for &v in &a {
            ha.record(v);
            hc.record(v);
        }
        for &v in &b {
            hb.record(v);
            hc.record(v);
        }
        ha.merge(&hb);
        assert_eq!(&ha, &hc);
        if !a.is_empty() || !b.is_empty() {
            let mut all = a.clone();
            all.extend_from_slice(&b);
            check_quantiles(&ha, all);
        }
    });
}

#[test]
fn percentiles_are_monotone_in_q() {
    check("percentiles_are_monotone_in_q", 48, |g| {
        let values = g.vec(1..200, |g| g.gen_range(0u64..10_000_000));
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0u64;
        for q in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let p = h.percentile(q);
            assert!(p >= last, "p({}) = {} < {}", q, p, last);
            last = p;
        }
        assert_eq!(h.percentile(100.0), h.max);
    });
}
