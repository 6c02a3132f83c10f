//! Property-based tests of the disk model.

use cx_simio::{Disk, DiskReq};
use cx_types::check::{check, Gen};
use cx_types::{DiskConfig, SimTime};

fn arb_req(g: &mut Gen, token: u64) -> DiskReq {
    let page = |g: &mut Gen| g.gen_range(0u64..1 << 20);
    match g.gen_range(0..5) {
        0 => DiskReq::LogAppend {
            bytes: g.gen_range(1..4096),
            token,
        },
        1 => DiskReq::DbSyncWrite {
            page: page(g),
            token,
        },
        2 => DiskReq::DbWriteback {
            pages: g.vec(1..40, page),
            token,
        },
        3 => DiskReq::SeqRead {
            bytes: g.gen_range(1..1 << 20),
            token,
        },
        _ => DiskReq::RandomRead {
            pages: g.vec(1..40, page),
            token,
        },
    }
}

/// Conservation: every submitted token completes exactly once, batch
/// finish times are monotone, and the accumulated busy time equals
/// the span the device actually worked.
#[test]
fn every_token_completes_once() {
    check("every_token_completes_once", 48, |g| {
        let n = g.gen_range(1..60);
        let reqs: Vec<DiskReq> = (0..n).map(|token| arb_req(g, token)).collect();
        let submit_gap_us = g.gen_range(0u64..500);
        let mut disk = Disk::new(DiskConfig::default());
        let mut inflight = None;
        let mut done = Vec::new();
        let mut now = SimTime(0);

        for (i, req) in reqs.into_iter().enumerate() {
            // drain any batches that finish before this submission
            let submit_at = SimTime(i as u64 * submit_gap_us * 1_000);
            while inflight
                .as_ref()
                .is_some_and(|b: &cx_simio::Batch| b.finish <= submit_at)
            {
                let b = inflight.take().expect("checked");
                done.extend(b.tokens);
                now = b.finish;
                inflight = disk.complete(now);
            }
            now = now.max(submit_at);
            if let Some(b) = disk.submit(submit_at, req) {
                assert!(inflight.is_none(), "disk started while busy");
                inflight = Some(b);
            }
        }
        // drain the rest
        while let Some(b) = inflight {
            assert!(b.finish >= now, "finish time went backwards");
            now = b.finish;
            done.extend(b.tokens.clone());
            inflight = disk.complete(now);
        }
        done.sort_unstable();
        assert_eq!(done, (0..n).collect::<Vec<_>>());
        assert!(disk.is_idle());
        assert!(disk.stats().busy_ns <= now.0, "busy exceeds wall time");
    });
}

/// Merging monotonicity: a write-back of clustered pages never takes
/// longer than the same number of scattered pages.
#[test]
fn clustering_never_hurts() {
    check("clustering_never_hurts", 48, |g| {
        let count = g.gen_range(2usize..200);
        let cfg = DiskConfig::default();
        let clustered: Vec<u64> = (0..count as u64).collect();
        let scattered: Vec<u64> = (0..count as u64).map(|i| i * 1_000_000).collect();
        let time = |pages: Vec<u64>| {
            let mut d = Disk::new(cfg);
            d.submit(SimTime(0), DiskReq::DbWriteback { pages, token: 1 })
                .expect("idle start")
                .finish
                .0
        };
        assert!(time(clustered) <= time(scattered));
    });
}

/// Group commit monotonicity over its whole input space, k in 2..128 (126
/// cases), so the case once recorded as a failure (k = 2) runs on every
/// pass.
#[test]
fn group_commit_amortizes() {
    for k in 2u64..128 {
        group_commit(k);
    }
}

/// Group commit monotonicity: appending k records in one queue burst
/// takes at most k times the single-append flush.
fn group_commit(k: u64) {
    let cfg = DiskConfig::default();
    let mut d = Disk::new(cfg);
    let first = d
        .submit(
            SimTime(0),
            DiskReq::LogAppend {
                bytes: 200,
                token: 0,
            },
        )
        .expect("idle start");
    for t in 1..k {
        d.submit(
            SimTime(0),
            DiskReq::LogAppend {
                bytes: 200,
                token: t,
            },
        );
    }
    let second = d.complete(first.finish).expect("queued work");
    assert_eq!(second.tokens.len() as u64, k - 1, "k = {k}");
    let per_append_alone = first.finish.0;
    let amortized = (second.finish.0 - first.finish.0) / (k - 1);
    // k = 2 leaves a single follower (one flush for one append, no
    // sharing); from 3 appends up, sharing must win strictly.
    assert!(
        amortized <= per_append_alone,
        "k = {k}: {amortized} vs {per_append_alone}"
    );
    if k > 2 {
        assert!(amortized < per_append_alone, "k = {k}");
    }
}
