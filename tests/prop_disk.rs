//! Property-based tests of the disk model.

use cx_simio::{Disk, DiskReq};
use cx_types::{DiskConfig, SimTime};
use proptest::prelude::*;

fn req_strategy() -> impl Strategy<Value = DiskReq> {
    prop_oneof![
        (1u64..4096).prop_map(|bytes| DiskReq::LogAppend { bytes, token: 0 }),
        (0u64..1 << 20).prop_map(|page| DiskReq::DbSyncWrite { page, token: 0 }),
        prop::collection::vec(0u64..1 << 20, 1..40)
            .prop_map(|pages| DiskReq::DbWriteback { pages, token: 0 }),
        (1u64..1 << 20).prop_map(|bytes| DiskReq::SeqRead { bytes, token: 0 }),
        prop::collection::vec(0u64..1 << 20, 1..40)
            .prop_map(|pages| DiskReq::RandomRead { pages, token: 0 }),
    ]
}

fn with_token(req: DiskReq, token: u64) -> DiskReq {
    match req {
        DiskReq::LogAppend { bytes, .. } => DiskReq::LogAppend { bytes, token },
        DiskReq::DbSyncWrite { page, .. } => DiskReq::DbSyncWrite { page, token },
        DiskReq::DbWriteback { pages, .. } => DiskReq::DbWriteback { pages, token },
        DiskReq::SeqRead { bytes, .. } => DiskReq::SeqRead { bytes, token },
        DiskReq::RandomRead { pages, .. } => DiskReq::RandomRead { pages, token },
    }
}

proptest! {
    /// Conservation: every submitted token completes exactly once, batch
    /// finish times are monotone, and the accumulated busy time equals
    /// the span the device actually worked.
    #[test]
    fn every_token_completes_once(
        reqs in prop::collection::vec(req_strategy(), 1..60),
        submit_gap_us in 0u64..500,
    ) {
        let mut disk = Disk::new(DiskConfig::default());
        let n = reqs.len() as u64;
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
            if let Some(b) = disk.submit(submit_at, with_token(req, i as u64)) {
                prop_assert!(inflight.is_none(), "disk started while busy");
                inflight = Some(b);
            }
        }
        // drain the rest
        while let Some(b) = inflight {
            prop_assert!(b.finish >= now, "finish time went backwards");
            now = b.finish;
            done.extend(b.tokens.clone());
            inflight = disk.complete(now);
        }
        done.sort_unstable();
        prop_assert_eq!(done, (0..n).collect::<Vec<_>>());
        prop_assert!(disk.is_idle());
        prop_assert!(disk.stats().busy_ns <= now.0, "busy exceeds wall time");
    }

    /// Merging monotonicity: a write-back of clustered pages never takes
    /// longer than the same number of scattered pages.
    #[test]
    fn clustering_never_hurts(count in 2usize..200) {
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
        prop_assert!(time(clustered) <= time(scattered));
    }
}

/// Group commit monotonicity over its whole input space, k in 2..128 (126
/// cases), so the case once recorded as a failure (k = 2) runs on every
/// pass.
#[test]
fn group_commit_amortizes() {
    for k in 2u64..128 {
        if let Err(e) = group_commit(k) {
            panic!("k = {k}: {e:?}");
        }
    }
}

/// Group commit monotonicity: appending k records in one queue burst
/// takes at most k times the single-append flush.
fn group_commit(k: u64) -> Result<(), TestCaseError> {
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
    prop_assert_eq!(second.tokens.len() as u64, k - 1);
    let per_append_alone = first.finish.0;
    let amortized = (second.finish.0 - first.finish.0) / (k - 1);
    // k = 2 leaves a single follower (one flush for one append, no
    // sharing); from 3 appends up, sharing must win strictly.
    prop_assert!(
        amortized <= per_append_alone,
        "{amortized} vs {per_append_alone}"
    );
    if k > 2 {
        prop_assert!(amortized < per_append_alone);
    }
    Ok(())
}
