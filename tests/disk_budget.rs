//! What a disk's background backlog costs, counted.
//!
//! Cx answers first and writes the database back later, so under load the
//! log owns each disk and write-backs only queue, in the background lane,
//! until the drain. The chassis splits a write-back into chunks of at most
//! 32 pages and numbers them one after another with the top bit set, and
//! the lane holds each one packed against the token before it: 3 B for a
//! chunk of under 32 pages, 4 B for a full one. Measured as live heap
//! bytes under a counting allocator.

#[path = "kit/counting.rs"]
mod counting;

use counting::{allocs, live};
use cx_simio::{Disk, DiskReq};
use cx_types::{DiskConfig, SimTime};

/// The chassis's mark on a write-back's token.
const WRITEBACK_TOKEN_BIT: u64 = 1 << 63;

/// 10,000 write-back chunks of 1 to 32 pages, numbered the way the chassis
/// numbers them, queue behind a log flush in progress. Their lane is a
/// byte ring that doubles: 32 KiB for about 30,000 B of entries, 3.3 B a
/// chunk (a lane of 16-byte slots took 16,384 of them, 26 B a chunk).
/// Serving them hands the tokens back first in, first out, and, with each
/// batch's token list recycled, allocates nothing once the lists in
/// circulation exist (a list a batch, 10,000, without recycling).
#[test]
fn queued_write_back_chunks_cost_their_packed_bytes() {
    const N: u64 = 10_000;
    let mut disk = Disk::new(DiskConfig::default());
    let append = DiskReq::LogAppend {
        bytes: 4_096,
        token: 7,
    };
    let flush = disk
        .submit(SimTime(0), append)
        .expect("an idle disk starts");
    let tokens: Vec<u64> = (8..8 + N).map(|t| t | WRITEBACK_TOKEN_BIT).collect();
    let mut x = 0x2545_f491_u64;
    let before = live();
    for &token in &tokens {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let len = 1 + (x >> 33) % 32;
        // Every other page of a region: the page list is the caller's
        // allocation; submit prices and frees it.
        let pages = (0..len).map(|p| (token & 0xffff) * 64 + 2 * p).collect();
        let req = DiskReq::DbWriteback { pages, token };
        assert!(
            disk.submit(SimTime(1), req).is_none(),
            "the log flush holds the disk"
        );
    }
    let held = live() - before;
    assert!(
        held <= 4 * N as isize,
        "{held} B of live heap for {N} queued write-back chunks, {:.1} B a chunk",
        held as f64 / N as f64
    );
    let mut finish = flush.finish;
    let mut served = Vec::with_capacity(N as usize);
    let (mut batches, mut before) = (0, allocs());
    while let Some(batch) = disk.complete(finish) {
        finish = batch.finish;
        served.extend_from_slice(&batch.tokens);
        disk.recycle(batch.tokens);
        batches += 1;
        if batches == 2 {
            before = allocs();
        }
    }
    let made = allocs() - before;
    assert_eq!(
        made, 0,
        "{made} allocations serving {N} chunks after the first two batches"
    );
    assert!(served == tokens, "the chunks come back in submit order");
    assert!(disk.is_idle());
}

/// Busy periods with idle gaps between them, as a lightly loaded server's
/// log sees: one append starts a flush and three more queue behind it and
/// ride the next, then the disk goes idle. The finished batch handed back
/// at an idle gap is the second list at home, and both stay, so once two
/// lists exist a busy period allocates nothing (a disk that kept one list
/// dropped the other at every gap and allocated it again in the next busy
/// period's second batch).
#[test]
fn idle_gaps_keep_both_token_lists() {
    let mut disk = Disk::new(DiskConfig::default());
    let append = |token| DiskReq::LogAppend {
        bytes: 4_096,
        token,
    };
    let (mut now, mut token, mut warm) = (SimTime(0), 0, 0);
    for period in 0..100 {
        if period == 2 {
            warm = allocs();
        }
        let mut batch = disk
            .submit(now, append(token))
            .expect("an idle disk starts");
        for _ in 0..3 {
            token += 1;
            assert!(
                disk.submit(now, append(token)).is_none(),
                "the flush holds the disk"
            );
        }
        token += 1;
        // As the DES does: start the next batch, hand the finished one's
        // tokens out, then give its list back.
        loop {
            now = batch.finish;
            let next = disk.complete(now);
            disk.recycle(batch.tokens);
            match next {
                Some(b) => batch = b,
                None => break,
            }
        }
        assert!(disk.is_idle());
        now += 1_000_000;
    }
    let made = allocs() - warm;
    assert_eq!(made, 0, "{made} allocations over 98 busy periods");
}
