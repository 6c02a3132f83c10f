//! What the op feed hands out, and what its backlog costs.
//!
//! `OpFeed` turns a global-order stream into per-process queues. An op a
//! lagging process has not issued yet waits in its queue as the bytes the
//! one codec writes for it, each 8-byte word packed LEB128: 3 for a
//! `Stat` of an inode below 16,384, 31 at most (three full-width words).
//! These tests pin the four things that must hold of that: every op comes
//! back out in its process's order, the op count the runtimes account
//! stuck ops by is a count of ops, a backlog costs its packed bytes, not a
//! 32-byte `FsOp` slot apiece, and handing an op out allocates nothing.

#[path = "kit/counting.rs"]
mod counting;

use counting::{allocs, live};
use cx_cluster::OpFeed;
use cx_types::{FsOp, InodeNo, Name, ProcId};
use cx_workloads::{TraceOp, VecStream};
use std::collections::HashSet;

/// The `i`th op of a synthetic trace: every `FsOp` variant in turn, with
/// field values wide enough to use all eight bytes of each.
fn nth_op(i: u64) -> FsOp {
    let parent = InodeNo(0x0102_0304_0506_0700 + i);
    let name = Name(u64::MAX - i);
    let ino = InodeNo(0x8000_0000_0000_0000 | i);
    let target = ino;
    match i % 12 {
        0 => FsOp::Create { parent, name, ino },
        1 => FsOp::Remove { parent, name, ino },
        2 => FsOp::Mkdir { parent, name, ino },
        3 => FsOp::Rmdir { parent, name, ino },
        4 => FsOp::Link {
            parent,
            name,
            target,
        },
        5 => FsOp::Unlink {
            parent,
            name,
            target,
        },
        6 => FsOp::Stat { ino },
        7 => FsOp::Lookup { parent, name },
        8 => FsOp::Getattr { ino },
        9 => FsOp::Setattr { ino },
        10 => FsOp::Readdir { dir: parent },
        _ => FsOp::Access { ino },
    }
}

/// A global order over `procs` processes in which the owner of each op is
/// drawn from a small LCG, so the per-process queues fill unevenly.
fn trace(procs: u32, len: u64) -> Vec<TraceOp> {
    let mut x = 0x2545_f491_u64;
    (0..len)
        .map(|i| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let proc = ProcId::new((x >> 33) as u32 % procs, 0);
            // Skip the variant order along, so neighbours in one queue
            // are not always the same pair of sizes.
            let op = nth_op(i + (x >> 40) % 5);
            TraceOp { proc, op }
        })
        .collect()
}

fn feed(ops: Vec<TraceOp>, procs: u32) -> OpFeed {
    let total = ops.len() as u64;
    OpFeed::new(Box::new(VecStream::new(ops)), procs, total)
}

/// Four processes pulled at different rates: the slow ones' queues build
/// up while the fast ones drain theirs, and each queue's front and back
/// pass its ring's end many times over. What each process gets, in order,
/// is its subsequence of the op vector, all 12 variants included,
/// and `remaining()` drops by one for every op handed out.
#[test]
fn every_variant_comes_out_in_process_order_under_interleaved_pulls() {
    const PROCS: u32 = 4;
    let ops = trace(PROCS, 6_000);
    let mut want: Vec<Vec<FsOp>> = vec![Vec::new(); PROCS as usize];
    for t in &ops {
        want[t.proc.client.0 as usize].push(t.op);
    }
    let mut f = feed(ops, PROCS);
    let mut got: Vec<Vec<FsOp>> = vec![Vec::new(); PROCS as usize];
    let mut dry = [false; PROCS as usize];
    let mut left = f.remaining();
    assert_eq!(left, 6_000);
    let mut step = 0u64;
    while dry.iter().any(|d| !d) {
        step += 1;
        // Process p is asked every 5 - p steps, three times running in
        // one stretch of 16 steps out of 48: queues pile up and run dry.
        for p in 0..PROCS {
            if !step.is_multiple_of(u64::from(5 - p)) {
                continue;
            }
            let burst = if (step / 16) % 3 == u64::from(p % 3) {
                3
            } else {
                1
            };
            for _ in 0..burst {
                match f.next_for(p) {
                    Some(op) => {
                        got[p as usize].push(op);
                        left -= 1;
                        assert_eq!(f.remaining(), left, "after an op for {p}");
                    }
                    None => dry[p as usize] = true,
                }
            }
        }
    }
    assert_eq!(f.remaining(), 0);
    for p in 0..PROCS as usize {
        assert_eq!(got[p].len(), want[p].len(), "process {p}'s op count");
        assert!(got[p] == want[p], "process {p}'s ops differ");
        let variants: HashSet<_> = got[p].iter().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), 12, "process {p} saw every variant");
    }
}

/// `remaining()` is what `ClientTable::unfinished` and stuck-op accounting
/// read, so it counts ops: a 30-byte mutation and an 11-byte `Stat` are one
/// each, buffered or still in the source.
#[test]
fn remaining_counts_ops_not_bytes() {
    let op = |proc, op| TraceOp {
        proc: ProcId::new(proc, 0),
        op,
    };
    let ops = vec![
        op(1, nth_op(0)), // Create, 30 bytes
        op(1, nth_op(6)), // Stat, 11 bytes
        op(1, nth_op(7)), // Lookup, 20 bytes
        op(0, nth_op(4)), // Link
        op(1, nth_op(8)),
        op(0, nth_op(9)),
    ];
    let mut f = feed(ops, 2);
    // The pre-pull stops at the first op for process 0: four ops
    // buffered, two in the source.
    assert_eq!(f.remaining(), 6);
    assert_eq!(f.next_for(1), Some(nth_op(0)));
    assert_eq!(f.remaining(), 5);
    assert_eq!(f.next_for(1), Some(nth_op(6)));
    assert_eq!(f.next_for(1), Some(nth_op(7)));
    assert_eq!(f.remaining(), 3);
    // Process 1's last op is still in the source.
    assert_eq!(f.next_for(1), Some(nth_op(8)));
    assert_eq!(f.remaining(), 2);
    assert_eq!(f.next_for(1), None);
    assert_eq!(f.remaining(), 2);
    assert_eq!(f.next_for(0), Some(nth_op(4)));
    assert_eq!(f.next_for(0), Some(nth_op(9)));
    assert_eq!(f.next_for(0), None);
    assert_eq!(f.remaining(), 0);
}

/// One process has 10,000 `Stat`s queued behind another's first op, so
/// building the feed buffers them all. Packed, each is at most 3 bytes,
/// and a ring that grows by doubling holds at most twice what it carries:
/// 60,000 bytes. The codec's 9 bytes apiece would take 128 KiB of ring,
/// 32-byte `FsOp` slots 512 KiB.
#[test]
fn a_stat_backlog_costs_its_codec_bytes() {
    const N: u64 = 10_000;
    let mut ops: Vec<TraceOp> = (0..N)
        .map(|i| TraceOp {
            proc: ProcId::new(1, 0),
            op: FsOp::Stat { ino: InodeNo(i) },
        })
        .collect();
    ops.push(TraceOp {
        proc: ProcId::new(0, 0),
        op: FsOp::Stat { ino: InodeNo(N) },
    });
    let stream = Box::new(VecStream::new(ops));
    let before = live();
    let mut f = OpFeed::new(stream, 2, N + 1);
    let backlog = live() - before;
    let budget = (2 * 3 * N) as isize + 1_024;
    assert!(
        backlog <= budget,
        "{backlog} B of live heap for {N} buffered Stats, budget {budget}"
    );
    assert_eq!(f.remaining(), N + 1);
    for i in 0..N {
        assert_eq!(f.next_for(1), Some(FsOp::Stat { ino: InodeNo(i) }));
    }
    assert_eq!(f.next_for(1), None);
}

/// Two processes whose ops alternate in runs of one to three, asked in
/// turn: each queue holds a few ops at most, so after a warm-up its ring
/// has all the room it will need, and ops of 10 to 30 bytes keep
/// straddling its end. From then on, handing out an op — pulling the
/// source, packing, unpacking a wrapped op from its copy, decoding —
/// makes no allocation at all.
#[test]
fn a_warm_feed_hands_out_ops_without_allocating() {
    const OWNERS: [u32; 12] = [0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0];
    let ops = (0..12_000)
        .map(|i| TraceOp {
            proc: ProcId::new(OWNERS[i as usize % 12], 0),
            op: nth_op(i),
        })
        .collect();
    let mut f = feed(ops, 2);
    let mut next = |i: u32| f.next_for(i % 2).expect("6,000 ops a process");
    for i in 0..1_000 {
        next(i);
    }
    let before = allocs();
    for i in 0..10_000 {
        next(i);
    }
    let made = allocs() - before;
    assert_eq!(made, 0, "{made} allocations in 10,000 next_for calls");
}
