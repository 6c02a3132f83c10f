//! What an in-flight operation costs, counted.
//!
//! Cx delays commitment, so every server carries volatile state for each
//! executed-but-uncommitted sub-op. Two properties of that state, measured
//! as live heap bytes under a counting allocator on the protocol test kit
//! (two servers, instant disk, the test decides what the wire holds back):
//! a stalled peer costs a bounded number of bytes per operation, and steady
//! churn at a bounded number in flight costs nothing more as it goes on.
//!
//! The workload is Metarates' update mix on 64 files — each process creates
//! its file, removes it, creates it again — so the namespace stays put and
//! what the heap gains is in-flight state.

use cx_protocol::testkit::Kit;
use cx_types::{
    BatchTrigger, ClusterConfig, FileKind, FsOp, InodeNo, MsgKind, Name, OpOutcome, ProcId,
    Protocol,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live heap bytes of the calling thread's own allocations.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every call goes to `System` unchanged; the count is a thread-local
// `Cell` that has no destructor and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as isize));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ROOT: InodeNo = InodeNo(1);

/// A Cx cluster with an unlimited log, a batch trigger the test fires by
/// hand, every `VoteResult` held back until the test releases it and, per
/// process, one file whose entry and inode live on different servers.
fn kit(servers: u32, procs: u32) -> (Kit, Vec<(Name, InodeNo)>) {
    let mut cfg = ClusterConfig::new(servers, Protocol::Cx);
    cfg.cx.trigger = BatchTrigger::Timeout {
        period_ns: 10_000_000,
    };
    cfg.cx.log_limit_bytes = None;
    let mut kit = Kit::new(cfg);
    for s in kit.servers.iter_mut() {
        s.store_mut().seed_inode(ROOT, FileKind::Directory, 1);
    }
    kit.hold_if(|env| env.payload.kind() == MsgKind::VoteResult);
    let p = kit.placement;
    let files = (0..procs as u64)
        .map(|i| {
            let name = Name(1_000 + i);
            let ino = (10_000 + 100 * i..)
                .map(InodeNo)
                .find(|ino| p.inode_server(*ino) != p.dentry_server(ROOT, name))
                .expect("inodes are plentiful");
            (name, ino)
        })
        .collect();
    (kit, files)
}

/// The `n`th operation of the run: the next process in turn creates its
/// file or, if it exists, removes it.
fn run_nth(kit: &mut Kit, files: &[(Name, InodeNo)], n: u32) {
    let procs = files.len() as u32;
    let (proc, round) = (n % procs, n / procs);
    let (name, ino) = files[proc as usize];
    let (parent, target) = (ROOT, ino);
    let op = if round % 2 == 0 {
        FsOp::Create { parent, name, ino }
    } else {
        FsOp::Unlink {
            parent,
            name,
            target,
        }
    };
    let id = kit.run_op(ProcId::new(proc, 0), op);
    assert_eq!(kit.outcome(id), Some(OpOutcome::Applied), "op {n}");
    kit.outcomes.clear(); // the kit's own ledger is not engine state
}

fn assert_nothing_in_flight(kit: &mut Kit) {
    kit.stop_holding();
    kit.release_held();
    kit.run();
    kit.quiesce();
    for (i, s) in kit.servers.iter().enumerate() {
        assert!(s.is_quiesced(), "srv{i}: {}", s.debug_summary());
        assert_eq!(s.obs_gauges().active_objects, 0, "srv{i}");
    }
}

/// Live heap per in-flight half — an operation executed on one of its two
/// servers and not yet committed there — with 4,096 of them held: a pending
/// entry (152 B) and a log-index entry (136) in slabs that are exactly
/// full, their thin index slots (21 at half load, twice), the
/// Result-Record's slot (104), an active object, a share of batch and vote
/// vectors; 501 as measured. Hash tables of the fat entries, half full at
/// this count, measure 676.
const BUDGET: isize = 560;

/// A peer that stops answering votes (ROADMAP item 5's stalled peer):
/// operations keep executing, batches keep launching, nothing commits, and
/// every server holds its half of each operation.
#[test]
fn a_stalled_peer_costs_a_budgeted_heap_per_operation() {
    const IN_FLIGHT: u32 = 4_096;
    let (mut kit, files) = kit(2, 64);
    let before = live();
    for n in 0..IN_FLIGHT {
        run_nth(&mut kit, &files, n);
        if (n + 1) % 48 == 0 {
            kit.fire_timers(); // a batch of ~24 per coordinator
        }
    }
    let per_half = (live() - before) / (2 * IN_FLIGHT as isize);
    assert!(
        per_half <= BUDGET,
        "{per_half} B of live heap per in-flight half, budget {BUDGET}"
    );
    assert_nothing_in_flight(&mut kit);
}

/// Steady state on the benchmark's eight servers: a commitment round takes
/// one period, so one to two periods' operations are in flight, first in,
/// first out. What the engines hold for them must not grow with the number
/// gone by — as it does when buffers that once held a whole lazy queue go
/// back to the pool of batch-sized ones.
#[test]
fn steady_churn_holds_the_heap_flat() {
    const PERIOD: u32 = 1_000;
    let (mut kit, files) = kit(8, 256);
    let before = live();
    let mut early = 0;
    for n in 0..50_000 {
        run_nth(&mut kit, &files, n);
        if (n + 1) % PERIOD == 0 {
            kit.release_held(); // last period's votes arrive…
            kit.run();
            kit.fire_timers(); // …and this period's batches launch
        }
        if n + 1 == 5_000 {
            early = live() - before;
        }
    }
    let late = live() - before;
    assert!(
        late <= early + early / 20,
        "live heap {late} B after 50,000 ops, {early} B after 5,000"
    );
    assert_nothing_in_flight(&mut kit);
}
