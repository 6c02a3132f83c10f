//! What the trace generator emits is valid, and what it holds to emit it.
//!
//! `TraceStream` keeps no model of the namespace: it decides every op from
//! the rng and each process's own lists of files, links and empty
//! directories, and names every new inode and entry from a counter. These
//! tests replay its streams, seeds first, through `NamespaceModel`, which
//! panics on the first op that could not succeed; and they bound the heap
//! the generator holds while the benchmark's home2 input is pulled.

#[path = "kit/counting.rs"]
mod counting;

use cx_types::FsOp;
use cx_workloads::{NamespaceModel, SeedEntry, StreamTrace, TraceBuilder, TraceProfile, PROFILES};

/// The benchmark's `des-home2` input: rep 0 of its default seed, at its
/// full size.
fn benchmark_home2() -> StreamTrace {
    TraceBuilder::new(TraceProfile::by_name("home2").expect("a Table II profile"))
        .tweak(|p| p.shared_access_prob = 0.0)
        .scale(0.32)
        .seed(7000)
        .stream()
}

/// Replay `st`'s seeds and then every op it yields through the oracle;
/// returns the number of mutations applied.
fn replay(mut st: StreamTrace, ctx: &str) -> u64 {
    let mut m = NamespaceModel::default();
    for s in &st.seeds {
        match *s {
            SeedEntry::Dir { ino } => m.add_dir(ino),
            SeedEntry::File { parent, name, ino } => m.apply(&FsOp::Create { parent, name, ino }),
        }
    }
    let mut mutations = 0;
    while let Some(t) = st.ops.next_op() {
        let op = t.op;
        mutations += u64::from(op.is_mutation());
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.apply(&op)));
        assert!(applied.is_ok(), "{ctx}: invalid {op:?} by {:?}", t.proc);
    }
    mutations
}

/// Every Table II profile at two seeds, with its sharing probability and
/// with none: each mutation is valid in global order.
#[test]
fn every_profile_emits_only_valid_mutations() {
    for profile in &PROFILES {
        for seed in [0x7ace, 7] {
            for shared in [profile.shared_access_prob, 0.0] {
                let st = TraceBuilder::new(profile)
                    .tweak(|p| p.shared_access_prob = shared)
                    .scale(0.01)
                    .seed(seed)
                    .stream();
                let ctx = format!("{} seed {seed} shared {shared}", profile.name);
                assert!(replay(st, &ctx) > 0, "{ctx}: no mutation replayed");
            }
        }
    }
}

/// The benchmark's home2 input, all 870,592 ops of it.
#[test]
fn benchmark_home2_input_is_valid() {
    assert!(replay(benchmark_home2(), "des-home2 seed 7000") > 0);
}

/// The generator's own peak heap while the benchmark's home2 input is
/// built and pulled to the end: its header (the seed list), the rng and
/// the per-process lists. It read 1,182,093 B while the generator also
/// kept a `NamespaceModel` of every live file and entry, and 366,413 B
/// without.
#[test]
fn home2_generator_heap_peak_stays_under_budget() {
    const BUDGET: isize = 384 << 10;
    counting::reset_peak();
    let base = counting::live();
    let mut st = benchmark_home2();
    let mut ops = 0u64;
    while st.ops.next_op().is_some() {
        ops += 1;
    }
    let peak = counting::peak() - base;
    assert_eq!(ops, st.total_ops_hint);
    assert!(
        peak <= BUDGET,
        "{peak} B peak heap generating {ops} ops, budget {BUDGET}"
    );
}
