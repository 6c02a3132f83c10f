//! What the trace generator emits is valid, and what it holds to emit it.
//!
//! `TraceStream` keeps no model of the namespace: it decides every op from
//! the rng and each process's own lists of files, links and empty
//! directories, and names every new inode and entry from a counter. These
//! tests replay its streams, and Metarates', seeds first, through
//! `NamespaceModel` and fail on the first op that could not succeed; and
//! they bound the heap the generator holds while the benchmark's home2
//! input is pulled.

#[path = "kit/counting.rs"]
mod counting;

use cx_types::{FileKind, FsOp, InodeNo, Name};
use cx_workloads::{
    Metarates, MetaratesMix, NamespaceModel, SeedEntry, StreamTrace, TraceBuilder, TraceProfile,
    PROFILES,
};

/// The benchmark's `des-home2` input: rep 0 of its default seed, at its
/// full size.
fn benchmark_home2() -> StreamTrace {
    TraceBuilder::new(TraceProfile::by_name("home2").expect("a Table II profile"))
        .tweak(|p| p.shared_access_prob = 0.0)
        .scale(0.32)
        .seed(7000)
        .stream()
}

/// What a generated op must satisfy beyond the model's own semantics
/// (a trace replays what real applications did, so it names an entry only
/// in a live directory, removes, links and unlinks only regular files, and
/// removes only empty directories), read off the model before `op` runs.
fn generated_op_is_sane(m: &NamespaceModel, op: &FsOp) -> Result<(), &'static str> {
    let kind = |ino| m.inode(ino).map(|(kind, _)| kind);
    let (parent, ino) = match *op {
        FsOp::Create { parent, .. } | FsOp::Mkdir { parent, .. } => (parent, None),
        FsOp::Remove { parent, ino, .. }
        | FsOp::Link {
            parent,
            target: ino,
            ..
        }
        | FsOp::Unlink {
            parent,
            target: ino,
            ..
        } => (parent, Some(ino)),
        FsOp::Rmdir { parent, ino, .. } => {
            if kind(ino) != Some(FileKind::Directory) {
                return Err("rmdir of a non-directory");
            }
            if m.entries(ino).next().is_some() {
                return Err("rmdir of a non-empty directory");
            }
            (parent, None)
        }
        _ => return Ok(()),
    };
    if kind(parent) != Some(FileKind::Directory) {
        return Err("parent is not a live directory");
    }
    if ino.is_some_and(|ino| kind(ino) != Some(FileKind::Regular)) {
        return Err("target is not a regular file");
    }
    Ok(())
}

/// Replay `st`'s seeds (its directories, then its files as creates) and
/// every mutation it yields through the model, and assert each one sane
/// and applied; returns the number of mutations replayed.
fn replay(mut st: StreamTrace, ctx: &str) -> u64 {
    let (dirs, files): (Vec<SeedEntry>, Vec<SeedEntry>) = st
        .seeds
        .iter()
        .partition(|s| matches!(s, SeedEntry::Dir { .. }));
    let mut m = NamespaceModel::from_seeds(&dirs);
    let mut apply = |op: FsOp, by: &dyn std::fmt::Debug| {
        let applied = generated_op_is_sane(&m, &op).and_then(|()| m.apply(&op));
        assert_eq!(applied, Ok(()), "{ctx}: invalid {op:?} by {by:?}");
    };
    for s in files {
        if let SeedEntry::File { parent, name, ino } = s {
            apply(FsOp::Create { parent, name, ino }, &"the seeds");
        }
    }
    let mut mutations = 0;
    while let Some(t) = st.ops.next_op() {
        // A trace may read what is gone, as applications do.
        if t.op.is_mutation() {
            mutations += 1;
            apply(t.op, &t.proc);
        }
    }
    mutations
}

/// Each rule refuses what it names, on a namespace of a root directory
/// holding a file, a directory and, in that directory, a second file.
#[test]
fn each_rule_refuses_what_a_trace_never_does() {
    let (root, file, dir, inner) = (InodeNo(1), InodeNo(10), InodeNo(11), InodeNo(12));
    let mut m = NamespaceModel::from_seeds(&[
        SeedEntry::Dir { ino: root },
        SeedEntry::File {
            parent: root,
            name: Name(1),
            ino: file,
        },
    ]);
    for op in [
        FsOp::Mkdir {
            parent: root,
            name: Name(2),
            ino: dir,
        },
        FsOp::Create {
            parent: dir,
            name: Name(3),
            ino: inner,
        },
    ] {
        assert_eq!(
            generated_op_is_sane(&m, &op).and_then(|()| m.apply(&op)),
            Ok(())
        );
    }
    let refused = [
        (
            FsOp::Create {
                parent: file,
                name: Name(4),
                ino: InodeNo(13),
            },
            "parent is not a live directory",
        ),
        (
            FsOp::Mkdir {
                parent: InodeNo(99),
                name: Name(4),
                ino: InodeNo(13),
            },
            "parent is not a live directory",
        ),
        (
            FsOp::Remove {
                parent: root,
                name: Name(2),
                ino: dir,
            },
            "target is not a regular file",
        ),
        (
            FsOp::Link {
                parent: root,
                name: Name(4),
                target: dir,
            },
            "target is not a regular file",
        ),
        (
            FsOp::Unlink {
                parent: root,
                name: Name(2),
                target: dir,
            },
            "target is not a regular file",
        ),
        (
            FsOp::Rmdir {
                parent: root,
                name: Name(1),
                ino: file,
            },
            "rmdir of a non-directory",
        ),
        (
            FsOp::Rmdir {
                parent: root,
                name: Name(2),
                ino: dir,
            },
            "rmdir of a non-empty directory",
        ),
    ];
    for (op, why) in refused {
        assert_eq!(generated_op_is_sane(&m, &op), Err(why), "{op:?}");
    }
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

/// Metarates' update-dominated mix from 4 ranks over 40 seed files, 200
/// ops a rank: every create and remove in the common directory is valid in
/// the global round-robin order.
#[test]
fn metarates_emits_only_valid_mutations() {
    let st = Metarates::new(MetaratesMix::UpdateDominated, 4)
        .seed_files(40)
        .ops_per_proc(200)
        .stream();
    assert!(replay(st, "metarates update 4x200") > 0);
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
