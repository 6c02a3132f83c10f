//! Synthetic trace generation: [`TraceBuilder`] turns a Table II
//! [`TraceProfile`] into a [`StreamTrace`] whose ops are synthesized one
//! per pull. Conflict injection stacks on top of it
//! ([`StreamTrace::inject_conflicting_lookups`]).

use crate::model::NamespaceModel;
use crate::profile::TraceProfile;
use crate::stream::{OpStream, StreamTrace};
use cx_sim::det_rng;
use cx_types::rng::SmallRng;
use cx_types::{FsOp, InodeNo, Name, OpClass, ProcId};
use std::collections::VecDeque;

/// Root of the synthetic namespace.
pub const ROOT: InodeNo = InodeNo(1);
/// The common (shared) directory — the checkpoint directory of the
/// supercomputing traces, the shared project space of the NFS traces.
pub const SHARED_DIR: InodeNo = InodeNo(2);

/// Pre-existing namespace content to seed into the servers before replay.
/// Serializable so a multi-process TCP run can ship the seed list to
/// server processes in their launch config (`cx_net_server`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SeedEntry {
    Dir {
        ino: InodeNo,
    },
    File {
        parent: InodeNo,
        name: Name,
        ino: InodeNo,
    },
}

/// One replayed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    pub proc: ProcId,
    pub op: FsOp,
}

/// Builds a [`StreamTrace`] from a [`TraceProfile`].
#[derive(Clone)]
pub struct TraceBuilder {
    profile: TraceProfile,
    scale: f64,
    seed: u64,
}

/// Per-process generation state.
struct ProcState {
    dir: InodeNo,
    /// (parent, name, ino) of live files owned by this process.
    files: Vec<(InodeNo, Name, InodeNo)>,
    /// extra hard links owned by this process
    links: Vec<(InodeNo, Name, InodeNo)>,
    /// empty subdirectories available for rmdir
    empty_dirs: Vec<(InodeNo, Name, InodeNo)>,
}

impl TraceBuilder {
    pub fn new(profile: &TraceProfile) -> Self {
        Self {
            profile: *profile,
            scale: 1.0,
            seed: 0x7ace,
        }
    }

    /// Adjust the (copied) profile, e.g. to zero the sharing probability
    /// for conflict-free runs.
    pub fn tweak(mut self, f: impl FnOnce(&mut TraceProfile)) -> Self {
        f(&mut self.profile);
        self
    }

    /// Scale the total operation count (for quick runs and tests).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run the (cheap) namespace-seeding prelude eagerly so the header is
    /// available, then hand the generator state — rng, namespace model,
    /// per-process file lists — to a [`TraceStream`] that synthesizes one
    /// op per pull. Two streams from one builder yield the same sequence.
    pub fn stream(self) -> StreamTrace {
        let profile = self.profile;
        let total = ((profile.total_ops as f64 * self.scale).round() as u64).max(1);
        let procs = profile.processes;
        let rng = det_rng(self.seed, 0x7ace_0000);
        let mut model = NamespaceModel::new();
        let mut seeds = Vec::new();
        let mut roots = vec![ROOT, SHARED_DIR];

        model.add_dir(ROOT);
        model.add_dir(SHARED_DIR);
        seeds.push(SeedEntry::Dir { ino: ROOT });
        seeds.push(SeedEntry::Dir { ino: SHARED_DIR });

        // Per-process private directories plus a few pre-existing files so
        // early removes and stats have targets.
        let states: Vec<ProcState> = (0..procs)
            .map(|p| {
                let dir = model.fresh_ino();
                model.add_dir(dir);
                seeds.push(SeedEntry::Dir { ino: dir });
                roots.push(dir);
                let mut files = Vec::new();
                for _ in 0..12 {
                    let name = model.fresh_name();
                    let ino = model.fresh_ino();
                    seeds.push(SeedEntry::File {
                        parent: dir,
                        name,
                        ino,
                    });
                    model.apply(&FsOp::Create {
                        parent: dir,
                        name,
                        ino,
                    });
                    files.push((dir, name, ino));
                }
                let _ = p;
                ProcState {
                    dir,
                    files,
                    links: Vec::new(),
                    empty_dirs: Vec::new(),
                }
            })
            .collect();

        // Cumulative class weights for sampling.
        let classes: Vec<(OpClass, f64)> = OpClass::ALL
            .iter()
            .map(|c| (*c, profile.mix.weight(*c)))
            .collect();
        let weight_sum: f64 = classes.iter().map(|(_, w)| w).sum();

        StreamTrace {
            name: profile.name.to_string(),
            processes: procs,
            seeds,
            roots,
            total_ops_hint: total,
            ops: Box::new(TraceStream {
                profile,
                remaining: total,
                procs,
                rng,
                model,
                states,
                recent_shared: VecDeque::new(),
                classes,
                weight_sum,
            }),
        }
    }
}

/// The lazy generator behind [`TraceBuilder::stream`]: one synthesized
/// op per pull, with all namespace/validity state held internally.
pub struct TraceStream {
    profile: TraceProfile,
    remaining: u64,
    procs: u32,
    rng: SmallRng,
    model: NamespaceModel,
    states: Vec<ProcState>,
    /// Recently created shared files: conflict targets.
    recent_shared: VecDeque<(u32, InodeNo, Name, InodeNo)>,
    classes: Vec<(OpClass, f64)>,
    weight_sum: f64,
}

impl OpStream for TraceStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let p = self.rng.gen_range(0..self.procs);
        let class = pick_class(&self.classes, self.weight_sum, &mut self.rng);
        let op = synthesize(
            &self.profile,
            class,
            p,
            &mut self.states,
            &mut self.model,
            &mut self.recent_shared,
            &mut self.rng,
        );
        Some(TraceOp {
            proc: ProcId::new(p, 0),
            op,
        })
    }
}

fn pick_class(classes: &[(OpClass, f64)], sum: f64, rng: &mut SmallRng) -> OpClass {
    let mut x = rng.gen::<f64>() * sum;
    for (c, w) in classes {
        if x < *w {
            return *c;
        }
        x -= w;
    }
    OpClass::Stat
}

#[allow(clippy::too_many_arguments)]
fn synthesize(
    profile: &TraceProfile,
    class: OpClass,
    p: u32,
    states: &mut [ProcState],
    model: &mut NamespaceModel,
    recent_shared: &mut VecDeque<(u32, InodeNo, Name, InodeNo)>,
    rng: &mut SmallRng,
) -> FsOp {
    let create = |states: &mut [ProcState],
                  model: &mut NamespaceModel,
                  recent_shared: &mut VecDeque<(u32, InodeNo, Name, InodeNo)>,
                  rng: &mut SmallRng| {
        let shared = rng.gen::<f64>() < profile.shared_create_frac;
        let parent = if shared {
            SHARED_DIR
        } else {
            states[p as usize].dir
        };
        let name = model.fresh_name();
        let ino = model.fresh_ino();
        let op = FsOp::Create { parent, name, ino };
        model.apply(&op);
        states[p as usize].files.push((parent, name, ino));
        if shared {
            recent_shared.push_back((p, parent, name, ino));
            if recent_shared.len() > 512 {
                recent_shared.pop_front();
            }
        }
        op
    };

    match class {
        OpClass::Create => create(states, model, recent_shared, rng),
        OpClass::Remove | OpClass::Unlink => {
            // unlink an extra link if one exists, else remove a file
            if class == OpClass::Unlink {
                if let Some((parent, name, target)) = states[p as usize].links.pop() {
                    let op = FsOp::Unlink {
                        parent,
                        name,
                        target,
                    };
                    model.apply(&op);
                    return op;
                }
            }
            if states[p as usize].files.len() > 1 {
                let idx = rng.gen_range(0..states[p as usize].files.len());
                let (parent, name, ino) = states[p as usize].files.swap_remove(idx);
                let op = FsOp::Remove { parent, name, ino };
                model.apply(&op);
                op
            } else {
                create(states, model, recent_shared, rng)
            }
        }
        OpClass::Mkdir => {
            let parent = states[p as usize].dir;
            let name = model.fresh_name();
            let ino = model.fresh_ino();
            let op = FsOp::Mkdir { parent, name, ino };
            model.apply(&op);
            states[p as usize].empty_dirs.push((parent, name, ino));
            op
        }
        OpClass::Rmdir => {
            if let Some((parent, name, ino)) = states[p as usize].empty_dirs.pop() {
                let op = FsOp::Rmdir { parent, name, ino };
                model.apply(&op);
                op
            } else {
                let parent = states[p as usize].dir;
                let name = model.fresh_name();
                let ino = model.fresh_ino();
                let op = FsOp::Mkdir { parent, name, ino };
                model.apply(&op);
                states[p as usize].empty_dirs.push((parent, name, ino));
                op
            }
        }
        OpClass::Link => {
            if let Some(&(_, _, target)) = states[p as usize].files.last() {
                let parent = states[p as usize].dir;
                let name = model.fresh_name();
                let op = FsOp::Link {
                    parent,
                    name,
                    target,
                };
                model.apply(&op);
                states[p as usize].links.push((parent, name, target));
                op
            } else {
                create(states, model, recent_shared, rng)
            }
        }
        // Reads: mostly own files (the exclusive-dominated pattern of
        // §II-C); with `shared_access_prob`, a *recently created* shared
        // file of another process — the conflict-generating accesses.
        OpClass::Stat | OpClass::Getattr | OpClass::Access | OpClass::Setattr => {
            if rng.gen::<f64>() < profile.shared_access_prob {
                if let Some(&(owner, _, _, ino)) = pick_recent(recent_shared, p, rng) {
                    debug_assert_ne!(owner, p);
                    return match class {
                        OpClass::Setattr => FsOp::Setattr { ino },
                        OpClass::Getattr => FsOp::Getattr { ino },
                        OpClass::Access => FsOp::Access { ino },
                        _ => FsOp::Stat { ino },
                    };
                }
            }
            let ino = own_file(&states[p as usize], rng);
            match class {
                OpClass::Setattr => FsOp::Setattr { ino },
                OpClass::Getattr => FsOp::Getattr { ino },
                OpClass::Access => FsOp::Access { ino },
                _ => FsOp::Stat { ino },
            }
        }
        OpClass::Lookup => {
            if rng.gen::<f64>() < profile.shared_access_prob {
                if let Some(&(_, parent, name, _)) = pick_recent(recent_shared, p, rng) {
                    return FsOp::Lookup { parent, name };
                }
            }
            match rng.choose(&states[p as usize].files) {
                Some(&(parent, name, _)) => FsOp::Lookup { parent, name },
                None => FsOp::Readdir {
                    dir: states[p as usize].dir,
                },
            }
        }
        OpClass::Readdir => FsOp::Readdir {
            dir: states[p as usize].dir,
        },
    }
}

/// A recent shared file created by someone other than `p` (prefer the most
/// recent, which is the most likely to still be uncommitted).
fn pick_recent<'a>(
    recent: &'a VecDeque<(u32, InodeNo, Name, InodeNo)>,
    p: u32,
    rng: &mut SmallRng,
) -> Option<&'a (u32, InodeNo, Name, InodeNo)> {
    let window = 16.min(recent.len());
    if window == 0 {
        return None;
    }
    let start = recent.len() - window;
    (0..8).find_map(|_| {
        let idx = start + rng.gen_range(0..window);
        recent.get(idx).filter(|(owner, _, _, _)| *owner != p)
    })
}

fn own_file(state: &ProcState, rng: &mut SmallRng) -> InodeNo {
    rng.choose(&state.files)
        .map(|&(_, _, ino)| ino)
        .unwrap_or(SHARED_DIR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection_counts;
    use crate::profile::PROFILES;
    use crate::stats::TraceSummary;

    fn pull(st: &mut StreamTrace) -> Vec<TraceOp> {
        std::iter::from_fn(|| st.ops.next_op()).collect()
    }

    fn small_trace(name: &str) -> StreamTrace {
        TraceBuilder::new(profile_by(name)).scale(0.01).stream()
    }

    fn profile_by(name: &str) -> &'static TraceProfile {
        TraceProfile::by_name(name).unwrap()
    }

    #[test]
    fn trace_sizes_scale() {
        let ops = pull(&mut small_trace("CTH"));
        let expect = (505_247f64 * 0.01).round() as usize;
        assert_eq!(ops.len(), expect);
    }

    #[test]
    fn traces_are_deterministic() {
        let mut a = TraceBuilder::new(profile_by("home2")).scale(0.002).stream();
        let mut b = TraceBuilder::new(profile_by("home2")).scale(0.002).stream();
        let a_ops = pull(&mut a);
        assert_eq!(a_ops, pull(&mut b));
        assert_eq!(a.seeds, b.seeds);
        let mut c = TraceBuilder::new(profile_by("home2"))
            .scale(0.002)
            .seed(99)
            .stream();
        assert_ne!(a_ops, pull(&mut c), "different seed, different trace");
    }

    #[test]
    fn class_shares_track_the_mix() {
        let profile = profile_by("s3d");
        let summary = TraceSummary::analyze(TraceBuilder::new(profile).scale(0.05).stream(), 8);
        let share = |class: OpClass| {
            summary
                .class_shares
                .get(class.name())
                .copied()
                .unwrap_or(0.0)
        };
        // creates dominate s3d; fallbacks inflate them slightly
        let create_share = share(OpClass::Create);
        let expect = profile.mix.share(OpClass::Create);
        assert!(
            (create_share - expect).abs() < 0.08,
            "create share {create_share} vs mix {expect}"
        );
        assert!(share(OpClass::Lookup) > 0.05);
    }

    #[test]
    fn per_process_mutations_are_valid_in_order() {
        // Replaying each op against a model in global order must never
        // hit an invalid mutation (the generator's core guarantee).
        let mut t = small_trace("deasna2");
        let mut m = NamespaceModel::new();
        for s in &t.seeds {
            match *s {
                SeedEntry::Dir { ino } => m.add_dir(ino),
                SeedEntry::File { parent, name, ino } => {
                    m.apply(&FsOp::Create { parent, name, ino })
                }
            }
        }
        for top in pull(&mut t) {
            m.apply(&top.op); // panics if invalid
        }
    }

    #[test]
    fn every_profile_builds() {
        for p in &PROFILES {
            let mut t = TraceBuilder::new(p).scale(0.001).stream();
            assert!(!pull(&mut t).is_empty());
            assert_eq!(t.processes, p.processes);
            assert!(t.seeds.len() > 2);
        }
    }

    /// `small_trace(name)` with `ratio` injected lookups, normalized by a
    /// counting pass over a second stream (as `Workload::stream` does).
    fn injected(name: &str, ratio: f64, seed: u64) -> Vec<TraceOp> {
        let (total, injectable) = injection_counts(small_trace(name));
        pull(&mut small_trace(name).inject_conflicting_lookups(ratio, seed, total, injectable))
    }

    #[test]
    fn injection_adds_lookups_after_mutations() {
        let base = pull(&mut small_trace("home2"));
        let before = base.len();
        let mutations = base.iter().filter(|o| o.op.is_mutation()).count();
        let ops = injected("home2", 0.05, 1);
        let added = ops.len() - before;
        let target = (before as f64 * 0.05) as usize;
        assert!(
            added as f64 > target as f64 * 0.5
                && added as f64 <= (target as f64 * 1.5 + mutations as f64),
            "added {added} lookups for target {target}"
        );
        // injected lookups follow a mutation by a different process
        let mut prev: Option<&TraceOp> = None;
        let mut seen_injected = 0;
        for op in &ops {
            if let (FsOp::Lookup { .. }, Some(prev_op)) = (&op.op, prev) {
                if prev_op.op.is_mutation() && prev_op.proc != op.proc {
                    seen_injected += 1;
                }
            }
            prev = Some(op);
        }
        assert!(seen_injected > 0);
    }

    #[test]
    fn zero_injection_is_identity() {
        let before = pull(&mut small_trace("CTH"));
        assert_eq!(injected("CTH", 0.0, 1), before);
    }
}
