//! Synthetic trace generation: [`TraceBuilder`] turns a Table II
//! [`TraceProfile`] into a [`StreamTrace`] whose ops are synthesized one
//! per pull. Conflict injection stacks on top of it
//! ([`StreamTrace::inject_conflicting_lookups`]).

use crate::profile::TraceProfile;
use crate::stream::{OpStream, StreamTrace};
use cx_types::rng::{det_rng, SmallRng};
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
    /// available, then hand the generator state — rng, fresh-identity
    /// counters, per-process lists — to a [`TraceStream`] that synthesizes
    /// one op per pull. Two streams from one builder yield the same sequence.
    pub fn stream(self) -> StreamTrace {
        let profile = self.profile;
        let total = ((profile.total_ops as f64 * self.scale).round() as u64).max(1);
        let procs = profile.processes;
        let rng = det_rng(self.seed, 0x7ace_0000);
        let mut fresh = Fresh { ino: 1000, name: 1 };
        let mut seeds = vec![
            SeedEntry::Dir { ino: ROOT },
            SeedEntry::Dir { ino: SHARED_DIR },
        ];
        let mut roots = vec![ROOT, SHARED_DIR];

        // Per-process private directories plus a few pre-existing files so
        // early removes and stats have targets.
        let states: Vec<ProcState> = (0..procs)
            .map(|_| {
                let dir = fresh.ino();
                seeds.push(SeedEntry::Dir { ino: dir });
                roots.push(dir);
                let files = (0..12)
                    .map(|_| {
                        let (name, ino) = (fresh.name(), fresh.ino());
                        seeds.push(SeedEntry::File {
                            parent: dir,
                            name,
                            ino,
                        });
                        (dir, name, ino)
                    })
                    .collect();
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
                fresh,
                states,
                recent_shared: VecDeque::new(),
                classes,
                weight_sum,
            }),
        }
    }
}

/// The generator's identity counters. Every created inode and name is
/// new, and each op is built from a process's own lists, so the stream
/// is valid without a model of the namespace; `NamespaceModel` checks
/// that in the tests.
struct Fresh {
    ino: u64,
    name: u64,
}

impl Fresh {
    fn ino(&mut self) -> InodeNo {
        self.ino += 1;
        InodeNo(self.ino)
    }

    fn name(&mut self) -> Name {
        self.name += 1;
        Name(self.name)
    }
}

/// The lazy generator behind [`TraceBuilder::stream`]: one synthesized
/// op per pull, decided by the rng and the per-process lists alone.
pub struct TraceStream {
    profile: TraceProfile,
    remaining: u64,
    procs: u32,
    rng: SmallRng,
    fresh: Fresh,
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
        let op = self.synthesize(class, p);
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

impl TraceStream {
    fn synthesize(&mut self, class: OpClass, p: u32) -> FsOp {
        let prob = self.profile.shared_access_prob;
        let st = &mut self.states[p as usize];
        match class {
            OpClass::Create => self.create(p),
            OpClass::Remove | OpClass::Unlink => {
                // unlink an extra link if one exists, else remove a file
                if class == OpClass::Unlink {
                    if let Some((parent, name, target)) = st.links.pop() {
                        return FsOp::Unlink {
                            parent,
                            name,
                            target,
                        };
                    }
                }
                if st.files.len() > 1 {
                    let idx = self.rng.gen_range(0..st.files.len());
                    let (parent, name, ino) = st.files.swap_remove(idx);
                    FsOp::Remove { parent, name, ino }
                } else {
                    self.create(p)
                }
            }
            OpClass::Mkdir => self.mkdir(p),
            OpClass::Rmdir => match st.empty_dirs.pop() {
                Some((parent, name, ino)) => FsOp::Rmdir { parent, name, ino },
                None => self.mkdir(p),
            },
            OpClass::Link => match st.files.last() {
                Some(&(_, _, target)) => {
                    let (parent, name) = (st.dir, self.fresh.name());
                    st.links.push((parent, name, target));
                    FsOp::Link {
                        parent,
                        name,
                        target,
                    }
                }
                None => self.create(p),
            },
            // Reads: mostly own files (the exclusive-dominated pattern of
            // §II-C); with `shared_access_prob`, a *recently created* shared
            // file of another process — the conflict-generating accesses.
            OpClass::Stat | OpClass::Getattr | OpClass::Access | OpClass::Setattr => {
                let ino = match pick_shared(&self.recent_shared, p, prob, &mut self.rng) {
                    Some((_, _, _, ino)) => ino,
                    None => own_file(st, &mut self.rng),
                };
                match class {
                    OpClass::Setattr => FsOp::Setattr { ino },
                    OpClass::Getattr => FsOp::Getattr { ino },
                    OpClass::Access => FsOp::Access { ino },
                    _ => FsOp::Stat { ino },
                }
            }
            OpClass::Lookup => {
                if let Some((_, parent, name, _)) =
                    pick_shared(&self.recent_shared, p, prob, &mut self.rng)
                {
                    return FsOp::Lookup { parent, name };
                }
                match self.rng.choose(&st.files) {
                    Some(&(parent, name, _)) => FsOp::Lookup { parent, name },
                    None => FsOp::Readdir { dir: st.dir },
                }
            }
            OpClass::Readdir => FsOp::Readdir { dir: st.dir },
        }
    }

    /// A new file in `p`'s own directory or, with `shared_create_frac`,
    /// in the shared one, where it becomes a conflict target.
    fn create(&mut self, p: u32) -> FsOp {
        let shared = self.rng.gen::<f64>() < self.profile.shared_create_frac;
        let st = &mut self.states[p as usize];
        let parent = if shared { SHARED_DIR } else { st.dir };
        let (name, ino) = (self.fresh.name(), self.fresh.ino());
        st.files.push((parent, name, ino));
        if shared {
            self.recent_shared.push_back((p, parent, name, ino));
            if self.recent_shared.len() > 512 {
                self.recent_shared.pop_front();
            }
        }
        FsOp::Create { parent, name, ino }
    }

    /// A new, empty subdirectory of `p`'s directory.
    fn mkdir(&mut self, p: u32) -> FsOp {
        let st = &mut self.states[p as usize];
        let (parent, name, ino) = (st.dir, self.fresh.name(), self.fresh.ino());
        st.empty_dirs.push((parent, name, ino));
        FsOp::Mkdir { parent, name, ino }
    }
}

/// With probability `prob`, a recent shared file created by someone other
/// than `p` (prefer the most recent, which is the most likely to still be
/// uncommitted).
fn pick_shared(
    recent: &VecDeque<(u32, InodeNo, Name, InodeNo)>,
    p: u32,
    prob: f64,
    rng: &mut SmallRng,
) -> Option<(u32, InodeNo, Name, InodeNo)> {
    if rng.gen::<f64>() >= prob {
        return None;
    }
    let window = 16.min(recent.len());
    if window == 0 {
        return None;
    }
    let start = recent.len() - window;
    (0..8).find_map(|_| {
        let idx = start + rng.gen_range(0..window);
        recent
            .get(idx)
            .copied()
            .filter(|(owner, _, _, _)| *owner != p)
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
