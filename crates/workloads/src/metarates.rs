//! The Metarates-like benchmark workload (§IV-B).
//!
//! "We emulated two typical workloads using Metarates: (1) a read-dominated
//! workload, which consists of 20% updates and 80% stats … (2) a
//! update-dominated workload, which consists of 80% updates and 20% stats.
//! … the update and stat operations in these workloads are designed to
//! concurrently create/remove zero-bytes files in a common directory, and
//! to concurrently stat the generated files, respectively."
//!
//! Each process works on its own file names within the common directory
//! (MPI ranks in Metarates operate on rank-private files), which matches
//! the exclusive-dominated pattern of the paper's conflict analysis.
//! Sequential inode allocation makes the directory's metadata objects
//! "sequentially placed on disk", the property that lets batched
//! write-back approach peak bandwidth (§IV-C2).

use crate::stream::{OpStream, StreamTrace};
use crate::trace::{SeedEntry, TraceOp, ROOT, SHARED_DIR};
use cx_types::rng::{det_rng, SmallRng};
use cx_types::{FsOp, InodeNo, Name, ProcId};

/// The two §IV-B mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaratesMix {
    /// 20% updates / 80% stats.
    ReadDominated,
    /// 80% updates / 20% stats.
    UpdateDominated,
}

impl MetaratesMix {
    pub fn update_fraction(&self) -> f64 {
        match self {
            MetaratesMix::ReadDominated => 0.2,
            MetaratesMix::UpdateDominated => 0.8,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            MetaratesMix::ReadDominated => "read-dominated",
            MetaratesMix::UpdateDominated => "update-dominated",
        }
    }
}

/// Metarates workload builder.
#[derive(Debug, Clone)]
pub struct Metarates {
    pub mix: MetaratesMix,
    /// Total client processes (paper: 8 per client node, 4 client nodes
    /// per server).
    pub processes: u32,
    /// Pre-created files in the common directory ("a single server
    /// manages 40,000 files in a directory"; scale down for tests).
    pub seed_files: u32,
    /// Operations issued per process.
    pub ops_per_proc: u32,
    pub seed: u64,
}

impl Metarates {
    pub fn new(mix: MetaratesMix, processes: u32) -> Self {
        Self {
            mix,
            processes,
            seed_files: 4_000,
            ops_per_proc: 400,
            seed: 0x3e7a,
        }
    }

    pub fn seed_files(mut self, n: u32) -> Self {
        self.seed_files = n;
        self
    }

    pub fn ops_per_proc(mut self, n: u32) -> Self {
        self.ops_per_proc = n;
        self
    }

    /// The cheap header (seeds, per-rank owned lists) is built eagerly,
    /// the ops are synthesized one per pull by a [`MetaratesStream`].
    ///
    /// The rng is drawn rank by rank (all of rank 0's ops before rank
    /// 1's) while the global order interleaves ranks round-robin, so rank
    /// `p`'s first op needs the rng and name-counter state *after* ranks
    /// `0..p`. A positioning pass ([`skip_rank`]) recovers it: it consumes
    /// exactly the draws generation makes — [`draw`] depends on the owned
    /// list's length only — and snapshots the state at each rank boundary.
    /// CPU for memory, as [`crate::stream::injection_counts`] does; the
    /// last rank positions nobody, so one-rank inputs pay nothing.
    pub fn stream(&self) -> StreamTrace {
        let total = self.processes as u64 * self.ops_per_proc as u64;
        // Files are numbered from 1 and the counter rests one past the last.
        assert!(
            self.seed_files as u64 + total < u32::MAX as u64,
            "{} seed files + {total} ops could create more files than the u32 file number holds",
            self.seed_files
        );
        let mut rng = det_rng(self.seed, 0x3e7a_0000);
        let mut seeds = Vec::with_capacity(2 + self.seed_files as usize);
        seeds.extend([
            SeedEntry::Dir { ino: ROOT },
            SeedEntry::Dir { ino: SHARED_DIR },
        ]);

        // Pre-populate the common directory, round-robin over processes so
        // each rank owns an equal slice: the first `seed_files % processes`
        // ranks one file more than the floor. A list is allocated once, at
        // the power of two that pushing its seeds would have grown it to:
        // one sized to its seeds alone doubles on the rank's first create,
        // which the cluster draws while the seed list is still live.
        let floor = (self.seed_files / self.processes.max(1)) as usize;
        let extra = (self.seed_files % self.processes.max(1)) as usize;
        let mut owned: Vec<Vec<u32>> = (0..self.processes as usize)
            .map(|p| Vec::with_capacity((floor + (p < extra) as usize).next_power_of_two()))
            .collect();
        let mut next_file = FIRST_FILE;
        for k in 0..self.seed_files {
            let (name, ino) = file(next_file);
            seeds.push(SeedEntry::File {
                parent: SHARED_DIR,
                name,
                ino,
            });
            owned[(k % self.processes) as usize].push(next_file);
            next_file += 1;
        }

        let update_fraction = self.mix.update_fraction();
        let mut ranks = Vec::with_capacity(self.processes as usize);
        for (p, owned) in owned.into_iter().enumerate() {
            let len = owned.len();
            ranks.push(RankGen {
                rng: rng.clone(),
                next_file,
                owned,
            });
            if p + 1 == self.processes as usize {
                break; // the last rank positions nobody
            }
            next_file += skip_rank(&mut rng, self.ops_per_proc, update_fraction, floor, len);
        }

        StreamTrace {
            name: format!("metarates-{}", self.mix.name()),
            processes: self.processes,
            seeds,
            roots: vec![ROOT, SHARED_DIR],
            total_ops_hint: total,
            ops: Box::new(MetaratesStream {
                update_fraction,
                floor,
                ranks,
                next_rank: 0,
                remaining: total,
            }),
        }
    }
}

/// The common directory's files are numbered from 1 in creation order
/// (seeds first): file `k` is named `k` and owns inode `9_999 + k`, so the
/// directory's metadata objects sit sequentially on disk.
const FIRST_FILE: u32 = 1;

fn file(k: u32) -> (Name, InodeNo) {
    (Name(k as u64), InodeNo(9_999 + k as u64))
}

/// One op's random choices, as a function of the rank's owned-list
/// *length* alone — which is what lets the positioning pass
/// ([`skip_rank`]) consume a rank's draws without its list. The two must
/// draw alike: `reference_build`'s property test holds them to it.
enum Draw {
    Create,
    /// Remove the owned file at this index (`swap_remove`).
    Remove(usize),
    /// Stat the owned file at this index; `None` when the rank owns none.
    Stat(Option<usize>),
}

fn draw(rng: &mut SmallRng, update_fraction: f64, floor: usize, len: usize) -> Draw {
    if rng.gen::<f64>() < update_fraction {
        // update: create / remove at random above the seeded floor to
        // keep the population stable
        if len > floor && rng.gen_bool(0.5) {
            Draw::Remove(rng.gen_range(0..len))
        } else {
            Draw::Create
        }
    } else if len == 0 {
        Draw::Stat(None)
    } else {
        Draw::Stat(Some(rng.gen_range(0..len)))
    }
}

/// Draws the positioning pass classifies per refill.
const BLOCK: usize = 256;

/// Advance `rng` past one rank's `ops` ops, from an owned list of `len`
/// files, exactly as [`draw`] would; returns how many of them create.
///
/// Every draw [`draw`] makes is one `next_u64` (the precondition
/// `SmallRng` documents), so the pass classifies the next [`BLOCK`] draws
/// of a clone up front, two bits each: `x < update_fraction` (read as an
/// op's first draw: update or stat) and `x < 0.5` (read as an update's
/// second draw: the remove coin). It then walks the ops without branches:
/// an op takes `n = 1 + u·(above + rm) + (1 − u)·[len > 0]` draws, where
/// `u` is the update bit, `above` is `len > floor` and `rm` is
/// `u·above·coin`. An op draws at most three times; with fewer left in the
/// block, the real rng advances by the draws consumed and the block
/// refills.
fn skip_rank(
    rng: &mut SmallRng,
    ops: u32,
    update_fraction: f64,
    floor: usize,
    mut len: usize,
) -> u32 {
    let mut codes = [0u8; BLOCK];
    let (mut left, mut created) = (ops, 0);
    while left > 0 {
        let mut ahead = rng.clone();
        for code in &mut codes {
            let x = ahead.gen::<f64>();
            *code = (x < update_fraction) as u8 | ((x < 0.5) as u8) << 1;
        }
        let mut j = 0;
        while left > 0 && j + 3 <= BLOCK {
            let u = (codes[j] & 1) as usize;
            let above = (len > floor) as usize;
            let rm = u & above & (codes[j + 1] >> 1) as usize;
            let create = u - rm;
            j += 1 + u * (above + rm) + (1 - u) * (len > 0) as usize;
            len = len + create - rm;
            created += create as u32;
            left -= 1;
        }
        for _ in 0..j {
            rng.next_u64();
        }
    }
    created
}

/// One rank's generator state, positioned at its first op.
struct RankGen {
    rng: SmallRng,
    next_file: u32,
    /// The rank's live files by number: [`file`] derives name and inode.
    owned: Vec<u32>,
}

/// The lazy generator behind [`Metarates::stream`]: closed-loop per-rank
/// streams, interleaved round-robin so the global order mixes processes
/// the way concurrent replay does.
struct MetaratesStream {
    update_fraction: f64,
    floor: usize,
    ranks: Vec<RankGen>,
    next_rank: usize,
    remaining: u64,
}

impl OpStream for MetaratesStream {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let p = self.next_rank;
        self.next_rank = (p + 1) % self.ranks.len();
        let rank = &mut self.ranks[p];
        let op = match draw(
            &mut rank.rng,
            self.update_fraction,
            self.floor,
            rank.owned.len(),
        ) {
            Draw::Create => {
                let (name, ino) = file(rank.next_file);
                rank.owned.push(rank.next_file);
                rank.next_file += 1;
                FsOp::Create {
                    parent: SHARED_DIR,
                    name,
                    ino,
                }
            }
            Draw::Remove(idx) => {
                let (name, ino) = file(rank.owned.swap_remove(idx));
                FsOp::Remove {
                    parent: SHARED_DIR,
                    name,
                    ino,
                }
            }
            // stat a generated file of this rank
            Draw::Stat(idx) => FsOp::Stat {
                ino: file(idx.map_or(FIRST_FILE, |i| rank.owned[i])).1,
            },
        };
        Some(TraceOp {
            proc: ProcId::new(p as u32, 0),
            op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::check::check;

    /// What [`reference_build`] returns: a stream's header plus every op.
    struct Reference {
        name: String,
        processes: u32,
        seeds: Vec<SeedEntry>,
        ops: Vec<TraceOp>,
        roots: Vec<InodeNo>,
    }

    /// The oracle: the eager two-vector generator Metarates was until the
    /// stream became lazy, verbatim. [`Metarates::stream`] must reproduce
    /// its seeds and ops exactly — the benchmark's digest pins and every
    /// Figure 6 number hang off this sequence.
    fn reference_build(m: &Metarates) -> Reference {
        let mut rng = det_rng(m.seed, 0x3e7a_0000);
        let mut seeds = vec![
            SeedEntry::Dir { ino: ROOT },
            SeedEntry::Dir { ino: SHARED_DIR },
        ];
        let mut next_ino = 10_000u64;
        let mut next_name = 1u64;

        // Pre-populate the common directory, round-robin over processes so
        // each rank owns an equal slice.
        let mut owned: Vec<Vec<(Name, InodeNo)>> = (0..m.processes).map(|_| Vec::new()).collect();
        for k in 0..m.seed_files {
            let name = Name(next_name);
            next_name += 1;
            let ino = InodeNo(next_ino);
            next_ino += 1;
            seeds.push(SeedEntry::File {
                parent: SHARED_DIR,
                name,
                ino,
            });
            owned[(k % m.processes) as usize].push((name, ino));
        }

        // Closed-loop streams, interleaved round-robin so the global order
        // mixes processes the way concurrent replay does.
        let mut streams: Vec<Vec<FsOp>> = Vec::with_capacity(m.processes as usize);
        for p in 0..m.processes {
            let mut ops = Vec::with_capacity(m.ops_per_proc as usize);
            for _ in 0..m.ops_per_proc {
                if rng.gen::<f64>() < m.mix.update_fraction() {
                    // update: alternate create / remove to keep the
                    // population stable
                    let remove = owned[p as usize].len() > (m.seed_files / m.processes) as usize
                        && rng.gen_bool(0.5);
                    if remove {
                        let idx = rng.gen_range(0..owned[p as usize].len());
                        let (name, ino) = owned[p as usize].swap_remove(idx);
                        ops.push(FsOp::Remove {
                            parent: SHARED_DIR,
                            name,
                            ino,
                        });
                    } else {
                        let name = Name(next_name);
                        next_name += 1;
                        let ino = InodeNo(next_ino);
                        next_ino += 1;
                        owned[p as usize].push((name, ino));
                        ops.push(FsOp::Create {
                            parent: SHARED_DIR,
                            name,
                            ino,
                        });
                    }
                } else {
                    // stat a generated file of this rank
                    let (_, ino) = rng
                        .choose(&owned[p as usize])
                        .copied()
                        .unwrap_or((Name(1), InodeNo(10_000)));
                    ops.push(FsOp::Stat { ino });
                }
            }
            streams.push(ops);
        }

        let mut ops = Vec::with_capacity((m.processes * m.ops_per_proc) as usize);
        for i in 0..m.ops_per_proc {
            for p in 0..m.processes {
                ops.push(TraceOp {
                    proc: ProcId::new(p, 0),
                    op: streams[p as usize][i as usize],
                });
            }
        }

        Reference {
            name: format!("metarates-{}", m.mix.name()),
            processes: m.processes,
            seeds,
            ops,
            roots: vec![ROOT, SHARED_DIR],
        }
    }

    /// Pull the whole stream: its header and every op.
    fn pull(m: &Metarates) -> (StreamTrace, Vec<TraceOp>) {
        let mut st = m.stream();
        let mut ops = Vec::new();
        while let Some(op) = st.ops.next_op() {
            ops.push(op);
        }
        (st, ops)
    }

    fn assert_matches_reference(m: &Metarates) {
        let want = reference_build(m);
        let (st, ops) = pull(m);
        assert_eq!(st.name, want.name, "{m:?}: name");
        assert_eq!(st.processes, want.processes, "{m:?}: processes");
        assert_eq!(st.seeds, want.seeds, "{m:?}: seeds");
        assert_eq!(st.roots, want.roots, "{m:?}: roots");
        assert_eq!(st.total_ops_hint, want.ops.len() as u64, "{m:?}: hint");
        if let Some(i) = (0..want.ops.len().max(ops.len())).find(|&i| want.ops.get(i) != ops.get(i))
        {
            panic!(
                "{m:?}: op {i} diverges: reference {:?}, stream {:?}",
                want.ops.get(i),
                ops.get(i)
            );
        }
    }

    /// The last two inputs take each rank across several refills of the
    /// positioning pass's 256-draw block (700 ops ≈ 1,500 draws), with
    /// and without stats on an empty list.
    #[test]
    fn metarates_stream_equals_reference() {
        for mix in [MetaratesMix::UpdateDominated, MetaratesMix::ReadDominated] {
            assert_matches_reference(&Metarates::new(mix, 16).seed_files(256).ops_per_proc(40));
            for seed_files in [6, 0] {
                assert_matches_reference(
                    &Metarates::new(mix, 3)
                        .seed_files(seed_files)
                        .ops_per_proc(700),
                );
            }
        }
    }

    /// Anywhere in the parameter space — including fewer seed files
    /// than ranks, where stats fall back on the empty-list default —
    /// the lazy stream is the eager reference: one skipped or extra
    /// draw in the positioning pass shifts every later rank.
    #[test]
    fn stream_equals_reference_for_random_parameters() {
        check("stream_equals_reference_for_random_parameters", 48, |g| {
            let mixes = [MetaratesMix::UpdateDominated, MetaratesMix::ReadDominated];
            let mut m = Metarates::new(*g.choose(&mixes).unwrap(), g.gen_range(1..40))
                .seed_files(g.gen_range(0..300))
                .ops_per_proc(g.gen_range(0..60));
            m.seed = g.gen();
            assert_matches_reference(&m);
        });
    }

    /// The benchmark's `des-update` input at its default seed (rep 0 of
    /// `--seed 7`). `benchmark/`'s digest pins are downstream of this
    /// sequence; pinning it here makes drift fail in this crate's tests,
    /// not only in a package ci.sh builds last.
    #[test]
    fn benchmark_sized_input_is_pinned() {
        let mut m = Metarates::new(MetaratesMix::UpdateDominated, 256)
            .seed_files(32_000)
            .ops_per_proc(1_280);
        m.seed = 7_000;
        // FNV-1a over the Debug text of the seeds, then of every op.
        fn fnv(seeds: &[SeedEntry], ops: impl Iterator<Item = TraceOp>) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |text: String| {
                for b in text.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            };
            eat(format!("{seeds:?}"));
            ops.for_each(|op| eat(format!("{op:?}")));
            h
        }
        const PIN: u64 = 3_020_133_286_568_963_404;
        let mut st = m.stream();
        assert_eq!(st.total_ops_hint, 256 * 1_280);
        let streamed = fnv(&st.seeds, std::iter::from_fn(|| st.ops.next_op()));
        assert_eq!(streamed, PIN, "the lazy stream left the pinned sequence");
        let want = reference_build(&m);
        assert_eq!(fnv(&want.seeds, want.ops.into_iter()), PIN, "the oracle");
    }

    /// File numbers are `u32`: an input that could run past them is
    /// refused when the stream is built, never wrapped.
    #[test]
    #[should_panic(expected = "more files than the u32 file number holds")]
    fn inputs_past_the_u32_file_number_are_rejected() {
        Metarates::new(MetaratesMix::UpdateDominated, 65_536)
            .seed_files(1)
            .ops_per_proc(65_536)
            .stream();
    }

    #[test]
    fn update_fraction_matches_mix() {
        for (mix, lo, hi) in [
            (MetaratesMix::ReadDominated, 0.15, 0.25),
            (MetaratesMix::UpdateDominated, 0.75, 0.85),
        ] {
            let (_, ops) = pull(&Metarates::new(mix, 8).seed_files(100).ops_per_proc(500));
            let updates = ops.iter().filter(|o| o.op.is_mutation()).count();
            let frac = updates as f64 / ops.len() as f64;
            assert!(
                (lo..=hi).contains(&frac),
                "{}: update fraction {frac}",
                mix.name()
            );
        }
    }

    #[test]
    fn all_updates_hit_the_common_directory() {
        let (_, ops) = pull(
            &Metarates::new(MetaratesMix::UpdateDominated, 4)
                .seed_files(40)
                .ops_per_proc(100),
        );
        for top in &ops {
            match top.op {
                FsOp::Create { parent, .. } | FsOp::Remove { parent, .. } => {
                    assert_eq!(parent, SHARED_DIR)
                }
                FsOp::Stat { .. } => {}
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic() {
        let m = Metarates::new(MetaratesMix::ReadDominated, 4)
            .seed_files(40)
            .ops_per_proc(50);
        let (_, a) = pull(&m);
        let (_, b) = pull(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn round_robin_interleaving() {
        let (_, ops) = pull(
            &Metarates::new(MetaratesMix::ReadDominated, 3)
                .seed_files(30)
                .ops_per_proc(10),
        );
        // first three ops come from three different procs
        let procs: Vec<u32> = ops.iter().take(3).map(|o| o.proc.client.0).collect();
        assert_eq!(procs, vec![0, 1, 2]);
    }
}
