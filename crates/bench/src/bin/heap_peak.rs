//! Where the heap is at its peak: one DES replay under a counting allocator.
//!
//!     cargo run --release -p cx-bench --bin heap_peak -- [--workload home2|update|lowload] [--seed n]
//!                                                         [--sites] [--ceiling-mib x]
//!
//! Replays the benchmark's `des-home2`, `des-update` or `des-lowload` input
//! once (sizes, cluster seed and trigger of `benchmark/src/spec.rs`) and
//! prints peak live heap bytes with the live blocks per power-of-two size
//! class as of the peak. Megabytes in thousands of small blocks are the
//! per-item cost of a backlog; a few huge blocks are tables that never
//! shrink. The class table is copied whenever live bytes pass the last copy
//! by 64 KiB.
//!
//! Two more lines give the live heap at the end of set-up (the op stream
//! built and the stores seeded, the first op not yet drawn), with the
//! allocations made so far, and the live heap and the peak as of the
//! replay's last pull from the op stream: whatever the whole-run peak adds
//! to that peak was allocated after the replay, by the drain and the run-end
//! consistency check. One more gives the allocations the run made after
//! set-up, in all and per op: the allocator work an op costs, counted. One
//! more gives the heap the returned `RunStats` holds, which does not grow
//! with the run's length.
//!
//! `--sites` says whose the big blocks are, which the class table cannot:
//! every live block of 512 B or more carries the backtrace of its
//! allocation, and at the replay's last pull they are summed by site — the
//! allocating container (its element type is in the symbol), the first
//! workspace functions that called it and the first one's line. It also
//! says who makes the allocations after set-up: every 53rd one's backtrace
//! is sampled, and the samples, scaled by 53, are printed per op by site
//! once the run ends. `--ceiling-mib x` exits non-zero when
//! the peak passes `x`: the replay is one deterministic thread, so the peak
//! repeats to the byte and can gate CI where a timing cannot.

use cx_bench::{write_table, Args};
use cx_core::{
    BatchTrigger, ClusterConfig, DesCluster, Metarates, MetaratesMix, OpStream, Protocol,
    TraceBuilder, TraceProfile,
};
use cx_workloads::TraceOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

const CLASSES: usize = 48;
/// `[bytes, blocks]` per size class.
type PerClass = [[AtomicUsize; 2]; CLASSES];

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COPIED_AT: AtomicUsize = AtomicUsize::new(0);
/// Blocks allocated or reallocated so far.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Under `--sites`, every allocation numbered above this (the last one of
/// set-up) and a multiple of [`SAMPLE_EVERY`] past it is sampled;
/// `usize::MAX` while nothing is.
static SAMPLE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);
const SAMPLE_EVERY: usize = 53;
static NOW: PerClass = [const { [const { AtomicUsize::new(0) }; 2] }; CLASSES];
static AT_PEAK: PerClass = [const { [const { AtomicUsize::new(0) }; 2] }; CLASSES];

fn class_of(size: usize) -> usize {
    (size.max(1).next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1)
}

/// Relaxed: the replay is one thread; the counters publish nothing else.
fn grew(size: usize) {
    NOW[class_of(size)][0].fetch_add(size, Relaxed);
    NOW[class_of(size)][1].fetch_add(1, Relaxed);
    let n = ALLOCS.fetch_add(1, Relaxed) + 1;
    let from = SAMPLE_FROM.load(Relaxed);
    if n > from && (n - from).is_multiple_of(SAMPLE_EVERY) {
        with_tags(|tags| {
            *tags
                .samples
                .entry(site_of(&Backtrace::force_capture()))
                .or_default() += 1
        });
    }
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    if live >= COPIED_AT.load(Relaxed) + (64 << 10) {
        COPIED_AT.store(live, Relaxed);
        for (to, from) in AT_PEAK.iter().flatten().zip(NOW.iter().flatten()) {
            to.store(from.load(Relaxed), Relaxed);
        }
    }
}

fn shrank(size: usize) {
    NOW[class_of(size)][0].fetch_sub(size, Relaxed);
    NOW[class_of(size)][1].fetch_sub(1, Relaxed);
    LIVE.fetch_sub(size, Relaxed);
}

/// `--sites` is on.
static SITES: AtomicBool = AtomicBool::new(false);
/// Set while the tag table is at work: what it allocates (backtraces, its
/// own nodes) is neither counted nor tagged, so the numbers stay those of
/// the default mode and the allocator never re-enters the table.
static TAGGING: AtomicBool = AtomicBool::new(false);
/// What `--sites` keeps: the live blocks of [`TAGGED_FROM`] bytes or more,
/// address → (size, where from), and the sampled allocations, site →
/// samples.
struct Tags {
    blocks: BTreeMap<usize, (usize, Backtrace)>,
    samples: BTreeMap<String, usize>,
}

static TAGS: Mutex<Tags> = Mutex::new(Tags {
    blocks: BTreeMap::new(),
    samples: BTreeMap::new(),
});
const TAGGED_FROM: usize = 512;

/// Run `f` on the tag table with the allocator's bookkeeping switched off.
/// It returns nothing: whatever the table hands back must be dropped in
/// here, where freeing it is as uncounted as allocating it was.
fn with_tags(f: impl FnOnce(&mut Tags)) {
    TAGGING.store(true, Relaxed);
    f(&mut TAGS.lock().expect("the replay is one thread"));
    TAGGING.store(false, Relaxed);
}

fn tag(ptr: *mut u8, size: usize) {
    if SITES.load(Relaxed) && size >= TAGGED_FROM && !ptr.is_null() {
        with_tags(|tags| {
            tags.blocks
                .insert(ptr as usize, (size, Backtrace::force_capture()));
        });
    }
}

fn untag(ptr: *mut u8, size: usize) {
    if SITES.load(Relaxed) && size >= TAGGED_FROM {
        with_tags(|tags| {
            tags.blocks.remove(&(ptr as usize));
        });
    }
}

struct Counting;

// SAFETY: forwards every call unchanged to `System`; the counting touches only
// atomics, and the tagging allocates only with `TAGGING` set, which skips both.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !TAGGING.load(Relaxed) {
            grew(layout.size());
            tag(ptr, layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !TAGGING.load(Relaxed) {
            shrank(layout.size());
            untag(ptr, layout.size());
        }
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`; the caller vouches for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !TAGGING.load(Relaxed) {
            shrank(layout.size());
            untag(ptr, layout.size());
            grew(new_size);
            tag(new, new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `[peak, live]` bytes as of the replay's latest pull from the op stream.
static AT_LAST_PULL: [AtomicUsize; 2] = [const { AtomicUsize::new(0) }; 2];

/// The workload's op stream, noting the heap at every pull.
struct Watched(Box<dyn OpStream + Send>);

impl OpStream for Watched {
    fn next_op(&mut self) -> Option<TraceOp> {
        AT_LAST_PULL[0].store(PEAK.load(Relaxed), Relaxed);
        AT_LAST_PULL[1].store(LIVE.load(Relaxed), Relaxed);
        let op = self.0.next_op();
        if op.is_none() && SITES.load(Relaxed) {
            with_tags(|tags| print_sites(&tags.blocks));
        }
        op
    }
}

/// Whether a backtrace's `at <path>:line:col` line points into workspace
/// code: a path through `crates/<name>/src/`, relative (`./crates/…`, run
/// from the checkout the binary was built in) or absolute (run from
/// anywhere else). The shims and most of the standard library live under
/// no such directory; `stdarch` does, and this file's own allocator frames.
fn is_workspace_frame(at: &str) -> bool {
    let path = at.trim_start().trim_start_matches("at ");
    let in_a_crate = path
        .split_once("crates/")
        .and_then(|(_, rest)| rest.split_once('/'))
        .is_some_and(|(_, below_name)| below_name.starts_with("src/"));
    in_a_crate && !path.starts_with("/rustc/") && !path.contains("heap_peak.rs")
}

/// The allocation site of a backtrace: the innermost frames from the
/// container's own (the last before workspace code) through the first
/// three workspace functions, and the first one's file and line.
fn site_of(trace: &Backtrace) -> String {
    let text = trace.to_string();
    // "  12: symbol" lines, each followed by "  at path:line:col".
    let frames: Vec<(&str, &str)> = text
        .split("\n")
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| w[1].trim_start().starts_with("at "))
        .map(|w| (w[0].split_once(": ").map_or(w[0], |(_, sym)| sym), w[1]))
        .collect();
    let first = frames
        .iter()
        .position(|(_, at)| is_workspace_frame(at))
        .unwrap_or(frames.len());
    let names = frames[first.saturating_sub(1)..].iter().take(4);
    let key = names.map(|(sym, _)| *sym).collect::<Vec<_>>().join(" < ");
    let key = key.replace(", alloc::alloc::Global", ""); // on every container
    match frames.get(first) {
        Some((_, at)) => {
            // `crates/<name>/src/<file>:line`, without the column
            let at = at.rsplit_once(':').map_or(*at, |(path, _)| path);
            let at = at.rfind("crates/").map_or(at, |i| &at[i..]);
            format!("{key}  @ {at}")
        }
        None => key,
    }
}

/// Sum the tagged blocks by allocation site, largest first.
fn print_sites(tags: &BTreeMap<usize, (usize, Backtrace)>) {
    let mut sites: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (size, trace) in tags.values() {
        let site = sites.entry(site_of(trace)).or_default();
        *site = (site.0 + size, site.1 + 1);
    }
    let mut rows: Vec<(usize, usize, String)> =
        sites.into_iter().map(|(k, (b, n))| (b, n, k)).collect();
    rows.sort_unstable_by(|a, b| b.cmp(a));
    println!("live blocks >= {TAGGED_FROM} B at the replay's last pull, by site:");
    for (bytes, blocks, site) in rows {
        println!(
            "{:>8.2} MiB {blocks:>6} blocks  {site}",
            bytes as f64 / (1 << 20) as f64
        );
    }
    println!();
}

/// The sampled allocations after set-up by site, most first, per op.
fn print_samples(samples: &BTreeMap<String, usize>, ops: u64) {
    let mut rows: Vec<(usize, &String)> = samples.iter().map(|(k, n)| (*n, k)).collect();
    rows.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "allocations after set-up by site, per op (1 in {SAMPLE_EVERY} sampled, × {SAMPLE_EVERY}):"
    );
    for (n, site) in rows {
        let per_op = (n * SAMPLE_EVERY) as f64 / ops as f64;
        println!("{per_op:>8.3} /op {n:>7} samples  {site}");
    }
    println!();
}

fn main() {
    let args = Args::parse();
    let workload: String = args.value("--workload").unwrap_or_else(|| "home2".into());
    let seed: u64 = args.value("--seed").unwrap_or(7);
    let ceiling: Option<f64> = args.value("--ceiling-mib");
    SITES.store(args.flag("--sites"), Relaxed);
    let mut cfg = ClusterConfig::new(8, Protocol::Cx);
    cfg.seed = 42;
    let period_ns = 20_000_000;
    cfg.cx.trigger = BatchTrigger::Timeout { period_ns };
    let metarates = |cfg: &ClusterConfig, ops_per_proc| {
        let mut m = Metarates::new(MetaratesMix::UpdateDominated, cfg.total_processes())
            .seed_files(4_000 * cfg.servers)
            .ops_per_proc(ops_per_proc);
        m.seed = seed;
        m.stream()
    };
    let mut stream = match workload.as_str() {
        "home2" => TraceBuilder::new(TraceProfile::by_name("home2").expect("a Table II profile"))
            .tweak(|p| p.shared_access_prob = 0.0)
            .scale(0.32)
            .seed(seed)
            .stream(),
        "update" => metarates(&cfg, 1_280),
        "lowload" => {
            (cfg.clients, cfg.procs_per_client) = (1, 1);
            metarates(&cfg, 300_000)
        }
        other => panic!("--workload {other}: expected home2, update or lowload"),
    };
    stream.ops = Box::new(Watched(stream.ops));
    let cluster = DesCluster::new_stream(cfg, stream);
    let (setup_live, setup_allocs) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
    if SITES.load(Relaxed) {
        SAMPLE_FROM.store(setup_allocs, Relaxed);
    }
    let (stats, violations) = cluster.run();
    let run_allocs = ALLOCS.load(Relaxed) - setup_allocs;
    SAMPLE_FROM.store(usize::MAX, Relaxed);
    assert!(violations.is_empty(), "{violations:?}");

    let mib = |b: usize| format!("{:.2}", b as f64 / (1 << 20) as f64);
    let (peak, copied) = (mib(PEAK.load(Relaxed)), mib(COPIED_AT.load(Relaxed)));
    let (ops, wb) = (stats.ops_total, stats.disk.wb_batches);
    let live = LIVE.load(Relaxed);
    drop(stats);
    let held = live - LIVE.load(Relaxed);
    println!("{workload} seed {seed}: {ops} ops, {wb} write-back batches");
    println!("peak live heap {peak} MiB (class table copied at {copied} MiB)");
    let setup_live = mib(setup_live);
    println!("at the end of set-up: {setup_live} MiB live, {setup_allocs} allocations");
    let per_op = run_allocs as f64 / ops as f64;
    println!("after set-up: {run_allocs} allocations, {per_op:.2} per op");
    let [pulled_peak, pulled_live] = [0, 1].map(|i| mib(AT_LAST_PULL[i].load(Relaxed)));
    println!("at the replay's last pull: {pulled_live} MiB live, {pulled_peak} MiB peak so far");
    println!("the returned RunStats holds {held} B\n");
    if SITES.load(Relaxed) {
        with_tags(|tags| print_samples(&tags.samples, ops));
    }
    let mut rows: Vec<(usize, usize, usize)> = (0..CLASSES)
        .map(|c| (AT_PEAK[c][0].load(Relaxed), AT_PEAK[c][1].load(Relaxed), c))
        .collect();
    rows.sort_unstable_by(|a, b| b.cmp(a));
    let row = |&(bytes, blocks, c): &(usize, usize, usize)| {
        let (class, mean) = (format!("≤ {} B", 1u64 << c), bytes / blocks.max(1));
        vec![class, blocks.to_string(), mib(bytes), mean.to_string()]
    };
    let mut out = String::new();
    let headers = ["size class", "live blocks", "MiB", "mean B"];
    write_table(&mut out, &headers, rows.iter().take(12).map(row));
    print!("{out}");

    if let Some(ceiling) = ceiling {
        let peak = PEAK.load(Relaxed) as f64 / (1 << 20) as f64;
        if peak > ceiling {
            eprintln!("{workload}: peak live heap {peak:.2} MiB is over the {ceiling} MiB ceiling");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn workspace_frames_are_recognised_from_any_working_directory() {
        let cases = [
            // The same frame, printed from the checkout and from elsewhere.
            ("./crates/types/src/optable.rs:61:24", true),
            ("/root/repo/crates/types/src/optable.rs:61:24", true),
            (
                "/rustc/5980761/library/alloc/src/raw_vec/mod.rs:563:9",
                false,
            ),
            (
                "/rustc/5980761/library/stdarch/crates/core_arch/src/x86/sse2.rs:1:1",
                false,
            ),
            ("./shims/crossbeam/src/channel.rs:88:13", false),
            ("/root/repo/shims/crossbeam/src/channel.rs:88:13", false),
            ("./crates/bench/src/bin/heap_peak.rs:115:28", false),
            ("/root/crates/notes.rs:1:1", false),
        ];
        for (path, ours) in cases {
            let at = format!("             at {path}");
            assert_eq!(super::is_workspace_frame(&at), ours, "{path}");
        }
    }
}
