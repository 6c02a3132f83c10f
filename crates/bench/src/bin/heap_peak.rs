//! Where the heap is at its peak: one DES replay under a counting allocator.
//!
//!     cargo run --release -p cx-bench --bin heap_peak -- [--workload home2|update|lowload] [--seed n]
//!
//! Replays the benchmark's `des-home2`, `des-update` or `des-lowload` input
//! once (sizes, cluster seed and trigger of `benchmark/src/spec.rs`) and
//! prints peak live heap bytes with the live blocks per power-of-two size
//! class as of the peak. Megabytes in thousands of small blocks are the
//! per-item cost of a backlog; a few huge blocks are tables that never
//! shrink. The class table is copied whenever live bytes pass the last copy
//! by 64 KiB.
//!
//! One more line gives the live heap and the peak as of the replay's last
//! pull from the op stream: whatever the whole-run peak adds to that peak was
//! allocated after the replay, by the drain and the run-end consistency
//! check.

use cx_bench::{print_table, Args};
use cx_core::{
    BatchTrigger, ClusterConfig, DesCluster, Metarates, MetaratesMix, OpStream, Protocol,
    TraceBuilder, TraceProfile,
};
use cx_workloads::TraceOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const CLASSES: usize = 48;
/// `[bytes, blocks]` per size class.
type PerClass = [[AtomicUsize; 2]; CLASSES];

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COPIED_AT: AtomicUsize = AtomicUsize::new(0);
static NOW: PerClass = [const { [const { AtomicUsize::new(0) }; 2] }; CLASSES];
static AT_PEAK: PerClass = [const { [const { AtomicUsize::new(0) }; 2] }; CLASSES];

fn class_of(size: usize) -> usize {
    (size.max(1).next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1)
}

/// Relaxed: the replay is one thread; the counters publish nothing else.
fn grew(size: usize) {
    NOW[class_of(size)][0].fetch_add(size, Relaxed);
    NOW[class_of(size)][1].fetch_add(1, Relaxed);
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

struct Counting;

// SAFETY: forwards every call unchanged to `System`; the counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
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
        self.0.next_op()
    }
}

fn main() {
    let args = Args::parse();
    let workload: String = args.value("--workload").unwrap_or_else(|| "home2".into());
    let seed: u64 = args.value("--seed").unwrap_or(7);
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
    let (stats, violations) = DesCluster::new_stream(cfg, stream).run();
    assert!(violations.is_empty(), "{violations:?}");

    let mib = |b: usize| format!("{:.2}", b as f64 / (1 << 20) as f64);
    let (peak, copied) = (mib(PEAK.load(Relaxed)), mib(COPIED_AT.load(Relaxed)));
    let (ops, wb) = (stats.ops_total, stats.disk.wb_batches);
    println!("{workload} seed {seed}: {ops} ops, {wb} write-back batches");
    println!("peak live heap {peak} MiB (class table copied at {copied} MiB)");
    let [pulled_peak, pulled_live] = [0, 1].map(|i| mib(AT_LAST_PULL[i].load(Relaxed)));
    println!("at the replay's last pull: {pulled_live} MiB live, {pulled_peak} MiB peak so far\n");
    let mut rows: Vec<(usize, usize, usize)> = (0..CLASSES)
        .map(|c| (AT_PEAK[c][0].load(Relaxed), AT_PEAK[c][1].load(Relaxed), c))
        .collect();
    rows.sort_unstable_by(|a, b| b.cmp(a));
    let row = |&(bytes, blocks, c): &(usize, usize, usize)| {
        let (class, mean) = (format!("≤ {} B", 1u64 << c), bytes / blocks.max(1));
        vec![class, blocks.to_string(), mib(bytes), mean.to_string()]
    };
    let table: Vec<Vec<String>> = rows.iter().take(12).map(row).collect();
    print_table(&["size class", "live blocks", "MiB", "mean B"], &table);
}
