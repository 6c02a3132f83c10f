//! Single-spindle disk model with group commit and elevator merging.

use cx_types::codec::{get_uleb, put_uleb, ULEB_MAX};
use cx_types::{DiskConfig, SimTime};
use serde::Serialize;
use std::collections::VecDeque;

/// Bytes per database page.
pub const PAGE_BYTES: u64 = 4096;

/// A request submitted to the disk. `token` identifies the request to the
/// caller; completion hands the tokens back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskReq {
    /// Synchronous append to the log-structured operation log. Subject to
    /// group commit: all appends queued when a flush starts ride in it.
    LogAppend { bytes: u64, token: u64 },
    /// Batched database write-back of dirty pages (lazy commitment /
    /// OFS-batched flush). Pages are sorted and adjacent ones merge.
    DbWriteback { pages: Vec<u64>, token: u64 },
    /// Per-sub-op synchronous database write (the SE baseline's
    /// "synchronously writing the updated objects into BDB for every
    /// sub-op", §IV-C).
    DbSyncWrite { page: u64, token: u64 },
    /// Sequential read (recovery log scan).
    SeqRead { bytes: u64, token: u64 },
    /// Cold-cache random page reads (recovery re-reads the database rows
    /// of half-completed operations). Adjacent pages merge into runs.
    RandomRead { pages: Vec<u64>, token: u64 },
}

impl DiskReq {
    /// What completion hands back: a runtime with no disk model answers
    /// the request with this alone.
    pub fn token(&self) -> u64 {
        match *self {
            DiskReq::LogAppend { token, .. }
            | DiskReq::DbWriteback { token, .. }
            | DiskReq::DbSyncWrite { token, .. }
            | DiskReq::SeqRead { token, .. }
            | DiskReq::RandomRead { token, .. } => token,
        }
    }
}

/// An in-flight batch: the caller schedules a completion event at `finish`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub finish: SimTime,
    pub tokens: Vec<u64>,
}

/// Cumulative disk statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DiskStats {
    pub log_flushes: u64,
    pub log_appends: u64,
    pub log_bytes: u64,
    pub sync_writes: u64,
    pub wb_batches: u64,
    pub wb_pages: u64,
    pub wb_runs: u64,
    pub seq_reads: u64,
    pub cold_reads: u64,
    pub busy_ns: u64,
}

impl DiskStats {
    /// Appends absorbed per flush — the group-commit amortization factor.
    pub fn appends_per_flush(&self) -> f64 {
        if self.log_flushes == 0 {
            0.0
        } else {
            self.log_appends as f64 / self.log_flushes as f64
        }
    }

    /// Pages coalesced per run — the elevator merging factor.
    pub fn pages_per_run(&self) -> f64 {
        if self.wb_runs == 0 {
            0.0
        } else {
            self.wb_pages as f64 / self.wb_runs as f64
        }
    }

    pub fn merge(&mut self, other: &DiskStats) {
        self.log_flushes += other.log_flushes;
        self.log_appends += other.log_appends;
        self.log_bytes += other.log_bytes;
        self.sync_writes += other.sync_writes;
        self.wb_batches += other.wb_batches;
        self.wb_pages += other.wb_pages;
        self.wb_runs += other.wb_runs;
        self.seq_reads += other.seq_reads;
        self.cold_reads += other.cold_reads;
        self.busy_ns += other.busy_ns;
    }
}

/// What a queued background request costs to serve, fixed at `submit`.
/// Service time and stats depend on the request only through these counts
/// and on `cfg`, which never changes for a `Disk`'s life, so pricing early
/// yields the numbers pricing at start would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cost {
    /// Distinct pages and the runs they merge into.
    Writeback {
        pages: u64,
        runs: u64,
    },
    SeqRead {
        bytes: u64,
    },
    RandomRead {
        pages: u64,
    },
}

/// The background lane: priced requests, first in, first out, packed back
/// to back in one byte ring. An entry is LEB128 ([`put_uleb`]) of
///
/// * its token minus the token queued before it (wrapping),
/// * its count shifted up two bits over its kind: a write-back's pages, a
///   sequential read's bytes, a random read's pages,
/// * for a write-back only, its runs.
///
/// The chassis numbers a write-back's chunks one after another, so a chunk
/// of under 32 pages takes 3 B. A token step across the chassis's
/// write-back bit (bit 63) takes 10 B; only a recovery read's does.
#[derive(Debug, Clone)]
struct Backlog {
    bytes: VecDeque<u8>,
    /// Entries in `bytes`.
    len: usize,
    /// The token of the entry pushed last, which the next one is written
    /// against, and of the entry popped last, which the next one is read
    /// against.
    pushed: u64,
    popped: u64,
}

impl Backlog {
    /// The longest entry: three full-width values.
    const ENTRY_MAX: usize = 3 * ULEB_MAX;
    /// The largest count an entry holds, with its kind below it.
    const COUNT_MAX: u64 = u64::MAX >> 2;

    /// The ring starts at a power of two, so it doubles through powers of
    /// two whatever the first entry's length: grown from that length
    /// instead (12 B for a first write-back chunk), 30,000 B of entries
    /// would sit in a 48 KiB ring, not a 32 KiB one.
    fn new() -> Self {
        Self {
            bytes: VecDeque::with_capacity(Self::ENTRY_MAX.next_power_of_two()),
            len: 0,
            pushed: 0,
            popped: 0,
        }
    }

    fn push(&mut self, token: u64, cost: Cost) {
        let (kind, count, runs) = match cost {
            Cost::Writeback { pages, runs } => (0, pages, Some(runs)),
            Cost::SeqRead { bytes } => (1, bytes, None),
            Cost::RandomRead { pages } => (2, pages, None),
        };
        assert!(count <= Self::COUNT_MAX, "request too large to price");
        let mut entry = [0u8; Self::ENTRY_MAX];
        let mut n = put_uleb(token.wrapping_sub(self.pushed), &mut entry);
        n += put_uleb(count << 2 | kind, &mut entry[n..]);
        if let Some(runs) = runs {
            n += put_uleb(runs, &mut entry[n..]);
        }
        self.bytes.extend(&entry[..n]);
        self.pushed = token;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u64, Cost)> {
        if self.len == 0 {
            return None;
        }
        let mut bytes = std::iter::from_fn(|| self.bytes.pop_front());
        let token = self.popped.wrapping_add(get_uleb(&mut bytes));
        let word = get_uleb(&mut bytes);
        let count = word >> 2;
        let cost = match word & 3 {
            0 => Cost::Writeback {
                pages: count,
                runs: get_uleb(&mut bytes),
            },
            1 => Cost::SeqRead { bytes: count },
            _ => Cost::RandomRead { pages: count },
        };
        self.popped = token;
        self.len -= 1;
        Some((token, cost))
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
        self.pushed = 0;
        self.popped = 0;
    }
}

/// The disk. Sans-event: `submit`/`complete` return batches whose `finish`
/// times the caller turns into DES events.
///
/// Requests wait in one FIFO lane per service class, so picking the next
/// batch costs O(batch), not O(backlog): under load the log lane owns the
/// disk and write-back only queues — thousands of chunks a server by the
/// end of a replay — and a single queue is scanned past all of them on
/// every completion. That backlog is also why a queued background request
/// is a packed [`Backlog`] entry of a few bytes and not the request:
/// `submit` does the sort, dedup and run count, and no page list outlives
/// it. The tests' `RefDisk` is the single queue that prices at start; the
/// lanes must hand out the same batches in the same order and move the
/// same stats at the same moment.
#[derive(Debug, Clone)]
pub struct Disk {
    cfg: DiskConfig,
    /// `(bytes, token)` of queued log appends.
    log: VecDeque<(u64, u64)>,
    /// `(page, token)` of queued synchronous database writes.
    sync: VecDeque<(u64, u64)>,
    /// Write-backs and recovery reads, served one request at a time. Each
    /// keeps its own token: a completion names the request it finished,
    /// and one lost in a crash must be told apart.
    background: Backlog,
    /// The token lists the next batches fill: the caller hands each
    /// finished batch's list back ([`Disk::recycle`]), so batches reuse
    /// two lists instead of allocating one each. Both can be home at once
    /// — when the disk went idle with its last batch handed out — and both
    /// stay.
    spare: [Vec<u64>; 2],
    inflight: bool,
    stats: DiskStats,
    /// Incremented on crash so runtimes can discard completion events
    /// scheduled for a previous incarnation.
    generation: u64,
}

impl Disk {
    pub fn new(cfg: DiskConfig) -> Self {
        Self {
            cfg,
            log: VecDeque::new(),
            sync: VecDeque::new(),
            background: Backlog::new(),
            spare: [Vec::new(), Vec::new()],
            inflight: false,
            stats: DiskStats::default(),
            generation: 0,
        }
    }

    /// Current incarnation; bumped by [`Disk::crash`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    pub fn is_idle(&self) -> bool {
        !self.inflight && self.queued() == 0
    }

    pub fn queued(&self) -> usize {
        self.log.len() + self.sync.len() + self.background.len
    }

    /// Submit a request at `now`. If the disk was idle, a batch starts
    /// immediately and is returned; otherwise the request waits for the
    /// in-flight batch and `complete` will pick it up.
    pub fn submit(&mut self, now: SimTime, req: DiskReq) -> Option<Batch> {
        match req {
            DiskReq::LogAppend { bytes, token } => self.log.push_back((bytes, token)),
            DiskReq::DbSyncWrite { page, token } => self.sync.push_back((page, token)),
            DiskReq::DbWriteback { mut pages, token } => {
                pages.sort_unstable();
                pages.dedup();
                let cost = Cost::Writeback {
                    pages: pages.len() as u64,
                    runs: count_runs(&pages, self.cfg.merge_gap),
                };
                self.background.push(token, cost);
            }
            DiskReq::SeqRead { bytes, token } => {
                self.background.push(token, Cost::SeqRead { bytes });
            }
            DiskReq::RandomRead { pages, token } => {
                let cost = Cost::RandomRead {
                    pages: pages.len() as u64,
                };
                self.background.push(token, cost);
            }
        }
        if self.inflight {
            None
        } else {
            self.start_next(now)
        }
    }

    /// The in-flight batch finished at `now`; start the next one if work is
    /// queued. Returns the next batch (the completed tokens were already
    /// handed out by the `Batch` that just finished).
    pub fn complete(&mut self, now: SimTime) -> Option<Batch> {
        debug_assert!(self.inflight, "complete() without an in-flight batch");
        self.inflight = false;
        self.start_next(now)
    }

    /// Take back a finished batch's token list, once its tokens are handed
    /// out, for the next batch to fill.
    pub fn recycle(&mut self, mut tokens: Vec<u64>) {
        tokens.clear();
        // into an empty place, else over the smaller list
        let [a, b] = &mut self.spare;
        let place = if a.capacity() <= b.capacity() { a } else { b };
        if tokens.capacity() > place.capacity() {
            *place = tokens;
        }
    }

    /// A spare token list, the larger one if both are home.
    fn take_spare(&mut self) -> Vec<u64> {
        let [a, b] = &mut self.spare;
        std::mem::take(if a.capacity() >= b.capacity() { a } else { b })
    }

    /// Crash: queued and in-flight work is lost with the volatile state.
    /// (Durability bookkeeping lives in the WAL layer, which only treats a
    /// record as durable once its completion event fired.)
    pub fn crash(&mut self) {
        self.log.clear();
        self.sync.clear();
        self.background.clear();
        self.inflight = false;
        self.generation += 1;
    }

    /// Pick the next batch. Synchronous work (log flushes, database sync
    /// writes) has priority over background work (write-back, recovery
    /// scans) — the kernel IO scheduler services blocking writes first.
    fn start_next(&mut self, now: SimTime) -> Option<Batch> {
        let batch = if !self.log.is_empty() {
            self.start_log_flush(now)
        } else if !self.sync.is_empty() {
            self.start_sync_flush(now)
        } else {
            let (token, cost) = self.background.pop()?;
            self.start_background(now, token, cost)
        };
        self.inflight = true;
        Some(batch)
    }

    /// ext3-style group commit for synchronous database writes: every
    /// queued sync write rides one journal flush, and the forced in-place
    /// page writes of one flush merge by adjacency (writes into one
    /// directory's sequential metadata region coalesce, §IV-C2).
    fn start_sync_flush(&mut self, now: SimTime) -> Batch {
        let mut pages: Vec<u64> = self.sync.iter().map(|&(page, _)| page).collect();
        let mut tokens = self.take_spare();
        tokens.extend(self.sync.drain(..).map(|(_, token)| token));
        pages.sort_unstable();
        pages.dedup();
        let runs = if self.cfg.group_commit {
            count_runs(&pages, self.cfg.merge_gap)
        } else {
            pages.len() as u64
        };
        let service = self.cfg.db_sync_write_ns + runs * self.cfg.db_sync_per_write_ns;
        self.stats.sync_writes += tokens.len() as u64;
        self.stats.busy_ns += service;
        Batch {
            finish: now + service,
            tokens,
        }
    }

    /// Group commit: absorb every queued log append into one flush (or,
    /// with group commit disabled — the ablation — only the first).
    fn start_log_flush(&mut self, now: SimTime) -> Batch {
        let take = if self.cfg.group_commit {
            self.log.len()
        } else {
            1
        };
        let mut tokens = self.take_spare();
        let mut bytes = 0u64;
        for (b, token) in self.log.drain(..take) {
            tokens.push(token);
            bytes += b;
        }
        let service = self.cfg.log_flush_ns + transfer_ns(bytes, self.cfg.seq_bw_bps);
        self.stats.log_flushes += 1;
        self.stats.log_appends += tokens.len() as u64;
        self.stats.log_bytes += bytes;
        self.stats.busy_ns += service;
        Batch {
            finish: now + service,
            tokens,
        }
    }

    fn start_background(&mut self, now: SimTime, token: u64, cost: Cost) -> Batch {
        let service = match cost {
            Cost::Writeback { pages, runs } => {
                self.stats.wb_batches += 1;
                self.stats.wb_pages += pages;
                self.stats.wb_runs += runs;
                self.cfg.wb_batch_seek_ns
                    + runs.saturating_sub(1) * self.cfg.wb_run_seek_ns
                    + transfer_ns(pages * PAGE_BYTES, self.cfg.seq_bw_bps)
            }
            Cost::SeqRead { bytes } => {
                self.stats.seq_reads += 1;
                self.cfg.wb_batch_seek_ns + transfer_ns(bytes, self.cfg.seq_bw_bps)
            }
            Cost::RandomRead { pages } => {
                // Dependent point lookups (B-tree walks): each row read
                // must finish before the next begins, so the elevator
                // cannot merge them the way write-back batches merge.
                self.stats.cold_reads += pages;
                pages * self.cfg.cold_read_run_ns
                    + transfer_ns(pages * PAGE_BYTES, self.cfg.seq_bw_bps)
            }
        };
        self.stats.busy_ns += service;
        let mut tokens = self.take_spare();
        tokens.push(token);
        Batch {
            finish: now + service,
            tokens,
        }
    }
}

fn transfer_ns(bytes: u64, bw_bps: u64) -> u64 {
    ((bytes as u128 * 1_000_000_000) / bw_bps.max(1) as u128) as u64
}

/// Number of merged runs in a sorted, deduplicated page list: pages whose
/// gap is at most `merge_gap` coalesce (the elevator fills small holes).
fn count_runs(sorted_pages: &[u64], merge_gap: u64) -> u64 {
    if sorted_pages.is_empty() {
        return 0;
    }
    let mut runs = 1;
    for w in sorted_pages.windows(2) {
        if w[1] - w[0] > merge_gap {
            runs += 1;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskConfig::default())
    }

    /// The oracle: the single scanned queue the lanes replaced, verbatim.
    /// Priority and FIFO order are whatever this picker does.
    struct RefDisk {
        cfg: DiskConfig,
        queue: VecDeque<DiskReq>,
        inflight: bool,
        stats: DiskStats,
    }

    impl RefDisk {
        fn new(cfg: DiskConfig) -> Self {
            Self {
                cfg,
                queue: VecDeque::new(),
                inflight: false,
                stats: DiskStats::default(),
            }
        }

        fn submit(&mut self, now: SimTime, req: DiskReq) -> Option<Batch> {
            self.queue.push_back(req);
            if self.inflight {
                None
            } else {
                self.start_next(now)
            }
        }

        fn complete(&mut self, now: SimTime) -> Option<Batch> {
            self.inflight = false;
            self.start_next(now)
        }

        fn crash(&mut self) {
            self.queue.clear();
            self.inflight = false;
        }

        /// Pick the next batch. Synchronous work (log flushes, database sync
        /// writes) has priority over background work (write-back, recovery
        /// scans) — the kernel IO scheduler services blocking writes first.
        fn start_next(&mut self, now: SimTime) -> Option<Batch> {
            if self.queue.is_empty() {
                return None;
            }
            let batch = if self
                .queue
                .iter()
                .any(|r| matches!(r, DiskReq::LogAppend { .. }))
            {
                self.start_log_flush(now)
            } else if self
                .queue
                .iter()
                .any(|r| matches!(r, DiskReq::DbSyncWrite { .. }))
            {
                self.start_sync_flush(now)
            } else {
                let req = self.queue.pop_front().expect("non-empty");
                self.start_single(now, req)
            };
            self.inflight = true;
            Some(batch)
        }

        /// ext3-style group commit for synchronous database writes: every
        /// queued sync write rides one journal flush, and the forced in-place
        /// page writes of one flush merge by adjacency (writes into one
        /// directory's sequential metadata region coalesce, §IV-C2).
        fn start_sync_flush(&mut self, now: SimTime) -> Batch {
            let mut tokens = Vec::new();
            let mut pages = Vec::new();
            let mut i = 0;
            while i < self.queue.len() {
                if let DiskReq::DbSyncWrite { token, page } = self.queue[i] {
                    tokens.push(token);
                    pages.push(page);
                    self.queue.remove(i);
                } else {
                    i += 1;
                }
            }
            pages.sort_unstable();
            pages.dedup();
            let runs = if self.cfg.group_commit {
                count_runs(&pages, self.cfg.merge_gap)
            } else {
                pages.len() as u64
            };
            let service = self.cfg.db_sync_write_ns + runs * self.cfg.db_sync_per_write_ns;
            self.stats.sync_writes += tokens.len() as u64;
            self.stats.busy_ns += service;
            Batch {
                finish: now + service,
                tokens,
            }
        }

        /// Group commit: absorb every queued log append into one flush (or,
        /// with group commit disabled — the ablation — only the first).
        fn start_log_flush(&mut self, now: SimTime) -> Batch {
            let mut tokens = Vec::new();
            let mut bytes = 0u64;
            let mut i = 0;
            while i < self.queue.len() {
                if let DiskReq::LogAppend { bytes: b, token } = self.queue[i] {
                    tokens.push(token);
                    bytes += b;
                    self.queue.remove(i);
                    if !self.cfg.group_commit {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            let service = self.cfg.log_flush_ns + transfer_ns(bytes, self.cfg.seq_bw_bps);
            self.stats.log_flushes += 1;
            self.stats.log_appends += tokens.len() as u64;
            self.stats.log_bytes += bytes;
            self.stats.busy_ns += service;
            Batch {
                finish: now + service,
                tokens,
            }
        }

        fn start_single(&mut self, now: SimTime, req: DiskReq) -> Batch {
            let token = req.token();
            let service = match req {
                DiskReq::LogAppend { .. } => unreachable!("appends go through start_log_flush"),
                DiskReq::DbSyncWrite { .. } => {
                    unreachable!("sync writes go through start_sync_flush")
                }
                DiskReq::DbWriteback { mut pages, .. } => {
                    pages.sort_unstable();
                    pages.dedup();
                    let runs = count_runs(&pages, self.cfg.merge_gap);
                    self.stats.wb_batches += 1;
                    self.stats.wb_pages += pages.len() as u64;
                    self.stats.wb_runs += runs;
                    self.cfg.wb_batch_seek_ns
                        + runs.saturating_sub(1) * self.cfg.wb_run_seek_ns
                        + transfer_ns(pages.len() as u64 * PAGE_BYTES, self.cfg.seq_bw_bps)
                }
                DiskReq::SeqRead { bytes, .. } => {
                    self.stats.seq_reads += 1;
                    self.cfg.wb_batch_seek_ns + transfer_ns(bytes, self.cfg.seq_bw_bps)
                }
                DiskReq::RandomRead { pages, .. } => {
                    // Dependent point lookups (B-tree walks): each row read
                    // must finish before the next begins, so the elevator
                    // cannot merge them the way write-back batches merge.
                    self.stats.cold_reads += pages.len() as u64;
                    pages.len() as u64 * self.cfg.cold_read_run_ns
                        + transfer_ns(pages.len() as u64 * PAGE_BYTES, self.cfg.seq_bw_bps)
                }
            };
            self.stats.busy_ns += service;
            Batch {
                finish: now + service,
                tokens: vec![token],
            }
        }
    }

    /// A seeded request stream over the workspace's SplitMix64.
    struct SplitMix {
        rng: cx_types::rng::SmallRng,
        /// The chassis's token counter.
        counter: u64,
    }

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.rng.next_u64()
        }

        /// Tokens the way the chassis numbers them: one counter for every
        /// request, a write-back's with the top bit set, so the lane's
        /// deltas cross that bit whenever a read follows a write-back. One
        /// request in 500 jumps the counter by up to 2^40 (a crash resets
        /// the lane, not the chassis's counter), one in 1,000 carries
        /// `u64::MAX`.
        fn token(&mut self, writeback: bool) -> u64 {
            let roll = self.next() % 1_000;
            if roll == 0 {
                return u64::MAX;
            }
            if roll < 3 {
                self.counter += self.next() % (1 << 40);
            }
            self.counter += 1;
            if writeback {
                self.counter | 1 << 63
            } else {
                self.counter
            }
        }

        /// 1–64 pages, unsorted; every fourth list draws from 48 page
        /// numbers, so long lists repeat pages and the rest merge into
        /// few runs.
        fn pages(&mut self) -> Vec<u64> {
            let span = if self.next().is_multiple_of(4) {
                48
            } else {
                4_096
            };
            (0..1 + self.next() % 64)
                .map(|_| self.next() % span)
                .collect()
        }

        /// Mostly blocking work, so the synchronous lanes win the disk
        /// and write-back piles up behind them.
        fn req(&mut self) -> DiskReq {
            let kind = self.next() % 100;
            let token = self.token((60..=89).contains(&kind));
            match kind {
                0..=44 => DiskReq::LogAppend {
                    bytes: 1 + self.next() % 4_096,
                    token,
                },
                45..=59 => DiskReq::DbSyncWrite {
                    page: self.next() % 4_096,
                    token,
                },
                60..=89 => DiskReq::DbWriteback {
                    pages: self.pages(),
                    token,
                },
                // Every fourth scan is longer than a u32 of bytes.
                90..=94 => DiskReq::SeqRead {
                    bytes: if self.next().is_multiple_of(4) {
                        (1 << 32) + self.next() % (1 << 36)
                    } else {
                        1 + self.next() % (1 << 20)
                    },
                    token,
                },
                _ => DiskReq::RandomRead {
                    pages: self.pages(),
                    token,
                },
            }
        }
    }

    /// Drive the laned disk and the single-queue oracle with one seeded
    /// request stream: every `submit`/`complete` must return the same
    /// batch (tokens in order, finish time) and leave the same stats.
    /// The oracle prices a background request when it starts, the disk when
    /// it is submitted, so the per-step stats comparison also pins *when*
    /// the write-back counters move.
    #[test]
    fn lanes_match_the_single_queue_oracle() {
        const STEPS: u64 = 30_000;
        let default_gap = DiskConfig::default().merge_gap;
        for (group_commit, merge_gap) in [
            (true, default_gap),
            (false, default_gap),
            (true, 0),
            (true, 1),
            (false, 4_096),
        ] {
            let cfg = DiskConfig {
                group_commit,
                merge_gap,
                ..DiskConfig::default()
            };
            let mut disk = Disk::new(cfg);
            let mut oracle = RefDisk::new(cfg);
            let mut rng = SplitMix {
                rng: cx_types::rng::SmallRng::seed_from_u64(
                    0x5eed + group_commit as u64 + (merge_gap << 1),
                ),
                counter: 0,
            };
            let mut now = SimTime(0);
            let mut inflight: Option<SimTime> = None;
            let (mut crashes, mut deepest, mut deepest_crashed) = (0, 0, 0);
            for step in 0..STEPS {
                // Submissions outpace completions; a rare crash empties
                // both disks, and one is forced the first time the priced
                // backlog is 1,200 deep.
                let roll = rng.next() % 10_000;
                let backlog = disk.background.len;
                let (got, want) = if roll < 2 || (deepest_crashed == 0 && backlog >= 1_200) {
                    disk.crash();
                    oracle.crash();
                    inflight = None;
                    crashes += 1;
                    deepest_crashed = deepest_crashed.max(backlog);
                    (None, None)
                } else if roll < 2_500 && inflight.is_some() {
                    now = inflight.take().expect("checked");
                    (disk.complete(now), oracle.complete(now))
                } else {
                    now = SimTime(now.0 + rng.next() % 200_000);
                    let req = rng.req();
                    (disk.submit(now, req.clone()), oracle.submit(now, req))
                };
                let cfg = (group_commit, merge_gap);
                assert_eq!(got, want, "step {step} {cfg:?}");
                assert_eq!(disk.stats, oracle.stats, "step {step} {cfg:?}");
                assert_eq!(disk.queued(), oracle.queue.len(), "step {step} {cfg:?}");
                if let Some(b) = got {
                    inflight = Some(b.finish);
                }
                deepest = deepest.max(disk.background.len);
            }
            assert!(
                crashes > 1 && deepest >= 1_000 && deepest_crashed >= 1_000,
                "{crashes} crashes (deepest backlog lost {deepest_crashed}), backlog {deepest}"
            );
            // Drain: the backlog comes out in the oracle's order too.
            while let Some(finish) = inflight.take() {
                let got = disk.complete(finish);
                assert_eq!(got, oracle.complete(finish), "drain");
                assert_eq!(disk.stats, oracle.stats, "drain");
                inflight = got.map(|b| b.finish);
            }
            assert!(disk.is_idle() && oracle.queue.is_empty());
            let s = disk.stats;
            assert!(
                s.log_appends > 0
                    && s.sync_writes > 0
                    && s.wb_batches > 0
                    && (merge_gap == 0 || s.wb_pages > s.wb_runs)
                    && s.seq_reads > 0
                    && s.cold_reads > 0,
                "every request kind was served: {s:?}"
            );
        }
    }

    /// Every kind comes back out of the lane with its token and counts,
    /// up to the largest count an entry holds and across token steps of
    /// every size, both ways round the `u64` circle; a chassis chunk of
    /// under 32 pages costs 3 B. Past the largest count, `submit` refuses.
    #[test]
    fn a_packed_entry_round_trips_at_its_limits() {
        let max = Backlog::COUNT_MAX;
        let costs = [
            Cost::Writeback { pages: 0, runs: 0 },
            Cost::Writeback { pages: 31, runs: 1 },
            Cost::Writeback {
                pages: max,
                runs: max,
            },
            Cost::SeqRead { bytes: 0 },
            Cost::SeqRead { bytes: max },
            Cost::RandomRead { pages: 1 },
            Cost::RandomRead { pages: max },
        ];
        let wb = 1 << 63;
        let tokens = [0, 1, wb | 2, wb | 3, 4, u64::MAX, 0, u64::MAX - 1, 5];
        let mut lane = Backlog::new();
        let entries: Vec<(u64, Cost)> = costs
            .iter()
            .flat_map(|&cost| tokens.iter().map(move |&token| (token, cost)))
            .collect();
        for &(token, cost) in &entries {
            lane.push(token, cost);
        }
        assert_eq!(lane.len, entries.len());
        let popped: Vec<_> = std::iter::from_fn(|| lane.pop()).collect();
        assert_eq!(popped, entries);
        assert!(lane.bytes.is_empty() && lane.len == 0);

        let chunk = Cost::Writeback { pages: 31, runs: 2 };
        lane.push(1 << 63 | 9, chunk);
        let before = lane.bytes.len();
        lane.push(1 << 63 | 10, chunk);
        assert_eq!(lane.bytes.len() - before, 3, "a chunk after its neighbour");

        let mut d = disk();
        for bytes in [max + 1, u64::MAX] {
            let req = DiskReq::SeqRead { bytes, token: 1 };
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.submit(SimTime(0), req)
            }));
            assert!(refused.is_err(), "a {bytes}-byte scan is priced");
        }
        for cost in [
            Cost::Writeback {
                pages: max + 1,
                runs: 1,
            },
            Cost::RandomRead { pages: max + 1 },
        ] {
            let refused = std::panic::catch_unwind(|| Backlog::new().push(0, cost));
            assert!(refused.is_err(), "{cost:?} is priced");
        }
    }

    #[test]
    fn single_append_starts_immediately() {
        let mut d = disk();
        let b = d.submit(
            SimTime(0),
            DiskReq::LogAppend {
                bytes: 128,
                token: 1,
            },
        );
        let b = b.expect("idle disk starts immediately");
        assert_eq!(b.tokens, vec![1]);
        assert!(b.finish.0 >= DiskConfig::default().log_flush_ns);
    }

    #[test]
    fn group_commit_absorbs_queued_appends() {
        let mut d = disk();
        let first = d
            .submit(
                SimTime(0),
                DiskReq::LogAppend {
                    bytes: 100,
                    token: 1,
                },
            )
            .unwrap();
        // These queue behind the in-flight flush...
        for t in 2..=10 {
            assert!(d
                .submit(
                    SimTime(10),
                    DiskReq::LogAppend {
                        bytes: 100,
                        token: t
                    }
                )
                .is_none());
        }
        // ...and all complete in the *next single* flush.
        let next = d.complete(first.finish).expect("second flush starts");
        assert_eq!(next.tokens, (2..=10).collect::<Vec<_>>());
        assert_eq!(d.stats().log_flushes, 2);
        assert_eq!(d.stats().log_appends, 10);
        assert!(d.stats().appends_per_flush() > 4.9);
        assert!(d.complete(next.finish).is_none());
        assert!(d.is_idle());
    }

    #[test]
    fn sync_writes_group_commit_but_pay_per_write() {
        let cfg = DiskConfig::default();
        let mut d = disk();
        let b1 = d
            .submit(SimTime(0), DiskReq::DbSyncWrite { page: 1, token: 1 })
            .unwrap();
        assert_eq!(
            b1.finish.0,
            cfg.db_sync_write_ns + cfg.db_sync_per_write_ns,
            "a lone sync write pays flush + one page write"
        );
        // Four more (scattered pages) queue behind the in-flight flush…
        for t in 2..=5 {
            assert!(d
                .submit(
                    SimTime(0),
                    DiskReq::DbSyncWrite {
                        page: t * 100_000,
                        token: t
                    }
                )
                .is_none());
        }
        // …and share the next flush, each scattered page paying its own
        // in-place run.
        let b2 = d.complete(b1.finish).unwrap();
        assert_eq!(b2.tokens, vec![2, 3, 4, 5]);
        assert_eq!(
            b2.finish.0 - b1.finish.0,
            cfg.db_sync_write_ns + 4 * cfg.db_sync_per_write_ns
        );
        assert_eq!(d.stats().sync_writes, 5);
    }

    #[test]
    fn adjacent_sync_writes_merge_into_one_run() {
        let cfg = DiskConfig::default();
        let mut d = disk();
        let b1 = d
            .submit(SimTime(0), DiskReq::DbSyncWrite { page: 1, token: 1 })
            .unwrap();
        for t in 2..=9 {
            d.submit(SimTime(0), DiskReq::DbSyncWrite { page: t, token: t });
        }
        let b2 = d.complete(b1.finish).unwrap();
        assert_eq!(b2.tokens.len(), 8);
        assert_eq!(
            b2.finish.0 - b1.finish.0,
            cfg.db_sync_write_ns + cfg.db_sync_per_write_ns,
            "adjacent pages coalesce into one in-place run"
        );
    }

    #[test]
    fn writeback_merges_adjacent_pages() {
        let cfg = DiskConfig::default();
        let mut d = Disk::new(cfg);
        // 100 adjacent pages: one run.
        let adj: Vec<u64> = (0..100).collect();
        let b = d
            .submit(
                SimTime(0),
                DiskReq::DbWriteback {
                    pages: adj,
                    token: 1,
                },
            )
            .unwrap();
        let adjacent_time = b.finish.0;
        assert_eq!(d.stats().wb_runs, 1);
        d.complete(b.finish);

        // 100 scattered pages: 100 runs, much slower.
        let scat: Vec<u64> = (0..100).map(|i| i * 10_000).collect();
        let t0 = b.finish;
        let b2 = d
            .submit(
                t0,
                DiskReq::DbWriteback {
                    pages: scat,
                    token: 2,
                },
            )
            .unwrap();
        let scattered_time = b2.finish.0 - t0.0;
        assert_eq!(d.stats().wb_runs, 1 + 100);
        assert!(
            scattered_time > 10 * adjacent_time,
            "scattered {scattered_time} vs adjacent {adjacent_time}"
        );
    }

    #[test]
    fn writeback_dedups_pages() {
        let mut d = disk();
        let b = d
            .submit(
                SimTime(0),
                DiskReq::DbWriteback {
                    pages: vec![5, 5, 5, 6],
                    token: 1,
                },
            )
            .unwrap();
        assert_eq!(d.stats().wb_pages, 2);
        assert_eq!(b.tokens, vec![1]);
    }

    #[test]
    fn synchronous_work_has_priority_over_writeback() {
        let mut d = disk();
        let b1 = d
            .submit(SimTime(0), DiskReq::DbSyncWrite { page: 1, token: 1 })
            .unwrap();
        d.submit(
            SimTime(0),
            DiskReq::DbWriteback {
                pages: vec![9],
                token: 2,
            },
        );
        d.submit(
            SimTime(0),
            DiskReq::LogAppend {
                bytes: 64,
                token: 3,
            },
        );
        d.submit(
            SimTime(0),
            DiskReq::LogAppend {
                bytes: 64,
                token: 4,
            },
        );
        // The write-back arrived first, but both (blocking) log appends
        // ride the next flush ahead of it.
        let b2 = d.complete(b1.finish).unwrap();
        assert_eq!(b2.tokens, vec![3, 4]);
        let b3 = d.complete(b2.finish).unwrap();
        assert_eq!(b3.tokens, vec![2], "background write-back runs last");
        assert!(d.complete(b3.finish).is_none());
    }

    #[test]
    fn crash_drops_queued_work() {
        let mut d = disk();
        d.submit(SimTime(0), DiskReq::DbSyncWrite { page: 1, token: 1 });
        d.submit(SimTime(0), DiskReq::DbSyncWrite { page: 2, token: 2 });
        d.crash();
        assert!(d.is_idle());
        // A fresh request starts immediately after reboot.
        assert!(d
            .submit(SimTime(100), DiskReq::LogAppend { bytes: 1, token: 3 })
            .is_some());
    }

    #[test]
    fn count_runs_respects_gap() {
        assert_eq!(count_runs(&[], 16), 0);
        assert_eq!(count_runs(&[1], 16), 1);
        assert_eq!(count_runs(&[1, 2, 3], 16), 1);
        assert_eq!(count_runs(&[1, 18, 100], 16), 3); // gaps 17 and 82 both exceed 16
    }

    #[test]
    fn count_runs_boundary() {
        // gap exactly merge_gap merges; one more splits
        assert_eq!(count_runs(&[0, 16], 16), 1);
        assert_eq!(count_runs(&[0, 17], 16), 2);
    }

    #[test]
    fn seq_read_time_scales_with_bytes() {
        let mut d = disk();
        let b1 = d
            .submit(
                SimTime(0),
                DiskReq::SeqRead {
                    bytes: 1 << 20,
                    token: 1,
                },
            )
            .unwrap();
        let t1 = b1.finish.0;
        d.complete(b1.finish);
        let b2 = d
            .submit(
                b1.finish,
                DiskReq::SeqRead {
                    bytes: 10 << 20,
                    token: 2,
                },
            )
            .unwrap();
        let t2 = b2.finish.0 - b1.finish.0;
        assert!(t2 > t1, "10 MB read must take longer than 1 MB read");
    }
}
