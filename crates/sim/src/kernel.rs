//! The event queue and virtual clock.
//!
//! The queue is a bucketed timing wheel over a payload slab:
//!
//! - Event payloads live in a slab and are moved exactly twice (in at
//!   schedule, out at pop). Everything the queue reorders is a 24-byte
//!   [`Handle`], which matters because the cluster's event enum is ~200
//!   bytes and a binary heap sifts its elements on every operation.
//! - Near-future handles go into a ring of fixed-width buckets (O(1)
//!   schedule); the bucket under the cursor drains through a small binary
//!   heap so pop order within a bucket is exact. A one-bit-per-bucket
//!   occupancy bitmap makes skipping empty buckets cheap.
//! - Handles beyond the wheel horizon (~67 ms: failure detectors, long
//!   timeouts) wait in an overflow heap and merge in by bucket number as
//!   the cursor advances.
//!
//! Pop order is identical to a single global heap ordered by `(at, seq)`
//! — `seq` is the schedule order, so ties break FIFO and the simulation
//! is bit-deterministic. The unit tests hold the wheel to exactly that
//! model, step for step. [`Sim`] and the wall-clock runtime's
//! [`TimerQueue`] are two faces of the one wheel.

use cx_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Index of a node (actor) in the simulation. The cluster crate assigns
/// dense indices to servers, disks and client processes.
pub type NodeIdx = u32;

/// A deadline queue with the simulator's tie-break: entries pop in
/// `(deadline, insertion order)`. It is [`Sim`]'s own timing wheel, so
/// the wall-clock runtime's nodes fire same-deadline timers in the order
/// the DES does.
pub struct TimerQueue<T> {
    wheel: Wheel<T>,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerQueue<T> {
    pub fn new() -> Self {
        Self {
            wheel: Wheel::new(),
        }
    }

    pub fn push(&mut self, deadline: SimTime, item: T) {
        self.wheel.push(deadline, 0, item);
    }

    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.wheel.pop().map(|(at, _, item)| (at, item))
    }

    /// Earliest deadline without popping. The wheel's cursor moves up to
    /// it, which is why this takes `&mut self`.
    pub fn peek_deadline(&mut self) -> Option<SimTime> {
        self.wheel.peek()
    }

    pub fn is_empty(&self) -> bool {
        self.wheel.len == 0
    }

    pub fn len(&self) -> usize {
        self.wheel.len
    }
}

/// Bucket width: 2^16 ns ≈ 65.5 µs. Wide buckets keep the ring walk short.
/// Few slots are occupied at once, but a burst lands many handles in one:
/// measured on the benchmark's `des-update` row, at most 47 slots are
/// occupied together while the largest bucket holds 200 handles (30 and
/// 88 on `des-home2`), and over a run the bursts visit every slot. That is
/// why bucket storage is pooled (`Wheel::pool`) instead of each slot
/// keeping the capacity of the largest burst it ever saw.
const BUCKET_SHIFT: u32 = 16;
/// Ring size: 1024 buckets ≈ 67 ms horizon — covers network, disk and
/// batch-timer delays; only failure-detection timers overflow.
const RING_BUCKETS: usize = 1024;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const WORDS: usize = RING_BUCKETS / 64;

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.0 >> BUCKET_SHIFT
}

/// What the wheel actually sorts: 24 bytes, `Copy`. `idx` points into
/// the payload slab.
#[derive(Clone, Copy)]
struct Handle {
    at: SimTime,
    seq: u64,
    idx: u32,
    dst: NodeIdx,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest handle.
impl Ord for Handle {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Handle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Handle {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Handle {}

/// Payload storage: slots are recycled through a free list, so a steady
/// simulation allocates nothing once warm.
struct Slab<E> {
    items: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    fn new() -> Self {
        Self {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = Some(event);
                i
            }
            None => {
                self.items.push(Some(event));
                (self.items.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn take(&mut self, idx: u32) -> E {
        self.free.push(idx);
        self.items[idx as usize].take().expect("live slab slot")
    }
}

/// The timing wheel proper. Invariants:
/// - `active` holds handles of the `cursor` bucket and, after a peek has
///   moved the cursor past the caller's clock, of earlier buckets pushed
///   since: every one of them pops before any ring or overflow handle;
/// - ring slot `b & RING_MASK` holds only handles of one bucket
///   `b ∈ (cursor, cursor + RING_BUCKETS)` (the cursor never skips a
///   non-empty bucket, so a slot is fully drained before its number is
///   reused a revolution later);
/// - `overflow` holds handles that were beyond the horizon *when
///   scheduled*; its top is merged by bucket number during advance.
struct Wheel<E> {
    /// Bucket number currently being drained (monotone).
    cursor: u64,
    /// Handles of the cursor bucket, sorted descending by `(at, seq)` and
    /// popped from the back — buckets hold a handful of handles, so one
    /// sort per bucket beats a binary heap's per-operation sifting, and
    /// same-bucket inserts during the drain are a short memmove.
    active: Vec<Handle>,
    /// An empty slot is a `Vec::new()` and owns no heap.
    ring: Vec<Vec<Handle>>,
    /// Drained bucket storage, handed to the next slot that turns
    /// non-empty: retained capacity follows the number of buckets occupied
    /// at once, not 1024 × the largest burst.
    pool: Vec<Vec<Handle>>,
    /// One bit per ring slot: slot is non-empty.
    occupied: [u64; WORDS],
    overflow: BinaryHeap<Handle>,
    slab: Slab<E>,
    len: usize,
    /// Handles pushed so far: the FIFO tie-break.
    seq: u64,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Self {
            cursor: 0,
            active: Vec::new(),
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            pool: Vec::new(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            slab: Slab::new(),
            len: 0,
            seq: 0,
        }
    }

    #[inline]
    fn push(&mut self, at: SimTime, dst: NodeIdx, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let idx = self.slab.insert(event);
        let h = Handle { at, seq, idx, dst };
        self.len += 1;
        let b = bucket_of(at);
        if b <= self.cursor {
            // Keep the drain order exact: insert behind every handle that
            // pops later (descending, so "greater" keys come first). An
            // earlier bucket than the cursor's sorts to the back.
            let pos = self.active.partition_point(|x| (x.at, x.seq) > (at, seq));
            self.active.insert(pos, h);
        } else if b < self.cursor + RING_BUCKETS as u64 {
            let slot = (b & RING_MASK) as usize;
            let (word, bit) = (slot >> 6, 1 << (slot & 63));
            if self.occupied[word] & bit == 0 {
                self.occupied[word] |= bit;
                self.ring[slot] = self.pool.pop().unwrap_or_default();
            }
            self.ring[slot].push(h);
        } else {
            self.overflow.push(h);
        }
    }

    /// Bucket number of the next non-empty ring slot strictly after the
    /// cursor, reconstructed from the wrap-around distance.
    fn next_ring_bucket(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & RING_MASK) as usize;
        let mut dist = 0usize;
        let mut word_idx = start >> 6;
        let mut bit_base = start & 63;
        let mut word = self.occupied[word_idx] >> bit_base;
        loop {
            if word != 0 {
                let slot_dist = dist + word.trailing_zeros() as usize;
                if slot_dist >= RING_BUCKETS {
                    return None;
                }
                return Some(self.cursor + 1 + slot_dist as u64);
            }
            dist += 64 - bit_base;
            if dist >= RING_BUCKETS {
                return None;
            }
            bit_base = 0;
            word_idx = (word_idx + 1) % WORDS;
            word = self.occupied[word_idx];
        }
    }

    /// Refill `active` from the earliest non-empty bucket. Returns false
    /// when the wheel is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.active.is_empty());
        let ring_b = self.next_ring_bucket();
        let ovf_b = self.overflow.peek().map(|h| bucket_of(h.at));
        let next = match (ring_b, ovf_b) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        };
        let Some(next) = next else { return false };
        self.cursor = next;
        // Ring slot first (if this bucket has one), then any overflow
        // handles in the same bucket; the sort below restores exact
        // (at, seq) order among all of them. The slot's storage becomes
        // `active` and the spent `active` goes back to the pool.
        if ring_b == Some(next) {
            let slot = (next & RING_MASK) as usize;
            let bucket = std::mem::take(&mut self.ring[slot]);
            self.pool.push(std::mem::replace(&mut self.active, bucket));
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
        }
        while self
            .overflow
            .peek()
            .is_some_and(|h| bucket_of(h.at) == next)
        {
            let h = self.overflow.pop().expect("peeked");
            self.active.push(h);
        }
        self.active
            .sort_unstable_by_key(|h| std::cmp::Reverse((h.at, h.seq)));
        debug_assert!(!self.active.is_empty());
        true
    }

    /// Time of the next handle to pop.
    fn peek(&mut self) -> Option<SimTime> {
        if self.active.is_empty() && !self.advance() {
            return None;
        }
        self.active.last().map(|h| h.at)
    }

    fn pop(&mut self) -> Option<(SimTime, NodeIdx, E)> {
        self.peek()?;
        let h = self.active.pop().expect("peeked");
        self.len -= 1;
        Some((h.at, h.dst, self.slab.take(h.idx)))
    }
}

/// A deterministic discrete-event simulator.
///
/// ```
/// use cx_sim::Sim;
///
/// let mut sim: Sim<&'static str> = Sim::new();
/// sim.schedule(10, 0, "b");
/// sim.schedule(5, 0, "a");
/// let (t, _, ev) = sim.pop().unwrap();
/// assert_eq!((t.0, ev), (5, "a"));
/// ```
pub struct Sim<E> {
    now: SimTime,
    queue: Wheel<E>,
    processed: u64,
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Sim<E> {
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            queue: Wheel::new(),
            processed: 0,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event (events never run "in the past").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` for `dst`, `delay` ns after the current time.
    pub fn schedule(&mut self, delay: u64, dst: NodeIdx, event: E) {
        self.schedule_at(self.now + delay, dst, event);
    }

    /// Schedule `event` at an absolute virtual time. Times in the past are
    /// clamped to `now` (the event still runs after currently queued events
    /// with the same timestamp, preserving causality).
    pub fn schedule_at(&mut self, at: SimTime, dst: NodeIdx, event: E) {
        self.queue.push(at.max(self.now), dst, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, NodeIdx, E)> {
        let (at, dst, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.processed += 1;
        Some((at, dst, event))
    }

    pub fn is_empty(&self) -> bool {
        self.queue.len == 0
    }

    pub fn pending(&self) -> usize {
        self.queue.len
    }

    /// Total events processed so far (a cheap progress/complexity metric).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<E> Wheel<E> {
        /// Handles' worth of heap the wheel holds on to, in use or not.
        fn retained_handle_capacity(&self) -> usize {
            let vecs = self.ring.iter().chain(&self.pool);
            let vecs: usize = vecs.map(Vec::capacity).sum();
            self.active.capacity() + self.overflow.capacity() + vecs
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(30, 0, 3);
        sim.schedule(10, 0, 1);
        sim.schedule(20, 0, 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim: Sim<u32> = Sim::new();
        for i in 0..100 {
            sim.schedule(5, 0, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule(10, 0, ());
        sim.schedule(10, 0, ());
        sim.schedule(25, 0, ());
        let mut last = SimTime::ZERO;
        while let Some((t, _, _)) = sim.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(last.0, 25);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(100, 0, 1);
        sim.pop();
        assert_eq!(sim.now().0, 100);
        sim.schedule_at(SimTime(50), 0, 2); // in the past
        let (t, _, e) = sim.pop().unwrap();
        assert_eq!((t.0, e), (100, 2));
    }

    #[test]
    fn nested_scheduling_during_pop_loop() {
        // Events scheduled from handlers interleave correctly.
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(10, 0, 0);
        let mut seen = Vec::new();
        while let Some((_, _, e)) = sim.pop() {
            seen.push(e);
            if e < 3 {
                sim.schedule(10, 0, e + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(sim.now().0, 40);
    }

    /// The wheel horizon is ~67 ms; events far beyond it (failure
    /// detectors, long timeouts) take the overflow path and still pop in
    /// exact order, including FIFO ties against ring events.
    #[test]
    fn overflow_events_interleave_correctly() {
        let mut sim: Sim<u32> = Sim::new();
        let hour = 3_600_000_000_000; // far past any horizon
        sim.schedule(hour, 0, 40);
        sim.schedule(5_000, 0, 10); // in-ring
        sim.schedule(hour, 0, 41); // same bucket + time as 40: FIFO
        sim.schedule(200_000_000, 0, 30); // past horizon at schedule time
        sim.schedule(100_000_000, 0, 20); // also past horizon
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 41]);
        assert_eq!(sim.now().0, hour);
    }

    /// An event scheduled into the bucket currently being drained joins
    /// the active heap and sorts correctly against what is left in it.
    #[test]
    fn same_bucket_insert_during_drain() {
        let mut sim: Sim<u32> = Sim::new();
        sim.schedule(100, 0, 1);
        sim.schedule(30_000, 0, 3);
        let (t, _, e) = sim.pop().unwrap();
        assert_eq!((t.0, e), (100, 1));
        sim.schedule(10_000, 0, 2); // t=10100: same 65 µs bucket as t=30000
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![2, 3]);
    }

    /// Interleaved schedule/pop with re-scheduling from handlers — the
    /// cursor moves while new events land in current, ring, and overflow
    /// buckets.
    #[test]
    fn interleaved_load_stays_sorted() {
        let mut sim: Sim<u64> = Sim::new();
        for i in 0..32 {
            sim.schedule(i * 10_000, 0, i);
        }
        let mut popped = Vec::new();
        let mut spawned = 32u64;
        while let Some((t, _, e)) = sim.pop() {
            popped.push((t, e));
            if spawned < 400 {
                // Handlers schedule relative to the advancing clock.
                sim.schedule((e * 7919) % 30_000_000, 0, spawned);
                sim.schedule(67_000_000 + (e % 3) * 65_536, 0, spawned + 1);
                spawned += 2;
            }
        }
        let mut sorted = popped.clone();
        sorted.sort_by_key(|&(t, _)| t);
        // Time-sorted (stable sort keeps equal times in pop order, which
        // must already be seq order).
        assert_eq!(popped, sorted);
        assert_eq!(sim.events_processed(), popped.len() as u64);
    }

    struct Scheduled<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }

    // BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}

    /// The reference model the wheel is checked against: one global heap
    /// ordered by `(at, seq)`, with the same past-clamping as [`Sim`].
    struct RefSim<E> {
        now: SimTime,
        seq: u64,
        heap: BinaryHeap<Scheduled<(NodeIdx, E)>>,
    }

    impl<E> RefSim<E> {
        fn schedule_at(&mut self, at: SimTime, dst: NodeIdx, event: E) {
            let at = at.max(self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Scheduled {
                at,
                seq,
                event: (dst, event),
            });
        }

        fn pop(&mut self) -> Option<(SimTime, NodeIdx, E)> {
            let s = self.heap.pop()?;
            self.now = s.at;
            Some((s.at, s.event.0, s.event.1))
        }
    }

    /// Drive the wheel and the reference heap through one seeded
    /// interleaving of relative schedules (same bucket, near ring, mid
    /// ring, far overflow), absolute schedules (past, cursor bucket, bucket
    /// boundary, near the horizon) and pops whose handlers reschedule;
    /// every pop and the clock must agree. A [`TimerQueue`] takes the same
    /// deadlines (clamped as the heap clamps them) and is peeked at every
    /// step, so its cursor runs ahead of the clock and later deadlines
    /// land in buckets it has passed: its every peek and pop must agree
    /// with the heap too.
    #[test]
    fn wheel_matches_reference_heap_step_for_step() {
        const STEPS: usize = 120_000;
        const BUCKET: u64 = 1 << BUCKET_SHIFT;
        const HORIZON: u64 = BUCKET * RING_BUCKETS as u64;

        let mut rng = cx_types::rng::det_rng(0xC0FFEE, 1);
        let mut wheel: Sim<u64> = Sim::new();
        let mut heap: RefSim<u64> = RefSim {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
        };
        let mut timers: TimerQueue<u64> = TimerQueue::new();
        let mut next_id = 0u64;
        let mut pops = 0usize;
        let mut every = |wheel: &mut Sim<u64>,
                         heap: &mut RefSim<u64>,
                         timers: &mut TimerQueue<u64>,
                         at: SimTime,
                         dst: NodeIdx| {
            timers.push(at.max(heap.now), next_id);
            wheel.schedule_at(at, dst, next_id);
            heap.schedule_at(at, dst, next_id);
            next_id += 1;
        };
        let peeks_agree = |timers: &mut TimerQueue<u64>, heap: &RefSim<u64>| {
            let want = heap.heap.peek().map(|s| s.at);
            assert_eq!(timers.peek_deadline(), want, "timer peek diverged");
            assert_eq!(timers.len(), heap.heap.len());
        };

        for step in 0..STEPS {
            let now = wheel.now();
            let dst = rng.gen_range(0..16u32);
            // Alternate filling and draining phases so the wheel is seen
            // both deep and running empty.
            let pop_weight = if (step / 4096) % 2 == 0 { 5 } else { 40 };
            let schedule_at = match rng.gen_range(0..8 + pop_weight) {
                // Relative delays: inside a bucket, across a few buckets,
                // anywhere in the middle of the ring, far past the horizon.
                0 => Some(now + rng.gen_range(0..1_000u64)),
                1 => Some(now + rng.gen_range(0..10 * BUCKET)),
                2 => Some(now + rng.gen_range(10 * BUCKET..HORIZON - 2 * BUCKET)),
                3 => Some(now + rng.gen_range(HORIZON..40 * HORIZON)),
                // Absolute times: in the past (clamps to now), inside the
                // cursor bucket, exactly on a bucket boundary, within two
                // buckets of the horizon.
                4 => Some(SimTime(now.0 / 2)),
                5 => Some(SimTime((now.0 & !(BUCKET - 1)) + rng.gen_range(0..BUCKET))),
                6 => Some(SimTime(
                    (bucket_of(now) + rng.gen_range(0..8u64)) << BUCKET_SHIFT,
                )),
                7 => Some(now + (HORIZON - 2 * BUCKET + rng.gen_range(0..4 * BUCKET))),
                _ => None,
            };
            match schedule_at {
                Some(at) => every(&mut wheel, &mut heap, &mut timers, at, dst),
                // Pop; the "handler" reschedules relative to the new clock.
                None => {
                    let got = wheel.pop();
                    assert_eq!(got, heap.pop(), "pop #{pops} diverged");
                    assert_eq!(wheel.now(), heap.now);
                    let timer = timers.pop();
                    assert_eq!(timer, got.map(|(at, _, ev)| (at, ev)), "timer pop #{pops}");
                    if let Some((at, dst, ev)) = got {
                        pops += 1;
                        if ev % 3 != 0 {
                            let at = at + (ev * 7919) % (3 * BUCKET);
                            every(&mut wheel, &mut heap, &mut timers, at, dst);
                        }
                        if ev % 11 == 0 {
                            let at = at + HORIZON + ev % BUCKET;
                            every(&mut wheel, &mut heap, &mut timers, at, dst + 1);
                        }
                    }
                }
            }
            assert_eq!(wheel.pending(), heap.heap.len());
            peeks_agree(&mut timers, &heap);
        }
        while let Some(want) = heap.pop() {
            assert_eq!(wheel.pop(), Some(want));
            assert_eq!(wheel.now(), heap.now);
            assert_eq!(timers.pop(), Some((want.0, want.2)));
            peeks_agree(&mut timers, &heap);
            pops += 1;
        }
        assert!(wheel.is_empty());
        assert!(timers.is_empty());
        assert_eq!(wheel.events_processed(), next_id);
        assert!(pops >= 50_000, "too few compared pops: {pops}");
    }

    /// Bursts that visit every ring slot must not leave every slot holding
    /// a burst's worth of capacity: what the wheel retains follows what is
    /// pending at once. (With per-slot storage this sweep retains
    /// 1024 × 256 handles — 6 MiB — for 400 pending.)
    #[test]
    fn retained_capacity_tracks_pending_events_not_slots_visited() {
        const BURST: u64 = 200;
        const BUCKET: u64 = 1 << BUCKET_SHIFT;
        let mut sim: Sim<u64> = Sim::new();
        let mut peak_pending = 0;
        // One burst per bucket, the next one scheduled before the current
        // one drains, for a little over three revolutions.
        for bucket in 1..=3 * RING_BUCKETS as u64 + 7 {
            for i in 0..BURST {
                sim.schedule_at(SimTime(bucket * BUCKET + i), 0, bucket);
            }
            peak_pending = peak_pending.max(sim.pending());
            while sim.pending() > BURST as usize {
                let (at, _, ev) = sim.pop().expect("pending");
                assert_eq!(bucket_of(at), ev, "bursts pop bucket by bucket");
            }
        }
        assert_eq!(peak_pending, 2 * BURST as usize);
        let retained = sim.queue.retained_handle_capacity();
        assert!(
            retained <= 4 * peak_pending,
            "{retained} handles retained for a peak of {peak_pending} pending"
        );
    }

    /// The timer queue shares the simulator's FIFO tie-break.
    #[test]
    fn timer_queue_breaks_ties_fifo() {
        let mut q: TimerQueue<u32> = TimerQueue::new();
        q.push(SimTime(50), 1);
        q.push(SimTime(10), 2);
        q.push(SimTime(50), 3);
        assert_eq!(q.peek_deadline(), Some(SimTime(10)));
        assert_eq!(q.len(), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, x)| x)).collect();
        assert_eq!(order, vec![2, 1, 3]);
        assert!(q.is_empty());
    }
}
