//! `OpTable`'s index, checked against a `HashMap` and counted.
//!
//! The index is open addressing over slot numbers: linear probing, keys
//! read from the slab, backward-shift deletion. What breaks such an index
//! is a delete inside a long cluster, above all one that wraps from the
//! last bucket to the first, and a table that only ever churns first in,
//! first out. The model check drives exactly those histories; the counted
//! test pins what the index costs per live entry under that churn.

#[path = "kit/counting.rs"]
mod counting;

use counting::live;
use cx_types::{FxBuildHasher, OpId, OpTable, ProcId};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

/// SplitMix64: a seeded stream without a rand dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn oid(key: u64) -> OpId {
    OpId::new(ProcId::new((key % 5) as u32, (key % 3) as u32), key)
}

/// A table and its model, compared after every step.
struct Checked {
    table: OpTable<u64>,
    model: HashMap<OpId, u64>,
    steps: u64,
}

impl Checked {
    fn new() -> Self {
        Self {
            table: OpTable::default(),
            model: HashMap::new(),
            steps: 0,
        }
    }

    /// One random operation on `op`, answered as the model answers it.
    fn step(&mut self, op: OpId, roll: u64) {
        let (table, model) = (&mut self.table, &mut self.model);
        match roll % 8 {
            0 | 1 => assert_eq!(
                table.insert(op, roll),
                model.insert(op, roll),
                "insert {op}"
            ),
            2 | 3 => assert_eq!(table.remove(&op), model.remove(&op), "remove {op}"),
            4 => {
                *table.get_or_default(op) ^= roll;
                *model.entry(op).or_default() ^= roll;
            }
            5 => {
                if let Some(v) = table.get_mut(&op) {
                    *v = v.wrapping_add(roll);
                }
                if let Some(v) = model.get_mut(&op) {
                    *v = v.wrapping_add(roll);
                }
            }
            _ => assert_eq!(table.get(&op), model.get(&op), "get {op}"),
        }
        assert_eq!(table.contains_key(&op), model.contains_key(&op), "{op}");
        assert_eq!(table.len(), model.len());
        self.steps += 1;
        if self.steps.is_multiple_of(64) {
            self.check_all();
        }
    }

    /// Every model key is found with its value, and the walk yields the
    /// live set exactly once: each walked pair is the model's, no key
    /// twice, as many as the model holds. O(live), no sort.
    fn check_all(&self) {
        for (op, v) in &self.model {
            assert_eq!(self.table.get(op), Some(v), "lost {op}");
        }
        let mut seen = HashSet::with_capacity(self.model.len());
        for (op, v) in self.table.iter() {
            assert_eq!(self.model.get(op), Some(v), "walked {op}");
            assert!(seen.insert(*op), "walked {op} twice");
        }
        assert_eq!(seen.len(), self.model.len());
        assert_eq!(self.table.values().count(), self.model.len());
        assert_eq!(self.table.is_empty(), self.model.is_empty());
    }
}

/// Keys whose Fx hash has all three top bits set: an index that takes its
/// home bucket from the top bits puts every one of them in the last of
/// eight buckets, so six of them are one cluster wrapped onto the front.
fn last_bucket_keys(n: usize) -> Vec<OpId> {
    (0..)
        .map(oid)
        .filter(|op| FxBuildHasher::default().hash_one(op) >> 61 == 7)
        .take(n)
        .collect()
}

#[test]
fn a_long_history_answers_like_a_hash_map() {
    let mut rng = SplitMix(0x0b7a_b1e5);

    // First in, first out at a steady live count, as the engines churn:
    // homes walk the whole bucket array and clusters wrap past its end.
    for live in [1u64, 5, 6, 7, 48, 700, 3_000] {
        let mut c = Checked::new();
        for key in 0..40_000u64 {
            c.step(oid(key), 0);
            if key >= live {
                c.step(oid(key - live), 2);
            }
            if key.is_multiple_of(3) {
                let back = rng.next() % (live + 2);
                c.step(oid(key.saturating_sub(back)), rng.next());
            }
        }
        c.check_all();
    }

    // Random operations over key spaces a little larger than a small
    // index holds at three quarters: long clusters, deletes inside them.
    for space in [2u64, 6, 7, 13, 24, 25, 49, 97, 200] {
        let mut c = Checked::new();
        for _ in 0..60_000 {
            let key = rng.next() % space;
            c.step(oid(key), rng.next());
        }
        c.check_all();
    }

    // One wrapped cluster in the smallest index, emptied and refilled in
    // every order a seeded shuffle gives.
    let keys = last_bucket_keys(6);
    let mut c = Checked::new();
    for round in 0..2_000u64 {
        let mut order = keys.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        for op in &order {
            c.step(*op, 8 * round); // insert
        }
        c.check_all();
        for op in order.iter().rev().step_by(2) {
            c.step(*op, 2); // remove every other one
            c.check_all();
        }
        for op in &order {
            c.step(*op, 3); // remove whatever is left
        }
        assert!(c.table.is_empty());
    }
}

/// What the index costs per live entry at 1,000 live under first-in,
/// first-out churn: the table's live heap less its slab. Slot numbers
/// alone in a power-of-two array at most three quarters full cost 2,048
/// buckets of 4 bytes here — 8.2 B per entry with the free list, as
/// measured. A hash map of `OpId` → slot (25-byte buckets, run down to a
/// quarter load by the churn's tombstones) measured 102 B.
#[test]
fn the_index_costs_four_bytes_a_bucket() {
    const LIVE: u64 = 1_000;
    const BOUND_PER_ENTRY: f64 = 9.0;
    let before = live();
    let mut table: OpTable<u64> = OpTable::default();
    for key in 0..200_000u64 {
        table.insert(oid(key), key);
        if key >= LIVE {
            assert_eq!(table.remove(&oid(key - LIVE)), Some(key - LIVE));
        }
    }
    assert_eq!(table.len() as u64, LIVE);
    let slab = table.slab_capacity() * std::mem::size_of::<Option<(OpId, u64)>>();
    let index = (live() - before) as usize - slab;
    let per_entry = index as f64 / LIVE as f64;
    assert!(
        per_entry <= BOUND_PER_ENTRY,
        "{index} B of index for {LIVE} live entries: {per_entry:.1} B each, bound {BOUND_PER_ENTRY}"
    );
}
