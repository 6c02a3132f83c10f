//! Per-operation state, stored densely.
//!
//! The engines keep a fat value for every in-flight operation and churn
//! through them first-in first-out. A hash table of such values runs at a
//! quarter load under that churn — tombstones fill it until a rehash
//! doubles it — so every live entry pays for three empty fat slots. An
//! [`OpTable`] keeps the values in a slab and indexes them by slot number
//! alone: the sparse part costs 4 bytes a bucket (the key is read from the
//! slab), the fat part is as large as the most entries ever live at once.
//!
//! The index itself is a [`SlotIndex`]: slot numbers into a slab someone
//! else keeps, found by a key read back from that slab. The Cx engine's
//! conflict table is a second one over the same slab, keyed by each
//! pending operation's conflict object.

use crate::ids::OpId;
use crate::probe;
use std::hash::Hash;

/// A bucket no slot number occupies.
const EMPTY: u32 = u32::MAX;

/// Slot numbers into a slab the caller keeps, open-addressed by [`probe`]
/// at a load of at most three quarters. The index stores no keys: every
/// call passes `key`, which reads an indexed slot's key back from the
/// slab, so a bucket costs 4 bytes. Each key is indexed at most once.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    /// Empty or a power of two long, 8 buckets at first.
    buckets: Vec<u32>,
    len: usize,
}

impl SlotIndex {
    /// Keys indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot indexed under `k`.
    pub fn get<K: Hash + Eq>(&self, k: &K, key: impl Fn(u32) -> K) -> Option<u32> {
        self.walk(k, &key).ok().map(|b| self.buckets[b])
    }

    /// Index `slot` under `k`, in place of any slot indexed there.
    pub fn insert<K: Hash + Eq>(&mut self, k: &K, slot: u32, key: impl Fn(u32) -> K) {
        match self.entry(k, &key) {
            Ok(bucket) => self.buckets[bucket] = slot,
            Err(bucket) => self.occupy(bucket, slot),
        }
    }

    /// Drop `k`'s entry if `pred` accepts the slot it holds; returns that
    /// slot.
    pub fn remove_if<K: Hash + Eq>(
        &mut self,
        k: &K,
        pred: impl FnOnce(u32) -> bool,
        key: impl Fn(u32) -> K,
    ) -> Option<u32> {
        let bucket = self.walk(k, &key).ok()?;
        let slot = self.buckets[bucket];
        if !pred(slot) {
            return None;
        }
        let hash = |&s: &u32| probe::row_hash(&key(s));
        probe::vacate(&mut self.buckets, bucket, EMPTY, |&b| b == EMPTY, hash);
        self.len -= 1;
        Some(slot)
    }

    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.len = 0;
    }

    /// `Ok` with the bucket holding `k`'s slot, or `Err` with the bucket a
    /// new slot for it goes in ([`SlotIndex::occupy`]) — after doubling the
    /// index if one more entry would load it past three quarters.
    fn entry<K: Hash + Eq>(&mut self, k: &K, key: impl Fn(u32) -> K) -> Result<usize, usize> {
        match self.walk(k, &key) {
            Ok(bucket) => return Ok(bucket),
            Err(bucket) if (self.len + 1) * 4 <= self.buckets.len() * 3 => return Err(bucket),
            Err(_) => {}
        }
        let grown = vec![EMPTY; (2 * self.buckets.len()).max(8)];
        let old = std::mem::replace(&mut self.buckets, grown);
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let bucket = self.walk(&key(slot), &key).expect_err("keys are unique");
            self.buckets[bucket] = slot;
        }
        Err(self.walk(k, &key).expect_err("absent"))
    }

    /// Put `slot` in the vacant `bucket` [`SlotIndex::entry`] named.
    fn occupy(&mut self, bucket: usize, slot: u32) {
        debug_assert_eq!(self.buckets[bucket], EMPTY, "a vacant bucket");
        self.buckets[bucket] = slot;
        self.len += 1;
    }

    /// Walk `k`'s probe sequence: `Ok` with the bucket holding its slot,
    /// or `Err` with the empty bucket that ends the walk.
    fn walk<K: Hash + Eq>(&self, k: &K, key: &impl Fn(u32) -> K) -> Result<usize, usize> {
        probe::walk(
            &self.buckets,
            probe::row_hash(k),
            |&b| b == EMPTY,
            |&b| key(b) == *k,
        )
    }
}

/// A map from [`OpId`] to `V`: values in a slab with a free list, found
/// through a thin index. Steady-state insert/remove allocates nothing.
///
/// Iteration is in slot order — deterministic, but a function of the
/// whole insert/remove history. A walk whose order something can observe
/// must sort by `OpId`.
#[derive(Debug, Clone)]
pub struct OpTable<V> {
    slots: Vec<Option<(OpId, V)>>,
    /// Vacant slots, reused newest first before the slab grows.
    free: Vec<u32>,
    /// Slot numbers by the key stored in their slot.
    index: SlotIndex,
}

impl<V> Default for OpTable<V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            index: SlotIndex::default(),
        }
    }
}

impl<V> OpTable<V> {
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains_key(&self, op: &OpId) -> bool {
        self.slot_of(op).is_some()
    }

    pub fn get(&self, op: &OpId) -> Option<&V> {
        self.slot_of(op).map(|slot| self.at(slot).1)
    }

    pub fn get_mut(&mut self, op: &OpId) -> Option<&mut V> {
        let slot = self.slot_of(op)?;
        self.slots[slot as usize].as_mut().map(|(_, v)| v)
    }

    /// The slab slot `op`'s entry lives in, for as long as it lives.
    pub fn slot_of(&self, op: &OpId) -> Option<u32> {
        let slots = &self.slots;
        self.index.get(op, |slot| key(slots, slot))
    }

    /// The live entry in `slot`. Panics on a vacant slot.
    pub fn at(&self, slot: u32) -> (&OpId, &V) {
        let (op, v) = self.slots[slot as usize].as_ref().expect("a live slot");
        (op, v)
    }

    /// Insert or overwrite; returns the value replaced.
    pub fn insert(&mut self, op: OpId, value: V) -> Option<V> {
        let slots = &self.slots;
        match self.index.entry(&op, |slot| key(slots, slot)) {
            Ok(bucket) => {
                let slot = self.index.buckets[bucket];
                let (_, old) = self.slots[slot as usize].as_mut().expect("indexed");
                Some(std::mem::replace(old, value))
            }
            Err(bucket) => {
                self.place(bucket, op, value);
                None
            }
        }
    }

    /// The value for `op`, inserting `V::default()` first if there is none.
    pub fn get_or_default(&mut self, op: OpId) -> &mut V
    where
        V: Default,
    {
        let slots = &self.slots;
        let slot = match self.index.entry(&op, |slot| key(slots, slot)) {
            Ok(bucket) => self.index.buckets[bucket],
            Err(bucket) => self.place(bucket, op, V::default()),
        };
        let (_, v) = self.slots[slot as usize].as_mut().expect("indexed");
        v
    }

    pub fn remove(&mut self, op: &OpId) -> Option<V> {
        let slots = &self.slots;
        let slot = self
            .index
            .remove_if(op, |_| true, |slot| key(slots, slot))?;
        self.free.push(slot);
        self.slots[slot as usize].take().map(|(_, v)| v)
    }

    /// Live entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&OpId, &V)> {
        self.slots.iter().flatten().map(|(op, v)| (op, v))
    }

    /// Live values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten().map(|(_, v)| v)
    }

    /// Empty the table, yielding what it held in slot order. The slab's
    /// capacity is kept.
    pub fn drain(&mut self) -> impl Iterator<Item = (OpId, V)> + '_ {
        self.index.clear();
        self.free.clear();
        self.slots.drain(..).flatten()
    }

    pub fn clear(&mut self) {
        self.index.clear();
        self.free.clear();
        self.slots.clear();
    }

    /// Slots the slab has room for, live or vacant (tests and diagnostics).
    pub fn slab_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Store an entry in a vacant slot, or a new one if none is vacant,
    /// and index it at `bucket`.
    fn place(&mut self, bucket: usize, op: OpId, value: V) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                u32::try_from(self.slots.len() - 1)
                    .ok()
                    .filter(|&slot| slot != EMPTY)
                    .expect("fewer than 2^32 - 1 live ops")
            }
        };
        self.slots[slot as usize] = Some((op, value));
        self.index.occupy(bucket, slot);
        slot
    }
}

/// The key stored in an indexed slot.
fn key<V>(slots: &[Option<(OpId, V)>], slot: u32) -> OpId {
    slots[slot as usize].as_ref().expect("indexed").0
}
