//! Per-operation state, stored densely.
//!
//! The engines keep a fat value for every in-flight operation and churn
//! through them first-in first-out. A hash table of such values runs at a
//! quarter load under that churn — tombstones fill it until a rehash
//! doubles it — so every live entry pays for three empty fat slots. An
//! [`OpTable`] keeps the values in a slab and indexes them by slot number
//! alone: the sparse part costs 4 bytes a bucket (the key is read from the
//! slab), the fat part is as large as the most entries ever live at once.

use crate::ids::OpId;
use crate::probe;

/// A bucket no slot number occupies.
const EMPTY: u32 = u32::MAX;

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
    /// Slot numbers, open-addressed by [`probe`] at a load of at most
    /// three quarters, keys read from the slab. Empty or a power of two
    /// long.
    index: Vec<u32>,
}

impl<V> Default for OpTable<V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            index: Vec::new(),
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
        self.walk(op).is_ok()
    }

    pub fn get(&self, op: &OpId) -> Option<&V> {
        let slot = self.index[self.walk(op).ok()?];
        self.slots[slot as usize].as_ref().map(|(_, v)| v)
    }

    pub fn get_mut(&mut self, op: &OpId) -> Option<&mut V> {
        let slot = self.index[self.walk(op).ok()?];
        self.slots[slot as usize].as_mut().map(|(_, v)| v)
    }

    /// Insert or overwrite; returns the value replaced.
    pub fn insert(&mut self, op: OpId, value: V) -> Option<V> {
        match self.entry(&op) {
            Ok(slot) => {
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
        let slot = match self.entry(&op) {
            Ok(slot) => slot,
            Err(bucket) => self.place(bucket, op, V::default()),
        };
        let (_, v) = self.slots[slot as usize].as_mut().expect("indexed");
        v
    }

    pub fn remove(&mut self, op: &OpId) -> Option<V> {
        let bucket = self.walk(op).ok()?;
        let slot = self.index[bucket];
        let slots = &self.slots;
        let hash = |&slot: &u32| probe::row_hash(key(slots, slot));
        probe::vacate(&mut self.index, bucket, EMPTY, |&b| b == EMPTY, hash);
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
        self.index.fill(EMPTY);
        self.free.clear();
        self.slots.drain(..).flatten()
    }

    pub fn clear(&mut self) {
        self.index.fill(EMPTY);
        self.free.clear();
        self.slots.clear();
    }

    /// Slots the slab has room for, live or vacant (tests and diagnostics).
    pub fn slab_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Walk `op`'s probe sequence: `Ok` with the bucket holding its slot,
    /// or `Err` with the empty bucket that ends the walk.
    fn walk(&self, op: &OpId) -> Result<usize, usize> {
        let slots = &self.slots;
        probe::walk(
            &self.index,
            probe::row_hash(op),
            |&b| b == EMPTY,
            |&b| key(slots, b) == op,
        )
    }

    /// `Ok` with `op`'s slot, or `Err` with the bucket a new slot for it
    /// goes in — after doubling the index (8 buckets at first) and
    /// re-indexing the slab if one more entry would load it past three
    /// quarters.
    fn entry(&mut self, op: &OpId) -> Result<u32, usize> {
        match self.walk(op) {
            Ok(bucket) => return Ok(self.index[bucket]),
            Err(bucket) if (self.len() + 1) * 4 <= self.index.len() * 3 => return Err(bucket),
            Err(_) => {}
        }
        self.index = vec![EMPTY; (2 * self.index.len()).max(8)];
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some((op, _)) = entry {
                let bucket = self.walk(op).expect_err("keys are unique");
                self.index[bucket] = slot as u32;
            }
        }
        Err(self.walk(op).expect_err("absent"))
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
        self.index[bucket] = slot;
        slot
    }
}

/// The key stored in an indexed slot.
fn key<V>(slots: &[Option<(OpId, V)>], slot: u32) -> &OpId {
    &slots[slot as usize].as_ref().expect("indexed").0
}
