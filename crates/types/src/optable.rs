//! Per-operation state, stored densely.
//!
//! The engines keep a fat value (100+ bytes) for every in-flight
//! operation and churn through them first-in first-out. A hash table of
//! such values runs at a quarter load under that churn — tombstones fill
//! it until a rehash doubles it — so every live entry pays for three empty
//! fat slots. An [`OpTable`] keeps the values in a slab and hashes only a
//! 4-byte slot number: the sparse part costs 21 bytes a bucket, the fat
//! part is as large as the most entries ever live at once.

use crate::fxhash::FxHashMap;
use crate::ids::OpId;
use std::collections::hash_map::Entry;

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
    index: FxHashMap<OpId, u32>,
}

impl<V> Default for OpTable<V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
        }
    }
}

impl<V> OpTable<V> {
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn contains_key(&self, op: &OpId) -> bool {
        self.index.contains_key(op)
    }

    pub fn get(&self, op: &OpId) -> Option<&V> {
        let slot = *self.index.get(op)?;
        self.slots[slot as usize].as_ref().map(|(_, v)| v)
    }

    pub fn get_mut(&mut self, op: &OpId) -> Option<&mut V> {
        let slot = *self.index.get(op)?;
        self.slots[slot as usize].as_mut().map(|(_, v)| v)
    }

    /// Insert or overwrite; returns the value replaced.
    pub fn insert(&mut self, op: OpId, value: V) -> Option<V> {
        match self.index.entry(op) {
            Entry::Occupied(e) => {
                let (_, old) = self.slots[*e.get() as usize].as_mut().expect("indexed");
                Some(std::mem::replace(old, value))
            }
            Entry::Vacant(e) => {
                e.insert(place(&mut self.slots, &mut self.free, op, value));
                None
            }
        }
    }

    /// The value for `op`, inserting `V::default()` first if there is none.
    pub fn get_or_default(&mut self, op: OpId) -> &mut V
    where
        V: Default,
    {
        let slot = *self
            .index
            .entry(op)
            .or_insert_with(|| place(&mut self.slots, &mut self.free, op, V::default()));
        let (_, v) = self.slots[slot as usize].as_mut().expect("indexed");
        v
    }

    pub fn remove(&mut self, op: &OpId) -> Option<V> {
        let slot = self.index.remove(op)?;
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
}

/// Store an entry in a vacant slot, or a new one if none is vacant.
fn place<V>(slots: &mut Vec<Option<(OpId, V)>>, free: &mut Vec<u32>, op: OpId, value: V) -> u32 {
    match free.pop() {
        Some(slot) => {
            slots[slot as usize] = Some((op, value));
            slot
        }
        None => {
            let slot = u32::try_from(slots.len()).expect("fewer than 2^32 live ops");
            slots.push(Some((op, value)));
            slot
        }
    }
}
