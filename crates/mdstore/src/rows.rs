//! One flat table of rows.
//!
//! A seeded store holds thousands of rows before its first op. In a hash
//! map those rows sit in a power-of-two bucket array beside a control byte
//! each, so a server's 4,002 seeded inodes took 8,192 buckets. A
//! [`RowTable`] is one allocation of `(key, row)` slots, inline and
//! untagged, open-addressed through [`cx_types::probe`], the core it
//! shares with `OpTable`'s index: linear probing from the key's
//! [`row_hash`](probe::row_hash), backward-shift deletion (so
//! remove/create churn leaves no tombstones), and any slot count, so a
//! reservation for `n` rows is about 4/3·`n` slots. The all-zero slot is the vacant one, so a table comes zeroed
//! from the allocator and reserving one writes no slot.

use crate::store::Inode;
use cx_types::probe;
use cx_types::{FileKind, InodeNo, Name};
use std::alloc::{self, Layout};
use std::fmt;
use std::hash::Hash;

/// A slot whose all-zero bytes are a valid value, [`Vacant::VACANT`]; a
/// table holds every row but that one.
///
/// # Safety
/// Every field of `Self` must be valid with all of its bytes zero, and
/// `VACANT` must be the value those bytes read as.
pub unsafe trait Vacant: Copy + PartialEq {
    const VACANT: Self;
}

// The zeroed inode slot reads as a regular file's row: `FileKind` is
// `repr(u8)` with `Regular` first.
const _: () = assert!(FileKind::Regular as u8 == 0);

// SAFETY: `InodeNo` and `u32` are integers; `FileKind` is `repr(u8)` and 0
// is `Regular` (asserted above).
unsafe impl Vacant for (InodeNo, Inode) {
    const VACANT: Self = (
        InodeNo(0),
        Inode {
            kind: FileKind::Regular,
            nlink: 0,
        },
    );
}

// SAFETY: `InodeNo` and `Name` wrap a `u64` each.
unsafe impl Vacant for ((InodeNo, Name), InodeNo) {
    const VACANT: Self = ((InodeNo(0), Name(0)), InodeNo(0));
}

/// Whether a [`RowTable`] can hold `key` → `row`: every row but the
/// vacant slot's.
pub(crate) fn storable<K, V>(key: K, row: V) -> bool
where
    (K, V): Vacant,
{
    (key, row) != <(K, V)>::VACANT
}

const VACANT_ROW: &str = "an all-zero row is the vacant slot; no table holds it";

/// Slots for `rows` rows: 4/3 of them, rounded up, which a table fills to
/// 7/6 of `rows` before it grows.
fn slots_for(rows: usize) -> usize {
    rows + rows.div_ceil(3)
}

/// A map from `K` to `V` stored as `(K, V)` slots in one allocation.
///
/// At most seven in eight slots hold a row, so a probe always ends at a
/// vacant one. Iteration is in slot order: deterministic, but a function
/// of the whole insert/remove history, so a walk whose order something
/// can observe must sort.
#[derive(Clone)]
pub struct RowTable<K, V> {
    /// Each row in the slot its key hashes to or, past that, the first
    /// slot that was vacant when it arrived (wrapping from the last slot
    /// to the first).
    slots: Box<[(K, V)]>,
    len: usize,
}

impl<K, V> Default for RowTable<K, V> {
    fn default() -> Self {
        Self {
            slots: Box::new([]),
            len: 0,
        }
    }
}

impl<K, V> RowTable<K, V>
where
    K: Copy + Eq + Hash,
    V: Copy,
    (K, V): Vacant,
{
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows the table holds before it grows: 7/8 of its slots.
    pub fn capacity(&self) -> usize {
        self.slots.len() * 7 / 8
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        let slot = self.probe(key).ok()?;
        Some(&self.slots[slot].1)
    }

    /// Insert or overwrite; returns the row replaced. Panics on the one
    /// row no table holds (see [`storable`]).
    pub fn insert(&mut self, key: K, row: V) -> Option<V> {
        assert!(storable(key, row), "{VACANT_ROW}");
        match self.entry(&key) {
            Ok(slot) => Some(std::mem::replace(&mut self.slots[slot].1, row)),
            Err(slot) => {
                self.place(slot, key, row);
                None
            }
        }
    }

    /// Insert a row whose key is absent, in one walk of its probe
    /// sequence; `false`, and nothing changed, if the key is present.
    /// Panics on the one row no table holds (see [`storable`]).
    pub fn insert_new(&mut self, key: K, row: V) -> bool {
        assert!(storable(key, row), "{VACANT_ROW}");
        match self.entry(&key) {
            Ok(_) => false,
            Err(slot) => {
                self.place(slot, key, row);
                true
            }
        }
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.probe(key).ok()?;
        let row = self.slots[slot].1;
        self.vacate(slot);
        self.len -= 1;
        Some(row)
    }

    /// Room for `additional` more rows without growing: a table rebuilt
    /// to [`slots_for`] the rows it will hold, if it has fewer.
    pub fn reserve(&mut self, additional: usize) {
        let rows = self.len + additional;
        if rows > self.capacity() {
            self.rebuild(slots_for(rows));
        }
    }

    /// Rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .iter()
            .filter(|slot| !Self::is_vacant(slot))
            .map(|(key, row)| (key, row))
    }

    fn is_vacant(slot: &(K, V)) -> bool {
        *slot == <(K, V)>::VACANT
    }

    /// Walk `key`'s probe sequence: `Ok` with the slot holding it, or
    /// `Err` with the vacant slot that ends the walk.
    fn probe(&self, key: &K) -> Result<usize, usize> {
        probe::walk(
            &self.slots,
            probe::row_hash(key),
            Self::is_vacant,
            |(k, _)| k == key,
        )
    }

    /// `Ok` with the slot holding `key`, or `Err` with the vacant slot a
    /// row for it goes in — after growing the table if one more row would
    /// fill it past seven eighths.
    fn entry(&mut self, key: &K) -> Result<usize, usize> {
        match self.probe(key) {
            Ok(slot) => return Ok(slot),
            Err(slot) if self.len < self.capacity() => return Err(slot),
            Err(_) => {}
        }
        // Grow by an eighth of the rows held, and by at least four rows.
        self.rebuild(slots_for(self.len + (self.len / 8).max(4)));
        Err(self.probe(key).expect_err("absent"))
    }

    fn place(&mut self, slot: usize, key: K, row: V) {
        self.slots[slot] = (key, row);
        self.len += 1;
    }

    /// Move every row into a fresh table of `slots` vacant slots.
    fn rebuild(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vacant_slots(slots));
        for &(key, row) in old.iter().filter(|s| !Self::is_vacant(s)) {
            let slot = self.probe(&key).expect_err("keys are unique");
            self.slots[slot] = (key, row);
        }
    }

    /// Empty `hole` and close the gap behind it.
    fn vacate(&mut self, hole: usize) {
        let vacant = <(K, V)>::VACANT;
        probe::vacate(&mut self.slots, hole, vacant, Self::is_vacant, |(k, _)| {
            probe::row_hash(k)
        });
    }
}

impl<K, V> fmt::Debug for RowTable<K, V>
where
    K: Copy + Eq + Hash + fmt::Debug,
    V: Copy + fmt::Debug,
    (K, V): Vacant,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// `n` vacant slots in one allocation of zeroed memory.
fn vacant_slots<S: Vacant>(n: usize) -> Box<[S]> {
    if n == 0 {
        return Box::new([]);
    }
    let layout = Layout::array::<S>(n).expect("a row table fits the address space");
    // SAFETY: `layout` has a non-zero size: `n > 0`, and a slot holds a key.
    let ptr = unsafe { alloc::alloc_zeroed(layout) }.cast::<S>();
    if ptr.is_null() {
        alloc::handle_alloc_error(layout);
    }
    // SAFETY: `ptr` is a fresh allocation of `layout`, `n` slots of `S`
    // whose bytes are all zero, which is `S::VACANT` (`Vacant`'s
    // contract); the box frees it with the same layout.
    unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What an entry slot costs: key and child inline, no tag (an inode
    /// slot's 16 bytes are pinned beside `Inode`).
    #[test]
    fn an_entry_slot_is_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<((InodeNo, Name), InodeNo)>(), 24);
    }

    #[test]
    fn a_reservation_is_four_thirds_of_its_rows() {
        for rows in [1, 2, 3, 98, 4_000, 4_002, 32_002] {
            let mut t: RowTable<InodeNo, Inode> = RowTable::default();
            t.reserve(rows);
            assert_eq!(t.slots.len(), slots_for(rows));
            assert!(t.slots.len() * 3 <= rows * 4 + 3, "{rows}");
            assert!(t.capacity() >= rows, "{rows}");
        }
    }

    #[test]
    fn the_vacant_row_is_refused_and_its_neighbours_are_not() {
        let regular = |nlink| Inode {
            kind: FileKind::Regular,
            nlink,
        };
        assert!(!storable(InodeNo(0), regular(0)));
        assert!(storable(InodeNo(0), regular(1)));
        assert!(storable(InodeNo(1), regular(0)));
        assert!(!storable((InodeNo(0), Name(0)), InodeNo(0)));
        assert!(storable((InodeNo(0), Name(0)), InodeNo(1)));
        let mut t: RowTable<(InodeNo, Name), InodeNo> = RowTable::default();
        t.insert((InodeNo(0), Name(0)), InodeNo(1));
        t.insert((InodeNo(0), Name(1)), InodeNo(0));
        assert_eq!(t.get(&(InodeNo(0), Name(0))), Some(&InodeNo(1)));
        assert_eq!(t.get(&(InodeNo(0), Name(1))), Some(&InodeNo(0)));
        assert_eq!(t.iter().count(), 2);
        let refused = std::panic::catch_unwind(move || {
            t.insert((InodeNo(0), Name(0)), InodeNo(0));
        });
        assert!(refused.is_err());
    }
}
