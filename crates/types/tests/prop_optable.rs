//! `OpTable` against a `HashMap` model.

use cx_types::{OpId, OpTable, ProcId};
use proptest::prelude::*;
use std::collections::HashMap;

fn oid(key: u64) -> OpId {
    OpId::new(ProcId::new((key % 3) as u32, 0), key)
}

fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = items.collect();
    v.sort_unstable();
    v
}

proptest! {
    /// Every operation answers as the model does, the walks yield exactly
    /// the live set, and the slab never outgrows the most entries ever
    /// live at once: a vacated slot is taken before a new one is made.
    #[test]
    fn answers_like_a_hash_map(
        steps in prop::collection::vec((0u8..10, 0u64..24, any::<u64>()), 1..400),
    ) {
        let mut table: OpTable<u64> = OpTable::default();
        let mut model: HashMap<OpId, u64> = HashMap::new();
        let mut most_live = 0;
        for (what, key, value) in steps {
            let op = oid(key);
            match what {
                0..=2 => prop_assert_eq!(table.insert(op, value), model.insert(op, value)),
                3 | 4 => prop_assert_eq!(table.remove(&op), model.remove(&op)),
                5 => {
                    let (got, want) = (table.get_mut(&op), model.get_mut(&op));
                    prop_assert_eq!(got.as_deref(), want.as_deref());
                    if let (Some(got), Some(want)) = (got, want) {
                        (*got, *want) = (value, value);
                    }
                }
                6 => {
                    *table.get_or_default(op) |= value;
                    *model.entry(op).or_default() |= value;
                }
                7 if value % 8 == 0 => {
                    prop_assert_eq!(sorted(table.drain()), sorted(model.drain()));
                }
                8 if value % 8 == 0 => {
                    table.clear();
                    model.clear();
                }
                _ => prop_assert_eq!(table.get(&op), model.get(&op)),
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            prop_assert_eq!(table.contains_key(&op), model.contains_key(&op));
            // Sorted and equal to a map's entries: no entry missing, none twice.
            prop_assert_eq!(sorted(table.iter()), sorted(model.iter()));
            prop_assert_eq!(sorted(table.values()), sorted(model.values()));
            most_live = most_live.max(model.len());
            prop_assert!(
                table.slab_capacity() <= (2 * most_live).max(4),
                "{} slots for at most {most_live} live entries", table.slab_capacity()
            );
        }
    }
}

/// The engines' churn: first in, first out, a bounded number in flight.
/// The hash table this replaced doubled under it; the slab must not.
#[test]
fn fifo_churn_does_not_grow_the_slab() {
    const LIVE: u64 = 500;
    let mut table: OpTable<[u64; 16]> = OpTable::default();
    for step in 0..100_000u64 {
        table.insert(oid(step), [step; 16]);
        if step >= LIVE {
            let oldest = step - LIVE;
            assert_eq!(table.remove(&oid(oldest)), Some([oldest; 16]));
        }
        assert!(table.len() as u64 <= LIVE + 1);
    }
    assert!(
        table.slab_capacity() as u64 <= 2 * (LIVE + 1),
        "{} slots for {} live entries",
        table.slab_capacity(),
        LIVE + 1
    );
}
