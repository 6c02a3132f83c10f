//! Seeding the initial namespace: one routine for every runtime.
//!
//! A counting pass routes every seed through [`Placement`] once and sizes
//! each store's row tables for exactly the rows it will hold; the insert
//! pass then fills them. No table grows by doubling during set-up, so no
//! freed half-size table is left as a hole under the run.

use cx_mdstore::MetaStore;
use cx_protocol::ServerEngine;
use cx_types::{FileKind, Placement, ServerId};
use cx_workloads::SeedEntry;

/// The `(inode, entry)` rows `seeds` put on each server.
pub(crate) fn seed_counts(placement: &Placement, seeds: &[SeedEntry]) -> Vec<(usize, usize)> {
    let mut rows = vec![(0, 0); placement.servers as usize];
    for seed in seeds {
        match *seed {
            SeedEntry::Dir { .. } => rows.iter_mut().for_each(|r| r.0 += 1),
            SeedEntry::File { parent, name, ino } => {
                rows[placement.dentry_server(parent, name).0 as usize].1 += 1;
                rows[placement.inode_server(ino).0 as usize].0 += 1;
            }
        }
    }
    rows
}

/// Seed the initial namespace: `stores[i]` is server `i`'s store, `None`
/// for a server this process does not host.
pub fn seed_stores(
    placement: &Placement,
    seeds: &[SeedEntry],
    stores: &mut [Option<&mut MetaStore>],
) {
    assert_eq!(
        stores.len(),
        placement.servers as usize,
        "one slot per server"
    );
    let counts = seed_counts(placement, seeds);
    for (store, (inodes, entries)) in stores.iter_mut().zip(counts) {
        if let Some(store) = store {
            store.reserve_rows(inodes, entries);
        }
    }
    for seed in seeds {
        match *seed {
            SeedEntry::Dir { ino } => {
                // directory partition rows exist on every server
                for store in stores.iter_mut().flatten() {
                    store.seed_inode(ino, FileKind::Directory, 1);
                }
            }
            SeedEntry::File { parent, name, ino } => {
                if let Some(store) = &mut stores[placement.dentry_server(parent, name).0 as usize] {
                    store.seed_dentry(parent, name, ino);
                }
                if let Some(store) = &mut stores[placement.inode_server(ino).0 as usize] {
                    store.seed_inode(ino, FileKind::Regular, 1);
                }
            }
        }
    }
}

/// Seed the one server a node hosts.
pub(crate) fn seed_engine(
    engine: &mut dyn ServerEngine,
    placement: &Placement,
    seeds: &[SeedEntry],
    me: ServerId,
) {
    let mut stores: Vec<Option<&mut MetaStore>> = (0..placement.servers).map(|_| None).collect();
    stores[me.0 as usize] = Some(engine.store_mut());
    seed_stores(placement, seeds, &mut stores);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wall::{rebuild_store, snapshot_rows};
    use cx_types::{ClusterConfig, FileKind, InodeNo, Name, Protocol};
    use cx_workloads::{Metarates, MetaratesMix};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts the allocations each thread makes, so a test can hold a
    /// stretch of its own code to an exact number of them.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    fn allocs() -> usize {
        ALLOCS.with(Cell::get)
    }

    // SAFETY: every call goes to `System` unchanged; the count is a
    // thread-local `Cell` that has no destructor and allocates nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's obligations for `alloc` are passed through.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    type Rows = (Vec<(InodeNo, FileKind, u32)>, Vec<(InodeNo, Name, InodeNo)>);

    fn rows(store: &MetaStore) -> Rows {
        let mut inodes: Vec<_> = store
            .inodes()
            .map(|(&ino, i)| (ino, i.kind, i.nlink))
            .collect();
        let mut entries: Vec<_> = store.dentries().map(|(&(p, n), &c)| (p, n, c)).collect();
        inodes.sort_unstable_by_key(|r| r.0);
        entries.sort_unstable();
        (inodes, entries)
    }

    /// On the benchmark's Metarates namespace (32,000 files, 8 servers) no
    /// table grows while it is seeded: the counting pass counts exactly the
    /// rows each store ends up with, and the whole of `seed_stores` makes
    /// one allocation per table plus its own count vector (a table that
    /// outgrew its reservation would allocate again; cx-mdstore's
    /// `reserved_tables_hold_their_rows` reads the capacities themselves).
    /// The DES, the one-server-a-node runtimes and the TCP coordinator's
    /// snapshot rebuild end up with the same rows on every server.
    #[test]
    fn every_runtime_seeds_the_rows_the_counting_pass_counted() {
        let cfg = ClusterConfig::new(8, Protocol::Cx);
        let placement = Placement::new(cfg.servers);
        let seeds = Metarates::new(MetaratesMix::UpdateDominated, 256)
            .seed_files(32_000)
            .ops_per_proc(0)
            .stream()
            .seeds;
        let counts = seed_counts(&placement, &seeds);
        assert_eq!(counts.iter().map(|c| c.0).sum::<usize>(), 32_000 + 2 * 8);
        assert_eq!(counts.iter().map(|c| c.1).sum::<usize>(), 32_000);

        let mut all: Vec<MetaStore> = (0..8).map(|_| MetaStore::new()).collect();
        let mut slots: Vec<_> = all.iter_mut().map(Some).collect();
        let before = allocs();
        seed_stores(&placement, &seeds, &mut slots);
        assert_eq!(allocs() - before, 1 + 2 * 8, "allocations while seeding");
        for (i, store) in all.iter().enumerate() {
            assert_eq!(
                (store.inode_count(), store.dentry_count()),
                counts[i],
                "server {i}: rows held vs rows counted"
            );
            let me = ServerId(i as u32);
            let mut engine = cx_protocol::make_server(me, &cfg);
            seed_engine(engine.as_mut(), &placement, &seeds, me);
            assert_eq!(rows(engine.store()), rows(store), "server {i}: seed_engine");
            let (inodes, entries) = snapshot_rows(store);
            assert_eq!(
                rows(&rebuild_store(inodes, entries).expect("rows it wrote")),
                rows(store),
                "server {i}: snapshot rebuild"
            );
        }
        // A kind byte that is no FileKind is refused, not read as one.
        for bad in [2, 0xFF] {
            assert!(rebuild_store(vec![(5, bad, 1)], Vec::new()).is_err());
        }
    }

    /// A snapshot row off a socket that no row table holds — the all-zero
    /// row, which is the tables' vacant slot — is an error, not a panic;
    /// its neighbours are rows like any other.
    #[test]
    fn a_row_no_table_holds_is_refused() {
        use cx_types::codec::WireError;
        let refused = Err(WireError::VacantRow);
        assert_eq!(
            rebuild_store(vec![(0, 0, 0)], Vec::new()).map(|_| ()),
            refused
        );
        assert_eq!(
            rebuild_store(Vec::new(), vec![(0, 0, 0)]).map(|_| ()),
            refused
        );
        let store = rebuild_store(vec![(0, 0, 1), (7, 0, 0)], vec![(0, 0, 1), (0, 1, 0)])
            .expect("rows a table holds");
        assert_eq!((store.inode_count(), store.dentry_count()), (2, 2));
    }
}
