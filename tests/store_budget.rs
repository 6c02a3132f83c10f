//! What a store's rows cost, and a check of the table that holds them.
//!
//! `MetaStore` keeps its inodes and entries in two `RowTable`s: inline
//! `(key, row)` slots in one allocation, linear probing, backward-shift
//! deletion. The counted tests pin the bytes a seeded row costs on the
//! benchmark's namespace and that remove/create churn at the seeded floor
//! costs nothing more. The model check drives both tables against a
//! `HashMap`, through what breaks such a table: deletes inside long
//! clusters, above all clusters that wrap from the last slot to the first.

#[path = "kit/counting.rs"]
mod counting;

use counting::live;
use cx_cluster::seed_stores;
use cx_mdstore::{row_hash, Inode, MetaStore, RowTable};
use cx_types::{FileKind, InodeNo, Name, Placement, SubOp};
use cx_workloads::{Metarates, MetaratesMix, SeedEntry};
use std::collections::HashMap;
use std::hash::Hash;

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

const SERVERS: u32 = 8;
const FILES: u32 = 32_000;

/// The benchmark's namespace: Metarates' common directory of 32,000
/// files (and its two directories) over 8 servers.
fn benchmark_seeds() -> Vec<SeedEntry> {
    Metarates::new(MetaratesMix::UpdateDominated, 256)
        .seed_files(FILES)
        .ops_per_proc(0)
        .stream()
        .seeds
}

/// Seed 8 stores the way every runtime does; returns the stores and the
/// live heap the seeding left behind.
fn seeded(placement: &Placement, seeds: &[SeedEntry]) -> (Vec<MetaStore>, isize) {
    let mut stores: Vec<MetaStore> = (0..SERVERS).map(|_| MetaStore::new()).collect();
    let mut slots: Vec<Option<&mut MetaStore>> = stores.iter_mut().map(Some).collect();
    let before = live();
    seed_stores(placement, seeds, &mut slots);
    let table = live() - before;
    drop(slots);
    (stores, table)
}

fn rows(stores: &[MetaStore]) -> usize {
    stores
        .iter()
        .map(|s| s.inode_count() + s.dentry_count())
        .sum()
}

/// A seeded row costs about 4/3 of its slot: 16 B an inode slot, 24 B an
/// entry slot, so 26.7 B a row over the benchmark's namespace. Two Fx
/// hash maps, each rounded up to 8,192 buckets a server with a control
/// byte apiece, measured 43.0 B (2.63 MiB over 64,016 rows).
#[test]
fn a_seeded_row_costs_at_most_28_bytes_of_table() {
    const BOUND_PER_ROW: f64 = 28.0;
    let placement = Placement::new(SERVERS);
    let seeds = benchmark_seeds();
    let (stores, table) = seeded(&placement, &seeds);
    let rows = rows(&stores);
    assert_eq!(rows, 2 * FILES as usize + 2 * SERVERS as usize);
    let per_row = table as f64 / rows as f64;
    assert!(
        per_row <= BOUND_PER_ROW,
        "{table} B of table for {rows} seeded rows: {per_row:.1} B each, bound {BOUND_PER_ROW}"
    );
}

/// One rank's update mix at its floor: remove a file it owns, create the
/// next one, 100,000 ops. The row count never leaves the seeded floor, so
/// the tables neither grow nor fill with tombstones: their bytes are
/// exactly what seeding left.
#[test]
fn churn_at_the_floor_leaves_the_table_bytes_unchanged() {
    let placement = Placement::new(SERVERS);
    let seeds = benchmark_seeds();
    let (mut stores, _) = seeded(&placement, &seeds);
    let mut owned: Vec<(InodeNo, Name, InodeNo)> = seeds
        .iter()
        .filter_map(|seed| match *seed {
            SeedEntry::File { parent, name, ino } => Some((parent, name, ino)),
            SeedEntry::Dir { .. } => None,
        })
        .collect();
    let floor = rows(&stores);
    let mut rng = SplitMix(0x5eed_f100);
    let apply = |stores: &mut [MetaStore], server: u32, subop: SubOp| {
        let store = &mut stores[server as usize];
        store.apply(&subop).expect("the rank's own file");
        drop(store.take_dirty_pages());
    };
    let before = live();
    // Each round is two ops: one remove, one create.
    let first_new = u64::from(FILES) + 1;
    for next_file in first_new..first_new + 100_000 / 2 {
        let (parent, name, ino) = owned.swap_remove((rng.next() % owned.len() as u64) as usize);
        let entry = placement.dentry_server(parent, name).0;
        let child = ino;
        apply(
            &mut stores,
            entry,
            SubOp::RemoveEntry {
                parent,
                name,
                child,
            },
        );
        apply(
            &mut stores,
            placement.inode_server(ino).0,
            SubOp::ReleaseInode { ino },
        );

        let (name, ino) = (Name(next_file), InodeNo(9_999 + next_file));
        let kind = FileKind::Regular;
        apply(
            &mut stores,
            placement.inode_server(ino).0,
            SubOp::CreateInode { ino, kind },
        );
        let entry = placement.dentry_server(parent, name).0;
        let child = ino;
        apply(
            &mut stores,
            entry,
            SubOp::InsertEntry {
                parent,
                name,
                child,
                kind,
            },
        );
        owned.push((parent, name, ino));
    }
    assert_eq!(rows(&stores), floor);
    assert_eq!(
        live() - before,
        0,
        "table bytes after 100,000 ops at the floor"
    );
}

/// A row table and its model, compared after every step.
struct Checked<K, V>
where
    K: Copy + Eq + Hash,
    V: Copy,
    (K, V): cx_mdstore::Vacant,
{
    table: RowTable<K, V>,
    model: HashMap<K, V>,
    steps: u64,
}

impl<K, V> Checked<K, V>
where
    K: Copy + Eq + Hash + Ord + std::fmt::Debug,
    V: Copy + PartialEq + std::fmt::Debug,
    (K, V): cx_mdstore::Vacant,
{
    fn new() -> Self {
        Self {
            table: RowTable::default(),
            model: HashMap::new(),
            steps: 0,
        }
    }

    /// One random operation on `key`, answered as the model answers it.
    fn step(&mut self, key: K, row: V, roll: u64) {
        let (table, model) = (&mut self.table, &mut self.model);
        match roll % 8 {
            0 | 1 => assert_eq!(
                table.insert(key, row),
                model.insert(key, row),
                "insert {key:?}"
            ),
            2 => {
                let absent = !model.contains_key(&key);
                if absent {
                    model.insert(key, row);
                }
                assert_eq!(table.insert_new(key, row), absent, "insert_new {key:?}");
            }
            3..=5 => assert_eq!(table.remove(&key), model.remove(&key), "remove {key:?}"),
            6 => {
                let more = (roll >> 8) as usize % 64;
                table.reserve(more);
                assert!(table.capacity() >= model.len() + more);
            }
            _ => {} // a lookup alone, checked below
        }
        assert_eq!(table.get(&key), model.get(&key), "get {key:?}");
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        assert!(table.len() <= table.capacity());
        self.steps += 1;
        if self.steps.is_multiple_of(64) {
            self.check_all();
        }
    }

    /// Every model key is found with its row, and the walk yields the
    /// live set exactly once.
    fn check_all(&self) {
        for (key, row) in &self.model {
            assert_eq!(self.table.get(key), Some(row), "lost {key:?}");
        }
        let mut walked: Vec<(K, V)> = self.table.iter().map(|(k, v)| (*k, *v)).collect();
        let mut want: Vec<(K, V)> = self.model.iter().map(|(k, v)| (*k, *v)).collect();
        walked.sort_unstable_by_key(|(k, _)| *k);
        want.sort_unstable_by_key(|(k, _)| *k);
        assert_eq!(walked, want);
    }
}

fn inode(roll: u64) -> Inode {
    let kind = if roll & 1 == 0 {
        FileKind::Regular
    } else {
        FileKind::Directory
    };
    // nlink 1..=4: inode 0 is a key like any other, but the all-zero row
    // (inode 0, regular, nlink 0) is the vacant slot.
    let nlink = 1 + (roll >> 1) as u32 % 4;
    Inode { kind, nlink }
}

/// Inode numbers whose row hash has all three top bits set. A table takes
/// a key's first slot from the top of its hash scaled onto the slot count,
/// so in a table of at most eight slots every one of them starts in the
/// last slot, and they form one cluster wrapped onto the front.
fn last_slot_inodes(n: usize) -> Vec<InodeNo> {
    (0..)
        .map(InodeNo)
        .filter(|ino| row_hash(ino) >> 61 == 7)
        .take(n)
        .collect()
}

/// Entry keys, in one directory, with the same property.
fn last_slot_entries(n: usize) -> Vec<(InodeNo, Name)> {
    (0..)
        .map(|name| (InodeNo(2), Name(name)))
        .filter(|key| row_hash(key) >> 61 == 7)
        .take(n)
        .collect()
}

#[test]
fn a_long_history_answers_like_a_hash_map() {
    let mut rng = SplitMix(0x0b7a_b1e5);

    // Random operations over key spaces a little larger than a small
    // table holds at seven eighths: long clusters, deletes inside them,
    // growth from empty, and reservations mid-history.
    for space in [1u64, 2, 5, 6, 7, 13, 24, 25, 49, 97, 200, 3_000] {
        let mut inodes: Checked<InodeNo, Inode> = Checked::new();
        let mut entries: Checked<(InodeNo, Name), InodeNo> = Checked::new();
        for _ in 0..40_000 {
            let (key, roll) = (rng.next() % space, rng.next());
            inodes.step(InodeNo(key), inode(roll >> 3), roll);
            let entry = (InodeNo(key % 3), Name(key / 3));
            // Any child, but entry 0 of directory 0 naming inode 0 is the
            // vacant slot's bytes.
            let child = InodeNo(rng.next() % space + u64::from(key == 0));
            entries.step(entry, child, roll);
        }
        inodes.check_all();
        entries.check_all();
    }

    // First in, first out at a steady live count, the way remove/create
    // churn runs at a seeded floor: homes walk the whole slot array.
    for live in [1u64, 5, 6, 7, 48, 700, 3_000] {
        let mut c: Checked<InodeNo, Inode> = Checked::new();
        c.table.reserve(live as usize);
        for key in 0..40_000u64 {
            c.step(InodeNo(key), inode(key), 0);
            if key >= live {
                c.step(InodeNo(key - live), inode(0), 3);
            }
        }
        c.check_all();
    }

    // One wrapped cluster in a small table, emptied and refilled in every
    // order a seeded shuffle gives, for each kind of table.
    let inodes = last_slot_inodes(5);
    let entries = last_slot_entries(5);
    let mut ci: Checked<InodeNo, Inode> = Checked::new();
    let mut ce: Checked<(InodeNo, Name), InodeNo> = Checked::new();
    for round in 0..2_000u64 {
        let mut order: Vec<usize> = (0..inodes.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        for &i in &order {
            ci.step(inodes[i], inode(round), 0); // insert
            ce.step(entries[i], InodeNo(round), 0);
        }
        ci.check_all();
        ce.check_all();
        for &i in order.iter().rev().step_by(2) {
            ci.step(inodes[i], inode(round), 3); // remove every other one
            ce.step(entries[i], InodeNo(round), 3);
            ci.check_all();
            ce.check_all();
        }
        for &i in &order {
            ci.step(inodes[i], inode(round), 4); // remove whatever is left
            ce.step(entries[i], InodeNo(round), 4);
        }
        assert_eq!((ci.table.len(), ce.table.len()), (0, 0));
    }
}
