//! Per-server metadata store.
//!
//! Each OrangeFS metadata server "stores metadata as rows in Berkeley
//! DataBase" (§IV-A). [`MetaStore`] is the in-memory image of those rows —
//! the BDB cache — holding this server's inodes and directory entries,
//! each kind in one flat [`RowTable`] sized to its rows.
//! Sub-operations execute against it ([`MetaStore::apply`]) and produce
//! [`Undo`] tokens so an aborted cross-server operation can roll back
//! ("the coordinator can instruct participants to roll back their states",
//! §II-B).
//!
//! The store also tracks **dirty objects**: rows modified in memory but not
//! yet written back to the on-disk database. The SE baseline writes each
//! row back synchronously per sub-op; OFS-batched and Cx take the dirty set
//! in batches ([`MetaStore::take_dirty_pages`]) whose disk cost `cx-simio`
//! computes with elevator merging.
//!
//! [`GlobalView`] reads the stores of every server in a cluster as one
//! namespace — borrowing them, copying no row — and checks
//! the paper's correctness goal — atomicity of cross-server operations: no
//! dangling entries, no orphan inodes, nlink counts consistent with the
//! entries that reference them.

pub mod rows;
pub mod store;
pub mod view;

pub use cx_types::probe::row_hash;
pub use rows::{RowTable, Vacant};
pub use store::{Inode, MetaStore, StoreStats, Undo};
pub use view::{GlobalView, Violation};
