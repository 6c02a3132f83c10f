//! Identifiers for clients, processes, servers, operations and metadata
//! objects.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a client node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u32);

/// Identifies a process within a client node (an MPI rank, in the paper's
/// checkpointing example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub u32);

/// Identifies a metadata server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(pub u32);

/// "The coalescence of a client ID and a process ID identifies a process in
/// the cluster" (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId {
    pub client: ClientId,
    pub process: ProcessId,
}

impl ProcId {
    pub const fn new(client: u32, process: u32) -> Self {
        Self {
            client: ClientId(client),
            process: ProcessId(process),
        }
    }
}

/// Unique operation identifier: client ID + process ID + per-client sequence
/// number (§III-A, "Notation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId {
    pub proc: ProcId,
    pub seq: u64,
}

impl OpId {
    pub const fn new(proc: ProcId, seq: u64) -> Self {
        Self { proc, seq }
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op({}/{}#{})",
            self.proc.client.0, self.proc.process.0, self.seq
        )
    }
}

/// Inode number. Inode numbers are allocated by the workload generator so
/// traces are self-contained; the root directory is inode 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InodeNo(pub u64);

pub const ROOT_INO: InodeNo = InodeNo(1);

/// A component name inside a directory, represented by a 64-bit hash.
/// Real path strings never matter for the protocol: placement, conflict
/// detection and storage all operate on the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Name(pub u64);

/// A metadata object stored as a row in the per-server database.
///
/// A cross-server operation modifies up to three objects: the parent
/// directory's inode, the directory entry, and the child's inode. These are
/// the "active objects" of §III-B against which conflicts are detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectId {
    /// An inode row (file or directory attributes, nlink, flags).
    Inode(InodeNo),
    /// A directory-entry row, keyed by (directory inode, name hash).
    Dentry(InodeNo, Name),
}

impl ObjectId {
    /// The inode whose server owns this object. Dentries live with their
    /// parent directory's entry partition; see [`crate::Placement`].
    pub fn inode(&self) -> InodeNo {
        match self {
            ObjectId::Inode(ino) => *ino,
            ObjectId::Dentry(dir, _) => *dir,
        }
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectId::Inode(i) => write!(f, "ino:{}", i.0),
            ObjectId::Dentry(d, n) => write!(f, "dent:{}/{:x}", d.0, n.0),
        }
    }
}

/// Stable 64-bit FNV-1a hash used for name hashing and placement. Defined
/// here so every crate derives identical placements.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mixes two 64-bit values into one (used for (dir, name) hashing).
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.rotate_left(31);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_ordering_is_by_client_process_seq() {
        let a = OpId::new(ProcId::new(0, 0), 5);
        let b = OpId::new(ProcId::new(0, 1), 1);
        let c = OpId::new(ProcId::new(1, 0), 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Reference values for the 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn mix64_is_not_identity_and_spreads_bits() {
        let h1 = mix64(1, 2);
        let h2 = mix64(2, 1);
        assert_ne!(h1, h2, "mix must be order-sensitive");
        assert_ne!(h1, 1 ^ 2);
    }

    #[test]
    fn object_id_owner_inode() {
        assert_eq!(ObjectId::Inode(InodeNo(7)).inode(), InodeNo(7));
        assert_eq!(
            ObjectId::Dentry(InodeNo(3), Name(99)).inode(),
            InodeNo(3),
            "dentries are owned by their directory"
        );
    }

    #[test]
    fn display_formats() {
        let id = OpId::new(ProcId::new(2, 3), 44);
        assert_eq!(id.to_string(), "op(2/3#44)");
        assert_eq!(ObjectId::Inode(InodeNo(9)).to_string(), "ino:9");
    }
}
