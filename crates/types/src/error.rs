//! Error types shared across the workspace.

use crate::ids::{ObjectId, OpId};
use std::fmt;

/// Errors surfaced by stores, logs and protocol engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CxError {
    /// A directory entry with this name already exists.
    EntryExists(ObjectId),
    /// The referenced entry or inode does not exist.
    NotFound(ObjectId),
    /// rmdir on a non-empty directory.
    DirectoryNotEmpty(ObjectId),
    /// The inode exists but has the wrong kind for the operation.
    WrongKind(ObjectId),
    /// The log is full and the request must wait for pruning.
    LogFull { needed: u64, available: u64 },
    /// A record for this operation was not found in the log.
    NoSuchRecord(OpId),
    /// Injected failure (fault-injection hook).
    Injected,
    /// Protocol-level invariant violation; indicates a bug, surfaced so
    /// property tests can catch it instead of panicking mid-simulation.
    ProtocolViolation(String),
}

impl fmt::Display for CxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CxError::EntryExists(o) => write!(f, "entry exists: {o}"),
            CxError::NotFound(o) => write!(f, "not found: {o}"),
            CxError::DirectoryNotEmpty(o) => write!(f, "directory not empty: {o}"),
            CxError::WrongKind(o) => write!(f, "wrong inode kind: {o}"),
            CxError::LogFull { needed, available } => {
                write!(f, "log full: need {needed} B, {available} B free")
            }
            CxError::NoSuchRecord(op) => write!(f, "no log record for {op}"),
            CxError::Injected => write!(f, "injected failure"),
            CxError::ProtocolViolation(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for CxError {}

pub type CxResult<T> = Result<T, CxError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InodeNo;

    #[test]
    fn display_messages() {
        let e = CxError::LogFull {
            needed: 128,
            available: 64,
        };
        assert_eq!(e.to_string(), "log full: need 128 B, 64 B free");
        let e = CxError::NotFound(ObjectId::Inode(InodeNo(3)));
        assert!(e.to_string().contains("ino:3"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error>(_: E) {}
        assert_err(CxError::Injected);
    }
}
