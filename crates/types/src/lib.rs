//! Core vocabulary of the Cx reproduction.
//!
//! This crate defines the identifiers, file-system operations, sub-operation
//! split (Table I of the paper), protocol messages (Table III), and
//! configuration shared by every other crate in the workspace. It contains no
//! IO and no protocol logic; everything here is plain data.
//!
//! # Paper mapping
//!
//! * [`OpId`] — "each operation is uniquely identified by an operation ID,
//!   with three components: a client ID, a process ID, an operation sequence
//!   number" (§III-A).
//! * [`FsOp`] / [`SubOp`] — the cross-server operations of Table I and their
//!   coordinator/participant sub-operations.
//! * [`Payload`] — the message vocabulary of Table III plus the messages used
//!   by the baseline protocols (SE, 2PC, CE).
//! * [`codec`] — the one byte layout of these values, shared by the wire
//!   frame, the log record and the store snapshot.
//! * [`Placement`] — OrangeFS-style namespace placement: a directory entry is
//!   assigned to a server by its name hash and a file's inode is placed
//!   (pseudo-randomly) on a server of the cluster (§IV-A).

pub mod codec;
pub mod config;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod msg;
pub mod op;
pub mod optable;
pub mod placement;
pub mod pool;
pub mod subop;
pub mod time;

pub use config::{
    BatchTrigger, ClusterConfig, CxConfig, DiskConfig, FailureInjection, NetConfig, Protocol,
    ServerCpuConfig,
};
pub use error::{CxError, CxResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{ClientId, InodeNo, Name, ObjectId, OpId, ProcId, ProcessId, ServerId};
pub use msg::{Hint, MsgKind, Payload, Verdict};
pub use op::{FileKind, FsOp, OpClass, OpOutcome};
pub use optable::OpTable;
pub use placement::Placement;
pub use pool::VecPool;
pub use subop::{OpPlan, Role, SubOp};
pub use time::{SimTime, DUR_MS, DUR_SEC, DUR_US};
