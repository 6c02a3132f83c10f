//! The Cx operation log.
//!
//! "Cx ensures consistency with the presence of node crashes by writing log
//! records on affected servers" (§III-A). Three record families exist, each
//! carrying the owning operation id:
//!
//! * **Result-Record** — the result of the corresponding sub-operation on
//!   this server (including the updated object images, which is what makes
//!   it a redo record).
//! * **Commit-Record / Abort-Record** — all sub-ops' executions succeeded /
//!   failed on the affected servers; on the participant this also means the
//!   whole operation is finished.
//! * **Complete-Record** — coordinator only: the whole operation finished.
//!
//! The log is organized "as a log-structured file … to exploit more disk
//! bandwidth, and build an index on top of it to accelerate searches"
//! (§IV-A). [`Wal`] is that logical structure: an append-only record
//! sequence whose in-memory store is its per-operation index, each record
//! held once in its operation's entry. Physical timing lives in `cx-simio`;
//! the WAL tracks *durability* (a record only counts after its disk flush
//! completed) so crash injection can truncate un-flushed tails.
//!
//! Pruning (§III-D): the coordinator prunes an operation's records once a
//! Complete-Record is present; the participant once a Commit- or
//! Abort-Record is present. When the log is full, new arrivals must wait
//! for pruning — the effect studied in Figure 7(a).

pub mod log;
pub mod record;

pub use log::{OpLogState, SeqNo, Wal};
pub use record::{decode_record, encode_record, Outcome, Record, RecordFamily};
