//! Declarative fault plans.
//!
//! A [`FaultPlan`] is pure data: which messages to drop/delay/duplicate,
//! which timed partitions to impose, and which protocol events to crash a
//! server on. The plan is interpreted by [`crate::PlanInjector`] against
//! the two DES choke points; serialized (with the scenario and seed) it is
//! a complete, replayable repro of a failing schedule.

use cx_types::{MsgKind, ServerId};
use cx_wal::RecordFamily;
use serde::{Deserialize, Serialize};

/// What to do with the matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetAction {
    /// Discard it.
    Drop,
    /// Deliver it `ns` later than the network model would.
    Delay { ns: u64 },
    /// Deliver it twice, the copy `ns` after the original.
    Duplicate { ns: u64 },
    /// Deliver it on time, but make the receiver sit on it for `ns`
    /// before handling — a slow participant rather than a slow link, so
    /// `cx-obs doctor` blames the receiver's execution segment, not the
    /// hop's wire transit.
    ExecDelay { ns: u64 },
}

/// One targeted network fault: acts on the `nth` message (1-based) of
/// `kind` matching the endpoint filters, then disarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetFault {
    pub kind: MsgKind,
    /// Only messages sent by this server (`None` = any sender).
    pub from: Option<ServerId>,
    /// Only messages sent to this server (`None` = any receiver).
    pub to: Option<ServerId>,
    /// Which matching message to hit, 1-based.
    pub nth: u64,
    pub action: NetAction,
}

/// A symmetric server↔server partition: every message between `a` and `b`
/// in `[from_ns, until_ns)` is dropped, both directions. Client↔server
/// traffic is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    pub a: ServerId,
    pub b: ServerId,
    pub from_ns: u64,
    pub until_ns: u64,
}

/// The protocol event a crash is keyed on. Counters are per fault and
/// 1-based, matching [`cx_cluster::FaultEvent`]'s cumulative counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPoint {
    /// After the server's `nth` append of `family` (volatile — this is how
    /// "between VOTE and COMMIT-REQ" is expressed: the Commit record is
    /// appended at commitment launch).
    WalAppend { family: RecordFamily, nth: u64 },
    /// After the server's `nth` record of `family` became durable.
    WalDurable { family: RecordFamily, nth: u64 },
    /// When the server is about to handle its `nth` message of `kind`
    /// (the message perishes with the crash).
    Deliver { kind: MsgKind, nth: u64 },
    /// After the server's `nth` database write-back batch.
    Writeback { nth: u64 },
    /// After the first append that leaves the server holding at least
    /// `at_least` bytes of valid records (Table V: "we killed the
    /// processes on a server after it has accepted a specific size of
    /// valid-records").
    ValidBytes { at_least: u64 },
}

/// Crash `server` at `point`, with an optional torn log tail, and reboot
/// it after detection + restart delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashFault {
    pub server: ServerId,
    pub point: CrashPoint,
    /// Bytes of whole in-flight records that survive past the durable
    /// prefix (see `Wal::crash_torn`); 0 = clean cut at the durable mark.
    pub torn_extra_bytes: u64,
    pub detection_ns: u64,
    pub reboot_ns: u64,
}

/// A complete fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub net: Vec<NetFault>,
    pub partitions: Vec<Partition>,
    pub crashes: Vec<CrashFault>,
}

impl FaultPlan {
    /// Total number of faults, across all three kinds.
    pub fn len(&self) -> usize {
        self.net.len() + self.partitions.len() + self.crashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The plan minus the fault at global index `i` (net faults first,
    /// then partitions, then crashes) — the shrinker's step.
    pub fn without(&self, i: usize) -> FaultPlan {
        let mut p = self.clone();
        if i < p.net.len() {
            p.net.remove(i);
            return p;
        }
        let i = i - p.net.len();
        if i < p.partitions.len() {
            p.partitions.remove(i);
            return p;
        }
        p.crashes.remove(i - p.partitions.len());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan {
            net: vec![NetFault {
                kind: MsgKind::Vote,
                from: None,
                to: Some(ServerId(1)),
                nth: 3,
                action: NetAction::Drop,
            }],
            partitions: vec![Partition {
                a: ServerId(0),
                b: ServerId(1),
                from_ns: 10,
                until_ns: 20,
            }],
            crashes: vec![CrashFault {
                server: ServerId(2),
                point: CrashPoint::WalAppend {
                    family: RecordFamily::Result,
                    nth: 5,
                },
                torn_extra_bytes: 0,
                detection_ns: 1,
                reboot_ns: 1,
            }],
        }
    }

    #[test]
    fn without_walks_the_global_index() {
        let p = sample();
        assert_eq!(p.len(), 3);
        assert!(p.without(0).net.is_empty());
        assert!(p.without(1).partitions.is_empty());
        assert!(p.without(2).crashes.is_empty());
        assert_eq!(p.without(2).len(), 2);
    }

    #[test]
    fn plans_round_trip_through_json() {
        let p = sample();
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
