//! Interpreting a [`FaultPlan`] against the DES hooks.

use crate::oracle::check_snapshot;
use crate::plan::{CrashPoint, FaultPlan, NetAction};
use cx_cluster::{ClusterSnapshot, CrashCmd, FaultEvent, FaultInjector, MsgFate};
use cx_protocol::Endpoint;
use cx_types::{MsgKind, ServerId, SimTime};
use std::collections::BTreeSet;

/// Stateful interpreter: each net fault counts its matching messages and
/// fires once; each crash fault arms once; the oracle runs after every
/// completed recovery and at the end of the run, deduplicating repeated
/// findings across passes.
pub struct PlanInjector {
    plan: FaultPlan,
    /// Matching-message count per net fault.
    net_seen: Vec<u64>,
    net_done: Vec<bool>,
    crash_done: Vec<bool>,
    /// Matching-delivery count per crash fault (for [`CrashPoint::Deliver`]).
    deliver_seen: Vec<u64>,
    base: cx_workloads::NamespaceModel,
    report: Vec<String>,
    seen: BTreeSet<String>,
}

impl PlanInjector {
    /// Build from the bare seed list — the only part of the workload the
    /// injector's oracle needs.
    pub fn with_seeds(plan: FaultPlan, seeds: &[cx_workloads::SeedEntry]) -> Self {
        Self {
            net_seen: vec![0; plan.net.len()],
            net_done: vec![false; plan.net.len()],
            crash_done: vec![false; plan.crashes.len()],
            deliver_seen: vec![0; plan.crashes.len()],
            base: cx_workloads::NamespaceModel::from_seeds(seeds),
            report: Vec::new(),
            seen: BTreeSet::new(),
            plan,
        }
    }

    fn oracle(&mut self, snap: &ClusterSnapshot<'_>, strict: bool, ctx: &str) -> u64 {
        let mut fresh = 0;
        for finding in check_snapshot(&self.base, snap, strict) {
            let line = format!("{ctx}: {finding}");
            if self.seen.insert(line.clone()) {
                self.report.push(line);
                fresh += 1;
            }
        }
        fresh
    }
}

impl FaultInjector for PlanInjector {
    fn on_send(&mut self, now: SimTime, from: Endpoint, to: Endpoint, kind: MsgKind) -> MsgFate {
        if let (Endpoint::Server(a), Endpoint::Server(b)) = (from, to) {
            for p in &self.plan.partitions {
                let pair = (p.a == a && p.b == b) || (p.a == b && p.b == a);
                if pair && now.0 >= p.from_ns && now.0 < p.until_ns {
                    return MsgFate::Drop;
                }
            }
        }
        for i in 0..self.plan.net.len() {
            let f = self.plan.net[i];
            if self.net_done[i] || f.kind != kind {
                continue;
            }
            if f.from.is_some_and(|s| from != Endpoint::Server(s)) {
                continue;
            }
            if f.to.is_some_and(|s| to != Endpoint::Server(s)) {
                continue;
            }
            self.net_seen[i] += 1;
            if self.net_seen[i] == f.nth {
                self.net_done[i] = true;
                return match f.action {
                    NetAction::Drop => MsgFate::Drop,
                    NetAction::Delay { ns } => MsgFate::Delay(ns),
                    NetAction::Duplicate { ns } => MsgFate::Duplicate(ns),
                    NetAction::ExecDelay { ns } => MsgFate::ExecDelay(ns),
                };
            }
        }
        MsgFate::Deliver
    }

    fn on_event(&mut self, _now: SimTime, ev: &FaultEvent) -> Option<CrashCmd> {
        for i in 0..self.plan.crashes.len() {
            if self.crash_done[i] {
                continue;
            }
            let c = self.plan.crashes[i];
            let fired = match (c.point, *ev) {
                (
                    CrashPoint::WalAppend { family, nth },
                    FaultEvent::WalAppend {
                        server,
                        family: f,
                        nth: n,
                        ..
                    },
                ) => server == c.server && f == family && n == nth,
                (
                    CrashPoint::ValidBytes { at_least },
                    FaultEvent::WalAppend {
                        server,
                        valid_bytes,
                        ..
                    },
                ) => server == c.server && valid_bytes >= at_least,
                (
                    CrashPoint::WalDurable { family, nth },
                    FaultEvent::WalDurable {
                        server,
                        family: f,
                        nth: n,
                    },
                ) => server == c.server && f == family && n == nth,
                (CrashPoint::Writeback { nth }, FaultEvent::Writeback { server, nth: n }) => {
                    server == c.server && n == nth
                }
                (CrashPoint::Deliver { kind, nth }, FaultEvent::Deliver { server, kind: k })
                    if server == c.server && k == kind =>
                {
                    self.deliver_seen[i] += 1;
                    self.deliver_seen[i] == nth
                }
                _ => false,
            };
            if fired {
                self.crash_done[i] = true;
                return Some(CrashCmd {
                    server: c.server,
                    torn_extra_bytes: c.torn_extra_bytes,
                    detection_ns: c.detection_ns,
                    reboot_ns: c.reboot_ns,
                });
            }
        }
        None
    }

    fn on_recovery_complete(
        &mut self,
        _now: SimTime,
        server: ServerId,
        snap: ClusterSnapshot<'_>,
    ) -> u64 {
        // Mid-run: plenty of legitimately in-flight state, so no strict
        // pass — but everything acked must already be durable.
        self.oracle(
            &snap,
            false,
            &format!("after server {} recovered", server.0),
        )
    }

    fn on_run_end(&mut self, _now: SimTime, quiesced: bool, snap: ClusterSnapshot<'_>) -> u64 {
        self.oracle(&snap, quiesced, "at run end")
    }

    fn take_report(&mut self) -> Vec<String> {
        std::mem::take(&mut self.report)
    }
}
