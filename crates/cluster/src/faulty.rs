//! Injected faults on the wall clock, and what they prove: a message fault
//! is decided once, in the engine host every node shares, and runs
//! unchanged on channels and on sockets. Test-only.
//!
//! The message faults come from one [`FaultInjector`] the run's nodes
//! share (`Wired::faults`); the two control-frame faults, which the
//! injector never sees, from [`Rewrite`], a transport decorator that edits
//! a server's outgoing probe and stop replies.

use crate::fault::{ClusterSnapshot, CrashCmd, FaultEvent, FaultInjector, MsgFate};
use crate::transport::{BuildNode, Transport};
use cx_net::conn::InboundBatches;
use cx_net::{ConnectionManager, Frame, NodeId};
use cx_protocol::Endpoint;
use cx_types::{MsgKind, ServerId, SimTime};
use std::sync::Arc;

/// One fault of a test run.
#[derive(Clone, Copy)]
enum Fault {
    /// Delay every 8th server→server message 2 ms (later ones overtake
    /// it), and send the first `Vote` (`duplicate_storm_plan`) and server
    /// 1's 4th `VoteResult` (`mixed_faults_plan`) twice: the `VoteResult`
    /// back to back, so the copy lands mid-round as the DES plans' does,
    /// the `Vote` 250 µs later, when its round may well be over — the late
    /// duplicate the participant's `resolved_upto` memory exists for. A
    /// duplicated message is not also delayed.
    Storm,
    /// No server's message to this client ever arrives.
    MuteClient(u32),
    /// This server's probe replies always say "not quiesced".
    NeverQuiesced(u32),
    /// This server's `StopResp` report is replaced by these bytes.
    GarbledReport(u32, &'static [u8]),
}

/// The message faults, counted across every node of the run.
struct Injector {
    fault: Fault,
    server_msgs: u64,
    votes: u64,
    vote_results_from_1: u64,
}

impl FaultInjector for Injector {
    fn on_send(&mut self, _: SimTime, from: Endpoint, to: Endpoint, kind: MsgKind) -> MsgFate {
        match (self.fault, from, to) {
            (Fault::MuteClient(c), _, Endpoint::Proc(p)) if p.client.0 == c => MsgFate::Drop,
            (Fault::Storm, Endpoint::Server(s), Endpoint::Server(_)) => {
                self.server_msgs += 1;
                if kind == MsgKind::Vote {
                    self.votes += 1;
                    if self.votes == 1 {
                        return MsgFate::Duplicate(250_000);
                    }
                }
                if kind == MsgKind::VoteResult && s == ServerId(1) {
                    self.vote_results_from_1 += 1;
                    if self.vote_results_from_1 == 4 {
                        return MsgFate::Duplicate(0);
                    }
                }
                if self.server_msgs.is_multiple_of(8) {
                    return MsgFate::Delay(2_000_000);
                }
                MsgFate::Deliver
            }
            _ => MsgFate::Deliver,
        }
    }
    fn on_event(&mut self, _: SimTime, _: &FaultEvent) -> Option<CrashCmd> {
        None
    }
    fn on_recovery_complete(&mut self, _: SimTime, _: ServerId, _: ClusterSnapshot<'_>) -> u64 {
        0
    }
    fn on_run_end(&mut self, _: SimTime, _: bool, _: ClusterSnapshot<'_>) -> u64 {
        0
    }
    fn take_report(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// One server's transport, with its probe or stop replies rewritten.
struct Rewrite {
    inner: Arc<dyn Transport>,
    fault: Fault,
}

impl Transport for Rewrite {
    fn send(&self, to: NodeId, mut frame: Frame) {
        match (&mut frame, self.fault) {
            (Frame::ProbeResp { quiesced, .. }, Fault::NeverQuiesced(_)) => *quiesced = false,
            (Frame::StopResp { stats_json, .. }, Fault::GarbledReport(_, junk)) => {
                *stats_json = junk.to_vec();
            }
            _ => {}
        }
        self.inner.send(to, frame);
    }
    fn serve(self: Arc<Self>, inbound: InboundBatches, build: BuildNode) {
        Arc::clone(&self.inner).serve(inbound, build);
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
    fn shutdown(&self) {
        self.inner.shutdown();
    }
    fn wire(&self) -> Option<&ConnectionManager> {
        self.inner.wire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveMetrics;
    use crate::tcp::{wire_sockets, TcpOptions, TcpRunResult};
    use crate::threaded::wire_channels;
    use crate::wall::run_wired;
    use cx_net::PlaneConfig;
    use cx_obs::registry::MetricRegistry;
    use cx_obs::ObsSink;
    use cx_types::{BatchTrigger, ClusterConfig, Protocol};
    use cx_workloads::{Metarates, MetaratesMix, Trace, TraceBuilder, TraceProfile};
    use parking_lot::Mutex;

    #[derive(Clone, Copy, Debug)]
    enum Carrier {
        Channels,
        Sockets,
    }

    /// `trace` through the one runtime with `fault` installed.
    fn run(carrier: Carrier, cfg: ClusterConfig, trace: &Trace, fault: Fault) -> TcpRunResult {
        run_opts(carrier, cfg, trace, fault, TcpOptions::default())
    }

    fn run_opts(
        carrier: Carrier,
        cfg: ClusterConfig,
        trace: &Trace,
        fault: Fault,
        opts: TcpOptions,
    ) -> TcpRunResult {
        let epoch = std::time::Instant::now();
        let mut wired = match carrier {
            Carrier::Channels => wire_channels(cfg.servers, epoch),
            Carrier::Sockets => wire_sockets(cfg.servers, &PlaneConfig::default(), epoch, None),
        };
        match fault {
            Fault::Storm | Fault::MuteClient(_) => {
                wired.faults = Some(Arc::new(Mutex::new(Injector {
                    fault,
                    server_msgs: 0,
                    votes: 0,
                    vote_results_from_1: 0,
                })));
            }
            Fault::NeverQuiesced(me) | Fault::GarbledReport(me, _) => {
                let node = &mut wired.servers[me as usize];
                node.net = Arc::new(Rewrite {
                    inner: Arc::clone(&node.net),
                    fault,
                });
            }
        }
        let res = run_wired(cfg, trace.to_stream(), opts, wired, epoch);
        if let Fault::Storm = fault {
            assert!(res.stats.faults.dups >= 1, "no Vote to dup");
            assert!(res.stats.faults.delays >= 1, "nothing was ever held back");
        }
        res
    }

    fn update_dominated() -> (ClusterConfig, Trace) {
        let mut cfg = ClusterConfig::new(2, Protocol::Cx);
        cfg.cx.trigger = BatchTrigger::Timeout {
            period_ns: 5_000_000,
        };
        cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
        let trace = Metarates::new(MetaratesMix::UpdateDominated, 8)
            .seed_files(64)
            .ops_per_proc(50)
            .build();
        (cfg, trace)
    }

    /// The trace and config of `threaded_conflict_storm_converges`.
    fn conflict_storm() -> (ClusterConfig, Trace) {
        let mut cfg = ClusterConfig::new(4, Protocol::Cx);
        cfg.cx.trigger = BatchTrigger::Timeout {
            period_ns: 3_000_000,
        };
        cfg.cx.hint_mismatch_timeout_ns = 15_000_000;
        cfg.cx.presumed_abort_timeout_ns = 30_000_000;
        let trace = TraceBuilder::new(TraceProfile::by_name("deasna2").unwrap())
            .scale(0.0006)
            .tweak(|p| p.shared_access_prob = 0.3)
            .build();
        (cfg, trace)
    }

    #[test]
    fn delays_and_duplicates_are_survived_on_channels_and_on_sockets() {
        for carrier in [Carrier::Channels, Carrier::Sockets] {
            for (storm, (cfg, trace)) in [(false, update_dominated()), (true, conflict_storm())] {
                let res = run(carrier, cfg, &trace, Fault::Storm);
                let s = &res.stats;
                assert_eq!(res.violations, vec![], "{carrier:?} storm={storm}");
                assert_eq!(s.ops_total, trace.ops.len() as u64, "{carrier:?}");
                assert_eq!(s.ops_applied + s.ops_failed, s.ops_total, "{carrier:?}");
                assert_eq!(s.leftovers, Vec::<String>::new(), "{carrier:?}");
                if storm {
                    assert!(s.server_stats.conflicts > 0, "{carrier:?}: no conflicts");
                }
            }
        }
    }

    #[test]
    fn a_run_that_never_quiesced_says_so() {
        for carrier in [Carrier::Channels, Carrier::Sockets] {
            let (cfg, trace) = update_dominated();
            let res = run(carrier, cfg, &trace, Fault::NeverQuiesced(1));
            assert_eq!(res.stats.ops_total, trace.ops.len() as u64);
            let [line] = &res.stats.leftovers[..] else {
                panic!("{carrier:?}: leftovers {:?}", res.stats.leftovers);
            };
            assert!(
                line.starts_with("srv1: not quiesced after 200 rounds (last probe reply "),
                "{carrier:?}: {line}"
            );
            assert!(line.ends_with(" ms ago)"), "{carrier:?}: {line}");
        }
    }

    #[test]
    fn an_unreadable_stop_report_is_a_leftover_not_a_panic() {
        let not_utf8: &[u8] = &[0xff, 0xfe];
        for (carrier, junk) in [(Carrier::Channels, not_utf8), (Carrier::Sockets, b"{")] {
            let (cfg, trace) = update_dominated();
            let res = run(carrier, cfg, &trace, Fault::GarbledReport(1, junk));
            assert_eq!(res.stats.ops_total, trace.ops.len() as u64);
            let [line] = &res.stats.leftovers[..] else {
                panic!("{carrier:?}: leftovers {:?}", res.stats.leftovers);
            };
            assert!(
                line.starts_with("srv1: unreadable StopResp report ("),
                "{carrier:?}: {line}"
            );
            // srv1's rows are missing from the check, not assumed fine.
            assert!(!res.violations.is_empty(), "{carrier:?}");
        }
    }

    /// A muted client ends the run with a leftover, and its stuck op still
    /// counts as issued everywhere: `RunStats`, the live registry and the
    /// recorder's report.
    #[test]
    fn a_client_that_hears_nothing_is_a_leftover_not_a_panic() {
        for carrier in [Carrier::Channels, Carrier::Sockets] {
            let (cfg, trace) = update_dominated();
            let live = LiveMetrics::new(MetricRegistry::new());
            let registry = live.registry.clone();
            let sink = ObsSink::recording("cx");
            let opts = TcpOptions {
                obs: sink.clone(),
                live: Some(live),
                ..TcpOptions::default()
            };
            let res = run_opts(carrier, cfg, &trace, Fault::MuteClient(3), opts);
            let s = &res.stats;
            let issued = registry.snapshot().value("cx_ops_issued_total");
            assert_eq!(issued, Some(s.ops_total), "{carrier:?}: registry");
            let report = sink.report().expect("recording");
            assert_eq!(report.ops_issued, s.ops_total, "{carrier:?}: obs report");
            // Client 3 issued its first op and, hearing nothing, no other;
            // the servers committed it regardless and drained.
            assert_eq!(s.ops_total, trace.ops.len() as u64 - 49, "{carrier:?}");
            assert_eq!(s.ops_stuck, 1, "{carrier:?}");
            assert_eq!(s.ops_applied + s.ops_failed, s.ops_total - 1, "{carrier:?}");
            assert_eq!(s.latency_hist.count, s.ops_total - 1, "{carrier:?}");
            assert_eq!(res.violations, vec![], "{carrier:?}");
            let [line] = &s.leftovers[..] else {
                panic!("{carrier:?}: leftovers {:?}", s.leftovers);
            };
            assert_eq!(line, "client host: no reply for 2 s to op(3/0#0)");
        }
    }
}
