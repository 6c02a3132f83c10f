//! A fault-injecting [`Transport`] decorator, and what it proves: a fault
//! is written once, against the seam, and runs unchanged on channels and
//! on sockets. Test-only.

use crate::transport::{Cork, Transport};
use cx_net::{ConnectionManager, Frame, NodeId};
use cx_protocol::Endpoint;
use cx_types::MsgKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The faults of one run, shared by every server's decorator so that "the
/// first `Vote`" is counted cluster-wide, as the DES fault plans count it.
#[derive(Default)]
struct Faults {
    /// Hold every 8th server→server message back 2 ms (later ones overtake
    /// it), and send the first `Vote` (`duplicate_storm_plan`) and server
    /// 1's 4th `VoteResult` (`mixed_faults_plan`) twice: the `VoteResult`
    /// back to back, so the copy lands mid-round as the DES plans' does, the
    /// `Vote` 250 µs later, when its round may well be over — the late
    /// duplicate the participant's `resolved_upto` memory exists for.
    chaos: bool,
    /// This server's probe replies always say "not quiesced".
    never_quiesced: Option<u32>,
    /// This server's `StopResp` report is replaced by these bytes.
    garbled_report: Option<(u32, &'static [u8])>,
    /// No server's message to this client ever arrives.
    mute_client: Option<u32>,
    server_msgs: AtomicU64,
    votes: AtomicU64,
    vote_results_from_1: AtomicU64,
}

/// Server `me`'s transport with [`Faults`] applied to what it sends.
struct Faulty {
    me: u32,
    inner: Arc<dyn Transport>,
    faults: Arc<Faults>,
    /// One short-lived thread per held-back frame, joined on drop.
    held: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Faulty {
    fn send_later(&self, to: NodeId, frame: Frame, after: Duration) {
        let inner = Arc::clone(&self.inner);
        self.held.lock().push(thread::spawn(move || {
            thread::sleep(after);
            inner.send(to, frame);
        }));
    }
}

impl Transport for Faulty {
    fn send(&self, to: NodeId, mut frame: Frame) {
        let f = &*self.faults;
        let nth = |count: &AtomicU64| count.fetch_add(1, Ordering::Relaxed) + 1;
        match &mut frame {
            Frame::Msg {
                to: Endpoint::Server(_),
                payload,
                ..
            } if f.chaos => {
                match payload.kind() {
                    MsgKind::Vote if nth(&f.votes) == 1 => {
                        self.send_later(to, frame.clone(), Duration::from_micros(250));
                    }
                    MsgKind::VoteResult if self.me == 1 && nth(&f.vote_results_from_1) == 4 => {
                        self.inner.send(to, frame.clone());
                    }
                    _ => {}
                }
                if nth(&f.server_msgs) % 8 == 0 {
                    self.send_later(to, frame, Duration::from_millis(2));
                    return;
                }
            }
            Frame::Msg {
                to: Endpoint::Proc(p),
                ..
            } if f.mute_client == Some(p.client.0) => return,
            Frame::ProbeResp { quiesced, .. } if f.never_quiesced == Some(self.me) => {
                *quiesced = false;
            }
            Frame::StopResp { stats_json, .. } => {
                if let Some((_, junk)) = f.garbled_report.filter(|(s, _)| *s == self.me) {
                    *stats_json = junk.to_vec();
                }
            }
            _ => {}
        }
        self.inner.send(to, frame);
    }
    fn cork_scope(&self) -> Cork<'_> {
        self.inner.cork_scope()
    }
    fn recycle_batch(&self, batch: Vec<Frame>) {
        self.inner.recycle_batch(batch);
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

impl Drop for Faulty {
    fn drop(&mut self) {
        for t in self.held.lock().drain(..) {
            let _ = t.join();
        }
    }
}

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

    #[derive(Clone, Copy, Debug)]
    enum Carrier {
        Channels,
        Sockets,
    }

    /// `trace` through the one runtime, every server's transport wrapped.
    fn run(carrier: Carrier, cfg: ClusterConfig, trace: &Trace, faults: Faults) -> TcpRunResult {
        run_opts(carrier, cfg, trace, faults, TcpOptions::default())
    }

    fn run_opts(
        carrier: Carrier,
        cfg: ClusterConfig,
        trace: &Trace,
        faults: Faults,
        opts: TcpOptions,
    ) -> TcpRunResult {
        let epoch = std::time::Instant::now();
        let mut wired = match carrier {
            Carrier::Channels => wire_channels(cfg.servers, epoch),
            Carrier::Sockets => wire_sockets(cfg.servers, &PlaneConfig::default(), epoch, None),
        };
        let faults = Arc::new(faults);
        for (i, node) in wired.servers.iter_mut().enumerate() {
            node.net = Arc::new(Faulty {
                me: i as u32,
                inner: Arc::clone(&node.net),
                faults: Arc::clone(&faults),
                held: Mutex::default(),
            });
        }
        let res = run_wired(cfg, trace.to_stream(), opts, wired, epoch);
        if faults.chaos {
            assert!(faults.votes.load(Ordering::Relaxed) >= 1, "no Vote to dup");
            assert!(
                faults.server_msgs.load(Ordering::Relaxed) >= 8,
                "nothing was ever held back"
            );
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
                let faults = Faults {
                    chaos: true,
                    ..Faults::default()
                };
                let res = run(carrier, cfg, &trace, faults);
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
            let faults = Faults {
                never_quiesced: Some(1),
                ..Faults::default()
            };
            let res = run(carrier, cfg, &trace, faults);
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
            let faults = Faults {
                garbled_report: Some((1, junk)),
                ..Faults::default()
            };
            let res = run(carrier, cfg, &trace, faults);
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
            let faults = Faults {
                mute_client: Some(3),
                ..Faults::default()
            };
            let live = LiveMetrics::new(MetricRegistry::new());
            let registry = live.registry.clone();
            let sink = ObsSink::recording("cx");
            let opts = TcpOptions {
                obs: sink.clone(),
                live: Some(live),
                ..TcpOptions::default()
            };
            let res = run_opts(carrier, cfg, &trace, faults, opts);
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
            assert_eq!(s.latency.count, s.ops_total - 1, "{carrier:?}");
            assert_eq!(res.violations, vec![], "{carrier:?}");
            let [line] = &s.leftovers[..] else {
                panic!("{carrier:?}: leftovers {:?}", s.leftovers);
            };
            assert_eq!(line, "client host: no reply for 2 s to op(3/0#0)");
        }
    }
}
