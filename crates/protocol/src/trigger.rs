//! Batched-commitment triggers (§IV-A, "Batched commitments").
//!
//! "Our implementation currently supports two types of triggers: (1)
//! Timeout trigger, (2) Threshold trigger. The timeout trigger fires if a
//! certain period of time has elapsed since the last commitment, and the
//! threshold trigger fires when the number of pending operations goes
//! beyond a threshold since the last commitment."
//!
//! The paper lists *system idle time* as future work; [`BatchTrigger::Idle`]
//! implements it as an extension (benchmarked as an extra series in the
//! Figure 9 harness).

use cx_types::{BatchTrigger, SimTime};

/// Decision produced by feeding an event to the trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerVerdict {
    /// Launch a commitment batch now.
    Fire,
    /// Arm (or re-arm) a timer for this many ns; call
    /// [`TriggerState::on_timer`] when it fires.
    Arm(u64),
    /// Nothing to do.
    Wait,
}

/// Trigger state machine. The owning engine reports pending-operation
/// arrivals, commitment launches and timer firings; the trigger answers
/// with fire/arm decisions. Timer staleness is handled with generation
/// numbers so superseded timers are ignored rather than cancelled (DES
/// kernels cannot cancel events).
#[derive(Debug, Clone)]
pub struct TriggerState {
    cfg: BatchTrigger,
    generation: u64,
    armed: bool,
    pending: u64,
    last_activity: SimTime,
}

impl TriggerState {
    pub fn new(cfg: BatchTrigger) -> Self {
        Self {
            cfg,
            generation: 0,
            armed: false,
            pending: 0,
            last_activity: SimTime::ZERO,
        }
    }

    /// Current timer generation; the engine embeds it in the timer token
    /// and passes it back to [`TriggerState::on_timer`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// A new operation became eligible for lazy commitment.
    pub fn on_pending(&mut self, now: SimTime) -> TriggerVerdict {
        self.pending += 1;
        self.last_activity = now;
        match self.cfg {
            BatchTrigger::Threshold { pending_ops } => {
                if self.pending >= pending_ops {
                    TriggerVerdict::Fire
                } else {
                    TriggerVerdict::Wait
                }
            }
            BatchTrigger::Timeout { period_ns } => {
                if self.armed {
                    TriggerVerdict::Wait
                } else {
                    self.armed = true;
                    self.generation += 1;
                    TriggerVerdict::Arm(period_ns)
                }
            }
            BatchTrigger::Idle { idle_ns } => {
                // (re-)arm a short probe each time work arrives; the probe
                // fires when the server has been quiet for idle_ns.
                self.armed = true;
                self.generation += 1;
                TriggerVerdict::Arm(idle_ns)
            }
            BatchTrigger::Never => TriggerVerdict::Wait,
        }
    }

    /// Any server activity (for the idle trigger's quietness detection).
    pub fn on_activity(&mut self, now: SimTime) {
        self.last_activity = now;
    }

    /// A timer armed with `generation` fired.
    pub fn on_timer(&mut self, now: SimTime, generation: u64) -> TriggerVerdict {
        if generation != self.generation {
            return TriggerVerdict::Wait; // superseded
        }
        self.armed = false;
        match self.cfg {
            BatchTrigger::Timeout { .. } => {
                if self.pending > 0 {
                    TriggerVerdict::Fire
                } else {
                    TriggerVerdict::Wait
                }
            }
            BatchTrigger::Idle { idle_ns } => {
                if self.pending == 0 {
                    return TriggerVerdict::Wait;
                }
                let quiet = now.since(self.last_activity);
                if quiet >= idle_ns {
                    TriggerVerdict::Fire
                } else {
                    // still busy: probe again after the remaining quiet time
                    self.armed = true;
                    self.generation += 1;
                    TriggerVerdict::Arm(idle_ns.saturating_sub(quiet).max(1))
                }
            }
            _ => TriggerVerdict::Wait,
        }
    }

    /// A commitment batch was launched; pending count resets.
    pub fn on_batch_launched(&mut self, now: SimTime) -> TriggerVerdict {
        self.pending = 0;
        self.last_activity = now;
        self.armed = false;
        self.generation += 1;
        TriggerVerdict::Wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_types::DUR_SEC;

    #[test]
    fn timeout_arms_once_then_fires() {
        let mut t = TriggerState::new(BatchTrigger::Timeout {
            period_ns: 10 * DUR_SEC,
        });
        let v = t.on_pending(SimTime(0));
        assert_eq!(v, TriggerVerdict::Arm(10 * DUR_SEC));
        let g = t.generation();
        // more pendings do not re-arm
        assert_eq!(t.on_pending(SimTime(1)), TriggerVerdict::Wait);
        assert_eq!(t.on_pending(SimTime(2)), TriggerVerdict::Wait);
        assert_eq!(t.pending(), 3);
        // the timer fires and there is work
        assert_eq!(t.on_timer(SimTime(10 * DUR_SEC), g), TriggerVerdict::Fire);
    }

    #[test]
    fn timeout_timer_with_no_pending_waits() {
        let mut t = TriggerState::new(BatchTrigger::Timeout { period_ns: 100 });
        let TriggerVerdict::Arm(_) = t.on_pending(SimTime(0)) else {
            panic!()
        };
        let g = t.generation();
        t.on_batch_launched(SimTime(50)); // batch launched early (e.g. conflict)
        assert_eq!(
            t.on_timer(SimTime(100), g),
            TriggerVerdict::Wait,
            "stale generation is ignored"
        );
    }

    #[test]
    fn threshold_fires_at_n() {
        let mut t = TriggerState::new(BatchTrigger::Threshold { pending_ops: 3 });
        assert_eq!(t.on_pending(SimTime(0)), TriggerVerdict::Wait);
        assert_eq!(t.on_pending(SimTime(1)), TriggerVerdict::Wait);
        assert_eq!(t.on_pending(SimTime(2)), TriggerVerdict::Fire);
        t.on_batch_launched(SimTime(3));
        assert_eq!(t.on_pending(SimTime(4)), TriggerVerdict::Wait);
    }

    #[test]
    fn never_never_fires() {
        let mut t = TriggerState::new(BatchTrigger::Never);
        for i in 0..1000 {
            assert_eq!(t.on_pending(SimTime(i)), TriggerVerdict::Wait);
        }
    }

    #[test]
    fn idle_fires_after_quiet_period() {
        let mut t = TriggerState::new(BatchTrigger::Idle { idle_ns: 100 });
        let TriggerVerdict::Arm(d) = t.on_pending(SimTime(0)) else {
            panic!()
        };
        assert_eq!(d, 100);
        let g = t.generation();
        // quiet for the whole window → fire
        assert_eq!(t.on_timer(SimTime(100), g), TriggerVerdict::Fire);
    }

    #[test]
    fn idle_reprobes_while_busy() {
        let mut t = TriggerState::new(BatchTrigger::Idle { idle_ns: 100 });
        t.on_pending(SimTime(0));
        let g = t.generation();
        t.on_activity(SimTime(90)); // still busy
        match t.on_timer(SimTime(100), g) {
            TriggerVerdict::Arm(d) => assert!(d <= 100 && d > 0),
            other => panic!("expected re-arm, got {other:?}"),
        }
    }

    #[test]
    fn batch_launch_resets_pending() {
        let mut t = TriggerState::new(BatchTrigger::Threshold { pending_ops: 2 });
        t.on_pending(SimTime(0));
        t.on_batch_launched(SimTime(1));
        assert_eq!(t.pending(), 0);
    }
}
