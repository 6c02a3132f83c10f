//! Queueing helpers for modelling serially-used resources.

use cx_types::SimTime;

/// A FIFO-served resource with a single service channel (a server CPU, a
/// NIC serialization stage). `reserve` implements the classic
/// "busy-until" pattern: work starts at `max(now, busy_until)` and the
/// caller schedules its completion event at the returned time.
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    busy_until: SimTime,
    /// Total busy time accumulated, for utilization accounting.
    busy_ns: u64,
    /// Total queueing delay experienced by reservations.
    wait_ns: u64,
    reservations: u64,
}

impl FifoResource {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `duration` ns starting no earlier than
    /// `now`; returns the completion time.
    pub fn reserve(&mut self, now: SimTime, duration: u64) -> SimTime {
        let start = now.max(self.busy_until);
        self.wait_ns += start.since(now);
        self.busy_until = start + duration;
        self.busy_ns += duration;
        self.reservations += 1;
        self.busy_until
    }

    /// Outstanding queued work at `now` in nanoseconds: how long a new
    /// arrival would wait before service starts (0 when idle). The
    /// observability plane samples this as the per-server queue depth.
    pub fn backlog_ns(&self, now: SimTime) -> u64 {
        self.busy_until.0.saturating_sub(now.0)
    }

    /// Is the resource idle at `now`?
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    pub fn total_wait_ns(&self) -> u64 {
        self.wait_ns
    }

    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.0 == 0 {
            0.0
        } else {
            self.busy_ns as f64 / horizon.0 as f64
        }
    }

    /// Drop all queued state (used when a simulated node crashes: whatever
    /// the CPU was doing is lost with the volatile state).
    pub fn reset(&mut self, now: SimTime) {
        self.busy_until = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_reservations_queue() {
        let mut r = FifoResource::new();
        let t0 = SimTime(0);
        assert_eq!(r.reserve(t0, 10).0, 10);
        assert_eq!(r.reserve(t0, 10).0, 20, "second waits for first");
        assert_eq!(r.total_wait_ns(), 10);
        assert_eq!(r.busy_ns(), 20);
        assert_eq!(r.reservations(), 2);
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut r = FifoResource::new();
        r.reserve(SimTime(0), 10);
        // arrives after the resource went idle
        assert_eq!(r.reserve(SimTime(100), 5).0, 105);
        assert_eq!(r.busy_ns(), 15);
        assert_eq!(r.total_wait_ns(), 0);
    }

    #[test]
    fn utilization_accounts_only_busy_time() {
        let mut r = FifoResource::new();
        r.reserve(SimTime(0), 50);
        assert!((r.utilization(SimTime(100)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime(0)), 0.0);
    }

    #[test]
    fn backlog_tracks_outstanding_work() {
        let mut r = FifoResource::new();
        assert_eq!(r.backlog_ns(SimTime(0)), 0);
        r.reserve(SimTime(0), 50);
        assert_eq!(r.backlog_ns(SimTime(10)), 40);
        assert_eq!(r.backlog_ns(SimTime(60)), 0);
    }

    #[test]
    fn idle_probe_and_reset() {
        let mut r = FifoResource::new();
        r.reserve(SimTime(0), 10);
        assert!(!r.idle_at(SimTime(5)));
        assert!(r.idle_at(SimTime(10)));
        r.reserve(SimTime(10), 100);
        r.reset(SimTime(20));
        assert!(r.idle_at(SimTime(20)));
    }
}
