//! Property tests of the DES kernel's ordering contract.

use cx_sim::{FifoResource, Sim};
use cx_types::check::check;
use cx_types::SimTime;

/// Events pop in nondecreasing time order with FIFO tie-breaking,
/// regardless of the schedule.
#[test]
fn pop_order_is_total() {
    check("pop_order_is_total", 48, |g| {
        let delays = g.vec(1..200, |g| g.gen_range(0u64..1000));
        let mut sim: Sim<usize> = Sim::new();
        for (i, d) in delays.iter().enumerate() {
            sim.schedule(*d, 0, i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut current_time = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _, idx)) = sim.pop() {
            popped += 1;
            assert!(t >= last_time, "time went backwards");
            assert_eq!(t.0, delays[idx], "event fires at its scheduled time");
            if t != current_time {
                current_time = t;
                seen_at_time.clear();
            }
            // FIFO among equal timestamps: indices increase
            if let Some(&prev) = seen_at_time.last() {
                assert!(idx > prev, "ties must break by schedule order");
            }
            seen_at_time.push(idx);
            last_time = t;
        }
        assert_eq!(popped, delays.len());
        assert_eq!(sim.events_processed(), delays.len() as u64);
    });
}

/// Re-scheduling from handlers preserves causality: an event scheduled
/// at +d from handling time never fires before it.
#[test]
fn nested_schedules_respect_causality() {
    check("nested_schedules_respect_causality", 48, |g| {
        let seeds = g.vec(1..50, |g| (g.gen_range(0u64..100), g.gen_range(0u64..100)));
        let mut sim: Sim<(u64, u64)> = Sim::new();
        for &(d, redelay) in &seeds {
            sim.schedule(d, 0, (d, redelay));
        }
        let mut extra = 0;
        while let Some((t, _, (orig, redelay))) = sim.pop() {
            assert!(t.0 >= orig);
            if redelay > 0 && extra < 200 {
                extra += 1;
                let due = t + redelay;
                sim.schedule(redelay, 0, (due.0, 0));
            }
        }
    });
}

/// FifoResource never overlaps reservations and accounts busy time
/// exactly.
#[test]
fn fifo_resource_serializes() {
    check("fifo_resource_serializes", 48, |g| {
        let jobs = g.vec(1..100, |g| (g.gen_range(0u64..500), g.gen_range(1u64..100)));
        let mut r = FifoResource::new();
        let mut last_end = SimTime::ZERO;
        let mut total = 0u64;
        for &(arrival, dur) in &jobs {
            let end = r.reserve(SimTime(arrival), dur);
            assert!(end.0 >= arrival + dur);
            assert!(end >= last_end, "completions are FIFO");
            last_end = end;
            total += dur;
        }
        assert_eq!(r.busy_ns(), total);
        assert_eq!(r.reservations(), jobs.len() as u64);
    });
}
