//! Table V's crash is a one-crash fault plan (`CrashPoint::ValidBytes`).
//! This pins its first recovery cycle, field for field, to the values the
//! earlier dedicated volume-triggered crash produced for the same run, and
//! checks the run passes the durability oracle.

use cx_chaos::RecoveryExperiment;
use cx_core::{RecoveryCycle, SimTime};
use cx_types::ServerId;

#[test]
fn table5_crash_matches_the_pinned_cycle_under_the_oracle() {
    let exp = RecoveryExperiment {
        servers: 4,
        victim: 2,
        valid_bytes_target: 40 << 10,
        detection_ms: 50,
        reboot_ms: 20,
        trace_scale: 0.01,
        ..Default::default()
    };
    let outcome = exp.outcome();
    assert_eq!(outcome.oracle_report, Vec::<String>::new());
    assert_eq!(
        outcome.stats.recovery_cycles.first(),
        Some(&RecoveryCycle {
            server: ServerId(2),
            crashed_at: SimTime(33_392_331),
            valid_bytes_at_crash: 41_041,
            recovery_started: SimTime(103_392_331),
            recovery_finished: SimTime(414_610_171),
            scanned_bytes: 38_632,
            resumed_commitments: 152,
        })
    );
}
