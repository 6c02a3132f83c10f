//! Pins that more than one root test checks, each defined once.

/// `stats.digest()` of the home2 replay every golden test runs:
/// `Workload::trace("home2").scale(0.005).seed(7)` on 8 servers under Cx,
/// cluster seed 42. Any change to simulated behaviour moves it; a change
/// that means to re-pins it here.
pub const GOLDEN_HOME2_DIGEST: u64 = 4_199_832_947_163_537_151;
