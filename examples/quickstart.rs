//! Quickstart: replay a slice of the CTH checkpointing trace under the Cx
//! protocol and under the OrangeFS serial-execution baseline, and compare.
//!
//!     cargo run --release --example quickstart
//!
//! This is Figure 5 in miniature: same workload, same simulated hardware,
//! two protocols — who wins and by how much.

use cx_core::{Experiment, Protocol, Workload};

fn main() {
    let workload = || Workload::trace("CTH").scale(0.01);

    println!("replaying ~5,000 ops of the CTH profile on 8 metadata servers…\n");

    let mut results = Vec::new();
    for protocol in [Protocol::Se, Protocol::SeBatched, Protocol::Cx] {
        let result = Experiment::new(workload())
            .servers(8)
            .protocol(protocol)
            .run();
        assert!(
            result.is_consistent(),
            "{}: cross-server metadata diverged!",
            protocol.name()
        );
        let lat = result.stats.latency_hist.summary();
        println!(
            "{:<12} replay {:>7.3} s   latency mean {:>6.2} ms  p50 {:>6.2} ms  p99 {:>6.2} ms   messages {:>7}   conflicts {}",
            protocol.name(),
            result.stats.replay_secs(),
            lat.mean_ns / 1e6,
            lat.p50_ns as f64 / 1e6,
            lat.p99_ns as f64 / 1e6,
            result.stats.total_msgs(),
            result.stats.server_stats.conflicts,
        );
        results.push((protocol, result));
    }

    let se = results[0].1.stats.replay_secs();
    let cx = results[2].1.stats.replay_secs();
    println!(
        "\nCx improves the replay time by {:.0}% over OrangeFS serial execution",
        (1.0 - cx / se) * 100.0
    );
    println!(
        "(the paper reports ≥38% on this trace; the shape, not the absolute\n\
         number, is what the simulator reproduces)"
    );
}
