//! One metadata server as its own OS process, speaking the `cx-net`
//! wire plane (DESIGN.md §9).
//!
//! The coordinator (`perf_baseline --multiproc`) writes a
//! [`cx_bench::NetServerConfig`] JSON per server, spawns this binary with
//! `--config <path>`, and parses the `LISTEN <addr>` line printed once
//! the listener is bound. From then on everything — peer addresses,
//! workload messages, quiesce/probe drain, final stats — arrives over
//! TCP; the process exits after answering the coordinator's `Stop`.
//!
//! Usage: `cx_net_server --config target/cx_net_server_0.json`

use cx_bench::NetServerConfig;
use cx_types::ServerId;
use std::io::Write;

fn main() {
    let args = cx_bench::Args::parse();
    let path: String = args
        .value("--config")
        .expect("usage: cx_net_server --config <file.json>");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let nsc: NetServerConfig =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e:?}"));
    let opts = cx_cluster::ServeOptions {
        obs: nsc.obs,
        net: cx_net::PlaneConfig {
            record_flush_spans: nsc.obs,
            ..cx_net::PlaneConfig::default()
        },
        metrics_out: nsc.metrics_out.clone().map(Into::into),
    };
    cx_cluster::serve_one_opts(&nsc.cfg, ServerId(nsc.me), &nsc.seeds, opts, |addr| {
        // The coordinator blocks on this line; stdout is block-buffered
        // when piped, so flush explicitly.
        println!("LISTEN {addr}");
        std::io::stdout().flush().expect("flush LISTEN line");
    })
    .unwrap_or_else(|e| panic!("server {} failed: {e}", nsc.me));
}
