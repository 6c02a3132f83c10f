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
use std::fmt::Display;
use std::io::Write;

/// A bad config or a server that cannot run: one line on stderr, exit 1.
fn fail(why: impl Display) -> ! {
    eprintln!("cx_net_server: {why}");
    std::process::exit(1)
}

fn main() {
    let Some(path) = std::env::args().skip_while(|a| a != "--config").nth(1) else {
        fail("usage: cx_net_server --config <file.json>");
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("read {path}: {e}")));
    let nsc: NetServerConfig =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("parse {path}: {e:?}")));
    let opts = cx_cluster::ServeOptions {
        obs: nsc.obs,
        net: cx_net::PlaneConfig {
            record_flush_spans: nsc.obs,
            ..cx_net::PlaneConfig::default()
        },
    };
    let served = cx_cluster::serve_one_opts(&nsc.cfg, ServerId(nsc.me), &nsc.seeds, opts, |addr| {
        // The coordinator blocks on this line; stdout is block-buffered
        // when piped, so flush explicitly. A server nobody can find has
        // nothing to serve.
        let mut out = std::io::stdout().lock();
        if let Err(e) = writeln!(out, "LISTEN {addr}").and_then(|()| out.flush()) {
            fail(format!("LISTEN line: {e}"));
        }
    });
    if let Err(e) = served {
        fail(format!("server {} failed: {e}", nsc.me));
    }
}
