#!/usr/bin/env bash
# Local CI gate — everything runs offline against the vendored shims.
#
#   ./ci.sh          # fmt check, clippy, release build, release-only checks,
#                    # flake loop, full test suite
#   ./ci.sh quick    # skip the release build (fast pre-commit loop)
#
# Clippy runs with -D warnings on every crate and on the root package,
# whose tests/ are tier-1; every crate an op crosses additionally denies
# redundant clones and the perf lint group, so allocation regressions on
# the hot path fail CI.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

# The product-rust ledger (ROADMAP's counter): lines before the first line
# containing `#[cfg(test)]` or `#![cfg(test)]`, summed over every .rs under
# crates/*/src and shims/*/src. Test-only items sit in their file's test
# module, so that line is where a file's product code ends; a file that
# opens with `#![cfg(test)]` is test code whole and counts nothing.
# The second line is the workspace member count (crates, shims and the
# root package), read from cargo's metadata. Both printed, not gated.
step "product rust (lines before the first #[cfg(test)], crates/*/src + shims/*/src) + workspace members"
find crates/*/src shims/*/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { live = 1 } /#!?\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n }'
cargo metadata -q --offline --no-deps --format-version 1 |
    grep -o '"workspace_members":\[[^]]*\]' | tr ',' '\n' | wc -l

step "clippy (every workspace member, shims included, -D warnings)"
cargo clippy -q --workspace --all-targets -- -D warnings

step "clippy (hot path: deny redundant_clone + perf lints)"
cargo clippy -q \
    -p cx-cluster -p cx-workloads -p cx-net -p cx-protocol -p cx-types \
    -p cx-wal -p cx-mdstore -p cx-sim -p cx-simio -p cx-obs --all-targets -- \
    -D warnings -D clippy::redundant_clone -D clippy::perf

if [ "${1:-}" != "quick" ]; then
    step "cargo build --release"
    cargo build --release --workspace

    # The behaviour checks that run release binaries are tier-1 tests:
    # cx-chaos's tests/cli.rs (the seeds, the broken-recovery demo and its
    # replay's post-mortem, the doctor's conviction) and cx-bench's
    # tests/multiproc.rs; the workspace step below runs them. The steps up
    # to the benchmark package stay here because a debug build is too slow
    # for tier-1's budget: figure 7 took 8.9 s there, figures 4 + 8 4.4 s,
    # table V 14.9 s and each heap row 10.7-13.8 s (EXPERIMENTS "PR 52").

    # Figure 7b has one recorder: its valid-record series is the obs
    # plane's ValidLogBytes gauge stream. The experiment asserts the series is
    # non-empty, no gauge sample was dropped, and its busiest sample equals
    # RunStats::peak_valid_bytes (default scale, under a second).
    step "figure 7 (Figure 7b read off the gauge stream)"
    cargo run -q --release -p cx-bench --bin experiments -- figure7_log_size > /dev/null

    # The two experiments that build their workloads off the stream themselves:
    # Figure 4 reads each profile's class shares off its stream
    # (TraceSummary), and Figure 8 sweeps injected lookups and the sharing
    # probability (Workload::tweak), asserting every point consistent.
    # Scale 0.01: about a second for both.
    step "figures 4 + 8 (class shares off the stream, conflict sweep)"
    cargo run -q --release -p cx-bench --bin experiments -- \
        figure4_op_distribution figure8_conflict_ratio --scale 0.01 > /dev/null

    # Table V's crash is a one-crash fault plan: every row runs under the
    # durability oracle, which the harness asserts reports nothing
    # (default scale, a few seconds).
    step "table V (crash at a valid-record volume, under the oracle)"
    cargo run -q --release -p cx-bench --bin experiments -- table5_recovery > /dev/null

    # The counted gate: peak live heap of one DES replay per benchmark row
    # (`--seed 7000` is rep 0 of the benchmark's `--seed 7`), under a
    # counting allocator. The replay is one deterministic thread, so the
    # peak repeats to the byte — no host slow wave can flake this one. The
    # ceilings are 3 % over EXPERIMENTS.md "Counted heap peaks"
    # (5.32 / 1.99 / 2.77 MiB, since the conflict table holds slot
    # numbers and the commitment round stopped copying op lists).
    step "heap ceilings (heap_peak, counted)"
    for row in update:5.48 home2:2.05 lowload:2.85; do
        cargo run -q --release -p cx-bench --bin heap_peak -- \
            --workload "${row%%:*}" --seed 7000 --ceiling-mib "${row##*:}" > /dev/null
    done

    # The gate's own package. benchmark/ is a workspace of its own with its
    # own lock file, so nothing above compiles it: a crate change could
    # break its build, or move the DES digests it pins, unnoticed. Its
    # tests, then one short gated run per DES row at the default seed — 7,
    # the only seed whose digests benchmark/src/main.rs pins.
    step "benchmark package (tests + the three DES digest pins)"
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
    for workload in des-update des-home2 des-lowload; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seconds 3
    done

    # The wall-clock runtime's tests ride real timers and loopback sockets on
    # whatever cores this box has: a 1-in-20 flake has to show up here, not
    # in the next PR's run. There are no client threads: every node, on
    # channels or on sockets, a server's engine or the client host with all
    # its clients, runs on one served loop. The evidence: the write-path
    # suite's admission case and its thread census on both carriers (plus
    # its deaf peer and mutual flood), the read-path suite, the root
    # wire_conn suite's rapid_reconnects_stay_fifo and kill_mid_corked_
    # batch_stays_lossless_and_fifo, cx-cluster's faulty.rs on both
    # carriers (message faults decided by the engine host, late sends
    # waiting in each node's timer queue: no thread per held frame),
    # cx-bench's multiproc suite, where four cx_net_server processes each
    # serve on their loop, and the root tcp_equivalence suite (loopback
    # equivalence and the reconnect drill). cx-net's connection suites live in the root
    # tests/. Not in the loop, since they open no socket, thread or clock
    # and a second run repeats the first exactly: cx-net's own tests (its
    # codec, clock and counter unit tests) and the three codec suites
    # (wire_fuzz, wire_roundtrip, wire_coalesce, seeded by the test name).
    # The workspace step below runs them once.
    step "cx-cluster + wire path tests, five times back to back"
    for i in 1 2 3 4 5; do
        cargo test -q --release -p cx-cluster
        cargo test -q --release --test wire_write_path --test wire_read_path \
            --test wire_conn --test tcp_equivalence
        cargo test -q --release -p cx-bench --test multiproc
    done
fi

step "cargo test (workspace)"
cargo test --workspace -q

step "ci.sh OK"
