#!/usr/bin/env bash
# Local CI gate — everything runs offline against the vendored shims.
#
#   ./ci.sh          # fmt check, clippy, release build, smokes, full test suite
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

    # Fixed-seed chaos smoke: both protocol envelopes must come out clean,
    # and the oracle must still catch the deliberately broken recovery.
    step "chaos smoke (fixed seeds)"
    cargo run -q --release -p cx-chaos -- --seeds 25 --out-dir target
    cargo run -q --release -p cx-chaos -- --demo-broken --seeds 5 --out-dir target

    # Observability smoke: a home2 replay with recording on must export a
    # parseable report whose per-phase accounting sums to the client
    # latency (cx-obs check), and must leave the replay digest untouched
    # (asserted inside --obs itself).
    step "obs smoke (home2 --obs, phase accounting)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --obs --scale 0.005 --obs-out target/obs_home2 > /dev/null
    cargo run -q --release -p cx-obs -- check target/obs_home2.report.json

    # Doctor smoke (DESIGN.md §11): the blame engine must decompose the
    # home2 report with exact per-op segment sums (cx-obs doctor re-derives
    # every op's blame and fails loudly on a broken sum), and a deliberately
    # injected 5 ms participant stall must be convicted — prime suspect
    # "execute", largest hop shift on the slowed server (asserted inside
    # --doctor-demo itself, then re-checked through the CLI diff).
    step "doctor smoke (blame segment sums + slow-participant conviction)"
    cargo run -q --release -p cx-obs -- doctor target/obs_home2.report.json > /dev/null
    cargo run -q --release -p cx-chaos -- --doctor-demo --out-dir target
    cargo run -q --release -p cx-obs -- doctor target/doctor_slow.report.json \
        --against target/doctor_base.report.json | grep -q '^prime suspect: execute$'

    # Introspection-plane smoke: replay the repro the broken-recovery demo
    # just wrote, with lifecycle recording on and the always-on flight
    # recorder. The replay must reproduce, the obs report must pass the
    # phase-accounting check, and — since the repro carries failures — the
    # flight recorder must dump a non-empty post-mortem pair.
    step "chaos replay obs + flight-recorder post-mortem"
    repro=$(ls target/chaos-repro-cx-*.json | head -1)
    cargo run -q --release -p cx-chaos -- --replay "$repro" \
        --obs-out target/chaos_replay.trace.json --flight-out target/chaos_pm
    cargo run -q --release -p cx-obs -- check target/chaos_replay.trace.json.report.json
    test -s target/chaos_pm.flight.jsonl
    test -s target/chaos_pm.flight.trace.json

    # Multi-process smoke: one OS process per server (cx_net_server), the
    # coordinator connecting out over real TCP, with the live registry
    # publishing cross-process — the .prom file must exist and carry the
    # ops counter (its value is asserted against RunStats in-binary) —
    # and wall-clock tracing on: every process stamps phases on its own
    # clock, shards ship back in StopResp, and the coordinator stitches
    # them with probe-measured offsets (≥99% span completeness asserted
    # in-binary). The stitched report must pass cx-obs check, the net
    # table must render, and cx-obs top must merge the coordinator's
    # snapshot with the per-server ones.
    step "net multi-process smoke (cx_net_server x4 + live metrics + stitched trace)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --multiproc --scale 0.0005 --metrics-out target/cx_net_metrics \
        --obs-out target/cx_net_obs
    grep -q '^cx_ops_issued_total ' target/cx_net_metrics.prom
    cargo run -q --release -p cx-obs -- check target/cx_net_obs.report.json
    cargo run -q --release -p cx-obs -- net target/cx_net_obs.net.json > /dev/null
    cargo run -q --release -p cx-obs -- top target/cx_net_metrics.json \
        target/cx_net_metrics_srv*.json > /dev/null

    # Live-exposition smoke: a threaded home2 run must leave fresh .prom /
    # .json snapshots behind (the cx-obs top input), and the registry's
    # ops counter must match RunStats (asserted inside --live itself).
    step "live metrics (--live, threaded runtime)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --live --scale 0.005 --metrics-out target/cx_metrics > /dev/null
    grep -q '^cx_ops_issued_total ' target/cx_metrics.prom
    cargo run -q --release -p cx-obs -- top target/cx_metrics.json > /dev/null

    # The counted gate: peak live heap of one DES replay per benchmark row
    # (`--seed 7000` is rep 0 of the benchmark's `--seed 7`), under a
    # counting allocator. The replay is one deterministic thread, so the
    # peak repeats to the byte — no host slow wave can flake this one. The
    # ceilings are 3 % over EXPERIMENTS.md "What an in-flight op costs"
    # (10.36 / 6.79 / 4.29 MiB).
    step "heap ceilings (heap_peak, counted)"
    for row in update:10.67 home2:6.99 lowload:4.42; do
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

    # The wall-clock runtime's tests ride real timers, shepherd threads and
    # loopback sockets on whatever cores this box has: a 1-in-20 flake has to
    # show up here, not in the next PR's run. cx-net's own tests (reconnect
    # FIFO, kill mid-corked batch) are the evidence for the one-reader loop.
    step "cx-cluster + cx-net tests, five times back to back"
    for i in 1 2 3 4 5; do
        cargo test -q --release -p cx-cluster
        cargo test -q --release -p cx-net
    done
fi

step "cargo test (workspace)"
cargo test --workspace -q

step "ci.sh OK"
