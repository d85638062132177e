#!/usr/bin/env bash
# Offline CI for the mcs workspace: feature-matrix release builds, the full
# test suite with debug-checks active, clippy with warnings denied, the
# repository benchmark's tests and a short benchmark run with a throughput
# ceiling, and fault-matrix and observability smoke runs. No network access
# required or attempted.
set -euo pipefail
cd "$(dirname "$0")"

# Feature matrix. A workspace-wide build unifies mcs-sim's default
# `debug-checks` feature on (the `mcs` root package re-enables it), so the
# oracles and invariant sweeps compile everywhere tests run. Building
# mcs-sim and mcs-bench alone exercises the benchmark configuration, where
# the workspace dependency's `default-features = false` leaves the checks
# out of the simulator entirely. The -p mcs-bench build runs last so the
# faultmatrix/obsreport binaries left in target/release are the checks-off
# ones the smoke steps below run.
cargo build --release --offline --workspace
cargo build --release --offline -p mcs-sim --no-default-features
cargo build --release --offline -p mcs-bench

# Tier-1 tests (dev profile), with debug-checks on via unification: every
# transaction runs the write oracle, the snoop-filter exactness sweep, and
# the replacement flag-mirror consistency check.
cargo test -q --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# The repository benchmark (perfbench/, declared in BENCHMARK.json): its own
# tests, then a short run of every workload. The run's exit code gates the
# recorded output digests (so experiment outputs stay bit-identical),
# repetition determinism and the Stats identities.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
PERF_OUT=target/perfbench-smoke.txt
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload all --seconds 2 | tee "$PERF_OUT"

# Throughput ceiling: sharing_4p's rescaled wall_s must stay within 2x of
# the recorded figure -- the old half-of-recorded throughput floor, not
# loosened. 0.25 s is twice the ~0.125 s sharing_4p median recorded with
# the benchmark (perfbench/README.md, "Steadiness"). Generous on purpose: it
# catches "the hot path fell off a cliff", not noise.
SHARING_4P_WALL_S_CEILING=0.25
wall=$(tail -n 1 "$PERF_OUT" |
  sed -n 's/.*"sharing_4p\.wall_s":{"value":\([0-9.eE+-]*\).*/\1/p')
if ! awk -v w="$wall" -v c="$SHARING_4P_WALL_S_CEILING" \
    'BEGIN { exit !(w != "" && w + 0 <= c + 0) }'; then
  echo "ci.sh: sharing_4p wall_s '$wall' s over the ${SHARING_4P_WALL_S_CEILING} s ceiling" >&2
  exit 1
fi

# Fault-matrix smoke: every seeded fault scenario must terminate in a
# structured, deterministic way — no panic, no hang. The wall-clock
# `timeout` is the outer liveness guard; the matrix itself arms the
# in-simulation watchdog in every cell.
timeout 300 ./target/release/faultmatrix

# Observability smoke: export a JSONL trace for two E2 contenders and pipe
# each through the in-tree validator (every line parses, meta header first,
# cycles monotonically non-decreasing).
OBS_DIR=target/obs-smoke
mkdir -p "$OBS_DIR"
for proto in bitar-despain illinois; do
  out="$OBS_DIR/e2-$proto.jsonl"
  ./target/release/obsreport --experiment e2 --protocol "$proto" \
    --json-trace --out "$out"
  ./target/release/obsreport validate "$out"
done
echo "ci.sh: all checks passed"
