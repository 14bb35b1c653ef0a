#!/usr/bin/env bash
# Runtime hot-path benchmark runner.
#
# Runs every runtime_ops row (human-readable lines on stderr) and writes
# the current snapshot to BENCH_runtime.json at the repo root: each row's
# median, min and max ns per call, and the two deterministic rows beside
# their pins. To compare against another commit in one session, run
# `bench_json --gate <rev>` instead (scripts/check.sh runs it against
# HEAD).
#
# Usage: scripts/bench.sh

set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q --release --offline -p polar-bench --bin bench_json -- --out BENCH_runtime.json
