#!/usr/bin/env bash
# Runs the server record-pipeline benchmark grid and writes its JSON
# output as the BENCH_server.json artifact:
#   - BM_ServerChannelThroughput    protected-payload throughput as the
#                                   concurrent-channel count grows 1 -> 10k
#   - BM_ServerSmallRecordBatching  many tiny records per instant — the
#                                   coalescing win
#
# Usage: scripts/bench_server.sh [build-dir] [out-file]
# Extra benchmark flags go through BENCH_FLAGS, e.g.
#   BENCH_FLAGS=--benchmark_min_time=0.01 scripts/bench_server.sh
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_server.json}"
FLAGS="${BENCH_FLAGS:-}"
source "$(dirname "$0")/bench_context.sh"

"$BUILD_DIR/bench/bench_server" \
  "$(bench_context "$BUILD_DIR")" \
  --benchmark_filter='BM_Server' $FLAGS \
  --benchmark_out="$OUT" --benchmark_out_format=json

echo "wrote $OUT"
