#!/usr/bin/env bash
# Runs the portal-layer benchmark grid and writes its JSON output as
# the BENCH_portal.json artifact:
#   - BM_SessionOpenClose          bearer-token sessions minted+closed
#                                  per second at the gateway broker
#   - BM_TokenRequestFastPath      per-request token validation cost
#                                  (generation-stamped fast path)
#   - BM_OneRunLatency             one_run end to end, cold handshake
#                                  vs ticket-resumed channel
#   - BM_ConcurrentTokenSessions   1 -> 10k live sessions, traffic
#                                  multiplexed over one pooled channel
#                                  (`active_sessions` is the broker's
#                                  high-water mark)
#
# Usage: scripts/bench_portal.sh [build-dir] [out-file]
# Extra benchmark flags go through BENCH_FLAGS, e.g.
#   BENCH_FLAGS=--benchmark_min_time=0.01 scripts/bench_portal.sh
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_portal.json}"
FLAGS="${BENCH_FLAGS:-}"
source "$(dirname "$0")/bench_context.sh"

"$BUILD_DIR/bench/bench_portal" \
  "$(bench_context "$BUILD_DIR")" \
  --benchmark_filter='BM_(Session|TokenRequest|OneRun|Concurrent)' $FLAGS \
  --benchmark_out="$OUT" --benchmark_out_format=json

echo "wrote $OUT"
