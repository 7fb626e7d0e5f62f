#!/usr/bin/env bash
# Runs the horizontal scale-out benchmark (C11, docs/SCALING.md) and
# writes its JSON output as the BENCH_grid.json artifact:
#   - BM_GridScaling/G/R   closed-loop AJO-DAG throughput over the
#                          gateway x NJS replica surface (G, R in
#                          {1, 2, 4}), 10^5 certificate identities in
#                          the sharded UUDB; `jobs_per_vsec` is the
#                          virtual-time throughput and must rise >= 3x
#                          from 1x1 to 4x4
#   - BM_GridFailover      4x4 with one NJS replica killed mid-load:
#                          journal handoff (`handoffs` counter), every
#                          job still acked
#
# Usage: scripts/bench_grid.sh [build-dir] [out-file]
# Extra benchmark flags go through BENCH_FLAGS; CI smoke lowers the
# identity population with UNICORE_GRID_IDENTITIES.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_grid.json}"
FLAGS="${BENCH_FLAGS:-}"
source "$(dirname "$0")/bench_context.sh"

"$BUILD_DIR/bench/bench_grid" \
  "$(bench_context "$BUILD_DIR")" \
  --benchmark_filter='BM_Grid' $FLAGS \
  --benchmark_out="$OUT" --benchmark_out_format=json

echo "wrote $OUT"
