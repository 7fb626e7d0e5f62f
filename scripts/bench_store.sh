#!/usr/bin/env bash
# Runs the content-addressed store benchmark grid and writes its JSON
# output as the BENCH_store.json artifact:
#   - BM_DatasetRestageColdVsWarm     cold stage-in vs dedup-warm restage
#                                     of one virtual dataset (16 MiB ..
#                                     4 GiB); `warm_payload_chunks` is the
#                                     number of chunk messages the warm
#                                     leg moved (headline: 0) and
#                                     `speedup` the cold/warm ratio
#   - BM_SmallFilesRestageColdVsWarm  the same comparison for a
#                                     directory of 64 KiB files sent one
#                                     file at a time (each one whole-blob
#                                     message, so no wire dedup)
#   - BM_SmallFilesBundleVsPerFile    one bundle vs N one-file deliveries
#                                     for a tree of 16 KiB files
#                                     (10^3 / 10^4); `speedup` is the
#                                     per-file/bundle ratio, plus a
#                                     dedup-warm restage leg
#   - BM_SmallFilesBundleScale        bundle cold stage-in and warm
#                                     restage at 10^5 / 10^6 files
#                                     (warm_payload_chunks stays 0)
#   - BM_InternDedup                  local interning: SHA-256-bound
#                                     cold path vs the dedup fast path
#   - BM_SpillFaultRoundTrip          LRU eviction to the spill tier and
#                                     the fault-back on read
#
# Usage: scripts/bench_store.sh [build-dir] [out-file]
# Extra benchmark flags go through BENCH_FLAGS, e.g.
#   BENCH_FLAGS=--benchmark_min_time=0.01 scripts/bench_store.sh
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_store.json}"
FLAGS="${BENCH_FLAGS:-}"
source "$(dirname "$0")/bench_context.sh"

"$BUILD_DIR/bench/bench_store" \
  "$(bench_context "$BUILD_DIR")" \
  --benchmark_filter='BM_(Dataset|SmallFiles|Intern|Spill)' $FLAGS \
  --benchmark_out="$OUT" --benchmark_out_format=json

echo "wrote $OUT"
