#!/usr/bin/env bash
# Builds and tests the plain (RelWithDebInfo), sanitized (ASan+UBSan
# Debug, any UBSan report fatal) and ThreadSanitizer (Debug; the net,
# util and crypto suites, where the record pool, ThreadPool and SpscRing
# run real threads and pool workers share one record key) configurations
# via the CMake presets.
#
#   scripts/check.sh            all three configurations
#   scripts/check.sh plain      just the regular build
#   scripts/check.sh sanitize   just the ASan+UBSan build
#   scripts/check.sh tsan       just the TSan build
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(plain sanitize tsan)
fi

for preset in "${presets[@]}"; do
  echo "==> configure [$preset]"
  cmake --preset "$preset"
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==> test [$preset]"
  ctest --preset "$preset"
done

echo "All checks passed: ${presets[*]}"
