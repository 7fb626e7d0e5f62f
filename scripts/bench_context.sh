# Sourced by the bench_*.sh scripts. bench_context <build-dir> prints
# the --benchmark_context flag that makes a BENCH_*.json record which
# code it measured: the git commit ("-dirty" when the tree has
# uncommitted changes) and the CMake build type of <build-dir>.
bench_context() {
  local root sha build_type
  root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
  sha="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
  if [ "$sha" != unknown ] && ! git -C "$root" diff --quiet HEAD -- 2>/dev/null; then
    sha="$sha-dirty"
  fi
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$1/CMakeCache.txt" 2>/dev/null)"
  echo "--benchmark_context=git_sha=$sha,build_type=${build_type:-unknown}"
}
