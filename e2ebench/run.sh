#!/usr/bin/env bash
# Builds astral-cli and bench_e2e from the sources of the checkout this
# script sits in, then runs bench_e2e with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload family_j1 --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is bench_e2e's
# JSON result. The build lives in .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [[ ! -f CMakeLists.txt || ! -d src || ! -d tools ]]; then
  echo "e2ebench: no analyzer sources in $root" >&2
  exit 2
fi

build=.bench_build/e2ebench
jobs=$(nproc 2>/dev/null || echo 1)
((jobs > 4)) && jobs=4

if [[ ! -f $build/CMakeCache.txt ]]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  cmake -S e2ebench -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_e2e -j "$jobs" >&2

exec "$build/bench_e2e" "$@"
