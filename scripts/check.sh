#!/usr/bin/env bash
# Tier-1 verify plus the sanitizer configuration. Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)

echo "== tier-1: RelWithDebInfo build + ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "== sanitizers: ASan + UBSan build + ctest =="
cmake -B build-asan -S . -DASTRAL_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo
echo "== tsan: ThreadSanitizer build + parallel suites =="
cmake -B build-tsan -S . -DASTRAL_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R "test_scheduler|test_analysis_session|test_iterator|test_domain_registry|test_octagon|test_partition_dispatch|test_service|test_interference|test_cancellation"


echo
echo "== serve smoke: daemon conformance + cache proof (CI parity) =="
scripts/serve_smoke.sh build

echo
echo "== chaos smoke: deadlines, fault injection, budget determinism (CI parity) =="
scripts/chaos_smoke.sh build

echo
echo "== smoke: astral-cli end-to-end =="
build/tools/astral-cli examples/flight_control.cpp --dump-invariants --unroll=2 >/dev/null
build/tools/astral-cli examples/quickstart.cpp --json --fail-on-alarms >/dev/null
# A refused value must exit 1 (`! cmd` alone would not fail a -e shell).
rc=0; build/tools/astral-cli examples/quickstart.cpp --clock-max nan 2>/dev/null || rc=$?; test "$rc" -eq 1
build/tools/astral-cli examples/rate_limiter_clocked.cpp --json --jobs=8 --fail-on-alarms >/dev/null
build/tools/astral-cli examples/flight_control.cpp --json --jobs=0 >/dev/null
build/tools/astral-cli examples/partitioned_switch.cpp --json --jobs=8 --dump-stats >/dev/null 2>&1
build/tools/astral-cli examples/thread_handoff.cpp examples/thread_mode_table.cpp --json --jobs=8 >/dev/null
build-tsan/tools/astral-cli examples/quickstart.cpp examples/interp_table.cpp --json --jobs=8 >/dev/null
build-tsan/tools/astral-cli examples/partitioned_switch.cpp --json --jobs=8 >/dev/null
build-tsan/tools/astral-cli examples/thread_handoff.cpp --json --jobs=8 >/dev/null

echo
echo "all checks passed"
