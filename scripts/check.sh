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
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L tsan

echo
echo "all checks passed"
