#!/usr/bin/env bash
# Multi-core determinism matrix: every golden example must produce a
# byte-identical JSON report across --jobs=1/2/8 x --partition-dispatch=
# seq/par (the all-sequential --jobs=1 report is the baseline). This is the
# first-class CI gate behind the parallel analyzer's determinism contract —
# the in-tree ctest goldens cover the same matrix per case, this script is
# the standalone/CI entry point and the scripts/check.sh parity hook.
#
# On partitioned_switch the gate additionally demands proof that the
# trace-partition dispatch actually ran (parallel.partitions.dispatched > 0
# in the --dump-stats census), and on thread_handoff that the interference
# rounds ran (concurrency.rounds > 0): byte-identity alone would also be
# satisfied by the parallel paths silently degenerating.
#
# Mismatching reports are saved under <build-dir>/determinism-actual — the
# stable path CI uploads as a workflow artifact on failure.
#
# Usage: scripts/determinism_matrix.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CLI="$BUILD/tools/astral-cli"
if [[ ! -x "$CLI" ]]; then
  echo "determinism_matrix: missing $CLI (build first)" >&2
  exit 1
fi
ACTUAL_DIR="$BUILD/determinism-actual"

CASES="quickstart filter_verification alarm_investigation flight_control
       interp_table rate_limiter_clocked partitioned_switch
       thread_handoff thread_mode_table"

# Wall-clock is the one environment-dependent report field.
normalize() {
  sed -E 's/"analysis_seconds": [0-9.eE+-]+/"analysis_seconds": "<time>"/'
}

STDERR_TMP=$(mktemp)
trap 'rm -f "$STDERR_TMP"' EXIT

# Runs one configuration, naming it on any non-zero exit (a crash here is
# exactly the regression class this gate exists to catch — it must not die
# silently under set -e).
run_cli() { # $1=input $2=jobs $3=partition-dispatch
  local rc=0
  "$CLI" "$1" --json --jobs="$2" --partition-dispatch="$3" \
      2>"$STDERR_TMP" | normalize || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "determinism_matrix: $1 --jobs=$2 --partition-dispatch=$3" \
         "exited with $rc:" >&2
    cat "$STDERR_TMP" >&2
    return 1
  fi
}

fail=0
for case in $CASES; do
  input="examples/$case.cpp"
  base=$(run_cli "$input" 1 seq) || { fail=1; continue; }
  for jobs in 1 2 8; do
    for pdisp in seq par; do
      [[ "$jobs" == 1 && "$pdisp" == seq ]] && continue
      out=$(run_cli "$input" "$jobs" "$pdisp") || { fail=1; continue; }
      if [[ "$out" != "$base" ]]; then
        echo "DETERMINISM VIOLATION: $case --jobs=$jobs" \
             "--partition-dispatch=$pdisp" >&2
        diff <(printf '%s\n' "$base") <(printf '%s\n' "$out") | head -40 >&2 || true
        mkdir -p "$ACTUAL_DIR"
        printf '%s\n' "$base" >"$ACTUAL_DIR/$case.base.json"
        printf '%s\n' "$out" >"$ACTUAL_DIR/$case.jobs$jobs.$pdisp.actual.json"
        fail=1
      fi
    done
  done
  echo "determinism_matrix: ok $case (jobs=1/2/8 x partition=seq/par)"
done

# Liveness proof for the partition grain: the partitioned example must
# actually fan partitions out under --partition-dispatch=par with a parallel
# pool.
dispatched=$("$CLI" examples/partitioned_switch.cpp --json --jobs=8 \
    --partition-dispatch=par --dump-stats 2>&1 >/dev/null |
    sed -nE 's/^parallel\.partitions\.dispatched = ([0-9]+)$/\1/p')
if [[ -z "$dispatched" || "$dispatched" -eq 0 ]]; then
  echo "determinism_matrix: partition dispatch never ran on" \
       "partitioned_switch (parallel.partitions.dispatched=${dispatched:-missing})" >&2
  fail=1
else
  echo "determinism_matrix: partition dispatch ran ($dispatched partition(s) dispatched)"
fi

# Liveness proof for the thread grain: the threaded example must actually
# run interference fixpoint rounds (a silently-skipped concurrency pass
# would still be byte-identical — at the wrong semantics).
rounds=$("$CLI" examples/thread_handoff.cpp --json --jobs=8 \
    --dump-stats 2>&1 >/dev/null |
    sed -nE 's/^concurrency\.rounds = ([0-9]+)$/\1/p')
if [[ -z "$rounds" || "$rounds" -eq 0 ]]; then
  echo "determinism_matrix: interference rounds never ran on" \
       "thread_handoff (concurrency.rounds=${rounds:-missing})" >&2
  fail=1
else
  echo "determinism_matrix: interference fixpoint ran ($rounds round(s))"
fi

if [[ $fail -ne 0 ]]; then
  echo "determinism_matrix: FAILED" >&2
  exit 1
fi
echo "determinism_matrix: all reports byte-identical"
