#!/usr/bin/env bash
# Robustness/chaos smoke: the fault-tolerant service mode under deadlines,
# injected faults, and memory budgets. Proves, end-to-end over real daemon
# processes:
#
#   1. deadline governance: a 1 ms deadline on an 8-kLOC Sect. 4 family
#      member comes back as a structured `timeout` error (client exit 4) —
#      and the SAME daemon then serves every golden example byte-identical
#      to the one-shot CLI, so the casualty cost it nothing;
#   2. fault isolation: with ASTRAL_FAULT arming an analysis-side site
#      (frontend), the faulted request fails structurally and the daemon
#      survives to serve the identical request correctly afterwards;
#   3. transport self-healing: with the response path armed (socket-write +
#      torn-frame), a client with --connect-retries recovers transparently
#      and still gets the byte-identical report;
#   4. budget determinism: a memory-budget run that degrades produces
#      byte-identical reports (labeled "degraded": true) across
#      --jobs=1/2/8.
#
# On failure the scratch dir (reports, client/daemon stderr, the emitted
# family members) is preserved under <build-dir>/chaos-smoke-artifacts —
# the stable path CI uploads as a workflow artifact.
#
# Usage: scripts/chaos_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
CLI="$BUILD/tools/astral-cli"
if [[ ! -x "$CLI" ]]; then
  echo "chaos_smoke: missing $CLI (build first)" >&2
  exit 1
fi

CASES="quickstart filter_verification alarm_investigation flight_control
       interp_table rate_limiter_clocked partitioned_switch
       thread_handoff thread_mode_table"
NCASES=$(echo $CASES | wc -w)

WORK=$(mktemp -d)
SERVE_PID=
SOCK=

ARTIFACTS="$BUILD/chaos-smoke-artifacts"

cleanup() {
  local rc=$?
  [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
  if [[ $rc -ne 0 ]]; then
    rm -rf "$ARTIFACTS"
    mkdir -p "$ARTIFACTS"
    cp -r "$WORK"/. "$ARTIFACTS"/ 2>/dev/null || true
    echo "chaos_smoke: failure artifacts preserved in $ARTIFACTS" >&2
  fi
  rm -rf "$WORK"
  # An `if`, not `&&`: a script that falls off its end exits with the
  # trap's last status, and the daemons have already cleared SOCK.
  if [[ -n "$SOCK" ]]; then rm -f "$SOCK"; fi
}
trap cleanup EXIT

# Wall-clock is the one environment-dependent report field.
normalize() {
  sed -E 's/"analysis_seconds": [0-9.eE+-]+/"analysis_seconds": "<time>"/'
}

start_daemon() { # $1 = tag, env may carry ASTRAL_FAULT
  SOCK=$(mktemp -u "/tmp/astral-chaos-$1.XXXXXX.sock")
  "$CLI" serve --socket="$SOCK" --quiet 2>"$WORK/daemon-$1.err" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    if "$CLI" client --socket="$SOCK" status >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "chaos_smoke: daemon ($1) died during startup" >&2
      cat "$WORK/daemon-$1.err" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "chaos_smoke: daemon ($1) never became ready" >&2
  exit 1
}

stop_daemon() {
  "$CLI" client --socket="$SOCK" shutdown >/dev/null 2>&1 || true
  rc=0
  wait "$SERVE_PID" || rc=$?
  SERVE_PID=
  if [[ $rc -ne 0 ]]; then
    echo "chaos_smoke: daemon exited $rc after shutdown (want 0)" >&2
    fail=1
  fi
  rm -f "$SOCK"
  SOCK=
}

fail=0

# The Sect. 4 family members the governance checks run on.
"$CLI" emit-family --lines=8000 --seed=1234 >"$WORK/fam8k.c"
"$CLI" emit-family --lines=2000 --seed=7 >"$WORK/fam2k.c"

echo "== chaos 1: deadline expiry is structured, and costs the daemon nothing =="
start_daemon ddl
rc=0
"$CLI" client --socket="$SOCK" analyze "$WORK/fam8k.c" --json \
    --deadline-ms=1 >"$WORK/ddl.out" 2>"$WORK/ddl.err" || rc=$?
if [[ $rc -ne 4 ]]; then
  echo "chaos_smoke: deadline-expired analyze exited $rc (want 4):" >&2
  cat "$WORK/ddl.err" >&2
  fail=1
fi
if ! grep -q '\[timeout\]' "$WORK/ddl.err"; then
  echo "chaos_smoke: expired request did not surface error_kind timeout:" >&2
  cat "$WORK/ddl.err" >&2
  fail=1
fi
# The same daemon now serves every golden byte-identical to the one-shot CLI.
for case in $CASES; do
  input="examples/$case.cpp"
  "$CLI" "$input" --json >"$WORK/oneshot.json"
  if ! "$CLI" client --socket="$SOCK" analyze "$input" --json \
      >"$WORK/client.json" 2>"$WORK/client.err"; then
    echo "chaos_smoke: post-timeout analyze $case failed:" >&2
    cat "$WORK/client.err" >&2
    fail=1
    continue
  fi
  if ! diff <(normalize <"$WORK/oneshot.json") \
            <(normalize <"$WORK/client.json") >/dev/null; then
    echo "chaos_smoke: $case differs from one-shot after the timeout" \
         "casualty (byte-identity violation)" >&2
    fail=1
  fi
done
stop_daemon
echo "chaos_smoke: deadline governance ok ($NCASES golden(s) byte-identical)"

echo "== chaos 2: an injected analysis fault is isolated to its request =="
export ASTRAL_FAULT=frontend:1
start_daemon fault
unset ASTRAL_FAULT # Arm only the daemon, never the one-shot runs below.
rc=0
"$CLI" client --socket="$SOCK" analyze examples/quickstart.cpp --json \
    >"$WORK/faulted.out" 2>"$WORK/faulted.err" || rc=$?
if [[ $rc -eq 0 ]] || ! grep -q '\[internal\]' "$WORK/faulted.err"; then
  echo "chaos_smoke: armed frontend fault did not produce a structured" \
       "internal error (exit $rc):" >&2
  cat "$WORK/faulted.err" >&2
  fail=1
fi
# One-shot arming: the identical request must now succeed, byte-identical.
"$CLI" examples/quickstart.cpp --json >"$WORK/oneshot.json"
if ! "$CLI" client --socket="$SOCK" analyze examples/quickstart.cpp --json \
    >"$WORK/client.json" 2>"$WORK/client.err"; then
  echo "chaos_smoke: daemon did not survive the injected fault:" >&2
  cat "$WORK/client.err" >&2
  fail=1
elif ! diff <(normalize <"$WORK/oneshot.json") \
            <(normalize <"$WORK/client.json") >/dev/null; then
  echo "chaos_smoke: post-fault report differs from one-shot" >&2
  fail=1
fi
stop_daemon
echo "chaos_smoke: fault isolation ok"

echo "== chaos 3: client retries heal a torn response path =="
export ASTRAL_FAULT=socket-write:1,torn-frame:1
start_daemon torn
unset ASTRAL_FAULT
if ! "$CLI" client --socket="$SOCK" --connect-retries=3 analyze \
    examples/quickstart.cpp --json >"$WORK/client.json" 2>"$WORK/client.err"; then
  echo "chaos_smoke: retries did not recover from the torn transport:" >&2
  cat "$WORK/client.err" >&2
  fail=1
elif ! diff <(normalize <"$WORK/oneshot.json") \
            <(normalize <"$WORK/client.json") >/dev/null; then
  echo "chaos_smoke: retried report differs from one-shot" >&2
  fail=1
fi
stop_daemon
echo "chaos_smoke: transport self-healing ok"

echo "== chaos 4: budget degradation is deterministic across --jobs =="
ref=
for jobs in 1 2 8; do
  out="$WORK/deg-$jobs.json"
  if ! "$CLI" "$WORK/fam2k.c" --json --memory-budget-bytes=500000 \
      --jobs=$jobs >"$out" 2>"$WORK/deg.err"; then
    echo "chaos_smoke: budget run jobs=$jobs failed:" >&2
    cat "$WORK/deg.err" >&2
    fail=1
    continue
  fi
  if ! grep -q '"degraded": true' "$out"; then
    echo "chaos_smoke: jobs=$jobs did not degrade under the budget" >&2
    fail=1
  fi
  normalize <"$out" >"$out.norm"
  if [[ -z "$ref" ]]; then
    ref="$out.norm"
  elif ! diff "$ref" "$out.norm" >/dev/null; then
    echo "chaos_smoke: degraded report jobs=$jobs differs from jobs=1" \
         "(budget determinism violation)" >&2
    diff "$ref" "$out.norm" | head -20 >&2 || true
    fail=1
  fi
done
echo "chaos_smoke: budget determinism ok (jobs=1/2/8)"

if [[ $fail -ne 0 ]]; then
  echo "chaos_smoke: FAILED" >&2
  exit 1
fi
echo "chaos_smoke: all checks passed"
