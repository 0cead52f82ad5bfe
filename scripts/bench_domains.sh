#!/usr/bin/env bash
# Nightly bench trajectory: runs the paper-experiment harnesses that track
# analyzer performance — bench_fig2_scaling (time vs kLOC, Fig. 2),
# bench_packing_opt (abstract-state memory, Sect. 7.2.2),
# bench_parallel_jobs (speedup vs --jobs, the Monniaux parallel direction)
# and bench_octagon_cost's whole-analyzer closure census — and folds their
# numbers into machine-readable BENCH_domains.json, BENCH_parallel.json and
# BENCH_octagon.json, so this and future perf PRs show their trajectory.
#
# Usage: scripts/bench_domains.sh [build-dir] [output.json] [parallel.json] \
#                                 [octagon.json]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
OUT=${2:-BENCH_domains.json}
PAR_OUT=${3:-BENCH_parallel.json}
OCT_OUT=${4:-BENCH_octagon.json}

FIG2="$BUILD/bench/bench_fig2_scaling"
PACKING="$BUILD/bench/bench_packing_opt"
PARALLEL="$BUILD/bench/bench_parallel_jobs"
OCTCOST="$BUILD/bench/bench_octagon_cost"
for bin in "$FIG2" "$PACKING" "$PARALLEL" "$OCTCOST"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_domains: missing $bin (build with -DASTRAL_BUILD_BENCH=ON)" >&2
    exit 1
  fi
done

FIG2_OUT=$("$FIG2" 2>/dev/null)
PACKING_OUT=$("$PACKING" 2>/dev/null)

# bench_fig2_scaling data rows: lines kLOC time(s) s/kLOC alarms cells.
SCALING_JSON=$(printf '%s\n' "$FIG2_OUT" | awk '
  /^ +[0-9]+ +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9]+ +[0-9]+ *$/ {
    rows[n++] = sprintf("    {\"lines\": %s, \"kloc\": %s, \"seconds\": %s, \"s_per_kloc\": %s, \"alarms\": %s, \"cells\": %s}",
                        $1, $2, $3, $4, $5, $6)
  }
  END { for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i + 1 < n ? "," : "") }')

# bench_packing_opt summary rows: "<label> <all-packs> <useful-only>".
mem_all=$(printf '%s\n' "$PACKING_OUT" | awk '/abstract-state peak/ {print $(NF-1)}')
mem_opt=$(printf '%s\n' "$PACKING_OUT" | awk '/abstract-state peak/ {print $NF}')
time_all=$(printf '%s\n' "$PACKING_OUT" | awk '/analysis time/ {print $(NF-1)}')
time_opt=$(printf '%s\n' "$PACKING_OUT" | awk '/analysis time/ {print $NF}')
packs_all=$(printf '%s\n' "$PACKING_OUT" | awk '/octagon packs/ {print $(NF-1)}')
packs_opt=$(printf '%s\n' "$PACKING_OUT" | awk '/octagon packs/ {print $NF}')

if [[ -z "$SCALING_JSON" || -z "$mem_all" ]]; then
  echo "bench_domains: could not parse bench output" >&2
  exit 1
fi

GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)

cat > "$OUT" <<EOF
{
  "generated": "$DATE",
  "git": "$GIT_REV",
  "fig2_scaling": [
$SCALING_JSON
  ],
  "packing_opt": {
    "octagon_packs_all": $packs_all,
    "octagon_packs_useful": $packs_opt,
    "analysis_seconds_all": $time_all,
    "analysis_seconds_useful": $time_opt,
    "abstract_state_peak_mb_all": $mem_all,
    "abstract_state_peak_mb_useful": $mem_opt
  }
}
EOF

echo "bench_domains: wrote $OUT"

# ---------------------------------------------------------------------------
# BENCH_parallel.json: speedup-vs-jobs series from bench_parallel_jobs.
# Rows: "PARALLEL single jobs=N seconds=S speedup=X alarms=A" (one family
#        member), "PARALLEL partition jobs=N seconds=S speedup=X reps=R"
#        (the trace-partition grain on examples/partitioned_switch.cpp) and
#        "PARALLEL batch jobs=N files=K seconds=S speedup=X".
# ---------------------------------------------------------------------------
# Surface the bench's own diagnostic (e.g. "DETERMINISM VIOLATION ...") on
# failure — it prints to stdout, which the capture would otherwise swallow.
if ! PAR_RAW=$("$PARALLEL" 2>/dev/null); then
  echo "bench_domains: $PARALLEL failed:" >&2
  printf '%s\n' "$PAR_RAW" >&2
  exit 1
fi

par_series() { # $1 = single|partition|batch
  printf '%s\n' "$PAR_RAW" | awk -v kind="$1" '
    $1 == "PARALLEL" && $2 == kind {
      jobs = seconds = speedup = ""
      for (i = 3; i <= NF; i++) {
        split($i, kv, "=")
        if (kv[1] == "jobs") jobs = kv[2]
        if (kv[1] == "seconds") seconds = kv[2]
        if (kv[1] == "speedup") speedup = kv[2]
      }
      rows[n++] = sprintf("    {\"jobs\": %s, \"seconds\": %s, \"speedup\": %s}",
                          jobs, seconds, speedup)
    }
    END { for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i + 1 < n ? "," : "") }'
}

SINGLE_JSON=$(par_series single)
PARTITION_JSON=$(par_series partition)
BATCH_JSON=$(par_series batch)
BATCH_FILES=$(printf '%s\n' "$PAR_RAW" | awk '
  $1 == "PARALLEL" && $2 == "batch" {
    for (i = 3; i <= NF; i++) { split($i, kv, "="); if (kv[1] == "files") { print kv[2]; exit } }
  }')

if [[ -z "$SINGLE_JSON" || -z "$PARTITION_JSON" || -z "$BATCH_JSON" ]]; then
  echo "bench_domains: could not parse bench_parallel_jobs output" >&2
  exit 1
fi

PAR_CORES=$(printf '%s\n' "$PAR_RAW" | awk '
  $1 == "PARALLEL" && $2 == "hardware" {
    for (i = 3; i <= NF; i++) { split($i, kv, "="); if (kv[1] == "cores") { print kv[2]; exit } }
  }')

cat > "$PAR_OUT" <<EOF
{
  "generated": "$DATE",
  "git": "$GIT_REV",
  "hardware_cores": ${PAR_CORES:-1},
  "single_file": [
$SINGLE_JSON
  ],
  "partition": [
$PARTITION_JSON
  ],
  "batch": {
    "files": $BATCH_FILES,
    "series": [
$BATCH_JSON
    ]
  }
}
EOF

echo "bench_domains: wrote $PAR_OUT"

# ---------------------------------------------------------------------------
# BENCH_octagon.json: whole-analyzer closure census from bench_octagon_cost.
# Rows: "OCTCLOSE lines=N kloc=K seconds=S s_per_kloc=P closures_full=A
#        closures_incremental=B alarms=C".
# The micro-benchmarks are skipped (--benchmark_filter matching nothing);
# only the whole-analyzer fig2 census feeds the JSON.
# ---------------------------------------------------------------------------
if ! OCT_RAW=$("$OCTCOST" --benchmark_filter='^$' 2>/dev/null); then
  echo "bench_domains: $OCTCOST failed:" >&2
  printf '%s\n' "$OCT_RAW" >&2
  exit 1
fi

OCT_JSON=$(printf '%s\n' "$OCT_RAW" | awk '
  $1 == "OCTCLOSE" && NF > 2 {
    lines = kloc = seconds = perk = cf = ci = alarms = ""
    for (i = 2; i <= NF; i++) {
      split($i, kv, "=")
      if (kv[1] == "lines") lines = kv[2]
      if (kv[1] == "kloc") kloc = kv[2]
      if (kv[1] == "seconds") seconds = kv[2]
      if (kv[1] == "s_per_kloc") perk = kv[2]
      if (kv[1] == "closures_full") cf = kv[2]
      if (kv[1] == "closures_incremental") ci = kv[2]
      if (kv[1] == "alarms") alarms = kv[2]
    }
    if (lines == "") next
    rows[n++] = sprintf("    {\"lines\": %s, \"kloc\": %s, \"seconds\": %s, \"s_per_kloc\": %s, \"closures_full\": %s, \"closures_incremental\": %s, \"alarms\": %s}",
                        lines, kloc, seconds, perk, cf, ci, alarms)
  }
  END { for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i + 1 < n ? "," : "") }')

if [[ -z "$OCT_JSON" ]]; then
  echo "bench_domains: could not parse bench_octagon_cost OCTCLOSE rows" >&2
  exit 1
fi

cat > "$OCT_OUT" <<EOJSON
{
  "generated": "$DATE",
  "git": "$GIT_REV",
  "members": [
$OCT_JSON
  ]
}
EOJSON

echo "bench_domains: wrote $OCT_OUT"
