#!/usr/bin/env bash
# Run the paper bench suite's wall-clock harness.
#
#   tools/run_benches.sh [--build-dir DIR] [--threads N] [--reps N] [--out FILE]
#   tools/run_benches.sh --check [--build-dir DIR] [--threads N]
#   tools/run_benches.sh --trace [--build-dir DIR] [--threads N] [--reps N]
#                        [--out FILE]
#   tools/run_benches.sh --BENCH [--check] [--build-dir DIR] [--out FILE]
#
# A flag the selected mode would ignore (say --threads with a bench flag, or
# --out with --check) prints this usage on stderr and exits 2, like an
# unknown argument.
#
# Default mode times the fig3 + fig5 sweeps with the seed's serial runner vs
# the parallel engine and writes BENCH_harness.json (wall-clock ms per
# figure, speedup, thread count) at the repository root.
#
# --check runs the reduced-repetition regression gate instead: bit-identical
# results across thread counts plus the reproduced paper numbers staying in
# range. Exits non-zero on any regression (this is the run_benches_check
# CTest target).
#
# --chaos runs the fault-injection sweep (bench/chaos_restore) instead,
# writing BENCH_chaos_restore.json at the repository root; combined with
# --check it asserts the availability gate (>= 99% at the default 5% fault
# rate, no request lost).
#
# --trace runs a short traced fig3 scenario through `bench_harness --trace`,
# writes BENCH_trace.json (Chrome trace_event format, loadable in
# about:tracing / Perfetto) and validates it against tools/trace_schema.jq.
# Exits non-zero if the export violates the schema.
#
# --dedup runs the content-addressed page-store sweep (bench/dedup_store),
# writing BENCH_dedup_store.json at the repository root; combined with
# --check it asserts the store gates (template-clone p95 < 30% of the
# first-restore p95, cross-function delta < 50% of the full payload,
# bit-identical JSON at 1 and 4 engine threads).
#
# --throughput runs the restore-throughput hot-path sweep
# (bench/restore_throughput), writing BENCH_restore_throughput.json at the
# repository root; combined with --check it asserts the zero-copy gate
# (>= 5x restores/sec over the recorded pre-PR baseline, bit-identical
# restored state at 1 and 4 engine threads).
#
# --migration runs the live-migration sweep (bench/migration): downtime vs
# dirty-page rate for pre-copy chains against the cold re-restore baseline,
# writing BENCH_migration.json at the repository root; combined with --check
# it asserts the migration gates (zero lost requests, live downtime < 30% of
# the cold re-restore for the read-heavy cell, downtime monotone in dirty
# rate, bit-identical JSON at 1 and 4 engine threads).
#
# --policy runs the keep-alive policy study (bench/policy_study): four
# replica-lifecycle policies under the same 10^6-request streaming Zipf
# workload, writing BENCH_policy_study.json at the repository root; combined
# with --check it asserts the cold-start-rate ordering, bit-identical JSON
# at 1 and 4 engine threads, and the 10^7-request completion gate.
#
# --ws runs the working-set restore sweep (bench/ws_restore): REAP-style
# record-and-prefetch against eager and pure-lazy restores, writing
# BENCH_ws_restore.json at the repository root; combined with --check it
# asserts the WS gates (first-invoke stall <= 30% of pure-lazy's, restore
# latency <= 2x pure-lazy's, bit-identical JSON at 1 and 4 engine threads).
#
# --layered runs the layered base+delta snapshot sweep (bench/layered_store):
# monolithic vs base+delta restores across fleet sizes and runtimes, writing
# BENCH_layered.json at the repository root; combined with --check it asserts
# the layering gates (warm-base first-restore p95 <= 40% of monolithic,
# 64-function registry bytes <= 35% of monolithic, bit-identical JSON at 1
# and 4 engine threads).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# The bench flags, highest precedence first: flag, bench binary, default
# output at the repository root. The bench binaries take --out and --check
# only; without a bench flag the engine harness runs.
benches=(
  "--layered layered_store BENCH_layered.json"
  "--ws ws_restore BENCH_ws_restore.json"
  "--migration migration BENCH_migration.json"
  "--policy policy_study BENCH_policy_study.json"
  "--throughput restore_throughput BENCH_restore_throughput.json"
  "--dedup dedup_store BENCH_dedup_store.json"
  "--chaos chaos_restore BENCH_chaos_restore.json"
)

usage() { echo "usage:" >&2; sed -n '4,8s/^#//p' "$0" >&2; exit 2; }

build_dir="${repo_root}/build"
picked=${#benches[@]}  # index of the selected bench; none yet
harness_args=()
out=""
check=0
trace=0
threads_set=0
reps_set=0
out_set=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --check) check=1; shift ;;
    --trace) trace=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --threads) harness_args+=(--threads "$2"); threads_set=1; shift 2 ;;
    --reps) harness_args+=(--reps "$2"); reps_set=1; shift 2 ;;
    --out) out="$2"; out_set=1; shift 2 ;;
    *)
      i=0
      while [[ $i -lt ${#benches[@]} && "${benches[i]%% *}" != "$1" ]]; do
        i=$((i + 1))
      done
      if [[ $i -eq ${#benches[@]} ]]; then
        echo "run_benches.sh: unknown argument: $1" >&2
        exit 2
      fi
      [[ $i -lt $picked ]] && picked=$i
      shift
      ;;
  esac
done

# Reject a flag the selected mode would drop: the bench binaries take no
# --threads, --reps or --trace; --trace drops --check; --check drops --reps
# and --out.
bench_picked=$((picked < ${#benches[@]}))
if ((bench_picked && (threads_set || reps_set || trace) ||
     !bench_picked && trace && check ||
     !bench_picked && !trace && check && (reps_set || out_set))); then
  echo "run_benches.sh: a flag has no effect in this mode" >&2
  usage
fi

bench=bench_harness
default_out=BENCH_harness.json
[[ "$trace" -eq 1 ]] && default_out=BENCH_trace.json
[[ $picked -lt ${#benches[@]} ]] &&
  read -r _ bench default_out <<<"${benches[picked]}"
out="${out:-${repo_root}/${default_out}}"

if [[ "$bench" != bench_harness ]]; then
  args=(--out "$out")
  [[ "$check" -eq 1 ]] && args+=(--check)
elif [[ "$trace" -eq 1 ]]; then
  # A short traced run is enough for the schema smoke: the span *shape* is
  # rep-count independent, only the volume grows.
  [[ "$reps_set" -eq 1 ]] || harness_args+=(--reps 5)
  args=(--trace "$out" "${harness_args[@]}")
elif [[ "$check" -eq 1 ]]; then
  args=(--check "${harness_args[@]+"${harness_args[@]}"}")
else
  args=(--out "$out" "${harness_args[@]+"${harness_args[@]}"}")
fi

binary="${build_dir}/bench/${bench}"
if [[ ! -x "$binary" ]]; then
  echo "run_benches.sh: ${binary} not found; building..." >&2
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target "$bench" -j
fi

if [[ "$bench" == bench_harness && "$trace" -eq 1 ]]; then
  "$binary" "${args[@]}"
  if command -v jq >/dev/null 2>&1; then
    jq -r -f "${repo_root}/tools/trace_schema.jq" "$out"
  else
    echo "run_benches.sh: jq not found; skipping trace schema validation" >&2
  fi
  exit 0
fi
exec "$binary" "${args[@]}"
