#!/usr/bin/env bash
# Full verification sweep: tier-1 tests, both sanitizer presets, and a
# 100-iteration property run (see README "Verification" and DESIGN.md §7).
#
# Usage: scripts/verify.sh [stage] [jobs]
#   stage: tier1 | sanitizers | property | all   (default: all)
#   jobs:  parallel build/test jobs              (default: nproc)
# The old `scripts/verify.sh [jobs]` form still works: a numeric first
# argument is taken as the jobs count.
#
#        scripts/verify.sh golden REF [jobs]
# Byte-identity check against a git revision: builds REF in a temporary
# `git worktree` and the working tree in build-golden/, runs the bench-smoke
# exhibits (--json/--metrics/--snapshots/--trace) and the deterministic
# seer_serve configs (JSONL + --metrics-out) with both, and `cmp`s every
# artifact. Exits non-zero on the first difference.

# `sh scripts/verify.sh` used to *pass* vacuously: dash rejects
# `set -o pipefail`, aborted before running a single test, and the exit
# status of the failed `set` was 0 on some shells. Re-exec under bash so the
# interpreter can never silently change what this script checks.
if [ -z "${BASH_VERSION:-}" ]; then
  exec bash "$0" "$@"
fi

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/verify.sh [tier1|sanitizers|property|all] [jobs]" >&2
  echo "       scripts/verify.sh golden REF [jobs]" >&2
  exit 2
}

STAGE="all"
JOBS=""
REF=""
if [ "${1:-}" = "golden" ]; then
  [ $# -ge 2 ] || usage
  STAGE="golden"
  REF="$2"
  shift 2
fi
for arg in "$@"; do
  case "${arg}" in
    tier1|sanitizers|property|all)
      [ "${STAGE}" = "golden" ] && usage
      STAGE="${arg}"
      ;;
    ''|*[!0-9]*) usage ;;
    *) JOBS="${arg}" ;;
  esac
done
JOBS="${JOBS:-$(nproc)}"

run_tier1() {
  echo "== tier-1: configure + build + ctest (build/, ${JOBS} jobs) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"${JOBS}"
  ctest --test-dir build --output-on-failure -j"${JOBS}"
}

run_sanitizers() {
  local preset
  for preset in tsan asan-ubsan; do
    echo "== sanitizer preset: ${preset} =="
    cmake --preset "${preset}" >/dev/null
    cmake --build --preset "${preset}" -j"${JOBS}"
    ctest --preset "${preset}" -j"${JOBS}"
  done
}

run_property() {
  echo "== property sweep: 100 iterations =="
  if [ ! -x ./build/tests/property_test ]; then
    echo "build/tests/property_test missing — run the tier1 stage first" >&2
    exit 1
  fi
  SEER_PROPERTY_ITERS=100 ./build/tests/property_test \
    --gtest_filter='PropertyHarness.RandomWorkloadsStayOpaque*'
}

GOLDEN_EXHIBITS=(fig3_speedup table3_breakdown fig4_overhead fig5_ablation oracle_gap)
GOLDEN_TMP=""

# Builds the golden binaries of source tree $1 into build directory $2
# (tests and examples off, so the tier-1 build/ cache is never touched).
golden_build() {
  cmake -B "$2" -S "$1" -DSEER_BUILD_TESTS=OFF -DSEER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$2" -j"${JOBS}" --target "${GOLDEN_EXHIBITS[@]}" seer_serve >/dev/null
}

# Writes every golden artifact of build directory $1 into directory $2. The
# inputs (workload configs) always come from the working tree, so a
# difference can only come from the code.
golden_outputs() {
  local bin="$1" out="$2" ex exe wl
  mkdir -p "${out}"
  for ex in "${GOLDEN_EXHIBITS[@]}" phased_workload; do
    exe="${ex}"
    wl="genome"
    if [ "${ex}" = "phased_workload" ]; then
      exe="fig3_speedup"
      wl="bench/workloads/phased_smoke.json"
    fi
    "${bin}/bench/${exe}" --jobs 2 --runs 1 --txs-scale 0.05 --workload "${wl}" \
      --json "${out}/${ex}.json" --metrics "${out}/${ex}.metrics.json" \
      --snapshots "${out}/${ex}.snapshots.json" --trace "${out}/${ex}.trace.json" \
      >"${out}/${ex}.stdout"
  done
  local serve="${bin}/tools/seer_serve"
  "${serve}" --workload bench/workloads/serve_smoke.json --deterministic \
    --out "${out}/serve_smoke.jsonl" --metrics-out "${out}/serve_smoke.prom" \
    2>"${out}/serve_smoke.stderr"
  # Serial steps: concurrent ones race on the last-writer-wins gauges of
  # --metrics-out (the JSONL is --jobs-invariant and CI checks that).
  "${serve}" --workload bench/workloads/serve_sweep.json --deterministic \
    --out "${out}/serve_sweep.jsonl" --metrics-out "${out}/serve_sweep.prom" \
    2>"${out}/serve_sweep.stderr"
  "${serve}" --workload bench/workloads/serve_scale64.json --policy Seer \
    --deterministic --seed 7 --update-period 8192 --storm-response \
    --storm-enter 0.2 --out "${out}/serve_scale64.jsonl" \
    --metrics-out "${out}/serve_scale64.prom" 2>"${out}/serve_scale64.stderr"
}

golden_cleanup() {
  git worktree remove --force "${GOLDEN_TMP}/ref" >/dev/null 2>&1 || true
  rm -rf "${GOLDEN_TMP}"
}

run_golden() {
  local f n=0
  GOLDEN_TMP="$(mktemp -d)"
  trap golden_cleanup EXIT
  echo "== golden: ${REF} vs working tree =="
  git worktree add --detach "${GOLDEN_TMP}/ref" "${REF}" >/dev/null
  golden_build "${GOLDEN_TMP}/ref" "${GOLDEN_TMP}/ref/build"
  golden_build . build-golden
  golden_outputs "${GOLDEN_TMP}/ref/build" "${GOLDEN_TMP}/out-ref"
  golden_outputs build-golden "${GOLDEN_TMP}/out-new"
  for f in "${GOLDEN_TMP}"/out-ref/*; do
    cmp "${f}" "${GOLDEN_TMP}/out-new/$(basename "${f}")"
    n=$((n + 1))
  done
  echo "golden: ${n} artifacts byte-identical to ${REF}"
}

case "${STAGE}" in
  tier1) run_tier1 ;;
  golden) run_golden ;;
  sanitizers) run_sanitizers ;;
  property) run_property ;;
  all)
    run_tier1
    run_sanitizers
    run_property
    ;;
esac

echo "verify.sh: stage '${STAGE}' green"
