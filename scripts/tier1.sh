#!/usr/bin/env bash
# Tier-1 verify (ROADMAP.md): configure, build and run the full test
# suite, parallel everywhere (ctest includes the pinned-reference diffs,
# the --fast-forward / --jobs / --channel-parallel byte-identity legs,
# the counter audit and its self-test, the flag-strip smoke and the fleet
# kill + resume drill, see tests/CMakeLists.txt), then the observability
# and profiler smokes below.
#
#   scripts/tier1.sh           # standard RelWithDebInfo verify
#   scripts/tier1.sh --tsan    # additionally build the whole tree with
#                              # -DMECC_TSAN=ON into build-tsan/ and run
#                              # all of ctest under TSan
#   scripts/tier1.sh --asan    # additionally build the whole tree with
#                              # -DMECC_ASAN=ON into build-asan/ and run
#                              # all of ctest under ASan+UBSan
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=0
run_asan=0
for arg in "$@"; do
  case "$arg" in
    --tsan) run_tsan=1 ;;
    --asan) run_asan=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Observability smoke (docs/OBSERVABILITY.md): a small traced+metered
# fault-campaign run, then Perfetto-format validation + summary and the
# metrics JSONL schema check. Per-variant files derive from the base
# paths (trace.ladder_full.json etc.).
trace_base="build/tier1_trace.json"
metrics_base="build/tier1_metrics.jsonl"
build/bench/bench_fault_campaign --instructions=500 --seed=1 \
  --trace="$trace_base" --metrics-out="$metrics_base" \
  --metrics-interval=100000 > /dev/null
python3 scripts/trace_summary.py \
  build/tier1_trace.ladder_full.json \
  build/tier1_trace.ladder_retry_only.json \
  build/tier1_trace.ladder_no_scrub.json
python3 scripts/trace_summary.py --metrics \
  build/tier1_metrics.ladder_full.jsonl \
  build/tier1_metrics.ladder_retry_only.jsonl \
  build/tier1_metrics.ladder_no_scrub.jsonl

# Self-profiler smoke (docs/OBSERVABILITY.md): --profile must emit a
# parseable mecc-profile-v1 report and must not perturb a single
# simulated byte — the --out of a profiled run is compared against an
# unprofiled emission with the same knobs.
out_json="build/tier1_table3_out.json"
profile_json="build/tier1_profile.json"
profile_out="build/tier1_profile_out.json"
build/bench/bench_table3_workloads --instructions=50000 --seed=1 --jobs=4 \
  --out="$out_json" > /dev/null
build/bench/bench_table3_workloads --instructions=50000 --seed=1 --jobs=4 \
  --profile="$profile_json" --out="$profile_out" > /dev/null
python3 -m json.tool "$profile_json" > /dev/null
grep -q 'mecc-profile-v1' "$profile_json"
cmp "$out_json" "$profile_out"

# Codec differential gate: the word-parallel SECDED/BCH hot paths must
# be bit-identical to the retained scalar references (already covered by
# ctest above via test_codec_equivalence; re-run standalone so a filtered
# ctest invocation can never silently skip it).
build/tests/test_codec_equivalence --gtest_brief=1 > /dev/null

# Wall-clock report (non-gating: host-dependent numbers, never a
# pass/fail signal; the committed snapshot is BENCH_perf.json).
scripts/perf_smoke.sh --repeats=1 --instructions=500000 || true

if [[ "$run_tsan" == 1 ]]; then
  cmake -B build-tsan -S . -DMECC_TSAN=ON
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"
fi

if [[ "$run_asan" == 1 ]]; then
  cmake -B build-asan -S . -DMECC_ASAN=ON
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
fi
