#!/usr/bin/env bash
# Tier-1 verify (ROADMAP.md): configure, build and run the full test
# suite, parallel everywhere (ctest includes the pinned-reference diffs,
# the --fast-forward / --jobs / --channel-parallel byte-identity legs,
# the audit self-test and the flag-strip smoke, see tests/CMakeLists.txt),
# then the observability, profiler, audit and fleet smokes below.
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

# Counter-audit gate (docs/OBSERVABILITY.md): the event trace and the
# stats snapshot must agree on every invariant family across the
# policy x geometry matrix. (Its self-test, one deliberately miscounted
# stat, is the ctest BenchSmoke.AuditSelfTestNamesSkewedKey.)
build/bench/bench_stat_audit --instructions=20000 --seed=1 \
  --out=build/tier1_audit_out.json > /dev/null
python3 -m json.tool build/tier1_audit_out.json > /dev/null

# Codec differential gate: the word-parallel SECDED/BCH hot paths must
# be bit-identical to the retained scalar references (already covered by
# ctest above via test_codec_equivalence; re-run standalone so a filtered
# ctest invocation can never silently skip it).
build/tests/test_codec_equivalence --gtest_brief=1 > /dev/null

# Fleet orchestrator crash-safety smoke (docs/FLEET.md): run an
# uninterrupted reference campaign, then a campaign whose orchestrator
# hard-exits mid-run (orch-exit selftest: _exit(137) with no cleanup,
# the moral equivalent of kill -9) with a worker-crash injection on top,
# then --resume it at different parallelism. The resumed aggregate must
# match the reference byte for byte. The killed + resumed runs stream
# the mecc-telemetry-v1 feed (docs/OBSERVABILITY.md) while the
# reference runs with telemetry off, so the final cmp doubles as the
# telemetry byte-identity gate; the feed itself must validate with a
# resume boundary and a closing final snapshot.
fleet_flags=(--fleet-devices=2000 --fleet-devices-per-shard=250
  --fleet-lines-per-device=4096 --seed=1 --fleet-backoff-s=0.01)
fleet_feed="build/tier1_fleet_feed.jsonl"
rm -rf build/tier1_fleet_ref build/tier1_fleet_kill
rm -f "$fleet_feed"
build/bench/bench_fleet_campaign "${fleet_flags[@]}" --jobs=3 \
  --fleet-state-dir=build/tier1_fleet_ref \
  --out=build/tier1_fleet_out.json > /dev/null
python3 -m json.tool build/tier1_fleet_out.json > /dev/null
fleet_rc=0
build/bench/bench_fleet_campaign "${fleet_flags[@]}" --jobs=2 \
  --fleet-state-dir=build/tier1_fleet_kill \
  --telemetry-out="$fleet_feed" \
  --fleet-selftest=orch-exit@3,crash@1:1 > /dev/null || fleet_rc=$?
if [[ "$fleet_rc" != 137 ]]; then
  echo "tier1: fleet orch-exit selftest exited $fleet_rc, expected 137" >&2
  exit 1
fi
build/bench/bench_fleet_campaign "${fleet_flags[@]}" --jobs=4 \
  --resume=build/tier1_fleet_kill \
  --telemetry-out="$fleet_feed" > /dev/null
python3 scripts/mecc_top.py "$fleet_feed" --validate --expect-final
cmp build/tier1_fleet_ref/aggregate.jsonl build/tier1_fleet_kill/aggregate.jsonl

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
