#!/usr/bin/env bash
# Tier-1 verify (ROADMAP.md): configure, build and run the full test
# suite, parallel everywhere, then smoke the machine-readable bench
# output (--out=) against the committed reference emission.
#
#   scripts/tier1.sh           # standard RelWithDebInfo verify
#   scripts/tier1.sh --tsan    # additionally build with -DMECC_TSAN=ON
#                              # into build-tsan/ and run the thread-pool
#                              # + parallel-runner + stats/JSON tests
#                              # under TSan
#   scripts/tier1.sh --asan    # additionally build with -DMECC_ASAN=ON
#                              # into build-asan/ and run the reliability,
#                              # fault-campaign, mode-store, engine and
#                              # System tests under ASan+UBSan
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

# JSON emission smoke (docs/STATS.md): one small pinned suite bench with
# --out=, validate the JSON parses, then tolerance-diff it against the
# committed reference. The pinned knobs MUST match how the reference in
# tests/data/ was generated.
out_json="build/tier1_table3_out.json"
build/bench/bench_table3_workloads --instructions=50000 --seed=1 --jobs=4 \
  --out="$out_json" > /dev/null
python3 -m json.tool "$out_json" > /dev/null
python3 scripts/compare_stats.py \
  tests/data/table3_workloads_small_ref.json "$out_json"

# Fast-forward equivalence smoke (docs/PERFORMANCE.md): the event-driven
# skip engine must reproduce the committed per-cycle reference exactly.
ff_json="build/tier1_table3_ff_out.json"
build/bench/bench_table3_workloads --instructions=50000 --seed=1 --jobs=4 \
  --fast-forward=on --out="$ff_json" > /dev/null
python3 scripts/compare_stats.py \
  tests/data/table3_workloads_small_ref.json "$ff_json"

# Refresh-scheduling smoke (docs/SCHEDULING.md): the per-bank / DARP /
# SARP sweep must match its committed reference, and the event-driven
# core must reproduce the per-cycle schedule byte-for-byte under every
# refresh policy. The pinned knobs MUST match how the reference in
# tests/data/ was generated.
refresh_json="build/tier1_refresh_out.json"
build/bench/bench_refresh_parallelism --instructions=20000 --seed=1 \
  --jobs=4 --fast-forward=off --out="$refresh_json" > /dev/null
python3 scripts/compare_stats.py \
  tests/data/refresh_parallelism_small_ref.json "$refresh_json"
refresh_ff_json="build/tier1_refresh_ff_out.json"
build/bench/bench_refresh_parallelism --instructions=20000 --seed=1 \
  --jobs=4 --fast-forward=on --out="$refresh_ff_json" > /dev/null
cmp "$refresh_json" "$refresh_ff_json"

# Geometry smoke (docs/SCALING.md): the {1,2,4,8}-channel x {1,2}-rank
# sweep must match its committed reference, and the report must be
# byte-identical across --jobs, --fast-forward and --channel-parallel
# (worker count, event skipping and channel-parallel epoch ticking are
# pure implementation details). The pinned knobs MUST match how the
# reference in tests/data/ was generated.
geo_json="build/tier1_geometry_out.json"
build/bench/bench_memsys_geometry --instructions=20000 --seed=1 \
  --jobs=4 --out="$geo_json" > /dev/null
python3 -m json.tool "$geo_json" > /dev/null
python3 scripts/compare_stats.py \
  tests/data/memsys_geometry_small_ref.json "$geo_json"
geo_alt_json="build/tier1_geometry_alt_out.json"
build/bench/bench_memsys_geometry --instructions=20000 --seed=1 \
  --jobs=1 --fast-forward=off --out="$geo_alt_json" > /dev/null
cmp "$geo_json" "$geo_alt_json"
build/bench/bench_memsys_geometry --instructions=20000 --seed=1 \
  --jobs=4 --channel-parallel=4 --out="$geo_alt_json" > /dev/null
cmp "$geo_json" "$geo_alt_json"

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
# simulated byte — the --out of a profiled run is compared against the
# unprofiled reference emission generated above with the same knobs.
profile_json="build/tier1_profile.json"
profile_out="build/tier1_profile_out.json"
build/bench/bench_table3_workloads --instructions=50000 --seed=1 --jobs=4 \
  --profile="$profile_json" --out="$profile_out" > /dev/null
python3 -m json.tool "$profile_json" > /dev/null
grep -q 'mecc-profile-v1' "$profile_json"
cmp "$out_json" "$profile_out"

# Counter-audit gate (docs/OBSERVABILITY.md): the event trace and the
# stats snapshot must agree on every invariant family across the
# policy x geometry matrix, and the self-test — one deliberately
# miscounted stat — must fail with exit 1 naming the skewed key.
build/bench/bench_stat_audit --instructions=20000 --seed=1 \
  --out=build/tier1_audit_out.json > /dev/null
python3 -m json.tool build/tier1_audit_out.json > /dev/null
audit_rc=0
build/bench/bench_stat_audit --audit-selftest=dram.activates \
  > build/tier1_audit_selftest.log 2>&1 || audit_rc=$?
if [[ "$audit_rc" != 1 ]]; then
  echo "tier1: audit selftest exited $audit_rc, expected 1" >&2
  exit 1
fi
grep -q 'dram.activates' build/tier1_audit_selftest.log

# Shared-flag strip smoke (regression for the bench_ecc_codec leak):
# every SimOptions flag must pass through the bench without reaching
# benchmark::Initialize, which exits non-zero on flags it does not
# recognize. The bench main derives its strip set from parse_options'
# consumed report, so this invocation fails the instant a newly added
# shared flag is not reported consumed.
build/bench/bench_ecc_codec \
  --instructions=1000 --seed=1 --jobs=1 --ber=0.001 \
  --channels=2 --ranks=2 --interleave=line --streams=1 \
  --channel-parallel=0 \
  --fast-forward=on --trace=build/tier1_codec_trace.json \
  --trace-categories=dram --trace-limit=1000 \
  --metrics-out=build/tier1_codec_metrics.jsonl \
  --metrics-interval=100000 --metrics-keys=power \
  --out=build/tier1_codec_out.json \
  --perf-out=build/tier1_codec_perf.json \
  --benchmark_filter=BM_SecdedEncode64 > /dev/null
python3 -m json.tool build/tier1_codec_out.json > /dev/null
# --list-stats short-circuits before the benchmark suite; it must exit 0.
build/bench/bench_ecc_codec --list-stats > /dev/null

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
  cmake --build build-tsan -j --target test_thread_pool \
    test_parallel_runner test_run_json test_stats \
    test_golden_vectors test_codec_property test_fast_forward \
    test_trace test_observability test_codec_equivalence \
    test_refresh_policy test_fleet_orchestrator \
    test_telemetry test_profile test_stat_audit
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R 'ThreadPool|ParallelRunner|RunJson|StatSet|StatRegistry|Distribution|QuantileSketch|GoldenVectors|CodecProperty|FastForward|Tracer|MetricsSampler|Observability|CodecEquivalence|PerBankRefresh|DarpRefresh|SarpRefresh|Fleet|Telemetry|ProgressRecord|ProgressTailer|SnapshotJson|HostProfiler|StatAudit'
fi

if [[ "$run_asan" == 1 ]]; then
  cmake -B build-asan -S . -DMECC_ASAN=ON
  cmake --build build-asan -j --target test_fault_injection \
    test_memory_image test_shadow_memory test_due_policy \
    test_fault_campaign test_line_codec test_bitvec test_fast_forward \
    test_json test_trace test_observability test_codec_equivalence \
    test_refresh_policy test_controller_fuzz test_elastic_refresh \
    test_fleet_orchestrator test_stats \
    test_telemetry test_profile test_stat_audit \
    test_mode_store test_engine test_system
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R 'FaultInjector|MonteCarlo|MemoryImage|ShadowMemory|DuePolicy|FaultCampaign|LineCodec|BitVec|FastForward|JsonEscape|JsonWriter|Tracer|MetricsSampler|Observability|CodecEquivalence|PerBankRefresh|DarpRefresh|SarpRefresh|ElasticRefresh|ControllerFuzz|ControllerStress|Fleet|StatSet|StatRegistry|Distribution|QuantileSketch|Telemetry|ProgressRecord|ProgressTailer|SnapshotJson|HostProfiler|StatAudit|^(ModeStore|Engine|System)\.'
fi
