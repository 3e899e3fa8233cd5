#!/usr/bin/env bash
# Fast-forward performance smoke (docs/PERFORMANCE.md): runs the small
# 28-benchmark sweep with --fast-forward=on and =off at --jobs=1, takes
# the best of N repeats of each, and writes a merged report with the
# wall_mips speedup ratio. The committed snapshot lives at BENCH_perf.json
# (regenerate with: scripts/perf_smoke.sh --out=BENCH_perf.json; keys of
# an existing --out file that this script does not produce are kept).
#
# Numbers are host-dependent observability, never a correctness gate:
# tier1.sh runs this non-gating (`|| true`) and ignores the ratio.
#
#   scripts/perf_smoke.sh [--out=FILE] [--instructions=N] [--repeats=N]
set -euo pipefail

cd "$(dirname "$0")/.."

out="build/BENCH_perf.json"
instructions=2000000
repeats=3
for arg in "$@"; do
  case "$arg" in
    --out=*) out="${arg#--out=}" ;;
    --instructions=*) instructions="${arg#--instructions=}" ;;
    --repeats=*) repeats="${arg#--repeats=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

bench="build/bench/bench_table3_workloads"
if [[ ! -x "$bench" ]]; then
  echo "perf_smoke: $bench not built (run cmake --build build first)" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for mode in on off; do
  for ((i = 0; i < repeats; ++i)); do
    "$bench" --instructions="$instructions" --seed=1 --jobs=1 \
      --fast-forward="$mode" --out="$tmpdir/out_${mode}_${i}.json" \
      --perf-out="$tmpdir/perf_${mode}_${i}.json" > /dev/null 2>&1
  done
done

# Self-profiler leg (docs/OBSERVABILITY.md): interleaved
# unprofiled/profiled PAIRS of the ff=on sweep. The overhead estimate
# is the median of per-pair wall ratios — on a host with several
# percent run-to-run noise, back-to-back pairing cancels slow drift and
# the median kills outliers, where "one profiled run vs the unprofiled
# best" folds that noise in as pure upward bias. Host-dependent and
# non-gating like the rest of this file. What IS gated here is
# byte-identity: profiling must not perturb --out.
for ((i = 0; i < repeats; ++i)); do
  "$bench" --instructions="$instructions" --seed=1 --jobs=1 \
    --fast-forward=on --out="$tmpdir/out_pair_${i}.json" \
    --perf-out="$tmpdir/perf_pair_${i}.json" > /dev/null 2>&1
  "$bench" --instructions="$instructions" --seed=1 --jobs=1 \
    --fast-forward=on --profile="$tmpdir/profile_${i}.json" \
    --out="$tmpdir/out_prof_${i}.json" \
    --perf-out="$tmpdir/perf_prof_${i}.json" > /dev/null 2>&1
  if ! cmp -s "$tmpdir/out_on_0.json" "$tmpdir/out_prof_${i}.json"; then
    echo "perf_smoke: --profile perturbed the simulated output" >&2
    exit 1
  fi
done

# Channel-scaling leg (docs/SCALING.md): the per-channel fast-forward
# speedup at 2/4/8 channels. The PR gate is >= 3x at 4 channels; like
# the single-channel numbers above, the recorded values are
# host-dependent observability.
for ch in 2 4 8; do
  for mode in on off; do
    for ((i = 0; i < repeats; ++i)); do
      "$bench" --instructions="$instructions" --seed=1 --jobs=1 \
        --channels="$ch" --ranks=2 --fast-forward="$mode" \
        --out="$tmpdir/out_ch${ch}_${mode}_${i}.json" \
        --perf-out="$tmpdir/perf_ch${ch}_${mode}_${i}.json" \
        > /dev/null 2>&1
    done
  done
  # ff on/off must agree on every simulated byte at every geometry.
  if ! cmp -s "$tmpdir/out_ch${ch}_on_0.json" \
       "$tmpdir/out_ch${ch}_off_0.json"; then
    echo "perf_smoke: fast-forward on/off outputs differ at ${ch}ch" >&2
    exit 1
  fi
done

# Codec throughput leg (docs/PERFORMANCE.md): lines/sec of the
# word-parallel ECC codecs vs the retained scalar references. Like the
# wall-clock sweep above, purely observational — the numbers land in the
# report, the differential *correctness* gate is test_codec_equivalence.
codec_bench="build/bench/bench_ecc_codec"
codec_json="$tmpdir/codec_throughput.json"
if [[ -x "$codec_bench" ]]; then
  "$codec_bench" --throughput --seed=1 --perf-out="$codec_json" > /dev/null
else
  echo "perf_smoke: $codec_bench not built; skipping codec leg" >&2
  codec_json=""
fi

# Refresh-scheduling leg (docs/SCHEDULING.md): the per-bank / DARP /
# SARP sweep's latency scalars. Deterministic w.r.t. --jobs, so run
# parallel; observational like the rest of this report (the correctness
# gate is the pinned-reference diff in tier1.sh).
refresh_bench="build/bench/bench_refresh_parallelism"
refresh_json="$tmpdir/refresh_parallelism.json"
if [[ -x "$refresh_bench" ]]; then
  "$refresh_bench" --instructions="$instructions" --seed=1 --jobs=4 \
    --out="$refresh_json" > /dev/null
else
  echo "perf_smoke: $refresh_bench not built; skipping refresh leg" >&2
  refresh_json=""
fi

# Fleet campaign leg (docs/FLEET.md): devices/sec throughput of the
# multi-process orchestrator on a small fleet. Observational like the
# rest of this report (the crash-safety correctness gate is the
# kill-resume byte comparison in tier1.sh).
fleet_bench="build/bench/bench_fleet_campaign"
fleet_json="$tmpdir/fleet_perf.json"
if [[ -x "$fleet_bench" ]]; then
  "$fleet_bench" --fleet-devices=2000 --fleet-devices-per-shard=250 \
    --fleet-lines-per-device=4096 --seed=1 --jobs=4 \
    --fleet-state-dir="$tmpdir/fleet_state" \
    --perf-out="$fleet_json" > /dev/null
else
  echo "perf_smoke: $fleet_bench not built; skipping fleet leg" >&2
  fleet_json=""
fi

# Correctness side-check while we are here: on/off must agree on every
# simulated byte (the perf files differ, the --out files must not).
if ! cmp -s "$tmpdir/out_on_0.json" "$tmpdir/out_off_0.json"; then
  echo "perf_smoke: fast-forward on/off outputs differ" >&2
  exit 1
fi

python3 - "$out" "$instructions" "$repeats" "$tmpdir" "$codec_json" \
  "$refresh_json" "$fleet_json" <<'EOF'
import json
import sys

out_path, instructions, repeats, tmpdir, codec_json, refresh_json, \
    fleet_json = sys.argv[1:8]
instructions = int(instructions)
repeats = int(repeats)

def best(mode, prefix="perf"):
    picks = []
    for i in range(repeats):
        with open(f"{tmpdir}/{prefix}_{mode}_{i}.json") as f:
            suite = json.load(f)["suites"][0]
        picks.append((suite["wall_seconds"], suite["wall_mips"]))
    picks.sort()
    return {"wall_seconds": picks[0][0], "wall_mips": picks[0][1]}

on = best("on")
off = best("off")
report = {
    "schema": "mecc-perf-smoke-v1",
    "generated_by": "scripts/perf_smoke.sh",
    "bench": "table3_workloads",
    "instructions": instructions,
    "seed": 1,
    "jobs": 1,
    "repeats": repeats,
    "fast_forward_on": on,
    "fast_forward_off": off,
    "speedup_wall_mips": round(on["wall_mips"] / off["wall_mips"], 3),
}

# Per-channel fast-forward scaling (docs/SCALING.md): the event-driven
# skip must keep its advantage as the channel count (and so the fold
# over per-channel next_event bounds) grows. Gate: >= 3x at 4 channels.
report["channel_scaling"] = {}
for ch in (2, 4, 8):
    ch_on = best("on", prefix=f"perf_ch{ch}")
    ch_off = best("off", prefix=f"perf_ch{ch}")
    report["channel_scaling"][f"{ch}ch"] = {
        "ranks": 2,
        "fast_forward_on": ch_on,
        "fast_forward_off": ch_off,
        "speedup_wall_mips": round(ch_on["wall_mips"] / ch_off["wall_mips"],
                                   3),
    }

# Self-profiler breakdown + overhead (docs/OBSERVABILITY.md): median
# of per-pair (profiled / unprofiled-run-just-before-it) wall ratios.
# Residual noise can still push it below zero on a quiet host; the
# <= 2% target is documentation, not a gate. The phase breakdown comes
# from the fastest profiled repeat.
ratios = []
prof_picks = []
for i in range(repeats):
    with open(f"{tmpdir}/perf_pair_{i}.json") as f:
        pair_wall = json.load(f)["suites"][0]["wall_seconds"]
    with open(f"{tmpdir}/perf_prof_{i}.json") as f:
        prof_wall_i = json.load(f)["suites"][0]["wall_seconds"]
    ratios.append(prof_wall_i / pair_wall)
    prof_picks.append((prof_wall_i, i))
ratios.sort()
median_ratio = ratios[len(ratios) // 2] if len(ratios) % 2 else \
    (ratios[len(ratios) // 2 - 1] + ratios[len(ratios) // 2]) / 2
prof_picks.sort()
prof_wall, prof_best_i = prof_picks[0]
with open(f"{tmpdir}/profile_{prof_best_i}.json") as f:
    profile = json.load(f)
phases = sorted((e for e in profile["entries"]),
                key=lambda e: e["est_ns"], reverse=True)
report["profiler"] = {
    "wall_seconds": prof_wall,
    "overhead_median_paired": round(median_ratio - 1.0, 4),
    "spans_dropped": profile["spans_dropped"],
    "phases": [
        {"name": f"{e['component']}.{e['phase']}", "calls": e["calls"],
         "est_ms": round(e["est_ns"] / 1e6, 3)}
        for e in phases[:8]
    ],
}

if codec_json:
    with open(codec_json) as f:
        codec = json.load(f)
    report["ecc_codec"] = {
        "schema": codec["schema"],
        "entries": codec["entries"],
    }

if refresh_json:
    with open(refresh_json) as f:
        refresh = json.load(f)
    report["refresh_scheduling"] = refresh.get("scalars", {})

if fleet_json:
    with open(fleet_json) as f:
        fleet = json.load(f)
    report["fleet_campaign"] = {
        "devices": fleet["devices"],
        "jobs": fleet["jobs"],
        "wall_seconds": fleet["wall_seconds"],
        "fleet_devices_per_sec": fleet["fleet_devices_per_sec"],
    }

# Refresh only the keys this script produces: anything else already in
# --out (e.g. the per-change compare tables in BENCH_perf.json) stays.
try:
    with open(out_path) as f:
        merged = json.load(f)
except FileNotFoundError:
    merged = {}
merged.update(report)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"perf_smoke: ff=on {on['wall_seconds']:.3f}s, "
      f"ff=off {off['wall_seconds']:.3f}s, "
      f"speedup {report['speedup_wall_mips']:.2f}x -> {out_path}")
for ch, entry in report["channel_scaling"].items():
    print(f"perf_smoke: {ch} x 2r fast-forward speedup "
          f"{entry['speedup_wall_mips']:.2f}x")
prof = report["profiler"]
top = prof["phases"][0]["name"] if prof["phases"] else "none"
print(f"perf_smoke: profiler overhead "
      f"{100 * prof['overhead_median_paired']:.2f}% "
      f"(median of paired runs, target <= 2%), hottest phase {top}")
for e in report.get("ecc_codec", {}).get("entries", []):
    if "speedup" in e:
        print(f"perf_smoke: codec {e['name']}: "
              f"{e['lines_per_sec']:.0f} lines/s "
              f"({e['speedup']:.2f}x over scalar)")
fleet = report.get("fleet_campaign")
if fleet is not None:
    print(f"perf_smoke: fleet campaign {fleet['fleet_devices_per_sec']:.0f} "
          f"devices/s across {fleet['jobs']} worker processes")
darp_2x = report.get("refresh_scheduling", {}).get(
    "darp_read_latency_reduction_2x")
if darp_2x is not None:
    print(f"perf_smoke: darp read-latency reduction at 2x refresh "
          f"rate: {100 * darp_2x:.2f}%")
EOF
