#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload suite_1ch --seed 1 --seconds 15 --trace 0

Builds the harness from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs it for --seconds of measured
host time, checks every simulated output against the stored reference
digests (perfbench/refs, for the default and the held-out seed) and
against the run's own warm-up pass, and prints a human-readable report
followed, as the last line of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with every
host time scaled to a reference host speed (REFERENCE_MS), --trace 1
the per-layer metrics (and writes the span file). Exits non-zero without
a result when the build or the harness fails. perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT, build_dir, load_spec, median, tail

# Harness time limit: a fixed allowance for the warm-up pass, the
# minimum pass count and the traced layer legs, plus the measured budget
# with room for the last pass to overrun it.
TIMEOUT_FIXED_S = 120
TIMEOUT_PER_BUDGET_S = 2.5
FIG7_TOLERANCE = 0.05  # fig7_ipc_err above this fails the pass
# The harness's host reference round (HostReference::time_ms) on an
# uncontended 4-vCPU Xeon (Sapphire Rapids) KVM guest. Every host time
# is reported at that host speed: multiplied by REFERENCE_MS over the
# reference time measured around its pass. Load from other tenants of a
# shared host slows the simulator and the reference alike, so the
# scaled times keep far less of it than the raw ones.
REFERENCE_MS = 9.0
# Workloads the harness runs that BENCHMARK.json leaves out. fleet's
# campaign time is process start-up, heartbeat polling and fsync'd
# checkpoint writes, which the host reference does not follow: over
# runs of the same code it spread by 0.3-0.6 of its median, beyond the
# largest bound allowed. It stays runnable by hand for its per-layer
# metrics and for before/after runs of fleet changes.
BY_HAND_WORKLOADS = ("fleet",)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness and the fleet CLI (a no-op
    re-link check once built)."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out)],
                ["cmake", "--build", str(out), "-j", jobs, "--target",
                 "perfbench_harness", "bench_fleet_campaign"]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return out


def run_harness(exe_dir, workload, seed, seconds, traced, spans_path):
    timeout_s = TIMEOUT_FIXED_S + TIMEOUT_PER_BUDGET_S * seconds
    work = exe_dir / "work" / ("%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw_path = work / "raw.json"
    cmd = [str(exe_dir / "perfbench_harness"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--mode=" + ("traced" if traced else "timed"),
           "--fleet-exe=" + str(exe_dir / "bench_fleet_campaign"),
           "--work-dir=" + str(work), "--out=" + str(raw_path)]
    if traced:
        cmd.append("--spans=" + str(spans_path))
    # Own process group, so a timeout also stops the fleet campaign and
    # its worker processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout_s)
        if rc != 0:
            log("harness exited %d" % rc)
            return None
        return json.loads(raw_path.read_text())
    except subprocess.TimeoutExpired:
        log("harness timed out after %g s" % timeout_s)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


# ---- output checks ----

def load_refs(refs_dir, workload):
    path = Path(refs_dir) / (workload + ".json")
    return json.loads(path.read_text()) if path.exists() else {}


def check_passes(raw, refs):
    """Counts attempted / failed operations over every pass of the run.

    An operation is one digested output: a System job, one benchmark's
    whole lifecycle, or one fleet campaign. It fails on a digest that
    differs from the reference for this seed (or, for seeds without one,
    from the run's own warm-up pass), a missing digest, an exception or
    non-zero exit reported by the harness, coverage < 1, or (suite_1ch)
    a Fig. 7 error beyond FIG7_TOLERANCE. Expected DUEs are simulated
    events, not failures.
    """
    expected = refs.get(str(raw["seed"])) or raw["warmup"]["digests"]
    passes = [raw["warmup"]] + raw["passes"] + raw["traced_passes"]
    attempted = failed = 0
    notes = []
    for p in passes:
        bad = {k for k, v in expected.items() if p["digests"].get(k) != v}
        bad |= set(p["digests"]) - set(expected)
        errors = list(p["errors"])
        if raw["workload"] == "suite_1ch" and not (
                0 <= p["fig7_ipc_err"] <= FIG7_TOLERANCE):
            errors.append("fig7_ipc_err %.4f beyond %.2f"
                          % (p["fig7_ipc_err"], FIG7_TOLERANCE))
        if p["fleet_report"]:
            scalars = json.loads(p["fleet_report"])["scalars"]
            if scalars.get("fleet.coverage") != 1:
                errors.append("fleet coverage %s" % scalars.get("fleet.coverage"))
        unattached = [e for e in errors if e.split(":")[0] not in bad]
        # Fleet set-up probes are campaigns too.
        attempted += len(expected) + (len(p["setup_s"]) if p["fleet_report"] else 0)
        failed += len(bad) + len(unattached)
        notes += sorted(bad)[:3] + unattached[:3]
    return attempted, failed, notes


# ---- end-to-end metrics (timed run) ----

def host_scales(raw):
    """Per timed pass, REFERENCE_MS over the host reference time around
    it (the geometric mean of the rounds just before and just after)."""
    r = raw["ref_ms"]
    return [REFERENCE_MS / math.sqrt(a * b) for a, b in zip(r, r[1:])]


def end_to_end(raw):
    ps = raw["passes"]
    scales = host_scales(raw)
    clock_ms = raw["clock_pair_ns"] * 1e-6  # each sample holds one clock pair
    run_ms = [(x - clock_ms) * k for p, k in zip(ps, scales) for x in p["run_ms"]]
    run_tail, tail_label = tail(run_ms, len(raw["warmup"]["run_ms"]))
    rss_kb = max([raw["peak_rss_kb"]] + [p["peak_child_rss_kb"] for p in ps])
    metrics = {
        "wall_s": (median([p["wall_s"] * k for p, k in zip(ps, scales)]), "s"),
        "setup_s": (median([x * k for p, k in zip(ps, scales) for x in p["setup_s"]]), "s"),
        "work_rate": (median([p["work"] / (p["active_s"] * k)
                              for p, k in zip(ps, scales)]), "1/s"),
        "run_ms_p50": (median(run_ms), "ms"),
        "run_ms_tail": (run_tail, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {"run_ms_tail": "%s of n=%d" % (tail_label, len(run_ms)),
             "host_scale": "median over passes; timings above are host times x this"}
    extra = {"host_scale": (median(scales), "ratio")}
    if raw["workload"] == "fleet":
        extra["devices_per_s"] = (metrics["work_rate"][0], "1/s")
    else:
        extra["sim_mips"] = (metrics["work_rate"][0] / 1e6, "Minst/s")
    idle_ms = [(x - clock_ms) * k for p, k in zip(ps, scales) for x in p["idle_ms"]]
    if idle_ms:
        idle_tail, idle_label = tail(idle_ms, len(raw["warmup"]["idle_ms"]))
        extra["idle_ms_p50"] = (median(idle_ms), "ms")
        extra["idle_ms_tail"] = (idle_tail, "ms")
        notes["idle_ms_tail"] = "%s of n=%d" % (idle_label, len(idle_ms))
    if raw["workload"] == "suite_1ch":
        extra["fig7_ipc_err"] = (ps[0]["fig7_ipc_err"], "abs")
        notes["fig7_ipc_err"] = "max |geomean norm. IPC - paper| over SECDED/ECC-6/MECC"
    return metrics, extra, notes


# ---- per-layer metrics (traced run) ----

def layer_stats(flat):
    """Sums StatSet keys over channels / cores (dram.ch3.activates ->
    dram.activates); per-rank copies are skipped to avoid double counts."""
    out = {}
    for key, v in flat.items():
        parts = key.split(".")
        if any(re.fullmatch(r"(rank|r)\d+", s) for s in parts):
            continue
        name = ".".join(s for s in parts if not re.fullmatch(r"(ch|c)\d+", s))
        out[name] = out.get(name, 0.0) + v
    return out


def ratio(a, b):
    return a / b if b else 0.0


def span_analysis(spans_path):
    """Self time per span name and the closure check.

    A span's self time is its duration minus the part of its interval
    that its children cover (their union, so parallel run_jobs jobs are
    not double counted). Closure: every child lies inside its parent's
    interval, so no parent's children add up to more than the parent.
    Scope spans nest by construction; the check guards the run_jobs.job
    spans, which are rebuilt from the jobs' own clocks.
    """
    doc = json.loads(Path(spans_path).read_text())
    clock = doc["clock_pair_ns"]
    spans = doc["spans"]
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    tol = 2 * clock + 1000  # ns
    violations = 0
    by_name = {}
    for i, (name, start, end, _) in enumerate(spans):
        dur = max(0.0, end - start - clock)
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, []), key=lambda c: spans[c][1]):
            cs, ce = spans[c][1], spans[c][2]
            if cs < start - tol or ce > end + tol:
                violations += 1
            cs, ce = max(cs, start), min(ce, end)
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        self_ns = dur - covered
        agg = by_name.setdefault(name, {"n": 0, "dur": 0.0, "self": 0.0})
        agg["n"] += 1
        agg["dur"] += dur
        agg["self"] += max(0.0, self_ns)
    return by_name, violations, len(spans)


def per_layer(raw, spans_path):
    by_name, violations, n_spans = span_analysis(spans_path)

    def mean_ms(names, field):
        n = sum(by_name.get(k, {}).get("n", 0) for k in names)
        tot = sum(by_name.get(k, {}).get(field, 0.0) for k in names)
        return tot / n * 1e-6 if n else 0.0

    legs = raw["legs"]
    lm = legs["metrics"]
    fleet = raw["workload"] == "fleet"
    source = legs["stats"] if fleet else raw["traced_passes"][0]["stats"]
    st = layer_stats(source)
    g = lambda k: st.get(k, 0.0)
    ps = raw["passes"]
    tps = raw["traced_passes"]
    workers = raw["workers"]
    state_cycles = sum(v for k, v in st.items() if k.startswith("dram.state_cycles."))
    next_calls = legs["next_calls"] or (
        g("cpu.reads_issued") + g("cpu.writes_issued"))
    m = {
        "sim.setup_ms": (mean_ms(["system.construct"], "dur"), "ms"),
        "sim.run_period_self_ms": (mean_ms(["system.run_period", "system.run"], "self"), "ms"),
        "sim.idle_period_ms": (mean_ms(["system.idle_period"], "dur"), "ms"),
        "sim.unattributed_ms": (mean_ms(["pass"], "self"), "ms"),
        "sim.trace_overhead": (median([p["wall_s"] for p in tps]) /
                               median([p["wall_s"] for p in ps]) - 1.0, "ratio"),
        "pool.busy_share": (median([p["busy_s"] / (workers * p["wall_s"]) for p in ps]), "ratio"),
        "pool.queue_wait_ms": (median([x for p in ps for x in p["wait_ms"]]), "ms"),
        "trace.next_calls": (next_calls, "count"),
        "trace.next_ns": (lm["trace.next_ns"], "ns"),
        "cpu.advance_gap_ns": (lm["cpu.advance_gap_ns"], "ns"),
        "cpu.stall_share": (ratio(g("cpu.stall_cycles"), g("cpu.cycles")), "ratio"),
        "memctrl.tick_ns": (lm["memctrl.tick_ns"], "ns"),
        "memctrl.next_event_ns": (lm["memctrl.next_event_ns"], "ns"),
        "memctrl.row_hit_ratio": (ratio(g("memctrl.row_hits"),
                                        g("memctrl.row_hits") + g("memctrl.row_misses")), "ratio"),
        "memctrl.read_latency_mean": (ratio(g("memctrl.read_latency_mem_cycles"),
                                            g("memctrl.reads_enqueued")), "cycles"),
        "memctrl.refreshes": (g("memctrl.refreshes") + g("memctrl.refreshes_pb"), "count"),
        "dram.activates": (g("dram.activates"), "count"),
        "dram.refreshes": (g("dram.refreshes") + g("dram.refreshes_pb"), "count"),
        "dram.self_refresh_share": (ratio(g("dram.state_cycles.self_refresh"), state_cycles), "ratio"),
        "mecc.on_read_ns": (lm["mecc.on_read_ns"], "ns"),
        "mecc.store_ns": (lm["mecc.store_ns"], "ns"),
        "mecc.load_ns": (lm["mecc.load_ns"], "ns"),
        "mecc.upgrade_ns_per_line": (lm["mecc.upgrade_ns_per_line"], "ns"),
        "mecc.strong_read_ratio": (ratio(g("mecc.reads_strong"),
                                         g("mecc.reads_strong") + g("mecc.reads_weak")), "ratio"),
        "mecc.downgrades": (g("mecc.downgrades"), "count"),
        "mecc.lines_upgraded": (g("mecc.lines_upgraded"), "count"),
        "ecc.secded_decode_ns": (lm["ecc.secded_decode_ns"], "ns"),
        "ecc.bch_decode_ns": (lm["ecc.bch_decode_ns"], "ns"),
        "reliability.inject_ns_per_line": (lm["reliability.inject_ns_per_line"], "ns"),
        "reliability.line_failure_probability_ns": (lm["reliability.line_failure_probability_ns"], "ns"),
        "errors.ce": (g("errors.ce"), "count"),
        "errors.due": (g("errors.due"), "count"),
        "errors.retry_ok_ratio": (ratio(g("errors.retry_success"), g("errors.retries")), "ratio"),
        "power.refresh_mj": (g("power.refresh_mj"), "mJ"),
        "power.total_mj": (g("power.total_mj"), "mJ"),
        "fleet.model_us_per_device": (lm["fleet.model_us_per_device"], "us"),
    }
    # Campaigns: the fleet workload's own passes, else the run's fleet leg.
    campaigns = [p for p in (ps + tps if fleet else raw["fleet_legs"]) if p["fleet_report"]]
    timed = [p for p in (ps if fleet else raw["fleet_legs"]) if p["fleet_report"]]
    # Share of campaign wall not explained by the in-process model cost
    # spread over the worker processes.
    model_s = lm["fleet.model_us_per_device"] * 1e-6
    m["fleet.orchestration_share"] = (median(
        [1.0 - model_s * p["work"] / raw["fleet_workers"] / p["wall_s"] for p in timed])
        if timed else 0.0, "ratio")
    m["fleet.state_bytes"] = (median([p["state_bytes"] for p in timed]) if timed else 0.0,
                              "bytes")
    m["fleet.retries"] = (sum(json.loads(p["fleet_report"])["scalars"]
                              ["fleet.shards_retried"] for p in campaigns), "count")
    notes = {"closure": "%d violations over %d spans" % (violations, n_spans)}
    return m, violations, notes


def print_report(raw, metrics, extra, notes, attempted, failed, fail_notes):
    print("workload %s  seed %d  mode %s  passes %d (+1 warm-up)%s"
          % (raw["workload"], raw["seed"], raw["mode"], len(raw["passes"]),
             ", %d traced" % len(raw["traced_passes"]) if raw["traced_passes"] else ""))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        note = notes.get(name, "")
        print("  %-40s %16.6g %-8s %s" % (name, value, unit, note))
    print("  %-40s %16.6g %-8s %d failed of %d attempted"
          % ("fail_ratio", failed / attempted if attempted else 0.0, "ratio",
             failed, attempted))
    for n in fail_notes[:10]:
        print("    failed: %s" % n)
    for k, v in notes.items():
        if k not in metrics and k not in extra:
            print("  %s: %s" % (k, v))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs-dir", default=str(BENCH_DIR / "refs"),
                    help="reference digests (the self-test passes a corrupted copy)")
    ap.add_argument("--save", default=None,
                    help="append {workload, seed, trace, result} to this JSON-lines file")
    ap.add_argument("--record-refs", action="store_true",
                    help="store this run's digests as the seed's reference")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + list(BY_HAND_WORKLOADS)
    if args.workload not in names:
        log("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    exe_dir = build()
    if exe_dir is None:
        log("build failed")
        return 1
    spans_path = exe_dir / ("spans-%s.json" % args.workload)
    raw = run_harness(exe_dir, args.workload, args.seed, seconds,
                      args.trace == 1, spans_path)
    if raw is None:
        return 1

    refs_path = Path(args.refs_dir) / (args.workload + ".json")
    refs = load_refs(args.refs_dir, args.workload)
    if args.record_refs:
        refs[str(args.seed)] = raw["warmup"]["digests"]
        refs_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    attempted, failed, fail_notes = check_passes(raw, refs)
    for leg in raw["fleet_legs"]:
        # Checked like a fleet warm-up pass, against the fleet references.
        leg_run = dict(raw, workload="fleet", warmup=leg, passes=[], traced_passes=[])
        a, f, n = check_passes(leg_run, load_refs(args.refs_dir, "fleet"))
        attempted, failed, fail_notes = attempted + a, failed + f, fail_notes + n
    attempted += raw["legs"]["checks"]
    failed += len(raw["legs"]["errors"])
    fail_notes += raw["legs"]["errors"]

    if args.trace == 0:
        metrics, extra, notes = end_to_end(raw)
        wanted = spec["end_to_end"]
    else:
        metrics, violations, notes = per_layer(raw, spans_path)
        extra = {}
        attempted += 1  # the span closure check
        if violations:
            failed += 1
            fail_notes.append("span closure check: " + notes["closure"])
        wanted = spec["per_layer"]
    print_report(raw, metrics, extra, notes, attempted, failed, fail_notes)
    if args.trace == 1:
        print("  spans: %s" % spans_path)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit("BENCHMARK.json gives %s the unit %s, the benchmark %s"
                             % (m["name"], m["unit"], unit))
        result["metrics"][m["name"]] = {"value": value, "unit": unit}
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
