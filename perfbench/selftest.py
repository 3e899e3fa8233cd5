#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A deliberately corrupted reference digest must surface as failed
   operations (fail_ratio > 0, correct false).
2. A traced run's span file must parse and close: every span ends after
   it starts, names an earlier span (or none) as parent and lies inside
   its parent's interval; the run itself must report correct.
3. run.py's closure check must flag a span file with a child outside
   its parent, and pass the same file with the child moved inside.
4. The steadiness command must exit non-zero on result sets that break
   a bound, and zero on sets that keep them.

Exits 0 when all four hold. Takes under a minute (two short runs).
"""

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, build_dir, load_spec
from run import span_analysis


def run(args):
    cmd = [sys.executable, str(BENCH_DIR / "run.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def corrupted_reference(tmp):
    refs = tmp / "refs"
    shutil.copytree(BENCH_DIR / "refs", refs)
    path = refs / "suite_1ch.json"
    doc = json.loads(path.read_text())
    key = sorted(doc["1"])[0]
    doc["1"][key] = "%016x" % (int(doc["1"][key], 16) ^ 1)
    path.write_text(json.dumps(doc))
    rc, res = run(["--workload", "suite_1ch", "--seed", "1", "--seconds", "1",
                   "--refs-dir", str(refs)])
    ok = rc == 0 and res is not None and res["failed"] > 0 and not res["correct"]
    return ok, "rc %d, result %s" % (rc, res and {k: res[k] for k in ("correct", "attempted", "failed")})


def span_file_closes(tmp):
    spans_path = build_dir() / "spans-suite_1ch.json"
    spans_path.unlink(missing_ok=True)
    rc, res = run(["--workload", "suite_1ch", "--seed", "1", "--seconds", "1",
                   "--trace", "1"])
    if rc != 0 or res is None or not res["correct"]:
        return False, "traced run rc %d, result %s" % (rc, res and res.get("correct"))
    spans = json.loads(spans_path.read_text())["spans"]
    problems = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start or parent >= i:
            problems += 1
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems += 1
    names = {s[0] for s in spans}
    missing = {"pass", "run_jobs", "run_jobs.job", "system.construct", "system.run_period",
               "system.idle_period", "trace.next", "leg.memctrl"} - names
    return problems == 0 and not missing and spans, \
        "%d spans, %d problems, missing %s" % (len(spans), problems, sorted(missing))


def closure_check_fires(tmp):
    path = tmp / "bad_spans.json"

    def violations(child_end_ns):
        doc = {"clock_pair_ns": 30.0,
               "spans": [["pass", 0, 1000000, -1],
                         ["run_jobs.job", 500000, child_end_ns, 0]]}
        path.write_text(json.dumps(doc))
        return span_analysis(path)[1]

    outside, inside = violations(5000000), violations(900000)
    return outside > 0 and inside == 0, \
        "child outside parent: %d violations, inside: %d" % (outside, inside)


def steadiness_gate(tmp):
    spec = load_spec()

    def result_set(path, scale):
        with open(path, "w") as f:
            for seed in range(10):
                metrics = {m["name"]: {"value": scale(seed) * 1.0, "unit": m["unit"]}
                           for m in spec["end_to_end"]}
                res = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
                f.write(json.dumps({"workload": "w", "seed": seed, "result": res}) + "\n")

    steady_a, steady_b, noisy = tmp / "a.jsonl", tmp / "b.jsonl", tmp / "noisy.jsonl"
    result_set(steady_a, lambda s: 1.0 + 0.001 * s)
    result_set(steady_b, lambda s: 1.0 + 0.001 * (9 - s))
    result_set(noisy, lambda s: 1.0 + s)
    cmd = [sys.executable, str(BENCH_DIR / "steady.py"), "--from"]
    rc_ok = subprocess.run(cmd + [str(steady_a), str(steady_b)], cwd=ROOT,
                           stdout=subprocess.DEVNULL).returncode
    rc_bad = subprocess.run(cmd + [str(steady_a), str(noisy)], cwd=ROOT,
                            stdout=subprocess.DEVNULL).returncode
    return rc_ok == 0 and rc_bad != 0, "steady sets exit %d, noisy set exits %d" % (rc_ok, rc_bad)


def main():
    tmp = build_dir() / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    failures = 0
    for test in (corrupted_reference, span_file_closes, closure_check_fires, steadiness_gate):
        ok, detail = test(tmp)
        print("%-4s %s: %s" % ("ok" if ok else "FAIL", test.__name__, detail))
        failures += not ok
    shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
