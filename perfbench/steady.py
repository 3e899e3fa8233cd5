#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --from A.jsonl B.jsonl

Runs two sets of RUNS runs of every workload in BENCHMARK.json through
run.py (result sets in the build dir), or reads two existing result sets
with --from. Run i of both sets uses seed SEED_BASE + i, and the sets are
interleaved run by run (A_i, then B_i), so host drift lands in both sets
alike instead of in the shift between them. For each workload and
end-to-end metric it prints each set's spread (inter-quartile distance
over median, as statistics.quantiles(values, n=4) gives the quartiles)
and the shift of the second set's median against the first, each as a
share of the metric's bound. It exits 1 when a run failed, a spread
exceeds its bound, or the second median is worse than the first by more
than the bound; a spread above a third of its bound is flagged but does
not fail.
"""

import argparse
import subprocess
import sys

from common import (BENCH_DIR, ROOT, build_dir, by_workload, load_spec, median,
                    read_results, rel_spread)

RUNS = 10
SEED_BASE = 101


def run_sets(paths, workloads):
    for w in workloads:
        for i in range(RUNS):
            for path in paths:
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                       "--seed", str(SEED_BASE + i), "--save", str(path)]
                rc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
                if rc != 0:
                    print("run failed: %s seed %d (exit %d)" % (w, SEED_BASE + i, rc))


def check(spec, set_a, set_b):
    a = by_workload([r for r in set_a if r.get("trace", 0) == 0])
    b = by_workload([r for r in set_b if r.get("trace", 0) == 0])
    ok = True
    print("%-16s %-12s %9s %9s %9s  %s" % ("workload", "metric", "spread A", "spread B",
                                          "shift", "(shares of the bound)"))
    for w in sorted(set(a) | set(b)):
        runs = a.get(w, []) + b.get(w, [])
        bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
        if bad or w not in a or w not in b:
            print("%-16s incorrect or missing runs" % w)
            ok = False
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["result"]["metrics"][name]["value"] for r in a[w]]
            vb = [r["result"]["metrics"][name]["value"] for r in b[w]]
            sa, sb = rel_spread(va), rel_spread(vb)
            ma, mb = median(va), median(vb)
            worse = (mb - ma) / abs(ma) if m["better"] == "lower" else (ma - mb) / abs(ma)
            flags = []
            if max(sa, sb) > bound:
                flags.append("SPREAD > BOUND")
                ok = False
            elif max(sa, sb) > bound / 3:
                flags.append("spread > bound/3")
            if worse > bound:
                flags.append("SHIFT > BOUND")
                ok = False
            print("%-16s %-12s %9.3f %9.3f %9.3f  %s" % (w, name, sa / bound, sb / bound,
                                                       worse / bound, " ".join(flags)))
    print("steady" if ok else "NOT steady")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--from", dest="sets", nargs=2, default=None)
    args = ap.parse_args()
    spec = load_spec()
    if args.sets:
        set_a, set_b = (read_results(p) for p in args.sets)
    else:
        out = build_dir() / "steady"
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / "set_a.jsonl", out / "set_b.jsonl"]
        for p in paths:
            p.unlink(missing_ok=True)
        run_sets(paths, [w["name"] for w in spec["workloads"]])
        set_a, set_b = (read_results(p) for p in paths)
    return 0 if check(spec, set_a, set_b) else 1


if __name__ == "__main__":
    sys.exit(main())
