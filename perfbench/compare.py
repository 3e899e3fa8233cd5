#!/usr/bin/env python3
"""Compares two benchmark result sets, parent and change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON-lines file `run.py --save FILE` appends to. Runs
are paired by seed (by order when the seeds differ). For each workload
and end-to-end metric it prints each side's median and quartiles, the
share of pairs the change won (ties count for neither) and a verdict:

  worse       the change's median is worse than the parent's by more
              than the metric's bound times the parent's median;
  better      at least 10 pairs, the change won >= 90 % of them, the
              medians differ by more than the parent's inter-quartile
              distance and the change's fail_ratio is no higher;
  unresolved  the parent's own spread (IQR / median) exceeds the bound
              and not every change run beats every parent run;
  unchanged   otherwise.

The rules are tried in this order, so a spread above the bound only
turns "unchanged" into "unresolved".

It also prints the fail_ratio (failed / attempted) of each side.
"""

import sys

from common import by_workload, load_spec, median, quartiles, read_results, rel_spread


def verdict(parent, change, lower_better, bound, pairs, fail_parent, fail_change):
    sign = -1.0 if lower_better else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    q1, pm, q3 = quartiles(parent)
    gain = sign * (median(change) - pm)  # > 0: the change reads better
    if gain < -bound * abs(pm):
        return "worse", share
    if (len(pairs) >= 10 and share >= 0.9 and gain > q3 - q1
            and fail_change <= fail_parent):
        return "better", share
    if (rel_spread(parent) > bound
            and min(sign * c for c in change) <= max(sign * p for p in parent)):
        return "unresolved", share
    return "unchanged", share


def pair_runs(a, b):
    seeds_a = {r["seed"]: r for r in a}
    seeds_b = {r["seed"]: r for r in b}
    common = sorted(set(seeds_a) & set(seeds_b))
    if common:
        return [(seeds_a[s], seeds_b[s]) for s in common]
    return list(zip(a, b))


def fail_ratio(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    parent = by_workload([r for r in read_results(argv[1]) if r.get("trace", 0) == 0])
    change = by_workload([r for r in read_results(argv[2]) if r.get("trace", 0) == 0])
    print("%-16s %-12s %30s %30s %6s  %s" % ("workload", "metric", "parent median [q1, q3]",
                                            "change median [q1, q3]", "won", "verdict"))
    names = [w["name"] for w in spec["workloads"]]
    names += sorted((set(parent) & set(change)) - set(names))  # by-hand workloads
    for w in names:
        if w not in parent or w not in change:
            print("%-16s (missing from %s)" % (w, "parent" if w not in parent else "change"))
            continue
        pairs = pair_runs(parent[w], change[w])
        fp, fc = fail_ratio(parent[w]), fail_ratio(change[w])
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in parent[w]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[w]]
            pp = [(a["result"]["metrics"][name]["value"],
                   b["result"]["metrics"][name]["value"]) for a, b in pairs]
            v, share = verdict(pv, cv, m["better"] == "lower", m["bound"], pp, fp, fc)
            fmt = lambda xs: "%.5g [%.5g, %.5g]" % (median(xs), quartiles(xs)[0], quartiles(xs)[2])
            print("%-16s %-12s %30s %30s %5.0f%%  %s" % (w, name, fmt(pv), fmt(cv), 100 * share, v))
        print("%-16s %-12s %30.4g %30.4g %6s  delta %+.4g" % (w, "fail_ratio", fp, fc, "", fc - fp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
