"""Statistics and result-set helpers shared by the perfbench commands."""

import json
import math
import os
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def build_dir():
    """Where the harness is built: $CARGO_TARGET_DIR, else .bench_build."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def load_spec():
    """BENCHMARK.json at the checkout root: workloads, metrics, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n):
    """Highest of TAIL_PERCENTILES with at least ten of n samples beyond
    it (nearest rank), or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def tail(values, per_pass):
    """The tail of `values` (pooled over passes) at the percentile that
    tail_percentile picks for one pass's `per_pass` samples: every pass
    has ten samples beyond it, and runs with different pass counts report
    the same percentile. Returns (value, label); "max" when a pass has
    too few samples for any percentile."""
    xs = sorted(values)
    p = tail_percentile(per_pass)
    if p is None:
        return xs[-1], "max"
    return xs[math.ceil(p / 100.0 * len(xs)) - 1], "p%g" % p


def read_results(path):
    """A result set: JSON lines of {"workload", "seed", "result"}."""
    runs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            runs.append(json.loads(line))
    return runs


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    for rs in out.values():
        rs.sort(key=lambda r: r["seed"])
    return out
