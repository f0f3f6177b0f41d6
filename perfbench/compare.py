#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Reads the run records (the `*.json` files run.py writes to --record-dir)
in each directory and prints, per (workload, metric), each side's run
count, median and quartiles, and for the end-to-end metrics a verdict
against the bounds in BENCHMARK.json:

  better      NEW wins at least 9 in 10 of the runs paired by seed, ties
              counting for neither, and its median beats BASE's by more
              than BASE's own quartile spread
  worse       NEW's median is worse than BASE's by more than the bound
  unchanged   neither, and both sides' spreads are within the bound
  unresolved  a side's spread is wider than the bound; then only "every
              NEW run beats (trails) every BASE run" gives better (worse)

Spreads are the distance between the quartiles as a share of the median.
Per-layer metrics have no bound and get no verdict.  Exits 1 when any
verdict is "worse".
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, metric): {seed: value}} from the records in a directory."""
    out = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        for name, metric in rec["result"]["metrics"].items():
            out[(rec["workload"], name)][rec["seed"]] = metric["value"]
    return out


def summary(values):
    """(median, first quartile, third quartile) of a list of values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """Verdict for two {seed: value} maps of one end-to-end metric."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(a, b):   # > 0 when b is better than a
        return sign * (b - a)

    # each side's values from worst to best
    b_vals = sorted(base.values(), key=lambda v: sign * v)
    n_vals = sorted(new.values(), key=lambda v: sign * v)
    b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
    if max(spread(b_vals), spread(n_vals)) > bound:
        if gain(b_vals[-1], n_vals[0]) > 0:
            return "better"
        if gain(b_vals[0], n_vals[-1]) < 0:
            return "worse"
        return "unresolved"
    if gain(b_med, n_med) < -bound * abs(b_med):
        return "worse"
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and gain(b_med, n_med) > spread(b_vals) * abs(b_med)):
        return "better"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in bench["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    worse = False
    print("%-10s %-36s %19s %31s  %s" % ("workload", "metric",
                                         "base n med [q1,q3]",
                                         "new n med [q1,q3]", "verdict"))
    for key in sorted(set(base) | set(new)):
        cols = []
        for side in (base, new):
            vals = list(side.get(key, {}).values())
            cols.append("%2d %9.4g [%.4g,%.4g]" % ((len(vals),)
                                                   + summary(vals))
                        if vals else "%2d %-24s" % (0, "-"))
        v = "-"
        if key[1] in bounds and key in base and key in new:
            v = verdict(base[key], new[key], *bounds[key[1]])
            worse = worse or v == "worse"
        print("%-10s %-36s %s  %s  %s" % (key[0], key[1], cols[0], cols[1],
                                         v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
