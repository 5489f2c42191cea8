#!/usr/bin/env python3
"""Compare two sets of seltrig_bench result files.

    python3 bench/suite/compare.py --a base1.json base2.json ... --b new1.json new2.json ...

Each file is what `seltrig_bench --out FILE` writes (one or several
workloads). For every workload x metric the script prints each set's first
quartile, median and third quartile (Python's statistics.quantiles, n=4),
and the change of the median. It exits 1 if, for any end-to-end metric of
BENCHMARK.json, the two medians differ by more than that metric's bound (a
share of set a's median), or if error_rate differs at all. Per-layer metrics
and metrics BENCHMARK.json does not bound are printed, not judged.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(paths):
    values = defaultdict(list)  # (workload, section, metric) -> [value]
    units = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for result in doc["results"]:
            for section in ("metrics", "per_layer"):
                for name, metric in result.get(section, {}).items():
                    key = (result["workload"], section, name)
                    values[key].append(float(metric["value"]))
                    units[key] = metric["unit"]
    return values, units


def summary(values):
    if not values:
        return None
    median = statistics.median(values)
    if len(values) < 2:
        return (median, median, median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def fmt(s, n):
    if s is None:
        return "%34s" % "-"
    return "%10.4g %10.4g %10.4g (%2d)" % (s[0], s[1], s[2], n)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True, help="result files of the base")
    parser.add_argument("--b", nargs="+", required=True, help="result files of the change")
    parser.add_argument("--benchmark-json", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark_json) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    # Any change in the failure rate counts.
    bounds.setdefault("error_rate", 0.0)

    a, units = load(args.a)
    b, units_b = load(args.b)
    units.update(units_b)
    failed = False
    print("%-17s %-36s %-12s %34s %34s %9s %6s" %
          ("workload", "metric", "unit", "a: q1 median q3 (n)", "b: q1 median q3 (n)",
           "change", "bound"))
    for key in sorted(set(a) | set(b)):
        workload, section, name = key
        sa, sb = summary(a.get(key, [])), summary(b.get(key, []))
        change = ""
        verdict = ""
        if sa is not None and sb is not None:
            base, new = sa[1], sb[1]
            if base != 0:
                change = "%+8.2f%%" % ((new - base) / abs(base) * 100.0)
            bound = bounds.get(name) if section == "metrics" else None
            if bound is not None:
                differs = abs(new - base) > bound * abs(base) if base != 0 else new != 0
                verdict = "FAIL" if differs else "ok"
                failed = failed or differs
        elif section == "metrics" and name in bounds:
            verdict = "MISSING"
            failed = True
        bound_text = "%5.1f%%" % (bounds[name] * 100) if section == "metrics" and name in bounds else ""
        print("%-17s %-36s %-12s %s %s %9s %6s %s" %
              (workload, name, units.get(key, ""), fmt(sa, len(a.get(key, []))),
               fmt(sb, len(b.get(key, []))), change, bound_text, verdict))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
