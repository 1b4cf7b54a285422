#!/usr/bin/env python3
"""Compare paired parent/change result sets of the end-to-end benchmark.

Run the parent and the change alternately -- flip which side goes first on
every pair -- each writing its own result file:

    bench/e2e/run.sh --out /tmp/parent1.json      # in the parent's checkout
    bench/e2e/run.sh --out /tmp/change1.json      # in the change's checkout
    bench/e2e/run.sh --out /tmp/change2.json
    bench/e2e/run.sh --out /tmp/parent2.json
    ...
    bench/e2e/compare.py --parent /tmp/parent*.json --change /tmp/change*.json

Pairs are matched by position. For each workload x end-to-end metric this
prints both sides' median and quartiles (of the per-run values), the
fraction of pairs the change wins (ties count for neither side) and a
verdict, using the bounds in BENCHMARK.json:

  improved     at least ten pairs, the change wins >= 9/10 of them, and the
               medians differ by more than the parent's interquartile range;
  WORSE        the change's median is worse than the parent's by more than
               the bound (exit status 1);
  better-all   the spread exceeds the bound, but every change run beats
               every parent run;
  unresolved   either side's spread (IQR / median) exceeds the bound;
  within       none of the above: no change beyond the bound.

Layer counters (unit "count") are compared exactly between the first run
of each side. Python 3 standard library only.
"""
import argparse
import json
import os
import statistics
import sys


MIN_PAIRS_FOR_GAIN = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_bounds(path):
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def verdict(parent, change, better, bound):
    sign = 1 if better == "lower" else -1  # > 0 below: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (p - c) * sign > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    gain = (p_med - c_med) * sign
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    if len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", wins
    if -gain > bound * p_med:
        return "WORSE", wins
    if spread > bound:
        if all((p - c) * sign > 0 for p in parent for c in change):
            return "better-all", wins
        return "unresolved", wins
    return "within", wins


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="parent result files")
    ap.add_argument("--change", nargs="+", required=True, help="change result files")
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "..", "BENCHMARK.json"),
                    help="BENCHMARK.json with the end-to-end bounds")
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare.py: --parent and --change need the same number of runs")

    bounds = load_bounds(args.benchmark)
    parent = [json.load(open(p)) for p in args.parent]
    change = [json.load(open(c)) for c in args.change]
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            if not r["correct"]:
                print(f"warning: a {side} run failed its correctness gate: {r['errors']}")

    workloads = [w for w in parent[0]["workloads"]
                 if all(w in r["workloads"] for r in parent + change)]
    worse = False
    print(f"{len(parent)} pairs; bounds from {os.path.relpath(args.benchmark)}")
    if len(parent) < MIN_PAIRS_FOR_GAIN:
        print(f"fewer than {MIN_PAIRS_FOR_GAIN} pairs: regressions are checked, gains are not")
    print(f"{'workload':<12} {'metric':<12} {'parent: median [q1, q3]':<33} "
          f"{'change: median [q1, q3]':<33} {'wins':<6} verdict")
    for w in workloads:
        for metric, (better, bound) in bounds.items():
            if metric not in parent[0]["workloads"][w]["e2e"]:
                continue
            p = [r["workloads"][w]["e2e"][metric]["value"] for r in parent]
            c = [r["workloads"][w]["e2e"][metric]["value"] for r in change]
            v, wins = verdict(p, c, better, bound)
            worse |= v == "WORSE"
            p_q1, p_q3 = quartiles(p)
            c_q1, c_q3 = quartiles(c)
            p_text = f"{statistics.median(p):.4f} [{p_q1:.4f}, {p_q3:.4f}]"
            c_text = f"{statistics.median(c):.4f} [{c_q1:.4f}, {c_q3:.4f}]"
            print(f"{w:<12} {metric:<12} {p_text:<33} {c_text:<33} "
                  f"{f'{wins}/{len(p)}':<6} {v} (bound {bound:.0%})")

    print("\nlayer counters (first run of each side):")
    for w in workloads:
        p_layers = parent[0]["workloads"][w]["layers"]
        c_layers = change[0]["workloads"][w]["layers"]
        diffs = [(name, m["value"], c_layers[name]["value"])
                 for name, m in p_layers.items()
                 if m["unit"] == "count" and name in c_layers
                 and c_layers[name]["value"] != m["value"]]
        if not p_layers:
            print(f"  {w}: no traced pass in these results")
        elif not diffs:
            print(f"  {w}: identical")
        for name, pv, cv in diffs:
            print(f"  {w} {name}: {pv:.0f} -> {cv:.0f} ({cv - pv:+.0f})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
