#!/usr/bin/env python3
"""Compares two result sets of the served-query benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is the file `run.py --record FILE` appends to: one JSON line per
run. For each workload and end-to-end metric of BENCHMARK.json this prints
each side's median and quartiles and a verdict (stats.verdict): better,
worse, within bound, or unresolved when a side's spread exceeds the bound.
Runs pair up in file order; alternate which side runs first when recording.
Per-layer metrics are listed with their medians only, since they have no
bound. Exits 1 when any verdict is "worse".
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def describe(xs):
    if len(xs) < 2:
        return f"{xs[0]:.4g} (1 run)" if xs else "-"
    q1, q2, q3 = stats.quartiles(xs)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    worse = False
    print(f"{'workload':12s} {'metric':32s} {'base median [q1, q3]':30s} "
          f"{'new median [q1, q3]':30s} verdict")
    for wl in sorted(set(base) & set(new)):
        names = sorted({m for r in base[wl] + new[wl] for m in r["metrics"]},
                       key=lambda m: (m not in gated, m))
        for m in names:
            b, n = values(base[wl], m), values(new[wl], m)
            if m in gated and len(b) >= 2 and len(n) >= 2:
                v = stats.verdict(b, n, gated[m]["bound"], gated[m]["better"])
                worse |= v == "worse"
                v += f" (bound {gated[m]['bound']:g}, {len(b)}/{len(n)} runs)"
            else:
                v = "no bound" if m not in gated else "too few runs"
            print(f"{wl:12s} {m:32s} {describe(b):30s} {describe(n):30s} {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
