#!/usr/bin/env python3
"""Summarize the result files run.py left in perfbench/out.

    python3 perfbench/summarize.py [--trace 0|1] [--json OUT]

For each workload and metric (and each other figure of the printed report):
number of runs, median, quartiles and the spread (third minus first quartile,
over the median; the figure a metric's bound in BENCHMARK.json is compared
with). --json writes the same table.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", default=None)
    args = p.parse_args()

    values = defaultdict(lambda: defaultdict(list))
    units = {}
    incorrect = defaultdict(int)
    for path in sorted(OUT.glob(f"*-trace{args.trace}.json")):
        rec = json.loads(path.read_text())
        workload = rec["worker"]["workload"]
        incorrect[workload] += not rec["correct"]
        for name, m in rec["metrics"].items():
            values[workload][name].append(m["value"])
            units[name] = m["unit"]
        for name, (val, unit) in rec.get("figures", {}).items():
            if name not in rec["metrics"]:
                values[workload][name].append(val)
                units[name] = unit
        for name, val in rec["worker"]["report"].items():
            values[workload][name].append(val)
            units.setdefault(name, "")

    table = {}
    for workload, metrics in sorted(values.items()):
        print(f"{workload}: {len(next(iter(metrics.values())))} runs, "
              f"{incorrect[workload]} incorrect")
        table[workload] = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            table[workload][name] = {"runs": len(vals), "median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "unit": units[name]}
            print(f"  {name:40s} {med:14.6g} {units[name]:6s} "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
