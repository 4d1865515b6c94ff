"""Summarise one result set, or compare two.

Usage (from the repository root)::

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

A result set is the JSON-lines file ``run.py --record`` (or
``sweep.py``) appends to.  With one set, every workload and metric gets
its median, quartiles and spread (inter-quartile distance over the
median), checked against the bound in ``BENCHMARK.json``.  With two,
each metric also gets the new side's change of median and the fraction
of runs the new code wins (runs paired by seed; every old run against
every new run when the sets share no seed).  A change is flagged
only beyond the metric's bound, and reported "unresolved" while either
side's spread exceeds the bound -- unless every new run beats every
old run.  Per-layer metrics (traced runs) have no bound and are
listed, never flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """``{(workload, trace): {metric: {seed: value}}}`` of a result set."""
    table: dict = defaultdict(lambda: defaultdict(dict))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        env = record["env"]
        for name, metric in record["result"]["metrics"].items():
            table[(env["workload"], env["trace"])][name][env["seed"]] = \
                metric["value"]
    return table


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def specs() -> dict[str, dict]:
    benchmark = json.loads(BENCHMARK.read_text())
    return {metric["name"]: metric
            for metric in benchmark["end_to_end"] + benchmark["per_layer"]}


def verdict(old: dict, new: dict, spec: dict) -> tuple[str, float, float]:
    """``(verdict, relative change of median, fraction new wins)``."""
    old_values, new_values = list(old.values()), list(new.values())
    old_median = statistics.median(old_values)
    change = (statistics.median(new_values) - old_median) / abs(old_median) \
        if old_median else 0.0
    higher = spec.get("better") == "higher"
    paired = [(old[seed], new[seed]) for seed in old if seed in new] \
        or [(a, b) for a in old_values for b in new_values]
    wins = sum((b > a) if higher else (b < a) for a, b in paired)
    win_fraction = wins / len(paired)
    bound = spec.get("bound")
    if bound is None:
        return "-", change, win_fraction
    if higher:
        dominates = min(new_values) > max(old_values)
    else:
        dominates = max(new_values) < min(old_values)
    if max(spread(old_values), spread(new_values)) > bound and not dominates:
        return "unresolved", change, win_fraction
    amount = -change if higher else change   # > 0: worse
    if amount > bound:
        return "REGRESSED", change, win_fraction
    if amount < -bound:
        return "improved", change, win_fraction
    return "within bound", change, win_fraction


def summarise(table: dict, metric_specs: dict) -> int:
    steady = True
    for (workload, trace), metrics in sorted(table.items()):
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<34}{'runs':>5}{'q1':>14}{'median':>14}"
              f"{'q3':>14}{'spread':>9}  bound")
        for name, values in metrics.items():
            values = list(values.values())
            q1, median, q3 = quartiles(values)
            bound = metric_specs.get(name, {}).get("bound")
            width = spread(values)
            flag = ""
            if bound is not None and name != "setup_s" and width > bound:
                flag, steady = "  WIDER THAN BOUND", False
            elif bound is not None and width > bound / 3:
                flag = "  above a third of bound"
            print(f"  {name:<34}{len(values):>5}{q1:>14.6g}{median:>14.6g}"
                  f"{q3:>14.6g}{width:>9.3f}  "
                  f"{'-' if bound is None else bound}{flag}")
    return 0 if steady else 1


def compare(old: dict, new: dict, metric_specs: dict) -> int:
    regressed = False
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        if key not in old or key not in new:
            print("  only in one result set")
            continue
        print(f"  {'metric':<34}{'old median':>13}{'old q1..q3':>24}"
              f"{'new median':>13}{'new q1..q3':>24}{'change':>9}"
              f"{'wins':>6}  verdict")
        for name in old[key]:
            if name not in new[key]:
                continue
            a, b = old[key][name], new[key][name]
            label, change, wins = verdict(a, b, metric_specs.get(name, {}))
            regressed |= label == "REGRESSED"
            oq1, om, oq3 = quartiles(list(a.values()))
            nq1, nm, nq3 = quartiles(list(b.values()))
            print(f"  {name:<34}{om:>13.6g}{f'{oq1:.4g}..{oq3:.4g}':>24}"
                  f"{nm:>13.6g}{f'{nq1:.4g}..{nq3:.4g}':>24}"
                  f"{100 * change:>8.2f}%{wins:>6.2f}  {label}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path,
                        help="one result set to summarise, or OLD NEW")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one result set, or two to compare")
    metric_specs = specs()
    if len(args.sets) == 1:
        return summarise(load(args.sets[0]), metric_specs)
    return compare(load(args.sets[0]), load(args.sets[1]), metric_specs)


if __name__ == "__main__":
    sys.exit(main())
