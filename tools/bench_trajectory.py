"""Append one entry to the perf trajectory, ``BENCH_perfbench.json``.

An entry summarises one ``perfbench/sweep.py`` result set of one
source tree: per workload, the median, quartiles and inter-quartile
range of every end-to-end metric in ``BENCHMARK.json``, the failed
share of operations, and the host the set ran on.  Perf changes append
an entry for the code before and after them, so the series can be read
without re-running old commits:

    python3 perfbench/sweep.py --out .perfbench-results/new.jsonl --seeds 1-10
    python3 tools/bench_trajectory.py .perfbench-results/new.jsonl \\
        --label "what changed" --sha COMMIT

Leave out ``--sha`` for the code of the commit that adds the entry
(its sha does not exist yet); that commit is the entry's ``sha``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_perfbench.json"
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import quartiles  # noqa: E402


def summarise(records: list[dict], metric_names: list[str]) -> dict:
    """``{workload: {metric: {median, q1, q3, iqr, runs}}}`` plus each
    workload's ``failed_ratio`` over all its runs."""
    values: dict = defaultdict(lambda: defaultdict(list))
    counts: dict = defaultdict(lambda: [0, 0])
    for record in records:
        workload = record["env"]["workload"]
        result = record["result"]
        for name in metric_names:
            if name in result["metrics"]:
                values[workload][name].append(
                    result["metrics"][name]["value"])
        counts[workload][0] += result["failed"]
        counts[workload][1] += result["attempted"]
    table = {}
    for workload, metrics in values.items():
        table[workload] = {}
        for name, series in metrics.items():
            q1, median, q3 = quartiles(series)
            table[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                     "iqr": q3 - q1, "runs": len(series)}
        failed, attempted = counts[workload]
        table[workload]["failed_ratio"] = failed / attempted
    return table


def entry(records: list[dict], metric_names: list[str], *, label: str,
          sha: str | None) -> dict:
    env = records[0]["env"]
    return {
        "label": label, "sha": sha,
        "sweep": {"seeds": sorted({r["env"]["seed"] for r in records}),
                  "seconds": env["seconds"], "trace": env["trace"]},
        "host": {"machine": env["machine"], "cpu_count": env["cpu_count"],
                 "python": env["python"], "numpy": env["numpy"],
                 "blas": env["blas"]["name"],
                 "host_speed_median": statistics.median(
                     r["host_speed"] for r in records)},
        "workloads": summarise(records, metric_names),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="a sweep.py result set")
    parser.add_argument("--label", required=True)
    parser.add_argument("--sha", help="the measured commit")
    parser.add_argument("--out", type=Path, default=TRAJECTORY)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    records = [json.loads(line) for line in
               args.results.read_text().splitlines() if line.strip()]
    trajectory = (json.loads(args.out.read_text()) if args.out.exists()
                  else {"entries": []})
    trajectory["entries"].append(entry(records, names, label=args.label,
                                       sha=args.sha))
    args.out.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
