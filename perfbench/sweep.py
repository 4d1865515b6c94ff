"""Run workloads over a range of seeds and collect one result set.

Usage (from the repository root)::

    python3 perfbench/sweep.py --out .perfbench-results/new.jsonl \\
        --seeds 1-10 [--workloads mc-front,service-mix] [--trace 1]

Runs ``run.py`` once per (workload, seed), one after another, with the
run length from ``BENCHMARK.json``, and appends every record to
``--out`` for ``compare.py``.  Workloads alternate within each seed, so
slow drift of the host spreads over all of them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10",
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--record", str(args.out)]
            completed = subprocess.run(command, cwd=HERE.parent,
                                       capture_output=True, text=True,
                                       check=False)
            last = (completed.stdout.strip().splitlines() or ["?"])[-1]
            print(f"{workload} seed {seed}: {last}", flush=True)
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                return completed.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
