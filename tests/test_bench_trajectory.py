"""The perf trajectory: ``tools/bench_trajectory.py`` and the tracked
``BENCH_perfbench.json`` it appends to."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_trajectory import TRAJECTORY, main  # noqa: E402

END_TO_END = [metric["name"] for metric in json.loads(
    (REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _record(workload, seed, wall, failed=0):
    return {"env": {"workload": workload, "seed": seed, "seconds": 38.0,
                    "trace": 0, "machine": "x86_64", "cpu_count": 2,
                    "python": "3.11", "numpy": "2.4", "blas": {"name": "b"}},
            "host_speed": 0.5 + seed / 10,
            "result": {"attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}


def test_entry_summarises_each_workload(tmp_path):
    runs = tmp_path / "runs.jsonl"
    records = [_record("a", seed, wall, failed=seed == 1)
               for seed, wall in ((1, 1.0), (2, 2.0), (3, 4.0))]
    records.append(_record("b", 1, 7.0))
    runs.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "trajectory.json"
    for label in ("before", "after"):
        assert main([str(runs), "--label", label, "--sha", "abc",
                     "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["entries"]
    assert [e["label"] for e in entries] == ["before", "after"]
    first = entries[0]
    assert first["sweep"]["seeds"] == [1, 2, 3]
    assert first["host"]["host_speed_median"] == pytest.approx(0.65)
    wall = first["workloads"]["a"]["wall_s"]
    assert wall["median"] == 2.0 and wall["runs"] == 3
    assert wall["iqr"] == pytest.approx(wall["q3"] - wall["q1"])
    assert first["workloads"]["a"]["failed_ratio"] == pytest.approx(1 / 30)
    assert first["workloads"]["b"]["wall_s"]["median"] == 7.0


def test_tracked_trajectory_covers_every_end_to_end_metric():
    entries = json.loads(TRAJECTORY.read_text())["entries"]
    assert len(entries) >= 2
    for entry in entries:
        assert entry["host"]["cpu_count"] >= 1
        for metrics in entry["workloads"].values():
            assert set(END_TO_END) <= set(metrics)
            for name in END_TO_END:
                assert metrics[name]["q1"] <= metrics[name]["median"] \
                    <= metrics[name]["q3"]
