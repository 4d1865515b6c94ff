"""Execution-backend tests: resolution, ordering, and the determinism
contract (serial / thread / process backends produce bit-identical
Monte-Carlo results on the OTA problem)."""

import numpy as np
import pytest

from repro.designs import OTAParameters, evaluate_ota
from repro.errors import ReproError
from repro.exec import (BACKEND_ENV_VAR, ProcessBackend, SerialBackend,
                        ThreadBackend, available_backends, chunk_bounds,
                        default_workers, resolve_backend, run_chunks)
from repro.mc import MCConfig, monte_carlo, monte_carlo_points
from repro.process import C35


class TestResolveBackend:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend().name == "serial"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread:2")
        backend = resolve_backend()
        assert backend.name == "thread"
        assert backend.workers == 2

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread:2")
        assert resolve_backend("serial").name == "serial"

    def test_worker_suffix(self):
        assert resolve_backend("process:5").workers == 5

    def test_workers_argument(self):
        assert resolve_backend("thread", workers=3).workers == 3

    def test_default_worker_count_is_cpu_count(self):
        assert resolve_backend("thread").workers == default_workers()

    def test_instance_passthrough(self):
        backend = ThreadBackend(2)
        assert resolve_backend(backend) is backend

    def test_auto_resolves(self):
        assert resolve_backend("auto").name in ("serial", "thread", "process")

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown execution backend"):
            resolve_backend("gpu")

    def test_bad_worker_count_raises(self):
        with pytest.raises(ReproError, match="worker count"):
            resolve_backend("thread:zero")
        with pytest.raises(ReproError, match="worker count"):
            resolve_backend("thread:0")

    def test_serial_rejects_worker_suffix(self):
        with pytest.raises(ReproError, match="serial backend takes no"):
            resolve_backend("serial:4")

    def test_concurrent_process_pools_stay_correct(self):
        # Two threads driving process pools at once must not clobber
        # each other's fork payload (results would silently swap).
        from concurrent.futures import ThreadPoolExecutor

        def sweep(offset):
            backend = ProcessBackend(2)
            return backend.run(lambda t: offset + t, list(range(6)))

        with ThreadPoolExecutor(max_workers=2) as pool:
            a, b = pool.map(sweep, [100, 200])
        assert a == [100 + t for t in range(6)]
        assert b == [200 + t for t in range(6)]

    def test_available_backends_names(self):
        assert set(available_backends()) == {"serial", "thread", "process"}


class TestRunContract:
    """Every backend returns results in task order and reports progress."""

    backends = [SerialBackend(), ThreadBackend(2), ProcessBackend(2)]

    @pytest.mark.parametrize("backend", backends,
                             ids=lambda b: b.name)
    def test_order_preserved(self, backend):
        tasks = list(range(11))
        assert backend.run(lambda t: t * t, tasks) == [t * t for t in tasks]

    @pytest.mark.parametrize("backend", backends,
                             ids=lambda b: b.name)
    def test_progress_counts_every_task(self, backend):
        seen = []
        backend.run(lambda t: t, list(range(5)), progress=seen.append)
        assert sorted(seen) == list(range(5))

    @pytest.mark.parametrize("backend", backends,
                             ids=lambda b: b.name)
    def test_empty_task_list(self, backend):
        assert backend.run(lambda t: t, []) == []

    @pytest.mark.parametrize("backend", backends,
                             ids=lambda b: b.name)
    def test_run_chunks_gathers_rows_in_task_order(self, backend):
        def run_chunk(task):
            start, stop, scale = task
            rows = np.arange(start, stop, dtype=float)
            return {"row": rows * scale, "pair": np.c_[rows, -rows]}

        tasks = [(start, stop, 2.0)
                 for start, stop in chunk_bounds(10, 3)]
        seen = []
        result = run_chunks(backend, run_chunk, tasks,
                            progress=lambda done, total:
                            seen.append((done, total)))
        np.testing.assert_array_equal(result["row"], 2.0 * np.arange(10))
        assert result["pair"].shape == (10, 2)
        np.testing.assert_array_equal(result["pair"][:, 0], np.arange(10))
        done = [rows for rows, _ in seen]
        assert len(seen) == len(tasks)
        assert done == sorted(done) and seen[-1] == (10, 10)
        assert all(total == 10 for _, total in seen)

    @pytest.mark.parametrize("backend", backends,
                             ids=lambda b: b.name)
    def test_run_chunks_without_tasks(self, backend):
        seen = []
        assert run_chunks(backend, lambda task: {"x": np.zeros(1)}, [],
                          progress=lambda *args: seen.append(args)) == {}
        assert seen == []

    def test_chunk_bounds(self):
        assert chunk_bounds(7, 3) == [(0, 3), (3, 6), (6, 7)]
        assert chunk_bounds(3, 10) == [(0, 3)]
        assert chunk_bounds(0, 4) == []
        for size in (0, -5):
            with pytest.raises(ReproError):
                chunk_bounds(4, size)

    def test_single_task_runs_serially(self):
        # A one-element work load must not pay pool overhead (and must
        # still work with a closure even on spawn-only platforms).
        value = {"x": 3}
        assert ProcessBackend(4).run(lambda t: value["x"] + t, [1]) == [4]


def _ota_mc(backend_spec):
    """A small two-chunk OTA point sweep under the given backend.

    The first chunk holds two designs and the second one; every die
    starts DC Newton from the kit's reference operating point, which a
    forked worker inherits filled or fills itself, with the same row."""
    points = OTAParameters.from_normalized(
        np.linspace(0.2, 0.8, 3)[:, None] * np.ones((3, 8))).to_array()

    def evaluator(point_indices, repeats, die_sample):
        tiled = OTAParameters.from_array(
            np.repeat(points[point_indices], repeats, axis=0))
        return evaluate_ota(tiled, variations=die_sample)

    config = MCConfig(n_samples=8, seed=42, chunk_lanes=16,
                      backend=backend_spec)
    return monte_carlo_points(evaluator, 3, C35, config)


class TestBackendEquivalence:
    """The acceptance criterion: backend choice never changes results."""

    def test_thread_and_process_match_serial_on_ota(self):
        reference = _ota_mc("serial")
        assert reference["gain_db"].shape == (3, 8)
        for spec in ("thread:2", "process:2"):
            result = _ota_mc(spec)
            for name in reference:
                np.testing.assert_array_equal(
                    reference[name], result[name],
                    err_msg=f"{spec} diverged from serial on {name}")

    def test_worker_count_does_not_change_results(self):
        np.testing.assert_array_equal(_ota_mc("process:2")["gain_db"],
                                      _ota_mc("process:3")["gain_db"])

    def test_single_design_chunked_equivalence(self):
        def evaluator(sample):
            return {"metric": sample.dvto_n + sample.kp_scale_p}

        reference = monte_carlo(evaluator, C35,
                                MCConfig(n_samples=40, seed=9,
                                         chunk_lanes=12))
        for spec in ("thread:2", "process:2"):
            result = monte_carlo(evaluator, C35,
                                 MCConfig(n_samples=40, seed=9,
                                          chunk_lanes=12, backend=spec))
            np.testing.assert_array_equal(reference["metric"],
                                          result["metric"], err_msg=spec)

    def test_progress_reaches_total_under_parallel_backend(self):
        seen = []

        def evaluator(point_indices, repeats, die_sample):
            return {"m": np.zeros(point_indices.size * repeats)}

        monte_carlo_points(evaluator, 5, C35,
                           MCConfig(n_samples=4, seed=1, chunk_lanes=4,
                                    backend="thread:2"),
                           progress=lambda done, total:
                           seen.append((done, total)))
        assert seen[-1] == (5, 5)
        done_values = [done for done, _ in seen]
        assert done_values == sorted(done_values)  # monotone
