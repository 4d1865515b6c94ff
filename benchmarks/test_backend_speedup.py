"""E-X1: execution-backend scaling of ``monte_carlo_points``.

Times the same chunked Monte-Carlo sweep on the serial and process
backends, verifies the results are bit-identical (the backend determinism
contract), and reports the wall-clock speedup.  The speedup assertion
only applies on multi-core hosts; single-core CI still checks
equivalence and emits the measurement.
"""

import os
import time

import numpy as np
import pytest

from repro.designs import OTAParameters, evaluate_ota
from repro.mc import MCConfig, monte_carlo_points
from repro.process import C35

from conftest import FULL_SCALE

WORKERS = 2
POINTS = 32 if FULL_SCALE else 8
SAMPLES = 50 if FULL_SCALE else 25
CHUNK_LANES = 100  # keeps every run multi-chunk (see n_chunks below)


def _sweep(backend_spec):
    points = OTAParameters.from_normalized(
        np.linspace(0.15, 0.85, POINTS)[:, None]
        * np.ones((POINTS, 8))).to_array()

    def evaluator(point_indices, repeats, die_sample):
        tiled = OTAParameters.from_array(
            np.repeat(points[point_indices], repeats, axis=0))
        performance = evaluate_ota(tiled, variations=die_sample)
        return {"gain_db": performance["gain_db"],
                "pm_deg": performance["pm_deg"]}

    config = MCConfig(n_samples=SAMPLES, seed=2008,
                      chunk_lanes=CHUNK_LANES, backend=backend_spec)
    start = time.perf_counter()
    result = monte_carlo_points(evaluator, POINTS, C35, config)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_backend_speedup(emit):
    serial_result, serial_time = _sweep("serial")
    process_result, process_time = _sweep(f"process:{WORKERS}")

    # Determinism across backends is unconditional.
    for name in serial_result:
        np.testing.assert_array_equal(serial_result[name],
                                      process_result[name])

    speedup = serial_time / max(process_time, 1e-9)
    cpus = os.cpu_count() or 1
    points_per_chunk = max(1, CHUNK_LANES // SAMPLES)
    n_chunks = (POINTS + points_per_chunk - 1) // points_per_chunk
    lines = [
        f"sweep: {POINTS} points x {SAMPLES} samples, "
        f"chunk_lanes={CHUNK_LANES} ({n_chunks} chunks)",
        "results bit-identical across backends: True",
    ]
    emit("backend_speedup", "\n".join(lines), [
        f"host CPUs: {cpus}",
        f"serial            : {serial_time * 1e3:8.1f} ms",
        f"process:{WORKERS}         : {process_time * 1e3:8.1f} ms",
        f"speedup           : {speedup:.2f}x",
    ])

    # The hard speedup gate only runs at full scale on multi-core hosts:
    # the reduced sweep is milliseconds-long, so pool startup noise on a
    # busy CI runner would make a wall-clock assertion flaky.  Reduced
    # runs still verify bit-equivalence and publish the measurement.
    if not FULL_SCALE:
        pytest.skip(f"measured {speedup:.2f}x at reduced scale "
                    "(set REPRO_FULL=1 on a multi-core host to assert "
                    "the speedup)")
    if cpus < 2:
        pytest.skip(f"single-CPU host: measured {speedup:.2f}x, "
                    "speedup assertion needs >= 2 cores")
    assert speedup > 1.1, f"expected >1.1x speedup, got {speedup:.2f}x"
