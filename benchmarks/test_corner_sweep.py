"""Corner-sweep benchmark: stacked PVT grid vs the sequential loop.

Records two artefacts:

* ``corner_sweep_speedup.txt`` -- wall time of the full 45-lane PVT grid
  evaluated as one stacked solve vs one circuit build + solve per grid
  point, and the resulting speedup;
* ``corner_margins.txt`` -- the flow's per-corner spec-margin table over
  the Pareto front (the corner-verification stage artefact).
"""

import time

import numpy as np

from repro.corners import CornerGrid, corner_sweep, corner_sweep_sequential
from repro.designs.ota import OTAParameters, evaluate_ota
from repro.process import C35


def _ota_evaluator(params):
    def evaluate(sample):
        tiled = OTAParameters.from_array(
            np.broadcast_to(params.to_array(), (sample.size, 8)))
        return evaluate_ota(tiled, variations=sample)
    return evaluate


def _best_of(fn, repeats=3):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_stacked_sweep_beats_sequential(emit):
    grid = CornerGrid.full(C35)
    evaluate = _ota_evaluator(OTAParameters())

    t_stacked, stacked = _best_of(
        lambda: corner_sweep(evaluate, C35, grid))
    t_sequential, sequential = _best_of(
        lambda: corner_sweep_sequential(evaluate, C35, grid))

    for name in stacked.performance:
        np.testing.assert_array_equal(stacked.performance[name],
                                      sequential.performance[name])

    speedup = t_sequential / t_stacked
    emit("corner_sweep_speedup", "\n".join([
        f"PVT grid: {grid.describe()}",
        "(results bit-identical)",
    ]), [
        f"stacked solve:    {t_stacked * 1e3:8.1f} ms",
        f"sequential loop:  {t_sequential * 1e3:8.1f} ms",
        f"speedup:          {speedup:8.1f}x",
    ])
    # The stacked sweep amortises circuit build + factorisation across
    # all 45 lanes; anything below parity would be a regression.
    assert speedup > 1.5


def test_flow_corner_margin_table(flow_result, emit):
    check = flow_result.corner_check
    assert check is not None
    emit("corner_margins", check.summary_table())
    # The kit's corners sit on the global model's 3-sigma points, so the
    # gain corner extremes must bound the sampled 3-sigma gain spread on
    # nearly every front design (phase margin is mismatch-dominated and
    # is expected NOT to be bounded -- that asymmetry is the point of
    # the comparison).
    assert check.mc_check["gain_db"].bounded_fraction > 0.8
