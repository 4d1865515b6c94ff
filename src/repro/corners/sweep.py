"""Stacked PVT corner sweeps.

The whole point of this subsystem: a PVT grid is *deterministic* extra
batch lanes, so a 5-corner x 3-supply x 3-temperature grid costs one
45-lane stacked ``numpy.linalg.solve`` instead of 45 sequential circuit
builds and factorisations.  Three entry points:

* :func:`corner_sweep` -- one design across a grid, stacked (optionally
  chunked through the :mod:`repro.exec` backends for very large grids);
* :func:`corner_sweep_points` -- many design points x the grid, the
  corner analogue of :func:`repro.mc.engine.monte_carlo_points` (used by
  the flow's corner-verification stage over the whole Pareto front);
* :func:`corner_sweep_sequential` -- the one-lane-at-a-time reference
  loop.  It exists for the speedup benchmark and the bit-equivalence
  tests; never use it for real sweeps.

Determinism
-----------
Corner sweeps draw no random numbers, so results are bit-identical
across execution backends, worker counts, and chunk geometries -- a
strictly stronger guarantee than the Monte-Carlo engine's (which is
bit-stable only for a fixed ``chunk_lanes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from ..exec import chunk_bounds, resolve_backend, run_chunks
from ..measure.specs import SpecSet
from ..process.pdk import ProcessKit
from .grid import CornerGrid

__all__ = ["CornerSweepResult", "corner_sweep", "corner_sweep_points",
           "corner_sweep_sequential"]


@dataclass
class CornerSweepResult:
    """Performance of one design over every lane of a PVT grid.

    Attributes
    ----------
    grid:
        The swept :class:`~repro.corners.grid.CornerGrid`.
    performance:
        Mapping performance name -> shape-``(grid.size,)`` array, in
        lane order.
    """

    grid: CornerGrid
    performance: dict[str, np.ndarray] = field(default_factory=dict)

    def margins(self, specs: SpecSet) -> dict[str, np.ndarray]:
        """Per-spec signed margins at every grid point (positive = pass)."""
        return {spec.name: spec.margin(self.performance[spec.name])
                for spec in specs}

    def worst_case(self, name: str) -> tuple[float, str, float, str]:
        """``(min, argmin label, max, argmax label)`` of a performance."""
        values = np.asarray(self.performance[name], dtype=float)
        labels = self.grid.labels()
        lo, hi = int(np.argmin(values)), int(np.argmax(values))
        return (float(values[lo]), labels[lo],
                float(values[hi]), labels[hi])

    def pass_mask(self, specs: SpecSet) -> np.ndarray:
        """All-specs-pass mask over the grid lanes."""
        return specs.pass_mask(self.performance)


def corner_sweep(evaluator, pdk: ProcessKit,
                 grid: CornerGrid) -> CornerSweepResult:
    """Evaluate one design across a PVT grid as stacked batch lanes.

    Parameters
    ----------
    evaluator:
        Callable ``(ProcessSample) -> dict[name, (B,) array]`` -- the
        same contract as :func:`repro.mc.engine.monte_carlo`'s evaluator,
        so any Monte-Carlo-ready design function sweeps corners for free.
        The whole grid is one stacked solve; :func:`corner_sweep_points`
        chunks and parallelises a sweep of many designs.

    Returns
    -------
    A :class:`CornerSweepResult` in grid lane order.
    """
    performance = {name: np.asarray(values, dtype=float).reshape(-1)
                   for name, values in evaluator(grid.realize(pdk)).items()}
    for name, values in performance.items():
        if values.size != grid.size:
            raise ReproError(
                f"corner evaluator returned {values.size} lanes for "
                f"{name!r}, expected {grid.size}")
    return CornerSweepResult(grid=grid, performance=performance)


def corner_sweep_points(evaluator, n_points: int, pdk: ProcessKit,
                        grid: CornerGrid, *, backend=None, workers: int = 0,
                        chunk_lanes: int = 0,
                        progress=None) -> dict[str, np.ndarray]:
    """Sweep every design point of a set across a PVT grid.

    The corner analogue of :func:`repro.mc.engine.monte_carlo_points`:
    design points are tiled against the grid realisation and processed in
    lane-bounded chunks the configured backend may run in parallel.

    Parameters
    ----------
    evaluator:
        Callable ``(point_indices, repeats, ProcessSample) ->
        dict[name, (len(point_indices)*repeats,) array]`` -- identical to
        the ``monte_carlo_points`` contract, with ``repeats`` always
        ``grid.size`` and the same grid lanes repeated for every point.
    chunk_lanes:
        Upper bound on simultaneous lanes (points x grid size) per
        stacked solve; ``0`` solves everything in one stack.  Each
        point's grid block is atomic, so the effective bound is
        ``max(chunk_lanes, grid.size)``.  Negative values raise
        :class:`~repro.errors.ReproError`.
    progress:
        Optional callback ``(points_done, n_points)``.

    Returns
    -------
    Mapping performance name -> ``(n_points, grid.size)`` array.
    """
    if chunk_lanes < 0:
        raise ReproError(
            f"chunk_lanes must be >= 0 (0 = one stack), got {chunk_lanes}")
    sample = grid.realize(pdk)
    lanes = chunk_lanes or n_points * grid.size

    def run_chunk(bound):
        start, stop = bound
        indices = np.arange(start, stop)
        die_sample = sample.tiled(indices.size)
        performance = evaluator(indices, grid.size, die_sample)
        return {name: np.asarray(values, dtype=float).reshape(
                    indices.size, grid.size)
                for name, values in performance.items()}

    return run_chunks(resolve_backend(backend, workers), run_chunk,
                      chunk_bounds(n_points, max(1, lanes // grid.size)),
                      progress)


def corner_sweep_sequential(evaluator, pdk: ProcessKit,
                            grid: CornerGrid) -> CornerSweepResult:
    """The naive one-lane-at-a-time corner loop (benchmark baseline).

    Builds and solves a fresh single-lane circuit per grid point --
    exactly what :func:`corner_sweep` exists to avoid.  Kept as the
    reference semantics: its results must be bit-identical to the
    stacked sweep's.
    """
    parts: list[dict[str, np.ndarray]] = []
    for point in grid.points():
        sample = pdk.corner_sample(point.corner, vdd=point.vdd,
                                   temp_c=point.temp_c)
        performance = evaluator(sample)
        parts.append({name: np.asarray(values, dtype=float).reshape(-1)
                      for name, values in performance.items()})
    performance = {name: np.concatenate([part[name] for part in parts])
                   for name in parts[0]}
    return CornerSweepResult(grid=grid, performance=performance)
