"""Monte-Carlo execution engine.

Three entry points:

* :func:`monte_carlo` -- MC on a single design: draw ``n`` die
  realisations, evaluate the (batched) performance function once, return
  per-performance sample arrays.  Used by the paper's 500-sample design
  verifications.
* :func:`monte_carlo_points` -- MC across a *set* of design points (the
  paper's 200 samples on each of 1022 Pareto points).  Points are tiled
  against fresh die samples and processed in lane-bounded chunks so the
  peak stacked-matrix memory stays constant regardless of how many points
  are swept.
* :func:`evaluate_sigma_batch` -- evaluate one design at explicit
  sigma-unit process coordinates (the surrogate trainer's seed batch,
  the rare-event estimator's levels and final run).

All three consume evaluator callables rather than circuits, so the same engine
drives transistor-level OTAs, behavioural filters, plain functions in
tests -- or a trained surrogate bundle
(:meth:`repro.surrogate.SurrogateBundle.as_evaluator`), which swaps every
stacked MNA solve for a polynomial evaluation without touching the
engine.

Chunking, seeding, and parallelism
----------------------------------
Work is decomposed into chunks of at most ``chunk_lanes`` simultaneous
batch lanes.  Each chunk owns a private child random stream spawned from
``(seed, stage-key)`` (see :func:`repro.mc.sampler.child_streams`), and a
chunk's evaluation touches no state outside itself.  Consequences:

* Results are **bit-reproducible** for a fixed ``MCConfig`` -- including
  ``chunk_lanes``, which fixes the chunk geometry and therefore which die
  realisation lands on which (point, sample) lane.
* Results are **invariant to the execution backend and worker count**:
  chunks may run serially, on threads, or on forked worker processes
  (:mod:`repro.exec`) and concatenate to identical arrays, because no
  chunk ever consumes another chunk's randomness.
* Changing ``chunk_lanes`` changes the sample population (a different,
  equally-valid draw), not its statistics.

Backends are selected by :attr:`MCConfig.backend`, falling back to the
``REPRO_EXEC_BACKEND`` environment variable and then serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..errors import ReproError
from ..exec import Backend, chunk_bounds, resolve_backend, run_chunks
from ..process.pdk import ProcessKit
from .sampler import child_streams, stream

__all__ = ["MCConfig", "monte_carlo", "monte_carlo_points",
           "evaluate_sigma_batch"]


@dataclass(frozen=True)
class MCConfig:
    """Monte-Carlo settings.

    Attributes
    ----------
    n_samples:
        Die realisations per design point (the paper uses 200 for model
        building, 500 for verification).
    seed:
        Root seed for this MC stage.
    include_global, include_mismatch:
        Enable the inter-die / intra-die statistical components.  The
        ablation benchmark flips these to show which dominates each
        performance's variation.
    chunk_lanes:
        Upper bound on simultaneous batch lanes (points x samples) per
        stacked solve.  This is the engine's **memory knob**: peak
        working memory is proportional to the per-chunk lane count
        (times the stacked MNA matrix size), never to the total sweep
        size.  One caveat: :func:`monte_carlo_points` treats each
        point's sample block as atomic, so when ``n_samples >
        chunk_lanes`` a chunk still holds one full point and the
        effective bound is ``max(chunk_lanes, n_samples)`` lanes
        (:func:`monte_carlo` has no such floor -- it slices a single
        design's samples directly).  ``chunk_lanes`` also fixes the
        chunk geometry, so two runs compare bit-for-bit only when their
        ``chunk_lanes`` match (see the module docstring).
    backend:
        Execution backend for the chunk sweep: ``"serial"``, ``"thread"``,
        ``"process"``, ``"auto"``, optionally with a ``":N"`` worker
        suffix, or a live :class:`repro.exec.Backend` instance.  ``None``
        defers to the ``REPRO_EXEC_BACKEND`` environment variable
        (default: serial).  The choice never affects numeric results.
    workers:
        Worker count for pooled backends when the spec carries no
        explicit count; ``0`` means one per CPU.
    """

    n_samples: int = 200
    seed: int = 2008
    include_global: bool = True
    include_mismatch: bool = True
    chunk_lanes: int = 4000
    backend: "str | Backend | None" = None
    workers: int = 0

    def __post_init__(self) -> None:
        # Validate at construction: a degenerate configuration used to
        # surface only deep inside the engine (a zero-lane chunk crashing
        # at ``parts[0]`` or inside ``pdk.sample``), far from the caller
        # that built it.
        if self.n_samples < 1:
            raise ReproError(
                f"MCConfig.n_samples must be >= 1, got {self.n_samples}")
        if self.chunk_lanes < 1:
            raise ReproError(
                f"MCConfig.chunk_lanes must be >= 1, got {self.chunk_lanes}")
        if self.workers < 0:
            raise ReproError(
                f"MCConfig.workers must be >= 0 (0 = one per CPU), "
                f"got {self.workers}")


def _plan_single_chunks(config: MCConfig, stage: str = "mc-single"):
    """Chunk plan of a single-design MC run: ``(start, stop, rng)`` bounds.

    Shared by :func:`monte_carlo` and the streaming driver
    (:func:`repro.mc.streaming.monte_carlo_streaming`), so both walk the
    *identical* chunk geometry and random streams for a given config --
    a streaming run reduces exactly the population a batch run would
    concatenate, and an adaptively-stopped run reduces a prefix of it
    (child streams are prefix-stable, see
    :func:`repro.mc.sampler.child_streams`).

    A single-chunk plan (the common verification case) uses the same
    ``(seed, stage)`` stream as ever, so historical seeds keep producing
    identical populations.
    """
    bounds = chunk_bounds(config.n_samples, config.chunk_lanes)
    if len(bounds) == 1:
        rngs = [stream(config.seed, stage)]
    else:
        rngs = child_streams(config.seed, stage, len(bounds))
    return [(start, stop, rng)
            for (start, stop), rng in zip(bounds, rngs, strict=True)]


def _single_chunk_runner(evaluator, pdk: ProcessKit, config: MCConfig):
    """The per-chunk task of a single-design MC run: draw the chunk's die
    realisations from its private stream, evaluate, normalise the
    performance arrays.  Shared by the batch and streaming drivers."""

    def run_chunk(task):
        start, stop, rng = task
        with telemetry.span("mc.chunk", lanes=stop - start, start=start):
            telemetry.counter_add("mc.lanes", stop - start)
            sample = pdk.sample(stop - start, rng,
                                include_global=config.include_global,
                                include_mismatch=config.include_mismatch)
            performance = evaluator(sample)
            return {name: np.asarray(values, dtype=float).reshape(-1)
                    for name, values in performance.items()}

    return run_chunk


def monte_carlo(evaluator, pdk: ProcessKit,
                config: MCConfig | None = None) -> dict[str, np.ndarray]:
    """Monte Carlo on one design.

    Parameters
    ----------
    evaluator:
        Callable ``(ProcessSample) -> dict[name, (S,) array]`` that builds
        and simulates the design under the given process realisations.

    Returns
    -------
    Mapping performance name -> ``(n_samples,)`` sample array.

    Notes
    -----
    When ``n_samples`` exceeds ``chunk_lanes`` the population is drawn in
    independently-seeded chunks that the configured backend may evaluate
    in parallel.  A single-chunk run (the common verification case) uses
    the same ``(seed, "mc-single")`` stream as ever, so historical seeds
    keep producing identical populations.
    """
    config = config or MCConfig()
    bounds = _plan_single_chunks(config)
    run_chunk = _single_chunk_runner(evaluator, pdk, config)
    backend = resolve_backend(config.backend, config.workers)
    with telemetry.span("mc.single", samples=config.n_samples,
                        chunks=len(bounds)):
        return run_chunks(backend, run_chunk, bounds)


def monte_carlo_points(evaluator, n_points: int, pdk: ProcessKit,
                       config: MCConfig | None = None,
                       progress=None, *,
                       stage: str = "mc-points") -> dict[str, np.ndarray]:
    """Monte Carlo across many design points (section 3.4 of the paper).

    Parameters
    ----------
    evaluator:
        Callable ``(point_indices, repeats, ProcessSample) ->
        dict[name, (len(point_indices)*repeats,) array]``.  The engine
        passes a chunk of point indices; the evaluator must tile each
        point ``repeats`` times **in order** (point0 x S, point1 x S, ...)
        -- :meth:`repro.designs.ota.OTAParameters.tile` does exactly this.
    n_points:
        Total number of design points (K).
    progress:
        Optional callback ``(points_done, n_points)``.
    stage:
        Random-stream stage key.  Callers running several independent
        point sweeps from one root seed (e.g. the per-generation MC of
        the conventional baseline) pass distinct stage keys.

    Returns
    -------
    Mapping performance name -> ``(K, n_samples)`` array.
    """
    config = config or MCConfig()
    samples = config.n_samples
    bounds = chunk_bounds(n_points, max(1, config.chunk_lanes // samples))
    streams = child_streams(config.seed, stage, len(bounds))
    tasks = [(start, stop, rng)
             for (start, stop), rng in zip(bounds, streams, strict=True)]

    def run_chunk(task):
        start, stop, rng = task
        indices = np.arange(start, stop)
        with telemetry.span("mc.chunk", lanes=indices.size * samples,
                            points=int(indices.size), start=start):
            telemetry.counter_add("mc.lanes", indices.size * samples)
            die_sample = pdk.sample(indices.size * samples, rng,
                                    include_global=config.include_global,
                                    include_mismatch=config.include_mismatch)
            performance = evaluator(indices, samples, die_sample)
            return {name: np.asarray(values, dtype=float).reshape(
                        indices.size, samples)
                    for name, values in performance.items()}

    backend = resolve_backend(config.backend, config.workers)
    with telemetry.span("mc.points", points=n_points, samples=samples,
                        stage=stage, chunks=len(tasks)):
        return run_chunks(backend, run_chunk, tasks, progress)


def evaluate_sigma_batch(evaluator, pdk: ProcessKit, x: np.ndarray, *,
                         seed: int, stage: str,
                         include_mismatch: bool = True,
                         backend=None, workers: int = 0,
                         chunk_lanes: int = 4000,
                         progress=None) -> dict[str, np.ndarray]:
    """Evaluate a design at explicit sigma-unit process coordinates.

    Parameters
    ----------
    evaluator:
        Same contract as :func:`monte_carlo`: callable
        ``(ProcessSample) -> dict[name, (S,) array]``.
    x:
        Sigma-unit coordinates, shape ``(N, len(GLOBAL_DIMS))``
        (:meth:`~repro.process.pdk.ProcessKit.sample_from_sigma`
        validates it).
    seed, stage:
        Root seed and stage key of the per-chunk mismatch streams
        (child ``i`` of ``(seed, stage)`` for chunk ``i``; unused
        randomness when ``include_mismatch`` is false, but the chunk
        geometry is identical either way).
    backend, workers, chunk_lanes:
        Chunking and execution exactly as in :class:`MCConfig`.
    progress:
        Optional callback ``(lanes_done, lanes_total)`` fired per
        completed chunk.

    Returns
    -------
    Mapping performance name -> ``(N,)`` array, in input-row order.
    """
    x = np.asarray(x, dtype=float)
    bounds = chunk_bounds(x.shape[0], chunk_lanes)
    rngs = child_streams(seed, stage, len(bounds))
    tasks = [(start, stop, rng)
             for (start, stop), rng in zip(bounds, rngs, strict=True)]

    def run_chunk(task):
        start, stop, rng = task
        sample = pdk.sample_from_sigma(
            x[start:stop], rng=rng if include_mismatch else None,
            include_mismatch=include_mismatch)
        performance = evaluator(sample)
        return {name: np.asarray(values, dtype=float).reshape(-1)
                for name, values in performance.items()}

    return run_chunks(resolve_backend(backend, workers), run_chunk, tasks,
                      progress)
