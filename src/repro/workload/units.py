"""Concrete workloads wrapping the engine entry points.

Each class binds one existing entry point -- nothing here re-implements
numerics.  ``run()`` delegates with exactly the arguments the flow
stages used to pass, which is what keeps the refactored flows'
artifacts bit-identical to the monolithic stage bodies they replaced.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..corners.sweep import corner_sweep_points
from ..errors import WorkloadError
from ..lint import preflight_lint
from ..mc.engine import MCConfig, monte_carlo, monte_carlo_points
from ..surrogate import (surrogate_arrays, surrogates_from_arrays,
                         train_surrogates)
from ..yieldmodel.estimator import (YieldEstimate, estimate_yield,
                                    estimate_yield_streaming)
from ..yieldmodel.rare import (RareEventConfig, RareEventResult, RareLevel,
                               estimate_yield_rare)
from .base import Workload, WorkloadResult

__all__ = ["LintWorkload", "MCPointsWorkload", "CornerSweepWorkload",
           "StreamingYieldWorkload", "BatchYieldWorkload",
           "RareEventWorkload", "SurrogateTrainWorkload",
           "YieldSearchWorkload"]


def _mc_config_payload(config: MCConfig) -> dict:
    """The fingerprint-relevant fields of an :class:`MCConfig`.

    Deliberately excludes ``backend``/``workers`` (the :mod:`repro.exec`
    determinism contract keeps them out of results) while keeping
    ``chunk_lanes``, which fixes the chunk geometry and therefore the
    per-chunk random streams.
    """
    return {
        "n_samples": config.n_samples,
        "seed": config.seed,
        "include_global": config.include_global,
        "include_mismatch": config.include_mismatch,
        "chunk_lanes": config.chunk_lanes,
    }


def _yield_arrays(estimate: YieldEstimate) -> tuple[dict, dict]:
    """Serialise a :class:`YieldEstimate` to cacheable arrays + meta."""
    spec_names = list(estimate.per_spec_pass)
    arrays = {
        "yield_counts": np.array([estimate.passed, estimate.total],
                                 dtype=np.int64),
        "spec_pass": np.array([estimate.per_spec_pass[name]
                               for name in spec_names], dtype=np.int64),
    }
    meta = {
        "spec_names": spec_names,
        "confidence": estimate.confidence,
        "percent": estimate.percent,
        "describe": estimate.describe(),
    }
    return arrays, meta


def _yield_from_arrays(arrays: dict, meta: dict) -> YieldEstimate:
    """Rebuild the exact :class:`YieldEstimate` a fresh run produced."""
    counts = np.asarray(arrays["yield_counts"])
    spec_pass = np.asarray(arrays["spec_pass"])
    return YieldEstimate(
        passed=int(counts[0]), total=int(counts[1]),
        per_spec_pass={name: int(spec_pass[index])
                       for index, name in enumerate(meta["spec_names"])},
        confidence=float(meta["confidence"]))


class LintWorkload(Workload):
    """Pre-flight topology lint of one circuit (:mod:`repro.lint`).

    ``run()`` raises :class:`~repro.errors.LintGateError` in ``strict``
    mode exactly as :func:`~repro.lint.preflight_lint` does -- the gate
    semantics belong to the workload, not to its caller.  Cacheable only
    when ``source`` (the netlist text, digested into the evaluator
    identity) is given: a live :class:`~repro.circuit.Circuit` object is
    opaque to the fingerprint.
    """

    kind: ClassVar[str] = "lint"

    def __init__(self, circuit, mode: str = "strict", *,
                 stage: str = "pre-flight lint", source: str = "") -> None:
        from ..cache import fingerprint_key
        # reprolint: disable=fingerprint-completeness -- circuit is opaque to the fingerprint; identity comes from the digested `source` text via evaluator_id, and cacheable is False without it
        self.circuit = circuit
        self.mode = mode
        self.stage = stage
        self.source = source
        self.evaluator_id = (f"netlist:{fingerprint_key(source)}"
                             if source else "")
        self.cacheable = bool(source)

    def config(self) -> dict:
        return {"mode": self.mode, "stage": self.stage}

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        report = preflight_lint(self.circuit, self.mode, stage=self.stage,
                                progress=progress)
        meta: dict = {"mode": self.mode, "stage": self.stage}
        if report is not None:
            meta.update({
                "errors": report.count("error"),
                "warnings": report.count("warning"),
                "ok": report.ok(),
                "findings": [
                    {"rule": finding.rule, "severity": finding.severity,
                     "message": finding.message}
                    for finding in report.sorted_findings()],
            })
        return self._result(meta=meta, value=report)

    def _value_from_arrays(self, arrays: dict, meta: dict):
        return None  # the verdict lives in meta; the report object does not


class MCPointsWorkload(Workload):
    """Monte-Carlo variation analysis across many design points
    (stage 4 of the model-build flow;
    :func:`repro.mc.engine.monte_carlo_points`)."""

    kind: ClassVar[str] = "mc-points"

    def __init__(self, evaluator, n_points: int, pdk, config: MCConfig, *,
                 stage: str = "mc-points", evaluator_id: str = "") -> None:
        self.evaluator = evaluator
        self.n_points = n_points
        self.pdk = pdk
        self.mc_config = config
        self.stage = stage
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        payload = _mc_config_payload(self.mc_config)
        payload.update({"pdk": self.pdk.name, "n_points": self.n_points,
                        "stage": self.stage})
        return payload

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        samples = monte_carlo_points(self.evaluator, self.n_points, self.pdk,
                                     self.mc_config, progress=progress,
                                     stage=self.stage)
        meta = {"n_points": self.n_points,
                "n_samples": self.mc_config.n_samples,
                "names": sorted(samples)}
        return self._result(meta=meta, arrays=samples, value=samples)


class CornerSweepWorkload(Workload):
    """Deterministic PVT corner sweep of many design points
    (stage 4b; :func:`repro.corners.corner_sweep_points`).

    ``chunk_lanes`` stays out of the fingerprint: the sweep draws no
    random streams, so chunk geometry cannot change its numbers.
    """

    kind: ClassVar[str] = "corner-sweep"

    def __init__(self, evaluator, n_points: int, pdk, grid, *,
                 backend=None, workers: int = 0, chunk_lanes: int = 0,
                 evaluator_id: str = "") -> None:
        if chunk_lanes < 0:
            raise WorkloadError(
                f"chunk_lanes must be >= 0 (0 = one stack), got {chunk_lanes}")
        self.evaluator = evaluator
        self.n_points = n_points
        self.pdk = pdk
        self.grid = grid
        self.backend = backend
        self.workers = workers
        # reprolint: disable=fingerprint-completeness -- the sweep draws no random streams, so chunk geometry provably cannot change its numbers (see class docstring)
        self.chunk_lanes = chunk_lanes
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        return {"pdk": self.pdk.name, "n_points": self.n_points,
                "grid": self.grid.describe()}

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        samples = corner_sweep_points(
            self.evaluator, self.n_points, self.pdk, self.grid,
            backend=self.backend, workers=self.workers,
            chunk_lanes=self.chunk_lanes, progress=progress)
        meta = {"n_points": self.n_points, "grid": self.grid.describe(),
                "names": sorted(samples)}
        return self._result(meta=meta, arrays=samples, value=samples)


class StreamingYieldWorkload(Workload):
    """Streaming (optionally adaptive) Monte-Carlo yield estimation
    (stage 4c, and the service layer's ``estimate`` jobs;
    :func:`repro.yieldmodel.estimator.estimate_yield_streaming`).

    ``run()`` returns ``value = (estimate, streaming)``; a cache hit
    rebuilds the exact :class:`~repro.yieldmodel.estimator.YieldEstimate`
    but returns ``None`` for the streaming state (accumulator internals
    are checkpoint material, not result material).
    """

    kind: ClassVar[str] = "yield-streaming"

    def __init__(self, evaluator, pdk, specs, config: MCConfig, *,
                 adaptive=None, sketch_capacity: int | None = None,
                 confidence: float | None = None, stage: str = "mc-single",
                 evaluator_id: str = "") -> None:
        self.evaluator = evaluator
        self.pdk = pdk
        self.specs = specs
        self.mc_config = config
        self.adaptive = adaptive
        self.sketch_capacity = sketch_capacity
        self.confidence = confidence
        self.stage = stage
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        adaptive = self.adaptive
        payload = _mc_config_payload(self.mc_config)
        payload.update({
            "pdk": self.pdk.name,
            "stage": self.stage,
            "specs": self.specs.describe(),
            "adaptive": ([adaptive.metric, adaptive.ci_width,
                          adaptive.confidence, adaptive.min_samples,
                          adaptive.check_every, adaptive.k_sigma]
                         if adaptive is not None else []),
            "sketch_capacity": self.sketch_capacity,
            "confidence": self.confidence,
        })
        return payload

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        estimate, streaming = estimate_yield_streaming(
            self.evaluator, self.pdk, self.specs, self.mc_config,
            adaptive=self.adaptive, checkpoint=checkpoint,
            sketch_capacity=self.sketch_capacity,
            confidence=self.confidence, stage=self.stage, progress=progress)
        arrays, meta = _yield_arrays(estimate)
        meta.update({
            "samples_done": streaming.samples_done,
            "samples_cap": streaming.samples_cap,
            "stopped_early": streaming.stopped_early,
        })
        return self._result(meta=meta, arrays=arrays,
                            value=(estimate, streaming))

    def _value_from_arrays(self, arrays: dict, meta: dict):
        return _yield_from_arrays(arrays, meta), None


class BatchYieldWorkload(Workload):
    """Fixed-count Monte-Carlo yield verification (the filter flow's
    transistor-level verification; :func:`repro.mc.engine.monte_carlo`
    + :func:`repro.yieldmodel.estimator.estimate_yield`).

    ``value = (estimate, population)``; cache hits rebuild the estimate
    and return ``None`` for the population (it is re-derivable and
    large).
    """

    kind: ClassVar[str] = "yield-batch"

    def __init__(self, evaluator, pdk, specs, config: MCConfig, *,
                 confidence: float = 0.95, evaluator_id: str = "") -> None:
        self.evaluator = evaluator
        self.pdk = pdk
        self.specs = specs
        self.mc_config = config
        self.confidence = confidence
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        payload = _mc_config_payload(self.mc_config)
        payload.update({"pdk": self.pdk.name,
                        "specs": self.specs.describe(),
                        "confidence": self.confidence})
        return payload

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        population = monte_carlo(self.evaluator, self.pdk, self.mc_config,
                                 progress)
        estimate = estimate_yield(population, self.specs,
                                  confidence=self.confidence)
        arrays, meta = _yield_arrays(estimate)
        return self._result(meta=meta, arrays=arrays,
                            value=(estimate, population))

    def _value_from_arrays(self, arrays: dict, meta: dict):
        return _yield_from_arrays(arrays, meta), None


class RareEventWorkload(Workload):
    """High-sigma rare-event failure-probability estimation
    (:func:`repro.yieldmodel.rare.estimate_yield_rare`).

    Fully cacheable: a :class:`~repro.yieldmodel.rare.RareEventResult`
    round-trips losslessly through flat arrays (scalars, the final
    proposal shift, and the per-level ledger), so a cache hit rebuilds
    the exact result a fresh run produced -- including every level's
    acceptance rate and threshold.  ``backend``/``workers`` stay out of
    the fingerprint (determinism contract); ``chunk_lanes`` stays *in*
    because it fixes the per-chunk mismatch streams.
    """

    kind: ClassVar[str] = "yield-rare"

    def __init__(self, evaluator, pdk, specs, config: RareEventConfig, *,
                 stage: str = "high-sigma", evaluator_id: str = "") -> None:
        self.evaluator = evaluator
        self.pdk = pdk
        self.specs = specs
        self.rare_config = config
        self.stage = stage
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        rare = self.rare_config
        return {
            "pdk": self.pdk.name,
            "specs": self.specs.describe(),
            "stage": self.stage,
            "n_per_level": rare.n_per_level,
            "max_levels": rare.max_levels,
            "level_quantile": rare.level_quantile,
            "n_final": rare.n_final,
            "seed": rare.seed,
            "max_shift_sigma": rare.max_shift_sigma,
            "include_mismatch": rare.include_mismatch,
            "confidence": rare.confidence,
            "chunk_lanes": rare.chunk_lanes,
        }

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        result = estimate_yield_rare(self.evaluator, self.specs, self.pdk,
                                     self.rare_config, progress=progress)
        arrays = {
            "rare_scalars": np.array([result.p_fail, result.std_error,
                                      result.effective_samples,
                                      result.confidence], dtype=np.float64),
            "rare_shift": np.asarray(result.shift_sigma, dtype=np.float64),
            # Per-level ledger: index, n_samples, threshold, acceptance,
            # failure_fraction -- one row per splitting level.
            "level_table": np.array(
                [[level.index, level.n_samples, level.threshold,
                  level.acceptance, level.failure_fraction]
                 for level in result.levels],
                dtype=np.float64).reshape(len(result.levels), 5),
            "level_shifts": np.array(
                [level.shift_sigma for level in result.levels],
                dtype=np.float64).reshape(len(result.levels), -1),
        }
        meta = {
            "n_final": result.n_final,
            "levels_converged": result.levels_converged,
            "p_fail": result.p_fail,
            "sigma_level": result.sigma_level,
            "total_simulations": result.total_simulations,
            "describe": result.describe(),
        }
        return self._result(meta=meta, arrays=arrays, value=result)

    def _value_from_arrays(self, arrays: dict, meta: dict) -> RareEventResult:
        scalars = np.asarray(arrays["rare_scalars"], dtype=np.float64)
        table = np.asarray(arrays["level_table"], dtype=np.float64)
        shifts = np.asarray(arrays["level_shifts"], dtype=np.float64)
        levels = [RareLevel(index=int(row[0]), n_samples=int(row[1]),
                            threshold=float(row[2]),
                            acceptance=float(row[3]),
                            failure_fraction=float(row[4]),
                            shift_sigma=shifts[number])
                  for number, row in enumerate(table)]
        return RareEventResult(
            p_fail=float(scalars[0]), std_error=float(scalars[1]),
            levels=levels,
            shift_sigma=np.asarray(arrays["rare_shift"], dtype=np.float64),
            n_final=int(meta["n_final"]),
            effective_samples=float(scalars[2]),
            levels_converged=bool(meta["levels_converged"]),
            confidence=float(scalars[3]))


class SurrogateTrainWorkload(Workload):
    """Process-space surrogate training (stage 6;
    :func:`repro.surrogate.train_surrogates`).

    The trained bundle serialises losslessly through
    :func:`repro.surrogate.surrogate_arrays`, so a cache hit rebuilds a
    bundle whose predictions are bit-identical to the fresh fit's.
    """

    kind: ClassVar[str] = "surrogate-train"

    def __init__(self, evaluator, pdk, *, n_train: int, seed: int,
                 surrogate_kind: str = "quadratic",
                 include_mismatch: bool = True, backend=None,
                 workers: int = 0, chunk_lanes: int = 4000,
                 evaluator_id: str = "") -> None:
        if chunk_lanes < 1:
            raise WorkloadError(f"chunk_lanes must be >= 1, got {chunk_lanes}")
        self.evaluator = evaluator
        self.pdk = pdk
        self.n_train = n_train
        self.seed = seed
        self.surrogate_kind = surrogate_kind
        self.include_mismatch = include_mismatch
        self.backend = backend
        self.workers = workers
        self.chunk_lanes = chunk_lanes
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        # chunk_lanes is fingerprint-relevant here (unlike the corner
        # sweep): mismatch draws come from per-chunk child streams, so
        # chunk geometry shapes the training data.
        return {"pdk": self.pdk.name, "n_train": self.n_train,
                "seed": self.seed, "surrogate_kind": self.surrogate_kind,
                "include_mismatch": self.include_mismatch,
                "chunk_lanes": self.chunk_lanes}

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        bundle = train_surrogates(
            self.evaluator, self.pdk, n_train=self.n_train, seed=self.seed,
            kind=self.surrogate_kind, include_mismatch=self.include_mismatch,
            backend=self.backend, workers=self.workers,
            chunk_lanes=self.chunk_lanes)
        meta = {"surrogate_kind": self.surrogate_kind,
                "n_train": self.n_train, "names": list(bundle.names)}
        return self._result(meta=meta, arrays=surrogate_arrays(bundle),
                            value=bundle)

    def _value_from_arrays(self, arrays: dict, meta: dict):
        return surrogates_from_arrays(arrays)


class YieldSearchWorkload(Workload):
    """In-loop yield-aware Pareto search (stage 7;
    :func:`repro.optimize.run_yield_search`).

    Uncacheable: the result carries a full GA history and per-fidelity
    ledger that cannot be rebuilt from flat arrays.  The workload still
    fingerprints (for job identity in the service layer), keyed by the
    search configuration and the problem's name.
    """

    kind: ClassVar[str] = "yield-search"
    cacheable: ClassVar[bool] = False

    def __init__(self, problem, evaluator_factory, specs, pdk,
                 search_config, *, ledger=None,
                 evaluator_id: str = "") -> None:
        self.problem = problem
        self.evaluator_factory = evaluator_factory
        self.specs = specs
        self.pdk = pdk
        self.search_config = search_config
        self.ledger = ledger
        self.evaluator_id = (evaluator_id
                             or f"problem:{type(problem).__name__}")

    def config(self) -> dict:
        search = self.search_config
        ladder = search.ladder
        return {
            "pdk": self.pdk.name,
            "specs": self.specs.describe(),
            "mode": search.mode, "optimizer": search.optimizer,
            "yield_target": search.yield_target,
            "penalty_weight": search.penalty_weight,
            "generations": search.generations,
            "population": search.population,
            "seed": search.seed,
            # Ladder knobs minus its backend/workers execution fields.
            "fidelity_budget": ladder.fidelity_budget,
            "chunk_lanes": ladder.chunk_lanes,
        }

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        # Runtime import: repro.optimize builds on repro.flow.accounting,
        # and the flow package imports this module -- the dependency must
        # stay one-way at import time (mirrors flow/pipeline.py).
        from ..optimize import run_yield_search
        result = run_yield_search(self.problem, self.evaluator_factory,
                                  self.specs, self.pdk, self.search_config,
                                  ledger=self.ledger)
        return self._result(meta={"mode": self.search_config.mode},
                            value=result)
