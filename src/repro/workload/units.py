"""Concrete workloads wrapping the engine entry points.

Each class binds one existing entry point -- nothing here re-implements
numerics.  ``run()`` delegates with exactly the arguments a direct
engine call passes, which is what keeps a service job's result
bit-identical to the same call made from a flow.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..corners.sweep import corner_sweep_points
from ..errors import WorkloadError
from ..lint import preflight_lint
from ..mc.engine import MCConfig
from ..surrogate import (surrogate_arrays, surrogates_from_arrays,
                         train_surrogates)
from ..yieldmodel.estimator import YieldEstimate, estimate_yield_streaming
from ..yieldmodel.rare import (RareEventConfig, RareEventResult, RareLevel,
                               estimate_yield_rare)
from .base import Workload, WorkloadResult

__all__ = ["LintWorkload", "CornerSweepWorkload", "StreamingYieldWorkload",
           "RareEventWorkload", "SurrogateTrainWorkload"]


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


class CornerSweepWorkload(Workload):
    """Deterministic PVT corner sweep of many design points
    (the service's ``corners`` jobs;
    :func:`repro.corners.corner_sweep_points`).

    ``chunk_lanes`` stays out of the fingerprint: the sweep draws no
    random streams, so chunk geometry cannot change its numbers.
    """

    kind: ClassVar[str] = "corner-sweep"

    def __init__(self, evaluator, n_points: int, pdk, grid, *,
                 chunk_lanes: int = 0, evaluator_id: str = "") -> None:
        if chunk_lanes < 0:
            raise WorkloadError(
                f"chunk_lanes must be >= 0 (0 = one stack), got {chunk_lanes}")
        self.evaluator = evaluator
        self.n_points = n_points
        self.pdk = pdk
        self.grid = grid
        # reprolint: disable=fingerprint-completeness -- the sweep draws no random streams, so chunk geometry provably cannot change its numbers (see class docstring)
        self.chunk_lanes = chunk_lanes
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        return {"pdk": self.pdk.name, "n_points": self.n_points,
                "grid": self.grid.describe()}

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        samples = corner_sweep_points(
            self.evaluator, self.n_points, self.pdk, self.grid,
            chunk_lanes=self.chunk_lanes, progress=progress)
        meta = {"n_points": self.n_points, "grid": self.grid.describe(),
                "names": sorted(samples)}
        return self._result(meta=meta, arrays=samples, value=samples)


class StreamingYieldWorkload(Workload):
    """Streaming (optionally adaptive) Monte-Carlo yield estimation
    (the service's ``estimate`` jobs;
    :func:`repro.yieldmodel.estimator.estimate_yield_streaming`).

    ``run()`` returns ``value = (estimate, streaming)``; a cache hit
    rebuilds the exact :class:`~repro.yieldmodel.estimator.YieldEstimate`
    but returns ``None`` for the streaming state (accumulator internals
    are checkpoint material, not result material).
    """

    kind: ClassVar[str] = "yield-streaming"

    def __init__(self, evaluator, pdk, specs, config: MCConfig, *,
                 adaptive=None, evaluator_id: str = "") -> None:
        self.evaluator = evaluator
        self.pdk = pdk
        self.specs = specs
        self.mc_config = config
        self.adaptive = adaptive
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        adaptive = self.adaptive
        mc = self.mc_config
        return {
            # MCConfig minus its backend/workers execution fields;
            # chunk_lanes stays: it fixes the per-chunk random streams.
            "n_samples": mc.n_samples, "seed": mc.seed,
            "include_global": mc.include_global,
            "include_mismatch": mc.include_mismatch,
            "chunk_lanes": mc.chunk_lanes,
            "pdk": self.pdk.name,
            "specs": self.specs.describe(),
            # 0.95 and 3.0: the fixed interval confidence and guard band
            # of an adaptive rule, kept as literals in the key.
            "adaptive": ([adaptive.metric, adaptive.ci_width, 0.95,
                          adaptive.min_samples, adaptive.check_every, 3.0]
                         if adaptive is not None else []),
            # The engine defaults every service job has always run with;
            # kept as literals so existing cache keys stay valid.
            "stage": "mc-single", "sketch_capacity": None,
            "confidence": None,
        }

    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        estimate, streaming = estimate_yield_streaming(
            self.evaluator, self.pdk, self.specs, self.mc_config,
            adaptive=self.adaptive, checkpoint=checkpoint, progress=progress)
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
                 evaluator_id: str = "") -> None:
        self.evaluator = evaluator
        self.pdk = pdk
        self.specs = specs
        self.rare_config = config
        self.evaluator_id = evaluator_id

    def config(self) -> dict:
        rare = self.rare_config
        return {
            "pdk": self.pdk.name,
            "specs": self.specs.describe(),
            # A label the engine never read; kept as the literal every
            # service job has always had so existing cache keys stay valid.
            "stage": "high-sigma",
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
    """Process-space surrogate training (the service's ``surrogate``
    jobs; :func:`repro.surrogate.train_surrogates`).

    The trained bundle serialises losslessly through
    :func:`repro.surrogate.surrogate_arrays`, so a cache hit rebuilds a
    bundle whose predictions are bit-identical to the fresh fit's.
    """

    kind: ClassVar[str] = "surrogate-train"

    def __init__(self, evaluator, pdk, *, n_train: int, seed: int,
                 surrogate_kind: str = "quadratic",
                 include_mismatch: bool = True, chunk_lanes: int = 4000,
                 evaluator_id: str = "") -> None:
        if chunk_lanes < 1:
            raise WorkloadError(f"chunk_lanes must be >= 1, got {chunk_lanes}")
        self.evaluator = evaluator
        self.pdk = pdk
        self.n_train = n_train
        self.seed = seed
        self.surrogate_kind = surrogate_kind
        self.include_mismatch = include_mismatch
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
            chunk_lanes=self.chunk_lanes)
        meta = {"surrogate_kind": self.surrogate_kind,
                "n_train": self.n_train, "names": list(bundle.names)}
        return self._result(meta=meta, arrays=surrogate_arrays(bundle),
                            value=bundle)

    def _value_from_arrays(self, arrays: dict, meta: dict):
        return surrogates_from_arrays(arrays)
