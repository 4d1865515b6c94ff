"""The multi-fidelity yield-estimator ladder.

In-loop yield optimisation needs a yield number for *every* candidate of
every generation -- thousands of estimates per run.  No single estimator
can afford that: direct/importance-sampled Monte Carlo costs hundreds of
simulator calls per candidate, while corner bounds are nearly free but
only resolve designs far from the specification limits.  The
:class:`EstimatorLadder` composes the library's three cheap yield paths
(PRs 1-3) into one budget-aware scheduler:

* **Fidelity 0 -- corner bounds** (:mod:`repro.corners`).  Every
  candidate of the generation is swept across a small deterministic
  corner grid as stacked batch lanes (one
  :func:`~repro.corners.sweep.corner_sweep_points` call through the
  :mod:`repro.exec` backends).  The kit's corners sit on the
  ``corner_k_sigma`` points of the global process model, so the corner
  spread yields a per-performance sigma estimate and hence a nominal
  spec-margin **z-score**; candidates whose every spec margin clears
  ``corner_z`` sigmas (pass or fail) are resolved here for
  ``grid.size`` simulator calls each.
* **Fidelity 1 -- surrogate classification** (:mod:`repro.surrogate`).
  Candidates near the boundary get a small per-candidate
  Latin-hypercube training batch (all escalated candidates stacked into
  lane-bounded chunks through the same backends, each candidate on its
  own streams), a per-performance
  response surface, and a calibrated classification of a large
  synthetic population -- exactly the
  :class:`~repro.surrogate.estimator.SurrogateYieldEstimator` maths,
  at ``surrogate_train`` simulator calls per candidate.  Surrogates
  whose leave-one-out CV error rivals their training spread *refuse*
  and escalate instead of reporting (the refusal contract of PR 3).
* **Fidelity 2 -- importance-sampled Monte Carlo**
  (:mod:`repro.yieldmodel.importance`).  Candidates still ambiguous
  about the target yield get the full mean-shift + likelihood-ratio
  estimator -- the most expensive rung
  (``is_pilot + is_samples`` calls) and the final word.  All
  candidates' pilots are evaluated as one stacked pass and all main
  runs as another (lane-bounded chunks of whole candidates through the
  same backends), each candidate on its own streams.

Escalation is **target-aware**: a candidate escalates only while the
current fidelity cannot confidently place its yield on one side of
``yield_target``.  A ``fidelity_budget`` (total simulator calls) caps
escalation -- when the budget runs dry the most ambiguous candidates are
escalated first and the rest keep their best estimate so far.

Determinism: every random stream (training coordinates and mismatch,
surrogate population, importance-sampling pilot and main runs) is
derived from ``(seed, candidate uid)``, and both escalation rungs stack
candidates through one chunk planner
(:meth:`EstimatorLadder._evaluate_stacked`).  A candidate's estimate
therefore depends neither on ``chunk_lanes`` nor on the execution
backend, worker count or which other candidates share its batch --
stronger than :mod:`repro.mc.engine`, which is bit-stable only for a
fixed ``chunk_lanes``.

Each rung runs inside a ``timed`` block of the ladder's
:class:`~repro.telemetry.ledger.SimulationLedger` (rows ``"yield ladder:
corner bounds"`` / ``"... surrogate classification"`` / ``"...
importance sampling"``, each block on its own ``flow.stage`` span), and
the same simulation count feeds :class:`LadderCounts` for the
benchmark's speedup bookkeeping.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..corners.grid import CornerGrid
from ..corners.sweep import corner_sweep_points
from ..errors import OptimizationError
from ..exec import chunk_bounds, resolve_backend, run_chunks
from ..mc.sampler import (_key_to_int, latin_hypercube_normal, normal_cdf,
                          stream)
from ..measure.specs import SpecSet
from ..process.pdk import GLOBAL_DIMS, ProcessKit, ProcessSample
from ..surrogate.estimator import calibrated_yield
from ..surrogate.regression import SURROGATE_KINDS, fit_surrogate
from ..telemetry.ledger import SimulationLedger
from ..yieldmodel.importance import (ImportanceSamplingConfig,
                                     estimate_yield_importance_stacked)

__all__ = ["FIDELITY_NAMES", "LadderConfig", "LadderBatchEstimate",
           "LadderCounts", "EstimatorLadder"]

#: Human-readable names of the three ladder rungs, by fidelity index.
FIDELITY_NAMES = ("corner bounds", "surrogate classification",
                  "importance sampling")

#: Clamp on reported robustness z-scores (keeps optimiser arithmetic
#: finite when the corner spread of a performance collapses to zero).
_Z_CLAMP = 50.0


def _derived_seed(seed: int, key: str) -> int:
    """Stable 31-bit seed derived from a root seed and a string key
    (the same FNV-1a hash :func:`repro.mc.sampler.stream` keys with)."""
    return _key_to_int(f"{seed}:{key}") & 0x7FFFFFFF


@dataclass(frozen=True)
class LadderConfig:
    """Settings of the multi-fidelity estimator ladder.

    Attributes
    ----------
    corners:
        Corner set of the fidelity-0 grid: ``"all"`` or a comma list of
        kit corner names.
    corner_vdds, corner_temps:
        Supply/temperature lanes of the fidelity-0 grid.  Empty means
        *nominal only* -- deliberately smaller than the flow's
        verification grid, because this grid is paid per candidate.
    corner_k_sigma:
        Sigma location of the kit's corner shifts (3.0 for C35); turns
        the corner spread into a per-performance sigma estimate.
    corner_z:
        Decisive nominal-margin z-score at fidelity 0: a candidate whose
        every spec margin exceeds ``corner_z`` estimated sigmas (clear
        pass) or falls below ``-corner_z`` (clear fail) stops here.
    surrogate_train:
        Simulator calls per candidate at fidelity 1 (the LHS training
        batch of the per-candidate response surfaces).
    surrogate_population:
        Synthetic population classified through the surrogate (costs
        polynomial evaluations only).
    surrogate_kind:
        Response-surface family (:data:`repro.surrogate.SURROGATE_KINDS`);
        ``"linear"`` by default -- 6 coefficients fit well from the small
        per-candidate batches.
    surrogate_z:
        Decisive distance from the target at fidelity 1, in standard
        errors of the surrogate estimate.
    surrogate_floor:
        Floor on the fidelity-1 standard error (guards against an
        over-confident surrogate stopping the escalation with a
        systematically wrong estimate).
    cv_threshold:
        Refusal limit on ``cv_error / std(training responses)``; a
        refusing surrogate escalates its candidate to fidelity 2.
    is_pilot, is_samples:
        Pilot / main-run sizes of the fidelity-2 importance-sampled
        estimator (cost per candidate is their sum).
    yield_target:
        The yield the escalation logic is trying to resolve candidates
        against (the chance-constraint / reporting target).
    fidelity_budget:
        Simulator-call budget gating **escalation** (rungs 1 and 2);
        ``0`` means unlimited.  The corner floor is exempt: every
        generation's corner sweep runs in full regardless -- each
        candidate needs at least one estimate -- though its cost does
        count against the budget, starving escalation sooner.  So the
        budget bounds the *escalation* spend, not the floor: total
        spend is at most ``budget + total corner-floor cost``.  When
        the budget runs dry the most ambiguous candidates are
        escalated first and the rest keep their best estimate so far.
    min_fidelity:
        Force every candidate to start at this rung; ``2`` is the
        "full-MC everywhere" reference the benchmark compares against.
    max_fidelity:
        Cap on escalation (``0`` = corner bounds only -- the k-sigma
        robustness mode of :class:`~repro.optimize.problem.YieldAugmentedProblem`).
    seed:
        Root seed; every candidate derives private streams from it.
    include_mismatch:
        Carry local (Pelgrom) mismatch in every simulator evaluation.
    confidence:
        Confidence level of downstream interval reporting.
    backend, workers, chunk_lanes:
        Execution-backend routing of every batched stage, exactly as in
        :class:`repro.mc.engine.MCConfig`.
    """

    corners: str = "all"
    corner_vdds: tuple[float, ...] = ()
    corner_temps: tuple[float, ...] = ()
    corner_k_sigma: float = 3.0
    corner_z: float = 2.0
    surrogate_train: int = 32
    surrogate_population: int = 2000
    surrogate_kind: str = "linear"
    surrogate_z: float = 2.0
    surrogate_floor: float = 0.01
    cv_threshold: float = 0.95
    is_pilot: int = 50
    is_samples: int = 200
    yield_target: float = 0.90
    fidelity_budget: int = 0
    min_fidelity: int = 0
    max_fidelity: int = 2
    seed: int = 2008
    include_mismatch: bool = True
    confidence: float = 0.95
    backend: object = None
    workers: int = 0
    chunk_lanes: int = 4000

    def __post_init__(self) -> None:
        if not 0 <= self.min_fidelity <= 2 or not 0 <= self.max_fidelity <= 2:
            raise OptimizationError("ladder fidelities must lie in [0, 2]")
        if self.min_fidelity > self.max_fidelity:
            raise OptimizationError(
                "ladder min_fidelity must not exceed max_fidelity")
        if self.surrogate_kind not in SURROGATE_KINDS:
            raise OptimizationError(
                f"unknown surrogate kind {self.surrogate_kind!r} "
                f"(known: {', '.join(SURROGATE_KINDS)})")
        if not 0.0 < self.yield_target < 1.0:
            raise OptimizationError("yield_target must lie in (0, 1)")
        if self.chunk_lanes < 1:
            raise OptimizationError(
                f"ladder chunk_lanes must be >= 1, got {self.chunk_lanes}")

    def corner_grid(self, pdk: ProcessKit) -> CornerGrid:
        """The fidelity-0 grid: named corners x nominal-only V/T unless
        overridden (cheap by design -- it is paid per candidate)."""
        grid = CornerGrid.from_spec(pdk, self.corners)
        return dataclasses.replace(
            grid,
            vdds=tuple(self.corner_vdds) or (pdk.supply,),
            temps_c=tuple(self.corner_temps) or (27.0,))

    def fidelity_cost(self, fidelity: int, pdk: ProcessKit) -> int:
        """Simulator calls one candidate spends at a given rung."""
        if fidelity == 0:
            return self.corner_grid(pdk).size
        if fidelity == 1:
            return self.surrogate_train
        return self.is_pilot + self.is_samples


@dataclass
class LadderBatchEstimate:
    """Per-candidate ladder output for one generation batch.

    All arrays have one entry per candidate, in input order.

    Attributes
    ----------
    yield_estimate:
        Best available yield estimate at the candidate's final fidelity.
    std_error:
        Its standard error (the conservative tail mass
        ``min(y, 1-y)`` at fidelity 0).
    fidelity:
        Final rung of each candidate (0/1/2).
    sims:
        Simulator calls spent on each candidate, all rungs combined.
    robust_z:
        Corner-stage worst-spec nominal z-score (the k-sigma robustness
        objective); NaN when the corner stage was skipped.
    refused:
        Candidates whose fidelity-1 surrogate refused (CV error rivalled
        the training spread) and therefore escalated.
    """

    yield_estimate: np.ndarray
    std_error: np.ndarray
    fidelity: np.ndarray
    sims: np.ndarray
    robust_z: np.ndarray
    refused: np.ndarray

    @property
    def size(self) -> int:
        return self.yield_estimate.size


@dataclass
class LadderCounts:
    """Cumulative per-fidelity ladder accounting across every batch.

    ``resolved[f]`` counts candidates whose final rung was ``f``;
    ``sims[f]`` counts simulator calls spent at rung ``f`` (a candidate
    escalated to fidelity 2 contributes to ``sims[0]``, ``sims[1]``
    *and* ``sims[2]``, but only to ``resolved[2]``).
    """

    resolved: list[int] = field(default_factory=lambda: [0, 0, 0])
    sims: list[int] = field(default_factory=lambda: [0, 0, 0])
    budget_exhausted: bool = False

    @property
    def total_candidates(self) -> int:
        return sum(self.resolved)

    @property
    def total_sims(self) -> int:
        return sum(self.sims)

    @property
    def full_mc_sims(self) -> int:
        """Simulator calls spent at the full-MC rung (the benchmark's
        headline saving)."""
        return self.sims[2]

    def table(self) -> str:
        """Aligned per-fidelity accounting table."""
        lines = [f"{'fidelity':<28} {'resolved':>9} {'sim calls':>10}"]
        for f, name in enumerate(FIDELITY_NAMES):
            lines.append(f"{f}: {name:<25} {self.resolved[f]:>9d} "
                         f"{self.sims[f]:>10d}")
        lines.append(f"{'TOTAL':<28} {self.total_candidates:>9d} "
                     f"{self.total_sims:>10d}")
        if self.budget_exhausted:
            lines.append("(fidelity budget exhausted: escalation truncated)")
        return "\n".join(lines)


class EstimatorLadder:
    """Budget-aware multi-fidelity yield estimation over candidate batches.

    Parameters
    ----------
    evaluator_factory:
        Callable ``(unit_params (K, P)) -> evaluator`` where the returned
        evaluator follows the :func:`repro.mc.engine.monte_carlo_points`
        contract ``(point_indices, repeats, ProcessSample) ->
        dict[name, (len(point_indices) * repeats,) array]``.  See
        :mod:`repro.optimize.adapters` for the circuit-backed factories.
    specs:
        The pass/fail specification set the yield is measured against.
    pdk:
        The process kit supplying corners and the statistical model.
    config:
        A :class:`LadderConfig` (defaults used when ``None``).
    ledger:
        Optional :class:`~repro.telemetry.ledger.SimulationLedger`;
        per-fidelity cost rows are recorded into it (an internal ledger
        is created when omitted).
    """

    def __init__(self, evaluator_factory, specs: SpecSet, pdk: ProcessKit,
                 config: LadderConfig | None = None, *,
                 ledger: SimulationLedger | None = None) -> None:
        self.evaluator_factory = evaluator_factory
        self.specs = specs
        self.pdk = pdk
        self.config = config or LadderConfig()
        self.ledger = ledger if ledger is not None else SimulationLedger()
        self.counts = LadderCounts()
        self.grid = self.config.corner_grid(pdk)
        self._nominal_lane = self._find_nominal_lane()
        self._spent = 0
        self._next_uid = 0

    # -- helpers -------------------------------------------------------------
    def _find_nominal_lane(self) -> int:
        """Grid lane closest to typical-process, nominal-supply, 27 C."""
        best, best_cost = 0, np.inf
        for index, point in enumerate(self.grid.points()):
            cost = ((0.0 if point.corner == "tm" else 1e6)
                    + abs(point.vdd - self.pdk.supply)
                    + 1e-3 * abs(point.temp_c - 27.0))
            if cost < best_cost:
                best, best_cost = index, cost
        return best

    def _rung(self, fidelity: int, sims: int):
        """Count a rung's simulator calls and time it in its ledger row."""
        self.counts.sims[fidelity] += sims
        self._spent += sims
        return self.ledger.timed(
            f"yield ladder: {FIDELITY_NAMES[fidelity]}", sims)

    def _afford(self, candidates: np.ndarray, unit_cost: int,
                ambiguity: np.ndarray) -> np.ndarray:
        """Trim an escalation set to the remaining fidelity budget,
        keeping the most ambiguous candidates (smallest key) first."""
        budget = self.config.fidelity_budget
        if budget <= 0 or candidates.size == 0:
            return candidates
        n_afford = max(0, (budget - self._spent) // unit_cost)
        if n_afford >= candidates.size:
            return candidates
        self.counts.budget_exhausted = True
        order = np.argsort(ambiguity[candidates], kind="stable")
        return candidates[order[:n_afford]]

    def _evaluate_stacked(self, evaluator, indices: np.ndarray,
                          samples: list[ProcessSample]
                          ) -> dict[str, np.ndarray]:
        """Evaluate candidate ``indices[i]`` under ``samples[i]`` (all of
        one size), stacked through the execution backends in chunks of
        whole candidates: at most ``chunk_lanes`` lanes each, and at
        least one chunk per worker when there are that many candidates.
        Returns name -> ``(len(samples), repeats)``."""
        backend = resolve_backend(self.config.backend, self.config.workers)
        count, repeats = len(samples), samples[0].size
        per_chunk = max(1, min(self.config.chunk_lanes // repeats,
                               -(-count // backend.workers)))

        def run_chunk(chunk):
            lo, hi = chunk
            performance = evaluator(
                indices[lo:hi], repeats,
                ProcessSample.concatenate(samples[lo:hi]))
            return {name: np.asarray(values, dtype=float).reshape(
                        hi - lo, repeats)
                    for name, values in performance.items()}

        return run_chunks(backend, run_chunk, chunk_bounds(count, per_chunk))

    # -- fidelity 0: corner bounds ------------------------------------------
    def _corner_stage(self, evaluator, n_points: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """Sweep every candidate across the grid; return
        ``(yield0, std0, robust_z, decisive)``."""
        config = self.config
        performance = corner_sweep_points(
            evaluator, n_points, self.pdk, self.grid,
            backend=config.backend, workers=config.workers,
            chunk_lanes=config.chunk_lanes)

        z_min = np.full(n_points, np.inf)
        yield0 = np.ones(n_points)
        for spec in self.specs:
            values = np.asarray(performance[spec.name], dtype=float)
            nominal = values[:, self._nominal_lane]
            spread = values.max(axis=1) - values.min(axis=1)
            sigma = spread / (2.0 * config.corner_k_sigma)
            margin = spec.margin(nominal)
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(sigma > 0.0, margin / sigma,
                             np.sign(margin) * np.inf)
            z = np.where(np.isnan(z), -np.inf, z)  # margin 0, sigma 0
            z = np.clip(z, -_Z_CLAMP, _Z_CLAMP)
            z_min = np.minimum(z_min, z)
            yield0 = yield0 * normal_cdf(z)
        std0 = np.minimum(yield0, 1.0 - yield0)
        decisive = (((z_min >= config.corner_z)
                     & (yield0 >= config.yield_target))
                    | ((z_min <= -config.corner_z)
                       & (yield0 < config.yield_target)))
        return yield0, std0, np.clip(z_min, -_Z_CLAMP, _Z_CLAMP), decisive

    # -- fidelity 1: surrogate classification -------------------------------
    def _surrogate_stage(self, evaluator, indices: np.ndarray,
                         uids: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
        """Train + classify per escalated candidate; return
        ``(yield1, std1, refused, decisive)`` aligned with ``indices``."""
        config = self.config
        dims = len(GLOBAL_DIMS)
        xs = [latin_hypercube_normal(
                  stream(config.seed, f"ladder-train-{uid}"),
                  config.surrogate_train, dims) for uid in uids]
        responses = self._evaluate_stacked(evaluator, indices, [
            self.pdk.sample_from_sigma(
                x, rng=stream(config.seed, f"ladder-train-mm-{uid}")
                if config.include_mismatch else None,
                include_mismatch=config.include_mismatch)
            for x, uid in zip(xs, uids, strict=True)])

        yield1 = np.empty(indices.size)
        std1 = np.empty(indices.size)
        refused = np.zeros(indices.size, dtype=bool)
        for row in range(indices.size):
            scales: dict[str, float] = {}
            models = {}
            for spec in self.specs:
                y = responses[spec.name][row]
                model = fit_surrogate(config.surrogate_kind, xs[row], y)
                spread = float(np.std(y))
                if model.cv_error > config.cv_threshold * max(spread, 1e-300):
                    refused[row] = True
                models[spec.name] = model
                scales[spec.name] = max(model.cv_error, 1e-12)
            population = latin_hypercube_normal(
                stream(config.seed, f"ladder-pop-{uids[row]}"),
                config.surrogate_population, dims)
            predicted = {name: model.predict(population)
                         for name, model in models.items()}
            yield1[row], std_error = calibrated_yield(predicted, self.specs,
                                                      scales)
            std1[row] = max(std_error, config.surrogate_floor)
        decisive = (~refused
                    & (np.abs(yield1 - config.yield_target)
                       >= config.surrogate_z * std1))
        return yield1, std1, refused, decisive

    # -- fidelity 2: importance-sampled Monte Carlo -------------------------
    def _importance_stage(self, evaluator, indices: np.ndarray,
                          uids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full-fidelity estimates for the remaining candidates.

        Each candidate draws from privately derived streams; the pilots
        of all candidates are evaluated as one stacked pass, then the
        shifted main runs as another, each split into chunks of whole
        candidates (at most ``chunk_lanes`` lanes, and at least one per
        backend worker) through the execution backends."""
        config = self.config
        estimates = estimate_yield_importance_stacked(
            partial(self._evaluate_stacked, evaluator, indices),
            self.specs, self.pdk,
            [ImportanceSamplingConfig(
                n_samples=config.is_samples,
                pilot_samples=config.is_pilot,
                seed=_derived_seed(config.seed, f"ladder-is-{uid}"),
                include_mismatch=config.include_mismatch,
                confidence=config.confidence) for uid in uids])
        yield2 = np.array([estimate.yield_estimate for estimate in estimates])
        std2 = np.array([estimate.std_error for estimate in estimates])
        return np.clip(yield2, 0.0, 1.0), std2

    # -- the ladder ----------------------------------------------------------
    def estimate_batch(self, unit_params: np.ndarray) -> LadderBatchEstimate:
        """Estimate the yield of every candidate of a generation batch.

        Parameters
        ----------
        unit_params:
            Normalised candidate parameters, shape ``(K, P)`` (the same
            matrix the wrapped problem's ``evaluate_batch`` received).

        Returns
        -------
        A :class:`LadderBatchEstimate` with one entry per candidate.
        """
        config = self.config
        unit_params = np.atleast_2d(np.asarray(unit_params, dtype=float))
        n_points = unit_params.shape[0]
        evaluator = self.evaluator_factory(unit_params)
        uids = self._next_uid + np.arange(n_points)
        self._next_uid += n_points

        yield_est = np.full(n_points, np.nan)
        std_err = np.full(n_points, np.nan)
        fidelity = np.zeros(n_points, dtype=int)
        sims = np.zeros(n_points, dtype=int)
        robust_z = np.full(n_points, np.nan)
        refused = np.zeros(n_points, dtype=bool)

        # Fidelity 0: stacked corner sweep of the whole batch.
        if config.min_fidelity <= 0:
            with self._rung(0, n_points * self.grid.size):
                yield0, std0, robust_z, decisive = self._corner_stage(
                    evaluator, n_points)
            yield_est, std_err = yield0, std0
            sims += self.grid.size
            escalate = np.flatnonzero(~decisive)
        else:
            escalate = np.arange(n_points)
        if config.max_fidelity <= 0:
            escalate = np.empty(0, dtype=int)

        # Ambiguity key for budget-constrained escalation: distance of
        # the current estimate from the target (NaN = unknown = first).
        ambiguity = np.abs(np.where(np.isnan(yield_est), config.yield_target,
                                    yield_est) - config.yield_target)

        # Fidelity 1: surrogate classification of the escalated set.
        if config.min_fidelity <= 1 and config.max_fidelity >= 1 \
                and escalate.size:
            cost = config.fidelity_cost(1, self.pdk)
            chosen = self._afford(escalate, cost, ambiguity)
            if chosen.size:
                with self._rung(1, chosen.size * cost):
                    yield1, std1, refused1, decisive1 = \
                        self._surrogate_stage(evaluator, chosen,
                                              uids[chosen])
                yield_est[chosen] = yield1
                std_err[chosen] = std1
                fidelity[chosen] = 1
                sims[chosen] += cost
                refused[chosen] = refused1
                escalate = chosen[~decisive1]
            else:
                escalate = np.empty(0, dtype=int)
            ambiguity = np.abs(np.where(np.isnan(yield_est),
                                        config.yield_target, yield_est)
                               - config.yield_target)

        # Fidelity 2: importance-sampled MC for the still-ambiguous rest.
        if config.max_fidelity >= 2 and escalate.size:
            cost = config.fidelity_cost(2, self.pdk)
            chosen = self._afford(escalate, cost, ambiguity)
            if chosen.size:
                with self._rung(2, chosen.size * cost):
                    yield2, std2 = self._importance_stage(
                        evaluator, chosen, uids[chosen])
                yield_est[chosen] = yield2
                std_err[chosen] = std2
                fidelity[chosen] = 2
                sims[chosen] += cost

        for level in range(3):
            self.counts.resolved[level] += int(
                np.count_nonzero(fidelity == level))
        return LadderBatchEstimate(
            yield_estimate=yield_est, std_error=std_err, fidelity=fidelity,
            sims=sims, robust_z=robust_z, refused=refused)
