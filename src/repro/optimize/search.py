"""The in-loop yield-aware Pareto search.

:func:`run_yield_search` assembles the subsystem: it wraps a base
problem into a :class:`~repro.optimize.problem.YieldAugmentedProblem`
backed by an :class:`~repro.optimize.ladder.EstimatorLadder`, runs
NSGA-II (default) or the paper's WBGA over the augmented objectives, and
returns a :class:`YieldSearchResult` whose archive carries every
individual's ladder diagnostics -- the yield-annotated Pareto front the
paper's post-hoc guard-banding flow never sees.

Seeding: the whole search derives from ``YieldSearchConfig.seed`` --
the optimiser stream (``"yield-search"``), every ladder stream, and
therefore the full result are bit-reproducible across execution
backends for a fixed configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..errors import OptimizationError
from ..mc.sampler import stream
from ..measure.specs import SpecSet
from ..moo.ga import GAConfig
from ..moo.hypervolume import hypervolume
from ..moo.nsga2 import NSGA2Result, run_nsga2
from ..moo.problem import OptimizationProblem
from ..process.pdk import ProcessKit
from ..telemetry.ledger import SimulationLedger
from .ladder import EstimatorLadder, LadderConfig, LadderCounts
from .problem import YIELD_MODES, YieldAugmentedProblem

__all__ = ["YieldSearchConfig", "YieldSearchResult", "run_yield_search"]


@dataclass(frozen=True)
class YieldSearchConfig:
    """Settings of the yield-aware search.

    ``yield_target`` and ``seed`` are authoritative: they override the
    corresponding :class:`~repro.optimize.ladder.LadderConfig` fields so
    the search cannot disagree with its own estimator about either.
    ``mode="ksigma"`` also caps the ladder at fidelity 0 (the corner
    z-score objective needs no escalation).
    """

    mode: str = "yield"
    yield_target: float = 0.90
    generations: int = 20
    population: int = 24
    seed: int = 2008
    ladder: LadderConfig = field(default_factory=LadderConfig)

    def __post_init__(self) -> None:
        if self.mode not in YIELD_MODES:
            raise OptimizationError(
                f"unknown yield mode {self.mode!r} "
                f"(known: {', '.join(YIELD_MODES)})")

    def ga_config(self) -> GAConfig:
        return GAConfig(population_size=self.population,
                        generations=self.generations, seed=self.seed)

    def ladder_config(self) -> LadderConfig:
        """The ladder configuration with the search-level overrides
        (target, seed, ksigma fidelity cap) applied."""
        overrides = {"yield_target": self.yield_target, "seed": self.seed}
        if self.mode == "ksigma":
            overrides["max_fidelity"] = 0
        return dataclasses.replace(self.ladder, **overrides)


@dataclass
class YieldSearchResult:
    """Everything a yield-aware search produced.

    Attributes
    ----------
    problem:
        The augmented problem (its ``base`` attribute is the wrapped
        original).
    result:
        The NSGA-II archive (:class:`~repro.moo.nsga2.NSGA2Result`)
        with ladder ``annotations`` attached.
    counts:
        Cumulative per-fidelity ladder accounting
        (:class:`~repro.optimize.ladder.LadderCounts`).
    ledger:
        The simulation ledger the ladder recorded into.
    """

    config: YieldSearchConfig
    specs: SpecSet
    problem: YieldAugmentedProblem
    result: NSGA2Result
    counts: LadderCounts
    ledger: SimulationLedger

    @property
    def objective_names(self) -> tuple[str, ...]:
        return self.problem.objective_names()

    def pareto_mask(self) -> np.ndarray:
        return self.result.pareto_mask()

    def front_parameters(self) -> np.ndarray:
        """Normalised parameters of the yield-annotated front."""
        return self.result.all_parameters[self.pareto_mask()]

    def front_objectives(self) -> np.ndarray:
        """Objectives of the front (base + augmentation column).

        Natural units in ``"yield"``/``"ksigma"`` mode.  In
        ``"chance"`` mode, sub-target candidates carry their
        *penalised* fitness (see
        :class:`~repro.optimize.problem.YieldAugmentedProblem`), not
        their natural performance.
        """
        return self.result.all_objectives[self.pareto_mask()]

    def front_annotations(self) -> dict[str, np.ndarray]:
        """Ladder diagnostics of every front member."""
        return self.result.pareto_annotations()

    def front_count(self) -> int:
        return int(np.count_nonzero(self.pareto_mask()))

    def hypervolume(self) -> float:
        """Dominated hypervolume of the front (maximisation frame).

        The reference corner is the front's own nadir minus a small
        offset, so values from different runs are not comparable.
        """
        oriented = self.problem.oriented(self.front_objectives())
        finite = oriented[np.all(np.isfinite(oriented), axis=1)]
        if finite.shape[0] == 0:
            return 0.0
        span = np.maximum(finite.max(axis=0) - finite.min(axis=0), 1.0)
        return hypervolume(oriented, finite.min(axis=0) - 1e-9 * span)

    def describe(self) -> str:
        """Compact multi-line summary (front size + ladder accounting)."""
        from .report import format_ladder_summary
        lines = [f"yield-aware search ({self.config.mode} mode, nsga2): "
                 f"{self.result.evaluations} candidates evaluated, "
                 f"{self.front_count()} on the front"]
        lines.append(format_ladder_summary(self.counts))
        return "\n".join(lines)


def run_yield_search(base_problem: OptimizationProblem, evaluator_factory,
                     specs: SpecSet, pdk: ProcessKit,
                     config: YieldSearchConfig | None = None, *,
                     ledger: SimulationLedger | None = None
                     ) -> YieldSearchResult:
    """Run the yield-aware multi-objective search.

    Parameters
    ----------
    base_problem:
        The performance-only problem to augment (e.g.
        :class:`repro.designs.problems.OTAProblem`).
    evaluator_factory:
        Candidate-evaluator factory for the ladder (see
        :mod:`repro.optimize.adapters`).
    specs:
        Pass/fail specification set defining the yield.
    pdk:
        The process kit.
    config:
        Search settings (defaults used when ``None``).
    ledger:
        Optional shared ledger; ladder per-fidelity rows and a nominal-
        evaluation row are recorded into it.

    Returns
    -------
    A :class:`YieldSearchResult` with the annotated archive.
    """
    config = config or YieldSearchConfig()
    ledger = ledger if ledger is not None else SimulationLedger()

    ladder = EstimatorLadder(evaluator_factory, specs, pdk,
                             config.ladder_config(), ledger=ledger)
    problem = YieldAugmentedProblem(
        base_problem, ladder, mode=config.mode,
        yield_target=config.yield_target)

    result = run_nsga2(problem, config.ga_config(),
                       rng=stream(config.seed, "yield-search"))
    result.annotations = problem.annotations()

    return YieldSearchResult(
        config=config, specs=specs, problem=problem, result=result,
        counts=ladder.counts, ledger=ledger)
