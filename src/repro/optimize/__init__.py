"""In-loop yield optimisation: multi-fidelity, yield-aware Pareto search.

The paper combines yield and performance only *after* optimisation --
its WBGA front is performance-only and yield enters post-hoc through
variation tables and guard-banding
(:mod:`repro.yieldmodel.targeting`).  This package closes the loop:
yield (or k-sigma robustness) becomes an **objective of the search
itself**, estimated per candidate by a budget-aware multi-fidelity
ladder that composes the library's three cheap yield paths:

* :mod:`~repro.optimize.ladder`   -- the :class:`EstimatorLadder`:
  corner bounds -> surrogate classification -> importance-sampled MC,
  escalating only candidates the cheaper rung cannot confidently place
  relative to the target yield, with per-fidelity cost rows in a
  :class:`~repro.telemetry.ledger.SimulationLedger`, each rung timed on
  its own ``flow.stage`` span;
* :mod:`~repro.optimize.problem`  -- :class:`YieldAugmentedProblem`:
  wraps any :class:`~repro.moo.problem.OptimizationProblem` with a
  yield objective, a k-sigma robustness objective, or a
  chance-constraint penalty;
* :mod:`~repro.optimize.search`   -- :func:`run_yield_search` /
  :class:`YieldSearchResult`: NSGA-II or WBGA over the augmented
  problem, returning a yield-annotated archive scored by the
  N-objective :func:`repro.moo.hypervolume.hypervolume`;
* :mod:`~repro.optimize.adapters` -- candidate-evaluator factories for
  the paper's OTA and transistor-level filter;
* :mod:`~repro.optimize.report`   -- front / accounting / guard-band
  comparison tables (the flow's stage-7 artefacts).

See ``docs/optimization.md`` for when each fidelity fires and how the
budget semantics work.
"""

from .adapters import filter_evaluator_factory, ota_evaluator_factory
from .ladder import (FIDELITY_NAMES, EstimatorLadder, LadderBatchEstimate,
                     LadderConfig, LadderCounts)
from .problem import YIELD_MODES, YieldAugmentedProblem
from .report import (format_guardband_comparison, format_ladder_summary,
                     format_yield_front)
from .search import YieldSearchConfig, YieldSearchResult, run_yield_search

__all__ = [
    "FIDELITY_NAMES", "EstimatorLadder", "LadderBatchEstimate",
    "LadderConfig", "LadderCounts",
    "YIELD_MODES", "YieldAugmentedProblem",
    "YieldSearchConfig", "YieldSearchResult", "run_yield_search",
    "ota_evaluator_factory", "filter_evaluator_factory",
    "format_yield_front", "format_ladder_summary",
    "format_guardband_comparison",
]
