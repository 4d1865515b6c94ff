"""Yield-augmented optimisation problems.

:class:`YieldAugmentedProblem` wraps any
:class:`~repro.moo.problem.OptimizationProblem` so that statistical
robustness enters the search *as an objective* instead of post-hoc
guard-banding (the paper's route).  Three modes:

* ``"yield"``  -- appends a maximised ``yield_frac`` objective: the
  ladder's per-candidate yield estimate.  The optimiser then trades the
  base performances against manufacturing yield directly, producing a
  three-objective front (metamodel-integrated flows in the iVAMS line do
  exactly this).
* ``"ksigma"`` -- appends a maximised ``robust_z`` objective: the
  corner-stage worst-spec nominal margin in estimated process sigmas.
  The cheapest robustness signal (one corner sweep per candidate, no
  escalation) -- pair it with ``LadderConfig(max_fidelity=0)``.
* ``"chance"`` -- keeps the base objective count and *penalises*
  candidates whose estimated yield falls below ``yield_target``: every
  oriented objective is worsened by ``PENALTY_WEIGHT * deficit`` in
  units of the objective's running span.  A chance-constrained search:
  the optimiser may trade performance freely on the feasible side of
  the target, while sub-target candidates fade from the front.  Two
  consequences to keep in mind: the archived objective values of
  sub-target candidates are the **penalised fitness**, not the
  design's natural performance (recover the latter by re-evaluating
  the base problem at the archived parameters), and the penalty scale
  is a *running* span -- it sharpens as the search explores, exactly
  like the WBGA's equation-(5) normalisation, so penalised values from
  different generations are comparable only approximately.

Every evaluated individual's ladder diagnostics (yield estimate,
standard error, fidelity, simulator cost, corner z) are archived in
evaluation order and exposed via :meth:`YieldAugmentedProblem.annotations`
-- the optimiser result's yield-annotated archive.
"""

from __future__ import annotations

import numpy as np

from ..errors import OptimizationError
from ..moo.problem import Objective, OptimizationProblem
from .ladder import EstimatorLadder

__all__ = ["YIELD_MODES", "YieldAugmentedProblem"]

#: The supported augmentation modes.
YIELD_MODES = ("yield", "ksigma", "chance")

#: Chance-mode penalty slope, in objective-span units per unit of yield
#: deficit.
PENALTY_WEIGHT = 2.0


class YieldAugmentedProblem(OptimizationProblem):
    """Wrap a base problem with an in-loop yield objective or constraint.

    Parameters
    ----------
    base:
        The wrapped :class:`~repro.moo.problem.OptimizationProblem`
        (its nominal evaluation still runs once per candidate and its
        ``evaluation_count`` keeps counting those).
    ladder:
        The :class:`~repro.optimize.ladder.EstimatorLadder` providing
        per-candidate yield estimates (and their cost accounting); the
        nominal evaluations are timed in its ledger's
        ``"yield search: nominal evaluations"`` row.
    mode:
        One of :data:`YIELD_MODES` (see module docstring).
    yield_target:
        Target yield of the ``"chance"`` penalty (defaults to the
        ladder's configured target).

    The chance-mode penalty slope is :data:`PENALTY_WEIGHT` objective
    spans per unit of yield deficit.
    """

    def __init__(self, base: OptimizationProblem, ladder: EstimatorLadder, *,
                 mode: str = "yield",
                 yield_target: float | None = None) -> None:
        if mode not in YIELD_MODES:
            raise OptimizationError(
                f"unknown yield mode {mode!r} (known: {', '.join(YIELD_MODES)})")
        self.base = base
        self.ladder = ladder
        self.mode = mode
        self.yield_target = float(yield_target if yield_target is not None
                                  else ladder.config.yield_target)
        self.parameter_names = base.parameter_names
        if mode == "yield":
            self.objectives = base.objectives + (
                Objective("yield_frac", "maximize", ""),)
        elif mode == "ksigma":
            self.objectives = base.objectives + (
                Objective("robust_z", "maximize", "sigma"),)
        else:
            self.objectives = base.objectives
        self._archive: dict[str, list[np.ndarray]] = {
            "yield": [], "yield_std_error": [], "fidelity": [],
            "ladder_sims": [], "robust_z": [],
        }
        # Running per-objective extrema of the base problem (the
        # chance-mode penalty scale, WBGA-style).
        self._f_min = np.full(base.n_objectives, np.inf)
        self._f_max = np.full(base.n_objectives, -np.inf)
        super().__init__()

    def annotations(self) -> dict[str, np.ndarray]:
        """Per-individual ladder diagnostics, aligned with the archive
        rows of the optimiser that evaluated this problem."""
        return {name: (np.concatenate(parts) if parts
                       else np.empty(0))
                for name, parts in self._archive.items()}

    def evaluate_batch(self, unit_params: np.ndarray) -> np.ndarray:
        # Between the ladder's rungs, never inside one: rows do not nest.
        with self.ladder.ledger.timed(
                "yield search: nominal evaluations") as row:
            base_values = self.base(unit_params)
            row.simulations += unit_params.shape[0]
        estimate = self.ladder.estimate_batch(unit_params)
        self._archive["yield"].append(estimate.yield_estimate.copy())
        self._archive["yield_std_error"].append(estimate.std_error.copy())
        self._archive["fidelity"].append(estimate.fidelity.astype(float))
        self._archive["ladder_sims"].append(estimate.sims.astype(float))
        self._archive["robust_z"].append(estimate.robust_z.copy())

        if self.mode == "yield":
            return np.hstack([base_values,
                              estimate.yield_estimate[:, None]])
        if self.mode == "ksigma":
            return np.hstack([base_values, estimate.robust_z[:, None]])

        # Chance-constraint mode: penalise the yield deficit in the
        # oriented (maximisation) frame, scaled by each objective's
        # running span so the penalty means the same thing for dB-scale
        # and unit-scale objectives.
        oriented = self.base.oriented(base_values)
        finite = np.isfinite(oriented)
        if np.any(finite):
            self._f_min = np.minimum(self._f_min, np.nanmin(
                np.where(finite, oriented, np.inf), axis=0))
            self._f_max = np.maximum(self._f_max, np.nanmax(
                np.where(finite, oriented, -np.inf), axis=0))
        span = self._f_max - self._f_min
        span = np.where(np.isfinite(span) & (span > 1e-12), span, 1.0)
        deficit = np.clip(self.yield_target - estimate.yield_estimate,
                          0.0, None)
        deficit = np.where(np.isnan(deficit), 0.0, deficit)
        penalised = oriented - PENALTY_WEIGHT * deficit[:, None] * span
        signs = np.array([objective.sign for objective in self.objectives])
        return penalised * signs
