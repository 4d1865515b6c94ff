"""Optimisation problem abstraction.

An :class:`OptimizationProblem` is a box-bounded, batch-evaluable,
multi-objective function: optimisers hand it a whole population of
normalised parameter vectors and receive the objective matrix back.  Batch
evaluation is the contract that lets circuit-backed problems solve one
stacked MNA system per generation instead of one per individual.

Objective orientation is declared per objective (``maximize`` /
``minimize``); optimisers work internally in *maximisation* form using
:meth:`OptimizationProblem.oriented`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import OptimizationError

__all__ = ["Objective", "OptimizationProblem"]


@dataclass(frozen=True)
class Objective:
    """One optimisation objective.

    Attributes
    ----------
    name:
        Performance key (e.g. ``"gain_db"``).
    goal:
        ``"maximize"`` or ``"minimize"``.
    unit:
        Unit string for reports.
    """

    name: str
    goal: str = "maximize"
    unit: str = ""

    def __post_init__(self) -> None:
        if self.goal not in ("maximize", "minimize"):
            raise OptimizationError(
                f"objective {self.name!r}: goal must be maximize/minimize")

    @property
    def sign(self) -> float:
        """Multiplier mapping the objective to maximisation form."""
        return 1.0 if self.goal == "maximize" else -1.0


class OptimizationProblem:
    """Base class for box-bounded multi-objective problems.

    Subclasses provide ``parameter_names``, ``objectives`` and implement
    :meth:`evaluate_batch` over *normalised* parameters in ``[0, 1]``.
    """

    parameter_names: tuple[str, ...] = ()
    objectives: tuple[Objective, ...] = ()

    def __init__(self) -> None:
        #: Total individuals evaluated (the paper's "evaluation samples").
        self.evaluation_count = 0

    @property
    def n_parameters(self) -> int:
        return len(self.parameter_names)

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    def evaluate_batch(self, unit_params: np.ndarray) -> np.ndarray:
        """Evaluate a population.

        Parameters
        ----------
        unit_params:
            Normalised parameters, shape ``(B, P)`` in ``[0, 1]``.

        Returns
        -------
        Objective values in natural units, shape ``(B, M)``, ordered like
        ``self.objectives``.
        """
        raise NotImplementedError

    def __call__(self, unit_params: np.ndarray) -> np.ndarray:
        unit_params = np.atleast_2d(np.asarray(unit_params, dtype=float))
        if unit_params.shape[1] != self.n_parameters:
            raise OptimizationError(
                f"expected {self.n_parameters} parameters, "
                f"got shape {unit_params.shape}")
        if np.any(unit_params < -1e-12) or np.any(unit_params > 1 + 1e-12):
            raise OptimizationError("normalised parameters must lie in [0, 1]")
        values = np.asarray(self.evaluate_batch(unit_params), dtype=float)
        if values.shape != (unit_params.shape[0], self.n_objectives):
            raise OptimizationError(
                f"evaluate_batch returned shape {values.shape}, expected "
                f"{(unit_params.shape[0], self.n_objectives)}")
        self.evaluation_count += unit_params.shape[0]
        return values

    def oriented(self, objective_values: np.ndarray) -> np.ndarray:
        """Map objective values to maximisation orientation."""
        signs = np.array([obj.sign for obj in self.objectives])
        return np.asarray(objective_values, dtype=float) * signs

    def objective_names(self) -> tuple[str, ...]:
        return tuple(obj.name for obj in self.objectives)

