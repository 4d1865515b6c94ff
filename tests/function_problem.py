"""Test fixture: a plain vectorised function as an optimisation problem.

The optimiser tests drive WBGA, NSGA-II and the yield search on analytic
objectives instead of circuits.
"""

import numpy as np

from repro.moo.problem import OptimizationProblem


class FunctionProblem(OptimizationProblem):
    """Wrap a callable ``(B, P) -> (B, M)`` over normalised parameters."""

    def __init__(self, function, parameter_names, objectives) -> None:
        self.parameter_names = tuple(parameter_names)
        self.objectives = tuple(objectives)
        self._function = function
        super().__init__()

    def evaluate_batch(self, unit_params: np.ndarray) -> np.ndarray:
        return self._function(unit_params)
