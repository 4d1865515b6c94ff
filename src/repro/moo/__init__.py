"""Multi-objective optimisation: WBGA (the paper's optimiser), NSGA-II
baseline, Pareto utilities."""

from .ga import GAConfig
from .hypervolume import hypervolume, hypervolume_2d
from .nsga2 import NSGA2Result, run_nsga2
from .pareto import (crowding_distance, dominates, fast_non_dominated_sort,
                     non_dominated_mask, pareto_front_indices)
from .problem import Objective, OptimizationProblem
from .wbga import WBGAResult, normalise_weights, run_wbga

__all__ = [
    "GAConfig", "hypervolume", "hypervolume_2d",
    "NSGA2Result", "run_nsga2",
    "crowding_distance", "dominates", "fast_non_dominated_sort",
    "non_dominated_mask", "pareto_front_indices",
    "Objective", "OptimizationProblem",
    "WBGAResult", "normalise_weights", "run_wbga",
]
