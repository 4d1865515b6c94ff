"""NSGA-II reference optimiser.

The paper cites Deb's multi-objective optimisation textbook [8]; NSGA-II
is the canonical algorithm from that line of work and serves here as the
reference baseline against which the WBGA's Pareto front quality is
benchmarked (ablation benchmark ``benchmarks/test_ablation_optimizer.py``).

Standard implementation: fast non-dominated sorting, crowding-distance
diversity preservation, binary tournament on (rank, crowding), SBX
crossover and polynomial mutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ga import GAConfig, polynomial_mutation, sbx_crossover
from .pareto import (ParetoArchive, crowding_distance,
                     fast_non_dominated_sort)
from .problem import OptimizationProblem

__all__ = ["NSGA2Result", "run_nsga2"]


@dataclass
class NSGA2Result(ParetoArchive):
    """Result of an NSGA-II run (same archive shape as WBGA for easy
    comparison).

    The Pareto views and ``annotations`` are described on
    :class:`~repro.moo.pareto.ParetoArchive`.
    """

    problem: OptimizationProblem
    config: GAConfig
    all_parameters: np.ndarray
    all_objectives: np.ndarray
    final_parameters: np.ndarray
    final_objectives: np.ndarray
    annotations: dict[str, np.ndarray] | None = None


def _rank_and_crowding(oriented: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-individual front rank (0 = best) and crowding distance."""
    n = oriented.shape[0]
    rank = np.empty(n, dtype=int)
    crowding = np.empty(n)
    for level, front in enumerate(fast_non_dominated_sort(oriented)):
        rank[front] = level
        crowding[front] = crowding_distance(oriented[front])
    return rank, crowding


def _crowded_tournament(rank: np.ndarray, crowding: np.ndarray, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Binary tournament with the crowded-comparison operator."""
    a = rng.integers(0, rank.size, count)
    b = rng.integers(0, rank.size, count)
    a_wins = (rank[a] < rank[b]) | ((rank[a] == rank[b])
                                    & (crowding[a] > crowding[b]))
    return np.where(a_wins, a, b)


def run_nsga2(problem: OptimizationProblem,
              config: GAConfig | None = None,
              *, rng: np.random.Generator | None = None) -> NSGA2Result:
    """Run NSGA-II on ``problem`` with the same evaluation budget
    convention as :func:`repro.moo.wbga.run_wbga`."""
    config = config or GAConfig()
    rng = rng or np.random.default_rng(config.seed)
    pop = config.population_size
    n_params = problem.n_parameters

    parents = rng.random((pop, n_params))
    parent_obj = problem(parents)
    history_params = [parents.copy()]
    history_obj = [parent_obj.copy()]

    for _ in range(config.generations - 1):
        oriented = problem.oriented(parent_obj)
        oriented = np.where(np.isfinite(oriented), oriented, -1e300)
        rank, crowding = _rank_and_crowding(oriented)

        idx_a = _crowded_tournament(rank, crowding, pop // 2, rng)
        idx_b = _crowded_tournament(rank, crowding, pop // 2, rng)
        child_a, child_b = sbx_crossover(parents[idx_a], parents[idx_b],
                                         config.crossover_rate, rng)
        children = np.vstack([child_a, child_b])[:pop]
        children = polynomial_mutation(children, config.mutation_rate, rng)
        child_obj = problem(children)
        history_params.append(children.copy())
        history_obj.append(child_obj.copy())

        # Environmental selection over parents + children.
        merged = np.vstack([parents, children])
        merged_obj = np.vstack([parent_obj, child_obj])
        merged_oriented = problem.oriented(merged_obj)
        merged_oriented = np.where(np.isfinite(merged_oriented),
                                   merged_oriented, -1e300)
        fronts = fast_non_dominated_sort(merged_oriented)
        keep: list[int] = []
        for front in fronts:
            if len(keep) + front.size <= pop:
                keep.extend(front.tolist())
            else:
                crowd = crowding_distance(merged_oriented[front])
                order = np.argsort(crowd)[::-1]
                keep.extend(front[order[:pop - len(keep)]].tolist())
                break
        keep_arr = np.asarray(keep)
        parents = merged[keep_arr]
        parent_obj = merged_obj[keep_arr]

    return NSGA2Result(
        problem=problem,
        config=config,
        all_parameters=np.concatenate(history_params, axis=0),
        all_objectives=np.concatenate(history_obj, axis=0),
        final_parameters=parents,
        final_objectives=parent_obj,
    )
