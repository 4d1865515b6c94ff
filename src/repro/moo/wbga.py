"""Weight-Based Genetic Algorithm (WBGA) -- the paper's optimiser.

The paper (section 3.2) optimises with a WBGA [Hajela, Lee & Lin 1993]:
each GA string carries the designable parameters *and* the objective
weights (Figure 4/6), so the genetic algorithm itself searches over weight
vectors instead of a designer fixing them -- "unlike classical weighted
optimisations which often suffer difficulties in determination of the
weight vector".

Chromosome layout (everything normalised to ``[0, 1]``)::

    [ p_1 ... p_P | w_1 ... w_M ]

Weights are normalised by equation (4), ``w_i <- w_i / sum_j w_j``, and the
fitness is the equation-(5) weighted sum of min-max normalised objectives

    O(x_i) = sum_j  w_j(i) * (f_j(x_i) - f_j_min) / (f_j_max - f_j_min)

where ``f_j_min``/``f_j_max`` are running extrema over every individual
evaluated so far (so the normalisation sharpens as the run explores).
Because different individuals carry different weight vectors, the
population spreads across the trade-off curve; the Pareto front is then
extracted from *all* evaluated individuals (section 3.3), not just the
final generation -- with the paper's 100x100 run that is the "10,000
samples" of Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import OptimizationError
from .ga import (CROSSOVER_RATE, ELITE_COUNT, MUTATION_RATE, MUTATION_SIGMA,
                 TOURNAMENT_SIZE, GAConfig, gaussian_mutation,
                 tournament_select, uniform_crossover)
from .pareto import ParetoArchive
from .problem import OptimizationProblem

__all__ = ["WBGAResult", "normalise_weights", "run_wbga"]


def normalise_weights(raw_weights: np.ndarray) -> np.ndarray:
    """Equation (4): scale weight vectors to sum to one.

    Degenerate all-zero vectors fall back to equal weighting.
    """
    raw_weights = np.atleast_2d(np.asarray(raw_weights, dtype=float))
    totals = raw_weights.sum(axis=1, keepdims=True)
    m = raw_weights.shape[1]
    equal = np.full_like(raw_weights, 1.0 / m)
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = raw_weights / totals
    return np.where(totals > 1e-12, scaled, equal)


@dataclass
class WBGAResult(ParetoArchive):
    """Everything a WBGA run produced.

    Attributes
    ----------
    all_parameters:
        Normalised parameters of every evaluated individual, ``(E, P)``
        (``E = generations * population``; the paper's 10,000).
    all_objectives:
        Natural-unit objective values, ``(E, M)``.
    annotations:
        Optional per-individual side channel aligned with
        ``all_parameters`` rows (see
        :class:`~repro.moo.pareto.ParetoArchive`).
    """

    problem: OptimizationProblem
    config: GAConfig
    all_parameters: np.ndarray
    all_objectives: np.ndarray
    annotations: dict[str, np.ndarray] | None = None


def _equation5_fitness(oriented: np.ndarray, weights: np.ndarray,
                       f_min: np.ndarray, f_max: np.ndarray) -> np.ndarray:
    """Equation (5): weighted sum of min-max normalised objectives."""
    span = f_max - f_min
    with np.errstate(invalid="ignore", divide="ignore"):
        normalised = (oriented - f_min) / span
    normalised = np.where(span > 1e-300, normalised, 0.5)
    return np.sum(weights * normalised, axis=1)


def run_wbga(problem: OptimizationProblem,
             config: GAConfig | None = None,
             *, rng: np.random.Generator | None = None) -> WBGAResult:
    """Run the paper's WBGA on ``problem``.

    Parameters
    ----------
    problem:
        A batch-evaluable :class:`OptimizationProblem`.
    config:
        GA settings; the default replicates the paper's 100 x 100 run.
    rng:
        Source of randomness (defaults to ``default_rng(config.seed)``).

    Returns
    -------
    :class:`WBGAResult` with the complete evaluation history; the Pareto
    front (section 3.3) is available via :meth:`WBGAResult.pareto_mask`.
    """
    config = config or GAConfig()
    if problem.n_objectives < 1:
        raise OptimizationError("problem has no objectives")
    rng = rng or np.random.default_rng(config.seed)

    n_params = problem.n_parameters
    n_obj = problem.n_objectives
    pop = config.population_size
    chromosome = rng.random((pop, n_params + n_obj))

    history_params, history_obj = [], []
    f_min = np.full(n_obj, np.inf)
    f_max = np.full(n_obj, -np.inf)

    for generation in range(config.generations):
        params = chromosome[:, :n_params]
        objectives = problem(params)               # (B, M) natural units
        history_params.append(params.copy())
        history_obj.append(objectives.copy())
        if generation == config.generations - 1:
            break

        weights = normalise_weights(chromosome[:, n_params:])
        oriented = problem.oriented(objectives)    # maximisation frame
        finite = np.isfinite(oriented)
        if np.any(finite):
            f_min = np.minimum(f_min, np.nanmin(
                np.where(finite, oriented, np.inf), axis=0))
            f_max = np.maximum(f_max, np.nanmax(
                np.where(finite, oriented, -np.inf), axis=0))
        fitness = _equation5_fitness(oriented, weights, f_min, f_max)
        fitness = np.where(np.all(finite, axis=1), fitness, -np.inf)

        # Elitism: carry the best strings over unchanged.
        elite_idx = np.argsort(fitness)[::-1][:ELITE_COUNT]
        elites = chromosome[elite_idx]

        # Selection -> crossover -> mutation on the full GA string
        # (parameters and weights evolve together, as in the paper).
        n_children = pop - ELITE_COUNT
        parents_a = chromosome[tournament_select(
            fitness, n_children, TOURNAMENT_SIZE, rng)]
        parents_b = chromosome[tournament_select(
            fitness, n_children, TOURNAMENT_SIZE, rng)]
        children = uniform_crossover(parents_a, parents_b,
                                     CROSSOVER_RATE, rng)
        children = gaussian_mutation(children, MUTATION_RATE,
                                     MUTATION_SIGMA, rng)
        chromosome = np.vstack([elites, children])

    return WBGAResult(
        problem=problem,
        config=config,
        all_parameters=np.concatenate(history_params, axis=0),
        all_objectives=np.concatenate(history_obj, axis=0),
    )
