"""Genetic-algorithm building blocks.

Real-coded GA operators over normalised ``[0, 1]`` chromosomes, shared by
the paper's WBGA (:mod:`repro.moo.wbga`) and the NSGA-II reference
implementation (:mod:`repro.moo.nsga2`):

* binary tournament selection,
* uniform crossover,
* simulated binary crossover (SBX) and polynomial mutation (Deb's
  operators, used by NSGA-II),
* Gaussian mutation with reflection at the bounds.

All operators are vectorised over the whole mating pool and driven by an
explicit :class:`numpy.random.Generator` so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import OptimizationError

__all__ = ["GAConfig", "tournament_select", "uniform_crossover",
           "sbx_crossover", "gaussian_mutation", "polynomial_mutation",
           "reflect_into_bounds"]


#: Operator settings shared by both optimisers.
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.1     # per-gene probability
MUTATION_SIGMA = 0.08   # Gaussian mutation width (unit space)
TOURNAMENT_SIZE = 2
ELITE_COUNT = 2         # WBGA survivors copied unchanged per generation
SBX_ETA = 15.0          # SBX distribution index
MUTATION_ETA = 20.0     # polynomial-mutation distribution index


@dataclass(frozen=True)
class GAConfig:
    """Shared GA settings (defaults follow the paper's section 4.2 run:
    100 individuals for 100 generations)."""

    population_size: int = 100
    generations: int = 100
    seed: int = 2008                 # DATE 2008 -- the reproduction default

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise OptimizationError("population_size must be >= 2")
        if ELITE_COUNT >= self.population_size:
            raise OptimizationError(
                f"population_size must exceed the {ELITE_COUNT} elites")


def tournament_select(fitness: np.ndarray, count: int, size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Select ``count`` parent indices by ``size``-way tournaments.

    ``fitness`` is maximised; NaN fitness always loses.
    """
    fitness = np.asarray(fitness, dtype=float)
    fitness = np.where(np.isnan(fitness), -np.inf, fitness)
    entrants = rng.integers(0, fitness.size, size=(count, size))
    winner_pos = np.argmax(fitness[entrants], axis=1)
    return entrants[np.arange(count), winner_pos]


def reflect_into_bounds(genes: np.ndarray) -> np.ndarray:
    """Reflect out-of-range unit genes back into ``[0, 1]``.

    Reflection (rather than clipping) avoids probability mass piling up on
    the bounds during long mutation-heavy runs.
    """
    reflected = np.mod(genes, 2.0)
    return np.where(reflected > 1.0, 2.0 - reflected, reflected)


def uniform_crossover(parents_a: np.ndarray, parents_b: np.ndarray,
                      rate: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform crossover: each gene copied from either parent with p=0.5.

    Pairs skip crossover entirely with probability ``1 - rate`` (child =
    parent A).
    """
    take_b = rng.random(parents_a.shape) < 0.5
    children = np.where(take_b, parents_b, parents_a)
    skip = rng.random(parents_a.shape[0]) >= rate
    children[skip] = parents_a[skip]
    return children


def sbx_crossover(parents_a: np.ndarray, parents_b: np.ndarray,
                  rate: float, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover (Deb & Agrawal) on unit genes, with
    distribution index :data:`SBX_ETA`.

    Returns two children per pair.
    """
    eta = SBX_ETA
    u = rng.random(parents_a.shape)
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)))
    mean = 0.5 * (parents_a + parents_b)
    diff = 0.5 * np.abs(parents_b - parents_a)
    child_a = mean - beta * diff
    child_b = mean + beta * diff
    skip = rng.random(parents_a.shape[0]) >= rate
    child_a[skip] = parents_a[skip]
    child_b[skip] = parents_b[skip]
    return (np.clip(child_a, 0.0, 1.0), np.clip(child_b, 0.0, 1.0))


def gaussian_mutation(genes: np.ndarray, rate: float, sigma: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Per-gene Gaussian mutation with reflection at the unit bounds."""
    mutate = rng.random(genes.shape) < rate
    noise = rng.normal(0.0, sigma, genes.shape)
    return reflect_into_bounds(genes + mutate * noise)


def polynomial_mutation(genes: np.ndarray, rate: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Deb's polynomial mutation on unit genes, with distribution index
    :data:`MUTATION_ETA`."""
    eta = MUTATION_ETA
    u = rng.random(genes.shape)
    mutate = rng.random(genes.shape) < rate
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)))
    return np.clip(genes + mutate * delta, 0.0, 1.0)
