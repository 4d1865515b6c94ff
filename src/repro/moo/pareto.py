"""Pareto dominance utilities.

Implements the paper's section 3.3: extracting the non-dominated
("Pareto-optimal") subset of all evaluated individuals.  The two conditions
quoted there are the textbook definition:

a) any two members of the optimal set are mutually non-dominated;
b) every solution outside the set is dominated by at least one member.

All functions use **maximisation** orientation (callers map minimisation
objectives through :meth:`OptimizationProblem.oriented` first).

For the common two-objective case a sort-and-scan algorithm gives
``O(N log N)``; the general case falls back to a chunked ``O(N^2)``
vectorised comparison that comfortably handles the paper's 10,000-point
population.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dominates", "non_dominated_mask", "pareto_front_indices",
           "crowding_distance", "fast_non_dominated_sort", "ParetoArchive"]


def dominates(a, b) -> bool:
    """Does point ``a`` dominate point ``b`` (maximisation)?

    ``a`` dominates ``b`` when it is no worse in every objective and
    strictly better in at least one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a >= b) and np.any(a > b))


def _mask_two_objectives(values: np.ndarray) -> np.ndarray:
    """Sort-and-scan non-dominated mask for exactly two objectives."""
    n = values.shape[0]
    # Sort by first objective descending; tie-break second descending so
    # duplicates in objective 0 are scanned best-second-objective first.
    order = np.lexsort((-values[:, 1], -values[:, 0]))
    mask = np.zeros(n, dtype=bool)
    best_second = -np.inf
    best_first_at_best_second = -np.inf
    for idx in order:
        f0, f1 = values[idx]
        if f1 > best_second:
            mask[idx] = True
            best_second = f1
            best_first_at_best_second = f0
        elif f1 == best_second and f0 == best_first_at_best_second:
            # Exact duplicate of a front member: also non-dominated.
            mask[idx] = True
    return mask


def _mask_general(values: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Chunked pairwise non-dominated mask for any objective count."""
    n = values.shape[0]
    mask = np.ones(n, dtype=bool)
    for start in range(0, n, chunk):
        block = values[start:start + chunk]  # (c, M)
        # dominated[i, j]: does values[j] dominate block[i]?
        no_worse = np.all(values[None, :, :] >= block[:, None, :], axis=2)
        better = np.any(values[None, :, :] > block[:, None, :], axis=2)
        dominated_by = no_worse & better
        mask[start:start + chunk] = ~dominated_by.any(axis=1)
    return mask


def non_dominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of ``values`` (``(N, M)``,
    maximisation orientation).  Rows containing NaN are never selected."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    finite = np.all(np.isfinite(values), axis=1)
    mask = np.zeros(values.shape[0], dtype=bool)
    if not np.any(finite):
        return mask
    subset = values[finite]
    if values.shape[1] == 2:
        sub_mask = _mask_two_objectives(subset)
    else:
        sub_mask = _mask_general(subset)
    mask[np.nonzero(finite)[0]] = sub_mask
    return mask


def pareto_front_indices(values: np.ndarray, *,
                         sort_by: int = 0) -> np.ndarray:
    """Indices of the Pareto front, sorted ascending by objective
    ``sort_by`` (handy for building monotone trade-off tables)."""
    mask = non_dominated_mask(values)
    indices = np.nonzero(mask)[0]
    order = np.argsort(np.atleast_2d(values)[indices, sort_by])
    return indices[order]


def crowding_distance(values: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row of ``values`` (``(N, M)``).

    Boundary points receive ``inf``; all distances are normalised by the
    per-objective range.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, m = values.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(values[:, j])
        column = values[order, j]
        span = column[-1] - column[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span <= 0:
            continue
        distance[order[1:-1]] += (column[2:] - column[:-2]) / span
    return distance


def fast_non_dominated_sort(values: np.ndarray) -> list[np.ndarray]:
    """Deb's fast non-dominated sort: list of fronts (index arrays),
    best front first.  Maximisation orientation."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    # Pairwise dominance matrix (N small enough inside NSGA-II populations).
    no_worse = np.all(values[:, None, :] >= values[None, :, :], axis=2)
    better = np.any(values[:, None, :] > values[None, :, :], axis=2)
    dominates_matrix = no_worse & better  # [i, j] = i dominates j

    domination_count = dominates_matrix.sum(axis=0)  # how many dominate j
    fronts: list[np.ndarray] = []
    remaining = domination_count.copy()
    assigned = np.zeros(n, dtype=bool)
    current = np.nonzero(remaining == 0)[0]
    while current.size:
        fronts.append(current)
        assigned[current] = True
        for i in current:
            remaining[dominates_matrix[i]] -= 1
        current = np.nonzero((remaining == 0) & ~assigned)[0]
    return fronts


class ParetoArchive:
    """Pareto views of an optimiser's archive of evaluated individuals.

    A field-less mixin for the optimiser result dataclasses (WBGA and
    NSGA-II), which provide ``problem``, ``all_parameters``,
    ``all_objectives`` and ``annotations``.  ``annotations`` is an
    optional per-individual side channel aligned with ``all_parameters``
    rows: the yield-aware search (:mod:`repro.optimize`) stores each
    individual's ladder yield estimate, standard error, fidelity and
    simulator cost there.
    """

    @property
    def evaluations(self) -> int:
        """Total evaluated individuals (Table 5 "Evaluation Samples")."""
        return self.all_parameters.shape[0]

    def pareto_mask(self) -> np.ndarray:
        """Non-dominated mask over all evaluated individuals."""
        return non_dominated_mask(self.problem.oriented(self.all_objectives))

    def pareto_parameters(self) -> np.ndarray:
        """Normalised parameters of the Pareto-optimal individuals."""
        return self.all_parameters[self.pareto_mask()]

    def pareto_objectives(self) -> np.ndarray:
        """Natural-unit objectives of the Pareto-optimal individuals."""
        return self.all_objectives[self.pareto_mask()]

    def pareto_count(self) -> int:
        """Number of Pareto points (the paper reports 1022)."""
        return int(np.count_nonzero(self.pareto_mask()))

    def pareto_annotations(self) -> dict[str, np.ndarray]:
        """The annotation columns restricted to the Pareto front
        (empty when no annotations were attached)."""
        if not self.annotations:
            return {}
        mask = self.pareto_mask()
        return {name: values[mask]
                for name, values in self.annotations.items()}
