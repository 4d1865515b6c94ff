"""Optimiser tests: GA operators, the paper's WBGA, NSGA-II."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import OptimizationError
from repro.moo import GAConfig, Objective, normalise_weights, run_nsga2, run_wbga
from repro.moo.ga import (gaussian_mutation, polynomial_mutation,
                          reflect_into_bounds, sbx_crossover,
                          tournament_select, uniform_crossover)
from repro.moo.wbga import _equation5_fitness
from function_problem import FunctionProblem


def make_problem(fn, n_params, objectives):
    names = [f"p{i}" for i in range(n_params)]
    return FunctionProblem(fn, names, objectives)


def schaffer(u):
    """Schaffer's two-objective problem on [0,1] mapped to x in [-2, 4]:
    f1 = -x^2 (max), f2 = -(x-2)^2 (max); the true Pareto set is
    x in [0, 2]."""
    x = -2.0 + 6.0 * u[:, 0]
    return np.stack([-x ** 2, -(x - 2.0) ** 2], axis=1)


SCHAFFER_OBJECTIVES = (Objective("f1"), Objective("f2"))


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(OptimizationError):
            GAConfig(population_size=1)
        with pytest.raises(OptimizationError, match="elites"):
            GAConfig(population_size=2)


class TestOperators:
    def test_tournament_prefers_fit(self):
        rng = np.random.default_rng(0)
        fitness = np.array([0.0, 10.0, 0.0, 0.0])
        winners = tournament_select(fitness, 500, 2, rng)
        # With 4 entrants, P(best appears in a 2-tournament) = 1-(3/4)^2
        # = 0.4375 -- well above the uniform 0.25.
        assert np.mean(winners == 1) > 0.35

    def test_tournament_nan_always_loses(self):
        rng = np.random.default_rng(0)
        fitness = np.array([np.nan, 1.0])
        winners = tournament_select(fitness, 100, 2, rng)
        # NaN only wins tournaments where it faces itself.
        a_vs_b = winners[np.isin(winners, [0, 1])]
        assert np.mean(a_vs_b == 1) > 0.6

    @given(st.lists(st.floats(-3, 4), min_size=1, max_size=20))
    def test_reflect_into_bounds(self, raw):
        reflected = reflect_into_bounds(np.asarray(raw))
        assert np.all(reflected >= 0.0) and np.all(reflected <= 1.0)

    def test_reflection_preserves_interior(self):
        genes = np.array([0.25, 0.5, 0.99])
        np.testing.assert_allclose(reflect_into_bounds(genes), genes)

    def test_uniform_crossover_takes_genes_from_parents(self):
        rng = np.random.default_rng(1)
        a = np.zeros((64, 6))
        b = np.ones((64, 6))
        children = uniform_crossover(a, b, 1.0, rng)
        assert set(np.unique(children)) <= {0.0, 1.0}
        assert 0.3 < children.mean() < 0.7

    def test_crossover_rate_zero_copies_parent_a(self):
        rng = np.random.default_rng(1)
        a = np.zeros((8, 3))
        b = np.ones((8, 3))
        children = uniform_crossover(a, b, 0.0, rng)
        np.testing.assert_array_equal(children, a)

    def test_sbx_children_in_bounds_and_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.random((64, 5))
        b = rng.random((64, 5))
        c1, c2 = sbx_crossover(a, b, 1.0, rng)
        for c in (c1, c2):
            assert np.all(c >= 0) and np.all(c <= 1)
        # SBX preserves the pair mean where no clipping occurred.
        interior = ((c1 > 0) & (c1 < 1) & (c2 > 0) & (c2 < 1))
        np.testing.assert_allclose((c1 + c2)[interior],
                                   (a + b)[interior], atol=1e-9)

    @given(st.floats(0.0, 1.0))
    def test_gaussian_mutation_bounds(self, rate):
        rng = np.random.default_rng(4)
        genes = rng.random((16, 4))
        mutated = gaussian_mutation(genes, rate, 0.3, rng)
        assert np.all(mutated >= 0) and np.all(mutated <= 1)

    def test_polynomial_mutation_bounds(self):
        rng = np.random.default_rng(5)
        genes = rng.random((16, 4))
        mutated = polynomial_mutation(genes, 1.0, rng)
        assert np.all(mutated >= 0) and np.all(mutated <= 1)


class TestWeightNormalisation:
    def test_equation4(self):
        weights = normalise_weights(np.array([[2.0, 6.0]]))
        np.testing.assert_allclose(weights, [[0.25, 0.75]])

    def test_zero_vector_falls_back_to_equal(self):
        weights = normalise_weights(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(weights, [[1 / 3, 1 / 3, 1 / 3]])

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    def test_sums_to_one(self, raw):
        weights = normalise_weights(np.asarray([raw]))
        assert weights.sum() == pytest.approx(1.0)


class TestEquation5:
    def test_known_normalisation(self):
        oriented = np.array([[5.0, 10.0], [10.0, 20.0]])
        weights = np.array([[0.5, 0.5], [0.5, 0.5]])
        f_min = np.array([0.0, 0.0])
        f_max = np.array([10.0, 20.0])
        fitness = _equation5_fitness(oriented, weights, f_min, f_max)
        np.testing.assert_allclose(fitness, [0.5, 1.0])

    def test_degenerate_span(self):
        oriented = np.array([[5.0, 7.0]])
        weights = np.array([[1.0, 0.0]])
        fitness = _equation5_fitness(oriented, weights,
                                     np.array([5.0, 0.0]),
                                     np.array([5.0, 10.0]))
        assert fitness[0] == pytest.approx(0.5)  # constant objective -> 0.5


class TestWBGA:
    def test_single_objective_converges(self):
        def sphere(u):
            return -np.sum((u - 0.7) ** 2, axis=1, keepdims=True)

        problem = make_problem(sphere, 3, (Objective("f"),))
        result = run_wbga(problem, GAConfig(population_size=30,
                                            generations=40, seed=1))
        # Fitness is normalised per-generation, so locate the best by the
        # raw objective value.
        best = result.all_parameters[np.argmax(result.all_objectives[:, 0])]
        np.testing.assert_allclose(best, 0.7, atol=0.08)

    def test_archive_size_and_counters(self):
        problem = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        config = GAConfig(population_size=20, generations=10, seed=2)
        result = run_wbga(problem, config)
        assert result.evaluations == 200
        assert problem.evaluation_count == 200
        assert result.all_weights.shape == (200, 2)
        assert result.generation_of.max() == 9

    def test_schaffer_front_coverage(self):
        problem = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        result = run_wbga(problem, GAConfig(population_size=40,
                                            generations=30, seed=3))
        front = result.pareto_objectives()
        # The front satisfies sqrt(-f1) + sqrt(-f2) = 2.
        residual = np.sqrt(-front[:, 0]) + np.sqrt(-front[:, 1]) - 2.0
        # Finite sampling leaves stragglers near the front's ends; the
        # bulk must sit on the analytic front.
        assert np.median(np.abs(residual)) < 0.02
        assert np.max(np.abs(residual)) < 0.5
        assert result.pareto_count() > 10

    def test_reproducible(self):
        problem_a = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        problem_b = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        config = GAConfig(population_size=10, generations=5, seed=42)
        a = run_wbga(problem_a, config)
        b = run_wbga(problem_b, config)
        np.testing.assert_array_equal(a.all_parameters, b.all_parameters)

    def test_minimize_orientation(self):
        def fn(u):
            return np.stack([u[:, 0], (u[:, 0] - 1) ** 2], axis=1)

        problem = make_problem(
            fn, 1, (Objective("cost", "minimize"), Objective("err", "minimize")))
        result = run_wbga(problem, GAConfig(population_size=20,
                                            generations=15, seed=4))
        front = result.pareto_objectives()
        # Minimising both: small cost trades against small error.
        assert front[:, 0].min() < 0.1

    def test_nan_objectives_survive(self):
        def fn(u):
            values = np.stack([u[:, 0], 1 - u[:, 0]], axis=1)
            values[u[:, 0] > 0.9] = np.nan  # a "failed simulation" region
            return values

        problem = make_problem(fn, 1, SCHAFFER_OBJECTIVES)
        result = run_wbga(problem, GAConfig(population_size=16,
                                            generations=10, seed=5))
        assert result.pareto_count() >= 1
        assert not np.any(np.isnan(result.pareto_objectives()))

    def test_progress_callback(self):
        # Per-generation progress is recorded on the result: the best
        # fitness of every generation, in order.
        problem = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        result = run_wbga(problem, GAConfig(population_size=10,
                                            generations=4, seed=6))
        trace = result.best_fitness_per_generation
        assert trace.shape == (4,)
        for generation in range(4):
            assert trace[generation] == result.all_fitness[
                result.generation_of == generation].max()


class TestNSGA2:
    def test_schaffer_front(self):
        problem = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        result = run_nsga2(problem, GAConfig(population_size=24,
                                             generations=25, seed=7))
        front = result.final_objectives
        residual = np.sqrt(-front[:, 0]) + np.sqrt(-front[:, 1]) - 2.0
        assert np.median(np.abs(residual)) < 0.05

    def test_final_population_size(self):
        problem = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        config = GAConfig(population_size=16, generations=8, seed=8)
        result = run_nsga2(problem, config)
        assert result.final_parameters.shape == (16, 1)
        assert result.evaluations == 16 * 8

    def test_elitist_front_never_regresses(self):
        # NSGA-II environmental selection keeps non-dominated parents; the
        # final front must weakly dominate the first generation's best.
        problem = make_problem(schaffer, 1, SCHAFFER_OBJECTIVES)
        result = run_nsga2(problem, GAConfig(population_size=20,
                                             generations=20, seed=9))
        first_gen = result.all_objectives[:20]
        final = result.final_objectives
        assert final[:, 0].max() >= first_gen[:, 0].max() - 1e-9
        assert final[:, 1].max() >= first_gen[:, 1].max() - 1e-9
