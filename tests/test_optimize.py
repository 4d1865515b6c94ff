"""In-loop yield optimisation tests (repro.optimize).

The circuit is replaced by a synthetic linear performance over the
sigma-unit global process space, so every candidate's true yield is the
closed-form ``Phi(offset / ||coefficients||)`` -- the ladder's accuracy,
escalation logic, budget handling, and backend invariance can all be
checked against analytic truth at trivial cost.
"""

import math

import numpy as np
import pytest

from repro import telemetry
from repro.errors import OptimizationError, ReproError
from repro.exec import SerialBackend
from repro.measure import Spec, SpecSet
from repro.moo import GAConfig, run_wbga
from repro.moo.problem import Objective
from repro.optimize import (EstimatorLadder, LadderConfig,
                            YieldAugmentedProblem, YieldSearchConfig,
                            format_guardband_comparison,
                            format_ladder_summary, format_yield_front,
                            ota_evaluator_factory, run_yield_search)
from repro.optimize.ladder import SURROGATE_KIND, _derived_seed
from repro.process import C35
from repro.surrogate.regression import SURROGATE_KINDS, fit_surrogate
from repro.telemetry import load_events
from repro.yieldmodel import (ImportanceSamplingConfig,
                              estimate_yield_importance)
from function_problem import FunctionProblem

COEFS = np.array([1.0, 0.5, -0.8, 0.3, 0.2])
NORM = float(np.linalg.norm(COEFS))

SPECS = SpecSet([Spec("perf", "ge", 0.0)])


def offsets_of(unit_params):
    """Candidate offset: the second normalised parameter mapped to
    [-4, 4] sigma-equivalents."""
    unit_params = np.atleast_2d(unit_params)
    column = unit_params[:, 1] if unit_params.shape[1] > 1 \
        else unit_params[:, 0]
    return 8.0 * column - 4.0


def synthetic_factory(unit_params):
    offsets = offsets_of(unit_params)

    def evaluate(point_indices, repeats, die_sample):
        x = C35.sigma_coordinates(die_sample)
        base = np.repeat(offsets[point_indices], repeats)
        return {"perf": base + x @ COEFS}

    return evaluate


def true_yield(offset):
    return 0.5 * (1.0 + math.erf(offset / NORM / math.sqrt(2.0)))


def fast_config(**overrides):
    settings = dict(seed=7, surrogate_train=24, surrogate_population=1500,
                    is_pilot=40, is_samples=120, include_mismatch=False)
    settings.update(overrides)
    return LadderConfig(**settings)


def ladder_with(config=None, ledger=None):
    return EstimatorLadder(synthetic_factory, SPECS, C35,
                           config or fast_config(), ledger=ledger)


def spread_unit_params(n=9):
    """Candidates sweeping the offset range (second column varied)."""
    unit = np.full((n, 2), 0.5)
    unit[:, 1] = np.linspace(0.0, 1.0, n)
    return unit


class TestLadderConfig:
    def test_fidelity_bounds_validated(self):
        with pytest.raises(OptimizationError):
            LadderConfig(min_fidelity=3)
        with pytest.raises(OptimizationError):
            LadderConfig(min_fidelity=2, max_fidelity=1)

    def test_bad_surrogate_kind_rejected(self):
        # The fidelity-1 surrogate family is fixed; it must be a kind
        # fit_surrogate knows, which rejects any other.
        assert SURROGATE_KIND in SURROGATE_KINDS
        with pytest.raises(ReproError):
            fit_surrogate("cubist", np.zeros((4, 5)), np.zeros(4))

    def test_target_validated(self):
        with pytest.raises(OptimizationError):
            LadderConfig(yield_target=1.5)

    def test_chunk_lanes_validated(self):
        with pytest.raises(OptimizationError, match="chunk_lanes"):
            LadderConfig(chunk_lanes=0)

    def test_default_grid_is_nominal_only(self):
        grid = LadderConfig().corner_grid(C35)
        assert grid.vdds == (C35.supply,)
        assert grid.temps_c == (27.0,)
        assert set(grid.corners) == set(C35.corners)

    def test_fidelity_costs(self):
        config = fast_config()
        assert config.fidelity_cost(0, C35) == \
            config.corner_grid(C35).size
        assert config.fidelity_cost(1, C35) == config.surrogate_train
        assert config.fidelity_cost(2, C35) == \
            config.is_pilot + config.is_samples


class TestEstimatorLadder:
    @pytest.fixture(scope="class")
    def batch(self):
        ladder = ladder_with()
        unit = spread_unit_params()
        return ladder, ladder.estimate_batch(unit), offsets_of(unit)

    def test_extremes_resolve_at_corner_fidelity(self, batch):
        _, estimate, offsets = batch
        assert estimate.fidelity[0] == 0      # offset -4: hopeless
        assert estimate.fidelity[-1] == 0     # offset +4: bulletproof
        assert estimate.yield_estimate[0] < 0.1
        assert estimate.yield_estimate[-1] > 0.9

    def test_boundary_candidates_escalate(self, batch):
        _, estimate, offsets = batch
        boundary = [i for i, o in enumerate(offsets)
                    if 0.05 < true_yield(o) < 0.995]
        assert boundary
        assert all(estimate.fidelity[i] >= 1 for i in boundary)

    def test_estimates_track_analytic_truth(self, batch):
        _, estimate, offsets = batch
        for i, offset in enumerate(offsets):
            truth = true_yield(offset)
            error = abs(estimate.yield_estimate[i] - truth)
            assert error <= max(5.0 * estimate.std_error[i], 0.05), \
                f"offset {offset:+.2f}: est {estimate.yield_estimate[i]:.3f} " \
                f"vs truth {truth:.3f}"

    def test_robust_z_monotone_in_offset(self, batch):
        _, estimate, _ = batch
        assert np.all(np.diff(estimate.robust_z) >= -1e-9)

    def test_sims_accounting_consistent(self, batch):
        ladder, estimate, _ = batch
        assert int(estimate.sims.sum()) == ladder.counts.total_sims
        assert ladder.counts.total_candidates == estimate.size
        # The ledger carries the same totals, split by fidelity stage.
        ledger_total = sum(record.simulations
                           for name, record in ladder.ledger.stages.items()
                           if name.startswith("yield ladder:"))
        assert ledger_total == ladder.counts.total_sims

    def test_counts_table_mentions_every_fidelity(self, batch):
        ladder, _, _ = batch
        table = ladder.counts.table()
        for name in ("corner bounds", "surrogate classification",
                     "importance sampling", "TOTAL"):
            assert name in table

    def test_bit_identical_across_backends(self):
        unit = spread_unit_params(7)
        results = []
        for backend in ("serial", "thread:2"):
            ladder = ladder_with(fast_config(backend=backend))
            results.append(ladder.estimate_batch(unit))
        np.testing.assert_array_equal(results[0].yield_estimate,
                                      results[1].yield_estimate)
        np.testing.assert_array_equal(results[0].std_error,
                                      results[1].std_error)
        np.testing.assert_array_equal(results[0].fidelity,
                                      results[1].fidelity)

    def test_min_fidelity_forces_full_mc(self):
        ladder = ladder_with(fast_config(min_fidelity=2))
        estimate = ladder.estimate_batch(spread_unit_params(5))
        assert np.all(estimate.fidelity == 2)
        assert ladder.counts.sims[0] == 0
        assert ladder.counts.sims[1] == 0
        # robust_z undefined without the corner stage.
        assert np.all(np.isnan(estimate.robust_z))

    def test_max_fidelity_zero_is_corners_only(self):
        ladder = ladder_with(fast_config(max_fidelity=0))
        estimate = ladder.estimate_batch(spread_unit_params(5))
        assert np.all(estimate.fidelity == 0)
        assert np.all(np.isfinite(estimate.robust_z))
        assert ladder.counts.total_sims == \
            5 * ladder.grid.size

    def test_fidelity_budget_caps_escalation(self):
        grid_size = LadderConfig().corner_grid(C35).size
        unit = spread_unit_params(9)
        # Budget: corners for everyone + surrogate for at most two.
        budget = 9 * grid_size + 2 * 24
        ladder = ladder_with(fast_config(fidelity_budget=budget))
        estimate = ladder.estimate_batch(unit)
        assert ladder.counts.budget_exhausted
        assert ladder.counts.total_sims <= budget
        assert np.count_nonzero(estimate.fidelity == 1) <= 2
        assert np.count_nonzero(estimate.fidelity == 2) == 0
        # Everyone still has a (fidelity-0) estimate.
        assert np.all(np.isfinite(estimate.yield_estimate))

    def test_second_batch_uses_fresh_streams(self):
        ladder = ladder_with()
        unit = spread_unit_params(5)
        first = ladder.estimate_batch(unit)
        second = ladder.estimate_batch(unit)
        # Same candidates, different uids: estimates at escalated
        # fidelities must differ (independent draws), corners agree.
        escalated = first.fidelity >= 1
        assert np.any(escalated)
        assert not np.array_equal(first.yield_estimate[escalated],
                                  second.yield_estimate[escalated])


def mismatch_factory(unit_params):
    """Synthetic evaluator that also consumes per-device mismatch, with
    per-candidate gate geometry (the first normalised parameter)."""
    offsets = offsets_of(unit_params)
    widths = 10e-6 + 50e-6 * np.atleast_2d(unit_params)[:, 0]

    def evaluate(point_indices, repeats, die_sample):
        x = C35.sigma_coordinates(die_sample)
        w = np.repeat(widths[point_indices], repeats)
        dvt_n, _ = die_sample.device_variation(C35.nmos, w, 1e-6)
        _, beta_p = die_sample.device_variation(C35.pmos, 2e-6, 0.5e-6)
        base = np.repeat(offsets[point_indices], repeats)
        return {"perf": base + x @ COEFS + 50.0 * dvt_n + 5.0 * beta_p}

    return evaluate


def per_candidate_oracle(factory, specs, unit, config):
    """The IS rung's answer computed one candidate at a time, each with
    its own evaluator calls (first batch: uid == candidate index)."""
    evaluator = factory(unit)
    yields, errors = [], []
    for index in range(len(unit)):
        estimate = estimate_yield_importance(
            lambda sample, index=index: evaluator(np.array([index]),
                                                  sample.size, sample),
            specs, C35, ImportanceSamplingConfig(
                n_samples=config.is_samples, pilot_samples=config.is_pilot,
                seed=_derived_seed(config.seed, f"ladder-is-{index}"),
                include_mismatch=config.include_mismatch))
        yields.append(estimate.yield_estimate)
        errors.append(estimate.std_error)
    return np.clip(yields, 0.0, 1.0), np.array(errors)


class TestSurrogateRungInvariance:
    """The fidelity-1 rung draws every candidate's training mismatch
    from its own stream, so its estimates do not depend on the chunk
    geometry, the backend or which candidates share a chunk."""

    def test_equal_across_chunk_lanes_and_backends(self):
        unit = spread_unit_params(6)
        unit[:, 0] = np.linspace(0.0, 1.0, 6)
        results = [EstimatorLadder(
            mismatch_factory, SPECS, C35,
            fast_config(min_fidelity=1, max_fidelity=1,
                        include_mismatch=True, backend=backend,
                        chunk_lanes=chunk_lanes)).estimate_batch(unit)
            # None: the environment's backend (a fork pool in the CI
            # backend smoke), compared against explicit ones.
            for backend, chunk_lanes in [(None, 4000), ("serial", 24),
                                         ("serial", 48), ("thread:2", 48)]]
        assert np.all(results[0].fidelity == 1)
        for other in results[1:]:
            assert np.array_equal(other.yield_estimate,
                                  results[0].yield_estimate)
            assert np.array_equal(other.std_error, results[0].std_error)
            assert np.array_equal(other.refused, results[0].refused)


class TestStackedImportanceRung:
    """The fidelity-2 rung evaluates every candidate's pilot in one
    stacked pass and every main run in another; each estimate must be
    bitwise equal to a per-candidate ``estimate_yield_importance``."""

    @pytest.mark.parametrize("include_mismatch", [True, False])
    @pytest.mark.parametrize("n_points", [1, 16])
    @pytest.mark.parametrize("backend,chunk_lanes", [
        ("serial", 4000), ("serial", 250), ("thread:2", 250),
        ("process:2", 250)])
    def test_equals_per_candidate_estimates(self, include_mismatch,
                                            n_points, backend, chunk_lanes):
        # chunk_lanes=250 splits the candidates over several chunks
        # (6 pilots of 40 lanes, 2 main runs of 120 lanes per chunk).
        config = fast_config(min_fidelity=2,
                             include_mismatch=include_mismatch,
                             backend=backend, chunk_lanes=chunk_lanes)
        unit = spread_unit_params(n_points)
        unit[:, 0] = np.linspace(0.0, 1.0, n_points)
        estimate = EstimatorLadder(mismatch_factory, SPECS, C35,
                                   config).estimate_batch(unit)
        assert np.all(estimate.fidelity == 2)
        yields, errors = per_candidate_oracle(mismatch_factory, SPECS, unit,
                                              config)
        assert np.array_equal(estimate.yield_estimate, yields)
        assert np.array_equal(estimate.std_error, errors)

    def test_mismatch_reaches_the_estimate(self):
        unit = spread_unit_params(4)
        on, off = (EstimatorLadder(
            mismatch_factory, SPECS, C35,
            fast_config(min_fidelity=2, include_mismatch=flag)
        ).estimate_batch(unit) for flag in (True, False))
        assert not np.array_equal(on.yield_estimate, off.yield_estimate)

    def test_ota_circuit_equals_per_candidate_estimates(self):
        # The real circuit stack: stacked DC/AC lanes of several
        # candidates must solve exactly as each candidate alone.
        specs = SpecSet([Spec("gain_db", "ge", 50.0, "dB"),
                         Spec("pm_deg", "ge", 60.0, "deg")])
        config = LadderConfig(seed=3, min_fidelity=2, is_pilot=8,
                              is_samples=16, chunk_lanes=40)
        unit = np.random.default_rng(4).uniform(0.1, 0.9, (4, 8))
        factory = ota_evaluator_factory(pdk=C35)
        estimate = EstimatorLadder(factory, specs, C35,
                                   config).estimate_batch(unit)
        yields, errors = per_candidate_oracle(factory, specs, unit, config)
        assert np.array_equal(estimate.yield_estimate, yields)
        assert np.array_equal(estimate.std_error, errors)

    def test_passes_split_over_backend_workers(self):
        # A pass that fits one chunk still gets one chunk per worker, so
        # a parallel backend keeps every worker busy.
        class RecordingBackend(SerialBackend):
            def __init__(self):
                super().__init__()
                self.workers = 3
                self.calls = []

            def run(self, fn, tasks, progress=None):
                self.calls.append(list(tasks))
                return super().run(fn, tasks, progress)

        backend = RecordingBackend()
        config = fast_config(min_fidelity=2, backend=backend)
        unit = spread_unit_params(16)
        estimate = EstimatorLadder(synthetic_factory, SPECS, C35,
                                   config).estimate_batch(unit)
        pilot, main = backend.calls[-2:]
        assert pilot == main == [(0, 6), (6, 12), (12, 16)]
        serial = EstimatorLadder(
            synthetic_factory, SPECS, C35,
            fast_config(min_fidelity=2)).estimate_batch(unit)
        assert np.array_equal(estimate.yield_estimate, serial.yield_estimate)
        assert np.array_equal(estimate.std_error, serial.std_error)

    def test_one_pilot_and_one_main_pass(self, tmp_path):
        path = tmp_path / "events.jsonl"
        config = fast_config(min_fidelity=2)
        before = telemetry.REGISTRY.counter_value("estimator.simulations")
        with telemetry.session(path):
            EstimatorLadder(synthetic_factory, SPECS, C35,
                            config).estimate_batch(spread_unit_params(5))
        spent = telemetry.REGISTRY.counter_value(
            "estimator.simulations") - before
        assert spent == 5 * (config.is_pilot + config.is_samples)
        opens = [e for e in load_events(path) if e["type"] == "span_open"]
        for stage, size in (("pilot", config.is_pilot),
                            ("main", config.is_samples)):
            spans = [e for e in opens
                     if e["name"] == f"yield.importance.{stage}"]
            assert len(spans) == 1
            assert spans[0]["attrs"]["samples"] == 5 * size


def base_problem():
    """Two-parameter base problem: a (f1, f2) trade-off along u0,
    yield driven by u1 through the synthetic evaluator."""
    def function(unit):
        return np.stack([unit[:, 0], 1.0 - unit[:, 0]], axis=1)

    return FunctionProblem(function, ("u0", "u1"),
                           (Objective("f1", "maximize"),
                            Objective("f2", "maximize")))


class TestYieldAugmentedProblem:
    def test_yield_mode_appends_objective(self):
        problem = YieldAugmentedProblem(base_problem(), ladder_with(),
                                        mode="yield")
        assert problem.objective_names() == ("f1", "f2", "yield_frac")
        values = problem(spread_unit_params(5))
        assert values.shape == (5, 3)
        assert np.all((values[:, 2] >= 0) & (values[:, 2] <= 1))
        # Yield rises with u1 by construction.
        assert values[-1, 2] > values[0, 2]

    def test_ksigma_mode_appends_robustness(self):
        problem = YieldAugmentedProblem(
            base_problem(), ladder_with(fast_config(max_fidelity=0)),
            mode="ksigma")
        assert problem.objective_names() == ("f1", "f2", "robust_z")
        values = problem(spread_unit_params(5))
        assert np.all(np.diff(values[:, 2]) >= -1e-9)

    def test_chance_mode_penalises_deficit(self):
        problem = YieldAugmentedProblem(base_problem(), ladder_with(),
                                        mode="chance", yield_target=0.9)
        assert problem.objective_names() == ("f1", "f2")
        unit = np.array([[0.7, 0.0],    # yield ~ 0: heavy penalty
                         [0.7, 1.0]])   # yield ~ 1: no penalty
        values = problem(unit)
        assert values[0, 0] < values[1, 0]
        assert values[0, 1] < values[1, 1]
        assert values[1, 0] == pytest.approx(0.7, abs=1e-9)

    def test_annotations_aligned_with_archive(self):
        problem = YieldAugmentedProblem(base_problem(), ladder_with())
        problem(spread_unit_params(4))
        problem(spread_unit_params(3))
        annotations = problem.annotations()
        assert set(annotations) == {"yield", "yield_std_error", "fidelity",
                                    "ladder_sims", "robust_z"}
        assert all(values.shape == (7,) for values in annotations.values())

    def test_unknown_mode_rejected(self):
        with pytest.raises(OptimizationError):
            YieldAugmentedProblem(base_problem(), ladder_with(),
                                  mode="hope")


def search_config(**overrides):
    settings = dict(generations=5, population=12, seed=11,
                    ladder=fast_config())
    settings.update(overrides)
    return YieldSearchConfig(**settings)


class TestRunYieldSearch:
    @pytest.fixture(scope="class")
    def search(self):
        return run_yield_search(base_problem(), synthetic_factory, SPECS,
                                C35, search_config())

    def test_front_is_three_objective(self, search):
        assert search.objective_names == ("f1", "f2", "yield_frac")
        front = search.front_objectives()
        assert front.shape[1] == 3
        assert front.shape[0] == search.front_count() > 0

    def test_annotations_cover_archive_and_front(self, search):
        annotations = search.result.annotations
        assert annotations["yield"].shape == \
            (search.result.evaluations,)
        front_annotations = search.front_annotations()
        assert front_annotations["yield"].shape == \
            (search.front_count(),)

    def test_hypervolume_positive_and_shiftable(self, search):
        reference = (-0.01, -0.01, -0.01)
        hv = search.hypervolume(reference)
        assert hv > 0.0
        # A lower reference corner dominates more volume.
        assert search.hypervolume((-0.05, -0.05, -0.05)) >= hv
        assert search.hypervolume() > 0.0

    def test_ladder_target_and_seed_overridden(self, search):
        assert search.problem.ladder.config.yield_target == \
            search.config.yield_target
        assert search.problem.ladder.config.seed == search.config.seed

    def test_reports_render(self, search):
        assert "yield-annotated Pareto front" in format_yield_front(search)
        assert "corner bounds" in format_ladder_summary(search.counts)
        comparison = format_guardband_comparison(
            search, "reference", {"f1": 0.5, "f2": 0.5})
        assert "reference" in comparison
        assert "target yield" in comparison
        assert "yield-aware search" in search.describe()

    def test_deterministic_repeat(self, search):
        repeat = run_yield_search(base_problem(), synthetic_factory, SPECS,
                                  C35, search_config())
        np.testing.assert_array_equal(repeat.result.all_objectives,
                                      search.result.all_objectives)
        np.testing.assert_array_equal(repeat.result.annotations["yield"],
                                      search.result.annotations["yield"])

    def test_wbga_optimizer_path(self):
        # The yield search runs NSGA-II; the paper's WBGA still drives a
        # yield-augmented problem directly.
        problem = YieldAugmentedProblem(base_problem(), ladder_with())
        result = run_wbga(problem, GAConfig(population_size=10,
                                            generations=4, seed=11))
        result.annotations = problem.annotations()
        assert result.pareto_count() > 0
        assert result.annotations["yield"].shape == (result.evaluations,)

    def test_ksigma_mode_caps_ladder(self):
        result = run_yield_search(
            base_problem(), synthetic_factory, SPECS, C35,
            search_config(mode="ksigma", generations=4, population=10))
        assert result.counts.sims[1] == 0
        assert result.counts.sims[2] == 0
        assert result.objective_names[-1] == "robust_z"

    def test_bad_config_rejected(self):
        with pytest.raises(OptimizationError):
            YieldSearchConfig(mode="wish")
