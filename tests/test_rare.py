"""Rare-event (high-sigma) estimator tests.

The ground-truth classes run against the analytic linear-Gaussian
fixtures of :mod:`statcheck`, whose failure probability is *exactly*
``Phi(-beta)`` -- the only way to validate a 1e-9 estimate, since no
direct simulation could ever produce a reference at that level.  All
tolerances are CI-derived: the estimator is asked to contain the exact
truth in its own 99.9 % interval, so a correct implementation flakes
~once per thousand reruns per assertion and a biased one fails
deterministically.

The property-based classes (marked ``statistical``) check the
estimator's structural invariants: backend/worker bit-invariance,
monotonicity of the failure probability in the spec threshold, and
determinism of the splitting-level walk under a ``max_levels`` cap.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import YieldModelError
from repro.mc import MCConfig, child_streams, monte_carlo, stream
from repro.measure import Spec, SpecSet
from repro.process import C35, GLOBAL_DIMS
from repro.yieldmodel import (ImportanceSamplingConfig, RareEventConfig,
                              RareEventResult, RareLevel,
                              direct_mc_samples_for_halfwidth,
                              equivalent_sigma, estimate_yield,
                              estimate_yield_importance, estimate_yield_rare,
                              normal_interval, wilson_interval)
from statcheck import (intervals_overlap, linear_gaussian_problem,
                       normal_tail)


def _rare(problem, **overrides):
    """Run the estimator on an analytic fixture with test-scale budgets."""
    defaults = dict(n_per_level=1500, n_final=3000, include_mismatch=False,
                    confidence=0.999, chunk_lanes=1000)
    defaults.update(overrides)
    return estimate_yield_rare(problem.evaluator, problem.specs,
                               problem.pdk, RareEventConfig(**defaults))


class TestEquivalentSigma:
    def test_round_trips_the_normal_tail(self):
        for beta in (0.0, 1.0, 2.0, 4.0, 6.0):
            assert equivalent_sigma(normal_tail(beta)) == \
                pytest.approx(beta, abs=1e-6)

    def test_edge_cases(self):
        assert equivalent_sigma(0.0) == np.inf
        assert equivalent_sigma(0.5) == pytest.approx(0.0, abs=1e-9)
        assert equivalent_sigma(0.9) < 0.0
        with pytest.raises(YieldModelError):
            equivalent_sigma(-0.1)
        with pytest.raises(YieldModelError):
            equivalent_sigma(1.5)

    def test_direct_mc_equivalent_count(self):
        # 10 % relative precision on a 1e-6 failure rate at 95 %:
        # n = z^2 p (1-p) / h^2 ~ 3.84e8 -- the cost direct MC would pay.
        n = direct_mc_samples_for_halfwidth(1e-6, 1e-7, 0.95)
        assert n == pytest.approx(3.84e8, rel=0.01)
        with pytest.raises(YieldModelError):
            direct_mc_samples_for_halfwidth(0.0, 0.1)
        with pytest.raises(YieldModelError):
            direct_mc_samples_for_halfwidth(0.5, 0.0)


class TestConfigValidation:
    def test_bad_budgets_rejected(self):
        with pytest.raises(YieldModelError):
            RareEventConfig(n_per_level=1)
        with pytest.raises(YieldModelError):
            RareEventConfig(n_final=0)
        with pytest.raises(YieldModelError):
            RareEventConfig(max_levels=0)
        with pytest.raises(YieldModelError):
            RareEventConfig(level_quantile=1.0)
        with pytest.raises(YieldModelError):
            RareEventConfig(max_shift_sigma=0.0)
        with pytest.raises(YieldModelError):
            RareEventConfig(chunk_lanes=0)


class TestGroundTruth:
    """The acceptance-criteria checks: exact Phi(-beta) at 4/5/6 sigma."""

    @pytest.mark.parametrize("beta", [4.0, 5.0, 6.0])
    def test_high_sigma_truth_within_ci(self, beta):
        problem = linear_gaussian_problem(beta)
        result = _rare(problem)
        assert result.levels_converged
        lo, hi = result.interval
        assert lo <= problem.p_fail <= hi, (
            f"beta={beta}: exact p_fail {problem.p_fail:.3e} outside "
            f"the 99.9% CI [{lo:.3e}, {hi:.3e}]")
        # The equivalent-sigma readout must land on beta to the
        # precision the CI itself implies.
        sigma_lo = equivalent_sigma(hi)
        sigma_hi = equivalent_sigma(lo)
        assert sigma_lo <= beta <= sigma_hi

    def test_moderate_sigma_truth_within_ci(self):
        problem = linear_gaussian_problem(2.5)
        result = _rare(problem)
        lo, hi = result.interval
        assert lo <= problem.p_fail <= hi

    def test_mismatch_does_not_bias_the_estimate(self):
        # The fixture ignores mismatch, so carrying it (extra per-chunk
        # streams) must not change correctness -- only the draws.
        problem = linear_gaussian_problem(4.0)
        result = _rare(problem, include_mismatch=True, chunk_lanes=500)
        lo, hi = result.interval
        assert lo <= problem.p_fail <= hi

    def test_yield_interval_mirrors_failure_interval(self):
        result = _rare(linear_gaussian_problem(3.0))
        lo, hi = result.interval
        assert result.yield_estimate == 1.0 - result.p_fail
        assert 1.0 - hi <= result.yield_estimate <= 1.0 - lo


class TestUnmeasurableLanes:
    """A NaN performance (no UGF, no -3 dB point) is a failing die with
    margin -inf; the walk must still converge on it."""

    @staticmethod
    def _problem_with_nan_tail(beta, cut):
        problem = linear_gaussian_problem(beta)
        measurable = problem.evaluator

        def evaluator(sample):
            z = measurable(sample)["margin_sigma"]
            return {"margin_sigma": np.where(z > cut, np.nan, z)}

        return problem, evaluator

    def test_walk_converges_through_nan_margins(self):
        # The metric is unmeasurable beyond beta + 0.3, so the true
        # failure probability is still exactly Phi(-beta).  A quantile
        # landing among the -inf margins used to be NaN, which
        # max(nan, 0) kept: the walk burned every level unconverged.
        problem, evaluator = self._problem_with_nan_tail(4.0, 4.3)
        budgets = dict(n_per_level=400, n_final=800, max_levels=8)
        finite = _rare(problem, **budgets)
        result = estimate_yield_rare(
            evaluator, problem.specs, problem.pdk,
            RareEventConfig(include_mismatch=False, confidence=0.999,
                            chunk_lanes=1000, **budgets))
        assert result.levels_converged
        assert result.n_levels == finite.n_levels
        assert result.total_simulations == finite.total_simulations
        assert all(np.isfinite(level.threshold) for level in result.levels)
        lo, hi = result.interval
        assert lo <= problem.p_fail <= hi


class TestStreamKeys:
    """Level 0 recomputed test-side from the documented streams."""

    def test_level_zero_uses_its_mismatch_stage_key(self):
        # The linear-Gaussian fixture ignores mismatch, so this
        # evaluator reads the local threshold-voltage draw instead.
        sigma_vto = float(C35.global_sigmas()[0])
        beta, seed, lanes, chunks = 1.0, 11, 100, 3

        def evaluator(sample):
            dvt, _ = sample.device_variation(C35.nmos, 1e-6, 1e-6)
            return {"metric": dvt / sigma_vto}

        specs = SpecSet([Spec("metric", "le", beta)])
        config = RareEventConfig(n_per_level=lanes * chunks, n_final=100,
                                 max_levels=1, chunk_lanes=lanes,
                                 include_mismatch=True, seed=seed)
        level = estimate_yield_rare(evaluator, specs, C35, config).levels[0]

        x = stream(seed, "rare-level-0").normal(
            size=(lanes * chunks, len(GLOBAL_DIMS)))
        rngs = child_streams(seed, "rare-level-0-mismatch", chunks)
        metric = np.concatenate([
            evaluator(C35.sample_from_sigma(
                x[i * lanes:(i + 1) * lanes], rng=rngs[i],
                include_mismatch=True))["metric"]
            for i in range(chunks)])
        margins = (beta - metric) / beta
        assert level.threshold == max(
            float(np.quantile(margins, config.level_quantile)), 0.0)
        assert level.failure_fraction == \
            np.count_nonzero(metric > beta) / metric.size
        assert 0.0 < level.failure_fraction < config.level_quantile


class TestBitReproducibility:
    """The exec determinism contract, extended to the rare estimator."""

    def _fingerprint(self, result: RareEventResult):
        return (result.p_fail, result.std_error, result.effective_samples,
                tuple(result.shift_sigma),
                tuple((level.threshold, level.acceptance,
                       level.failure_fraction, tuple(level.shift_sigma))
                      for level in result.levels))

    @pytest.mark.parametrize("backend,workers", [("serial", 0),
                                                 ("thread", 3),
                                                 ("process", 2)])
    def test_backends_bit_identical(self, backend, workers):
        problem = linear_gaussian_problem(3.0)
        reference = self._fingerprint(_rare(
            problem, n_per_level=400, n_final=600, chunk_lanes=128,
            include_mismatch=True))
        probe = self._fingerprint(_rare(
            problem, n_per_level=400, n_final=600, chunk_lanes=128,
            include_mismatch=True, backend=backend, workers=workers))
        assert probe == reference

    def test_repeat_runs_identical(self):
        problem = linear_gaussian_problem(3.5)
        a = _rare(problem, n_per_level=300, n_final=500)
        b = _rare(problem, n_per_level=300, n_final=500)
        assert self._fingerprint(a) == self._fingerprint(b)

    def test_chunk_geometry_irrelevant_without_mismatch(self):
        # Draws are central; chunking only splits evaluation, so with no
        # per-chunk mismatch streams the lane size cannot matter at all.
        problem = linear_gaussian_problem(3.0)
        a = _rare(problem, n_per_level=300, n_final=500, chunk_lanes=64)
        b = _rare(problem, n_per_level=300, n_final=500, chunk_lanes=4000)
        assert self._fingerprint(a) == self._fingerprint(b)


class TestDiagnostics:
    def test_ledger_accounts_every_simulation(self):
        result = _rare(linear_gaussian_problem(4.0), n_per_level=500,
                       n_final=800)
        assert result.total_simulations == \
            500 * result.n_levels + 800
        assert result.n_levels == len(result.levels)
        assert all(isinstance(level, RareLevel) for level in result.levels)
        assert [level.index for level in result.levels] == \
            list(range(result.n_levels))

    def test_acceptance_rates_near_level_quantile(self):
        result = _rare(linear_gaussian_problem(4.0), level_quantile=0.25)
        # Quantile thresholds put ~25 % of each level at/below them; the
        # final level (threshold clamped to 0) may accept more.
        for rate in result.acceptance_rates[:-1]:
            assert 0.2 <= rate <= 0.35
        assert result.levels[0].shift_sigma == pytest.approx(0.0)

    def test_shift_points_toward_failure_region(self):
        problem = linear_gaussian_problem(4.0)
        result = _rare(problem)
        direction = problem.failure_direction
        alignment = float(result.shift_sigma @ direction
                          / np.linalg.norm(result.shift_sigma))
        assert alignment > 0.9  # nearly parallel to the true direction

    def test_effective_samples_bounded(self):
        result = _rare(linear_gaussian_problem(3.0))
        assert 0.0 < result.effective_samples <= result.n_final

    def test_describe_mentions_key_figures(self):
        result = _rare(linear_gaussian_problem(3.0))
        text = result.describe()
        assert "p_fail" in text and "sigma" in text
        assert "splitting levels" in text
        assert f"{result.total_simulations} simulations" in text
        assert text.count("level ") >= result.n_levels

    def test_unconverged_walk_is_flagged(self):
        result = _rare(linear_gaussian_problem(6.0), max_levels=1,
                       n_per_level=300, n_final=300)
        assert not result.levels_converged
        assert "max_levels" in result.describe()

    def test_sigma_level_clamps_an_estimate_above_one(self):
        # The weighted estimate is unbiased but unbounded: a noisy final
        # run can report p_fail > 1, which must not make the sigma
        # readout (or describe()) raise.
        result = RareEventResult(p_fail=1.016, std_error=0.5)
        assert result.sigma_level == equivalent_sigma(1.0)
        assert result.p_fail == 1.016
        assert "p_fail 1.016e+00" in result.describe()
        with pytest.raises(YieldModelError):
            equivalent_sigma(result.p_fail)

    @pytest.mark.parametrize("p_fail, clamped", [(1.0132, 1.0),
                                                 (-0.004, 0.0)])
    def test_derived_readouts_use_the_clamped_estimate(self, p_fail,
                                                       clamped):
        # The service-mix set-0 rare request reported p_fail 1.0132.
        result = RareEventResult(p_fail=p_fail, std_error=0.01)
        assert result.yield_estimate == 1.0 - clamped
        lo, hi = result.interval
        assert 0.0 <= lo <= clamped <= hi <= 1.0
        # Binomial variance p(1 - p) is 0 at the bounds.
        assert result.direct_mc_equivalent() == 0
        assert result.probability == clamped
        assert result.p_fail == p_fail
        with pytest.raises(YieldModelError):
            direct_mc_samples_for_halfwidth(p_fail, 0.01)

    def test_progress_fires_once_per_chunk(self):
        calls = []
        problem = linear_gaussian_problem(3.0)
        result = estimate_yield_rare(
            problem.evaluator, problem.specs, problem.pdk,
            RareEventConfig(n_per_level=200, n_final=100, chunk_lanes=50,
                            include_mismatch=False),
            progress=lambda *args: calls.append(args))
        # Progress counts lanes, one call per 50-lane chunk.
        expected = []
        for index in range(result.n_levels):
            expected += [(f"rare-level-{index}", done, 200)
                         for done in range(50, 201, 50)]
        expected += [("rare-final", 50, 100), ("rare-final", 100, 100)]
        assert calls == expected

    def test_progress_reports_every_stage(self):
        stages = []
        problem = linear_gaussian_problem(3.0)
        estimate_yield_rare(
            problem.evaluator, problem.specs, problem.pdk,
            RareEventConfig(n_per_level=200, n_final=200, chunk_lanes=50,
                            include_mismatch=False),
            progress=lambda stage, done, total: stages.append(stage))
        assert any(stage.startswith("rare-level-") for stage in stages)
        assert "rare-final" in stages


@pytest.mark.statistical
class TestCrossEstimator:
    """Direct MC, importance sampling, and the rare-event estimator must
    agree (overlapping CIs) where all three are feasible."""

    @pytest.mark.parametrize("beta", [2.0, 2.5, 3.0])
    def test_three_estimators_overlap(self, beta):
        problem = linear_gaussian_problem(beta)

        population = monte_carlo(
            problem.evaluator, problem.pdk,
            MCConfig(n_samples=20000, seed=2008, include_mismatch=False,
                     chunk_lanes=4000))
        # 99.9 % intervals on all three (the estimators report 95 %).
        direct = estimate_yield(population, problem.specs)
        lo, hi = wilson_interval(direct.passed, direct.total, 0.999)
        direct_fail = (1.0 - hi, 1.0 - lo)

        importance = estimate_yield_importance(
            problem.evaluator, problem.specs, problem.pdk,
            ImportanceSamplingConfig(n_samples=3000, pilot_samples=1000,
                                     seed=2008, include_mismatch=False))
        lo, hi = normal_interval(importance.yield_estimate,
                                 importance.std_error, 0.999)
        importance_fail = (1.0 - hi, 1.0 - lo)

        rare = _rare(problem)

        # Each interval must hold the exact truth...
        assert direct_fail[0] <= problem.p_fail <= direct_fail[1]
        assert importance_fail[0] <= problem.p_fail <= importance_fail[1]
        assert rare.interval[0] <= problem.p_fail <= rare.interval[1]
        # ...and therefore pairwise overlap.
        assert intervals_overlap(direct_fail, rare.interval)
        assert intervals_overlap(importance_fail, rare.interval)
        assert intervals_overlap(direct_fail, importance_fail)


@pytest.mark.statistical
class TestProperties:
    """Hypothesis property tests for the rare-event invariants."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_backend_invariance_any_seed(self, seed):
        problem = linear_gaussian_problem(3.0)
        serial = _rare(problem, n_per_level=120, n_final=160,
                       chunk_lanes=48, seed=seed, include_mismatch=True)
        threaded = _rare(problem, n_per_level=120, n_final=160,
                         chunk_lanes=48, seed=seed, include_mismatch=True,
                         backend="thread", workers=3)
        assert serial.p_fail == threaded.p_fail
        assert serial.std_error == threaded.std_error
        np.testing.assert_array_equal(serial.shift_sigma,
                                      threaded.shift_sigma)

    @settings(max_examples=8, deadline=None)
    @given(beta=st.floats(min_value=1.5, max_value=3.0),
           gap=st.floats(min_value=1.0, max_value=2.0),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_p_fail_monotone_in_spec_threshold(self, beta, gap, seed):
        # Tightening the spec by >= 1 sigma multiplies the true failure
        # probability ~15x or more -- far beyond estimator noise at
        # these budgets, so the estimates must order correctly.
        loose = _rare(linear_gaussian_problem(beta + gap),
                      n_per_level=400, n_final=800, seed=seed)
        tight = _rare(linear_gaussian_problem(beta),
                      n_per_level=400, n_final=800, seed=seed)
        assert tight.p_fail > loose.p_fail

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           cap=st.integers(min_value=1, max_value=4))
    def test_level_walk_prefix_deterministic(self, seed, cap):
        # A max_levels cap must truncate the walk, never change it: the
        # capped run's ledger is an exact prefix of the uncapped run's.
        problem = linear_gaussian_problem(4.0)
        full = _rare(problem, n_per_level=150, n_final=150, seed=seed)
        capped = _rare(problem, n_per_level=150, n_final=150, seed=seed,
                       max_levels=cap)
        expected = min(cap, full.n_levels)
        assert capped.n_levels == expected
        for capped_level, full_level in zip(capped.levels, full.levels, strict=False):
            assert capped_level.threshold == full_level.threshold
            assert capped_level.acceptance == full_level.acceptance
            np.testing.assert_array_equal(capped_level.shift_sigma,
                                          full_level.shift_sigma)
