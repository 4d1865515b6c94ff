"""Importance-sampling yield estimator tests.

The synthetic problem has an analytically known yield: the "performance"
is a single global parameter (``dvto_n``), so a one-sided spec at
``t`` sigma has true yield ``Phi(t)``.  The estimator must land inside
its own confidence interval around that truth and beat plain Monte Carlo
on interval width for rare failures.  Stochastic assertions use the
CI-derived tolerances of :mod:`statcheck` (99.9 % sampling intervals)
instead of magic constants.
"""

from math import erf, sqrt

import numpy as np
import pytest

from repro.errors import YieldModelError
from repro.mc import MCConfig, monte_carlo
from repro.measure import Spec, SpecSet
from repro.process import C35
from repro.yieldmodel import (ImportanceSamplingConfig,
                              ImportanceSamplingEstimate,
                              estimate_yield, estimate_yield_importance,
                              normal_interval, z_value)
from repro.yieldmodel.importance import _draw_sample
from statcheck import DEFAULT_CONFIDENCE, assert_mean_close, mean_halfwidth

SIGMA = C35.global_variation.sigma_vto_n


def _phi(z: float) -> float:
    return 0.5 * (1.0 + erf(z / sqrt(2.0)))


def _synthetic_problem(t_sigma: float):
    """Evaluator + spec whose true yield is ``Phi(t_sigma)``."""
    def evaluator(sample):
        return {"metric": sample.dvto_n}

    specs = SpecSet([Spec("metric", "le", t_sigma * SIGMA, "V")])
    return evaluator, specs, _phi(t_sigma)


class TestHelpers:
    def test_z_value(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        with pytest.raises(ValueError):
            z_value(1.0)

    def test_normal_interval_clipped(self):
        lo, hi = normal_interval(0.999, 0.01)
        assert 0.97 < lo < 0.999 and hi == 1.0

    def test_global_sigmas_order(self):
        gv = C35.global_variation
        np.testing.assert_array_equal(
            C35.global_sigmas(),
            [gv.sigma_vto_n, gv.sigma_kp_n, gv.sigma_vto_p,
             gv.sigma_kp_p, gv.sigma_cap])


class TestShiftedSample:
    """The mean-shifted proposal draw every IS run and rare level uses."""

    def test_zero_shift_has_unit_weights(self):
        rng = np.random.default_rng(0)
        sample, weights, _ = _draw_sample(C35, 50, rng, np.zeros(5), False)
        np.testing.assert_allclose(weights, 1.0)
        assert sample.size == 50

    def test_shift_moves_mean(self):
        # The sample mean of 4000 draws is within the 99.9% sampling
        # interval of the shifted population mean.
        rng = np.random.default_rng(1)
        shift = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        sample, _, _ = _draw_sample(C35, 4000, rng, shift, False)
        assert np.mean(sample.dvto_n) == pytest.approx(
            2.0 * SIGMA, abs=mean_halfwidth(SIGMA, 4000))

    def test_weights_restore_nominal_expectation(self):
        # E_q[w * f(x)] must equal E_p[f(x)]; take f = indicator(x > 2s).
        rng = np.random.default_rng(2)
        shift = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        sample, weights, _ = _draw_sample(C35, 20000, rng, shift, False)
        indicator = sample.dvto_n > 2.0 * SIGMA
        assert_mean_close(weights * indicator, 1.0 - _phi(2.0),
                          label="weighted tail expectation")


class TestEstimator:
    def test_known_yield_within_ci(self):
        evaluator, specs, true_yield = _synthetic_problem(2.5)
        estimate = estimate_yield_importance(
            evaluator, specs, C35,
            ImportanceSamplingConfig(n_samples=500, pilot_samples=200,
                                     seed=11, include_mismatch=False))
        assert isinstance(estimate, ImportanceSamplingEstimate)
        lo, hi = estimate.interval
        assert lo <= true_yield <= hi
        # Bound the point estimate by its own 99.9% sampling interval
        # rather than a magic constant.
        assert estimate.yield_estimate == pytest.approx(
            true_yield,
            abs=z_value(DEFAULT_CONFIDENCE) * estimate.std_error)

    def test_beats_direct_mc_interval_width(self):
        # For a ~0.6% failure probability the mean-shift proposal should
        # tighten the interval by well over 2x at equal sample count.
        evaluator, specs, _ = _synthetic_problem(2.5)
        config = ImportanceSamplingConfig(n_samples=500, pilot_samples=200,
                                          seed=11, include_mismatch=False)
        is_estimate = estimate_yield_importance(evaluator, specs, C35,
                                                config)
        population = monte_carlo(
            evaluator, C35,
            MCConfig(n_samples=500, seed=11, include_mismatch=False))
        direct = estimate_yield(population, specs)
        is_width = is_estimate.interval[1] - is_estimate.interval[0]
        mc_width = direct.interval[1] - direct.interval[0]
        assert is_width < mc_width / 2
        assert is_estimate.consistent_with(direct)

    def test_reproducible_for_fixed_seed(self):
        evaluator, specs, _ = _synthetic_problem(2.0)
        config = ImportanceSamplingConfig(n_samples=200, pilot_samples=100,
                                          seed=3, include_mismatch=False)
        a = estimate_yield_importance(evaluator, specs, C35, config)
        b = estimate_yield_importance(evaluator, specs, C35, config)
        assert a.yield_estimate == b.yield_estimate
        np.testing.assert_array_equal(a.shift_sigma, b.shift_sigma)

    def test_pilot_failures_drive_shift(self):
        # A loose spec (t = 1 sigma) fails often in the pilot, so the
        # shift comes from actual failures and points toward +dvto_n.
        evaluator, specs, _ = _synthetic_problem(1.0)
        estimate = estimate_yield_importance(
            evaluator, specs, C35,
            ImportanceSamplingConfig(n_samples=300, pilot_samples=200,
                                     seed=5, include_mismatch=False))
        assert estimate.pilot_failures > 0
        assert estimate.shift_sigma[0] > 0.5

    def test_diagnostics_populated(self):
        evaluator, specs, _ = _synthetic_problem(2.0)
        estimate = estimate_yield_importance(
            evaluator, specs, C35,
            ImportanceSamplingConfig(n_samples=200, pilot_samples=50,
                                     seed=7, include_mismatch=False))
        assert 0 < estimate.effective_samples <= estimate.n_samples
        assert estimate.n_samples == 200
        assert estimate.pilot_samples == 50
        text = estimate.describe()
        assert "ESS" in text and "proposal shift" in text

    def test_tiny_runs_rejected(self):
        with pytest.raises(YieldModelError):
            ImportanceSamplingConfig(n_samples=1)
        with pytest.raises(YieldModelError):
            ImportanceSamplingConfig(pilot_samples=1)

    def test_boundary_settings_accepted(self):
        config = ImportanceSamplingConfig(n_samples=2, pilot_samples=2)
        assert (config.n_samples, config.pilot_samples) == (2, 2)
