"""Tests for the Miller OTA (second topology) and the hypervolume metric."""

import numpy as np
import pytest

from repro.designs.miller import (MILLER_DESIGN_SPACE, MillerOTAProblem,
                                  MillerParameters, build_miller_ota,
                                  evaluate_miller_ota)
from repro.errors import OptimizationError, ReproError
from repro.moo import GAConfig, run_wbga
from repro.moo.hypervolume import hypervolume_2d


class TestMillerParameters:
    def test_normalised_mapping(self):
        low = MillerParameters.from_normalized(np.zeros(6))
        high = MillerParameters.from_normalized(np.ones(6))
        assert low.w1 == pytest.approx(MILLER_DESIGN_SPACE["w1"][0])
        assert high.l3 == pytest.approx(MILLER_DESIGN_SPACE["l3"][1])

    def test_shape_validation(self):
        with pytest.raises(ReproError):
            MillerParameters.from_normalized(np.zeros(5))

    def test_to_array_batched(self):
        params = MillerParameters(w1=np.array([1e-5, 2e-5]))
        assert params.to_array().shape == (2, 6)


class TestMillerCircuit:
    def test_two_stage_gain_higher_than_symmetrical(self):
        perf = evaluate_miller_ota(MillerParameters())
        # Two gain stages: well above the symmetrical OTA's ~50 dB.
        assert perf["gain_db"][0] > 60.0
        assert 20.0 < perf["pm_deg"][0] < 90.0

    def test_devices_biased(self):
        from repro.analysis import dc_operating_point
        circuit = build_miller_ota(MillerParameters())
        op = dc_operating_point(circuit)
        assert 0.3 < op.v("out")[0] < 3.0
        assert op.device("M6")["ids"][0] > 1e-6

    def test_length_raises_gain(self):
        lengths = np.array([0.5e-6, 1e-6, 2e-6])
        perf = evaluate_miller_ota(MillerParameters(
            l1=lengths, l2=lengths, l3=lengths))
        assert np.all(np.diff(perf["gain_db"]) > 0)

    def test_problem_with_wbga(self):
        problem = MillerOTAProblem()
        result = run_wbga(problem, GAConfig(population_size=12,
                                            generations=5, seed=3))
        assert result.evaluations == 60
        front = result.pareto_objectives()
        assert front.shape[0] >= 1
        assert np.all(np.isfinite(front[:, 0]))


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d([[1.0, 1.0]], (0.0, 0.0)) == 1.0

    def test_staircase(self):
        assert hypervolume_2d([[1.0, 2.0], [2.0, 1.0]],
                              (0.0, 0.0)) == pytest.approx(3.0)

    def test_dominated_points_ignored(self):
        with_dominated = hypervolume_2d(
            [[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]], (0.0, 0.0))
        assert with_dominated == pytest.approx(3.0)

    def test_points_below_reference_ignored(self):
        assert hypervolume_2d([[1.0, 1.0], [-1.0, 5.0]],
                              (0.0, 0.0)) == pytest.approx(1.0)

    def test_empty_set(self):
        assert hypervolume_2d(np.empty((0, 2)), (0.0, 0.0)) == 0.0
        assert hypervolume_2d([[np.nan, 1.0]], (0.0, 0.0)) == 0.0

    def test_shape_validation(self):
        with pytest.raises(OptimizationError):
            hypervolume_2d([[1.0, 2.0, 3.0]], (0.0, 0.0))

    def test_monotone_in_front_quality(self):
        weak = hypervolume_2d([[1.0, 1.0]], (0.0, 0.0))
        strong = hypervolume_2d([[1.5, 1.5]], (0.0, 0.0))
        assert strong > weak

    def test_duplicates_no_double_count(self):
        assert hypervolume_2d([[1.0, 1.0], [1.0, 1.0]],
                              (0.0, 0.0)) == pytest.approx(1.0)

    def test_reference_offset(self):
        assert hypervolume_2d([[2.0, 3.0]], (1.0, 1.0)) == pytest.approx(2.0)
