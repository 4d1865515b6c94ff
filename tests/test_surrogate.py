"""Tests of the surrogate metamodel subsystem (:mod:`repro.surrogate`)."""

import numpy as np
import pytest

from repro.designs import OTAParameters, evaluate_ota
from repro.designs.filter2 import (FilterCaps, build_filter_transistor,
                                   evaluate_filter)
from repro.errors import ReproError, SurrogateError
from repro.flow import FlowConfig, run_model_build_flow, save_flow_artifacts
from repro.mc import MCConfig, evaluate_sigma_batch, monte_carlo
from repro.measure import Spec, SpecSet
from repro.process import C35, GLOBAL_DIMS
from repro.surrogate import (PolynomialSurrogate, RBFSurrogate,
                             SurrogateConfig, SurrogateYieldEstimator,
                             fit_surrogate, load_surrogates,
                             save_surrogates, train_surrogates)
from repro.yieldmodel import estimate_yield


def _quadratic_truth(x):
    """A known quadratic over the 5 process dims."""
    return (1.5 - 2.0 * x[:, 0] + 0.5 * x[:, 3]
            + 0.25 * x[:, 0] * x[:, 1] - 0.1 * x[:, 2] ** 2)


class TestRegression:
    def test_quadratic_recovers_exact_polynomial(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 5))
        model = PolynomialSurrogate.fit(x, _quadratic_truth(x), degree=2)
        probe = rng.normal(size=(200, 5))
        np.testing.assert_allclose(model.predict(probe),
                                   _quadratic_truth(probe), atol=1e-6)
        assert model.cv_error < 1e-6

    def test_loo_error_matches_noise_floor(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 5))
        noise = 0.3
        y = _quadratic_truth(x) + rng.normal(0.0, noise, 400)
        model = PolynomialSurrogate.fit(x, y, degree=2)
        # LOO RMSE of a well-specified model ~ the irreducible noise.
        assert 0.7 * noise < model.cv_error < 1.4 * noise

    def test_rbf_beats_linear_on_nonlinear_response(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(150, 5))

        def truth(v):
            return np.sin(1.5 * v[:, 0]) + 0.5 * np.cos(v[:, 1])

        linear = fit_surrogate("linear", x, truth(x))
        rbf = fit_surrogate("rbf", x, truth(x))
        assert rbf.cv_error < 0.5 * linear.cv_error
        probe = rng.normal(size=(300, 5))
        rbf_rmse = np.sqrt(np.mean((rbf.predict(probe) - truth(probe)) ** 2))
        assert rbf_rmse < 0.25

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "rbf"])
    def test_serialisation_round_trip(self, kind):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 5))
        y = _quadratic_truth(x)
        model = fit_surrogate(kind, x, y)
        cls = PolynomialSurrogate if kind != "rbf" else RBFSurrogate
        clone = cls.from_arrays(
            {k: np.asarray(v) for k, v in model.to_arrays().items()})
        probe = rng.normal(size=(50, 5))
        np.testing.assert_array_equal(model.predict(probe),
                                      clone.predict(probe))
        assert clone.cv_error == model.cv_error

    def test_rejects_underdetermined_fit(self):
        x = np.zeros((5, 5))
        with pytest.raises(SurrogateError):
            PolynomialSurrogate.fit(x, np.zeros(5), degree=2)

    def test_rejects_unknown_kind_and_bad_shapes(self):
        x = np.random.default_rng(0).normal(size=(30, 5))
        with pytest.raises(SurrogateError):
            fit_surrogate("spline", x, np.zeros(30))
        model = fit_surrogate("linear", x, np.zeros(30))
        with pytest.raises(SurrogateError):
            model.predict(np.zeros((4, 3)))


class TestSigmaFrame:
    def test_round_trip_through_process_sample(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, len(GLOBAL_DIMS)))
        x = np.clip(x, -3.5, None)  # stay away from the positivity clip
        sample = C35.sample_from_sigma(x)
        np.testing.assert_allclose(C35.sigma_coordinates(sample), x,
                                   atol=1e-12)

    def test_zero_coordinates_are_the_nominal_die(self):
        sample = C35.sample_from_sigma(np.zeros((1, 5)))
        assert float(sample.dvto_n[0]) == 0.0
        assert float(sample.kp_scale_n[0]) == 1.0
        assert float(sample.cap_scale[0]) == 1.0

    def test_positivity_clip_matches_sample(self):
        x = np.full((1, 5), -6.0)  # far beyond the -4 sigma clip
        sample = C35.sample_from_sigma(x)
        sig = C35.global_sigmas()
        assert float(sample.kp_scale_n[0]) == 1.0 - 4.0 * sig[1]
        assert float(sample.cap_scale[0]) == 1.0 - 4.0 * sig[4]
        # Threshold shifts are unclipped (sign-symmetric physics).
        np.testing.assert_allclose(sample.dvto_n, -6.0 * sig[0])

    def test_bad_shape_raises(self):
        with pytest.raises(ReproError):
            C35.sample_from_sigma(np.zeros((4, 3)))


def _synthetic_evaluator(pdk):
    """A cheap analytic 'design': performances are known functions of
    the sigma coordinates, so yields are analytically checkable."""

    def evaluate(sample):
        x = pdk.sigma_coordinates(sample)
        return {
            "gain_db": 60.0 + 2.0 * x[:, 0] - 1.0 * x[:, 2],
            "pm_deg": 70.0 - 1.5 * x[:, 3] + 0.5 * x[:, 1] * x[:, 1],
        }

    return evaluate


class TestTrainingAndBundle:
    def test_backend_invariance_of_training_batches(self):
        x = np.random.default_rng(4).normal(size=(64, 5))
        options = dict(seed=2008, stage="surrogate-train", chunk_lanes=16)
        serial = evaluate_sigma_batch(_synthetic_evaluator(C35), C35, x,
                                      backend="serial", **options)
        threaded = evaluate_sigma_batch(_synthetic_evaluator(C35), C35, x,
                                        backend="thread:3", **options)
        for name in serial:
            np.testing.assert_array_equal(serial[name], threaded[name])

    def test_chunk_lanes_below_one_rejected(self):
        with pytest.raises(ReproError, match="chunk size"):
            train_surrogates(_synthetic_evaluator(C35), C35, n_train=16,
                             kind="linear", chunk_lanes=0)

    def test_bundle_is_a_monte_carlo_evaluator(self):
        bundle = train_surrogates(_synthetic_evaluator(C35), C35,
                                  n_train=64, seed=1, kind="quadratic",
                                  include_mismatch=False)
        perf = monte_carlo(bundle.as_evaluator(C35), C35,
                           MCConfig(n_samples=300, seed=9))
        assert set(perf) == {"gain_db", "pm_deg"}
        assert perf["gain_db"].shape == (300,)
        # The synthetic response is exactly quadratic: predictions through
        # the engine match the direct evaluator on the same dies.
        direct = monte_carlo(_synthetic_evaluator(C35), C35,
                             MCConfig(n_samples=300, seed=9))
        np.testing.assert_allclose(perf["gain_db"], direct["gain_db"],
                                   atol=1e-6)

    def test_evaluator_rejects_foreign_kit(self):
        bundle = train_surrogates(_synthetic_evaluator(C35), C35,
                                  n_train=40, seed=1, kind="linear",
                                  include_mismatch=False)
        bundle.pdk_name = "other-kit"
        with pytest.raises(SurrogateError):
            bundle.as_evaluator(C35)

    def test_augmented_refit_improves_on_new_region(self):
        bundle = train_surrogates(_synthetic_evaluator(C35), C35,
                                  n_train=48, seed=2, kind="quadratic",
                                  include_mismatch=False)
        x_new = np.random.default_rng(8).normal(size=(16, 5))
        y_new = _synthetic_evaluator(C35)(C35.sample_from_sigma(x_new))
        grown = bundle.augmented(x_new, y_new)
        assert grown.n_train == 64
        assert bundle.n_train == 48  # original untouched

    def test_save_load_round_trip(self, tmp_path):
        bundle = train_surrogates(_synthetic_evaluator(C35), C35,
                                  n_train=48, seed=3, kind="rbf",
                                  include_mismatch=False)
        path = save_surrogates(bundle, tmp_path / "bundle.npz")
        clone = load_surrogates(path)
        probe = np.random.default_rng(1).normal(size=(30, 5))
        for name in bundle.names:
            np.testing.assert_array_equal(bundle.predict(probe)[name],
                                          clone.predict(probe)[name])
        assert clone.kind == "rbf"
        assert clone.pdk_name == bundle.pdk_name
        assert clone.n_train == bundle.n_train


class TestSurrogateYieldEstimator:
    SPECS = SpecSet([Spec("gain_db", "ge", 58.0, "dB"),
                     Spec("pm_deg", "ge", 68.5, "deg")])

    def test_agrees_with_direct_mc_on_synthetic_design(self):
        estimate = SurrogateYieldEstimator(
            _synthetic_evaluator(C35), self.SPECS, C35,
            SurrogateConfig(n_train=64, n_mc=4000, control_samples=80,
                            refine_budget=40, seed=5)).estimate()
        perf = monte_carlo(_synthetic_evaluator(C35), C35,
                           MCConfig(n_samples=4000, seed=77,
                                    include_mismatch=False))
        direct = estimate_yield(perf, self.SPECS)
        assert estimate.consistent_with(direct)
        assert estimate.consistent_with_control
        # The response is exactly representable: CV errors collapse and
        # essentially no lane stays ambiguous.
        assert all(err < 1e-6 for err in estimate.cv_errors.values())
        assert estimate.ambiguous_lanes == 0
        assert 0.0 < estimate.yield_estimate < 1.0

    def test_refuses_on_unlearnable_response(self):
        def chaotic(sample):
            x = C35.sigma_coordinates(sample)
            return {"gain_db": np.sin(997.0 * x[:, 0]) * 10.0 + 60.0}

        specs = SpecSet([Spec("gain_db", "ge", 58.0, "dB")])
        estimator = SurrogateYieldEstimator(
            chaotic, specs, C35,
            SurrogateConfig(n_train=64, n_mc=500, control_samples=0,
                            seed=6))
        with pytest.raises(SurrogateError, match="refusing to report"):
            estimator.estimate()

    def test_missing_performance_raises(self):
        specs = SpecSet([Spec("offset_mv", "le", 5.0, "mV")])
        estimator = SurrogateYieldEstimator(
            _synthetic_evaluator(C35), specs, C35,
            SurrogateConfig(n_train=48, n_mc=200, control_samples=0,
                            refine_budget=8,
                            seed=6))
        with pytest.raises(SurrogateError, match="lacks performance"):
            estimator.estimate()

    def test_refinement_spends_simulator_budget_near_limits(self):
        def noisy(sample):
            x = C35.sigma_coordinates(sample)
            rng = np.random.default_rng(
                int(abs(float(x[0, 0])) * 1e6) % (2 ** 31))
            return {"gain_db": 60.0 + 2.0 * x[:, 0]
                    + rng.normal(0.0, 0.5, x.shape[0])}

        specs = SpecSet([Spec("gain_db", "ge", 59.0, "dB")])
        estimate = SurrogateYieldEstimator(
            noisy, specs, C35,
            SurrogateConfig(n_train=64, n_mc=1000, control_samples=0,
                            refine_budget=32,
                            seed=7)).estimate()
        assert estimate.n_refined == 32
        assert estimate.simulator_evals == 64 + 32


class TestSeedDesignAgreement:
    """The acceptance contract: surrogate vs direct MC on both seed
    designs, agreement within the reported confidence intervals."""

    def test_ota_seed_design(self):
        params = OTAParameters()

        def evaluator(die):
            perf = evaluate_ota(params.tile(die.size), variations=die)
            return {"gain_db": perf["gain_db"], "pm_deg": perf["pm_deg"]}

        specs = SpecSet([Spec("gain_db", "ge", 41.0, "dB"),
                         Spec("pm_deg", "ge", 86.8, "deg")])
        estimate = SurrogateYieldEstimator(
            evaluator, specs, C35,
            SurrogateConfig(n_train=96, n_mc=2000, control_samples=60,
                            refine_budget=96, seed=2008)).estimate()
        perf = monte_carlo(evaluator, C35, MCConfig(n_samples=2000,
                                                    seed=2008))
        direct = estimate_yield(perf, specs)
        assert estimate.consistent_with(direct)
        assert estimate.consistent_with_control
        assert estimate.simulator_evals < 2000 / 5

    def test_filter2_seed_design(self):
        caps = FilterCaps()
        ota = OTAParameters()

        def evaluator(die):
            circuit = build_filter_transistor(caps, ota.tile(die.size),
                                              variations=die)
            perf = evaluate_filter(circuit)
            return {"ripple_db": perf["ripple_db"],
                    "atten_db": perf["atten_db"]}

        specs = SpecSet([Spec("ripple_db", "le", 2.3, "dB"),
                         Spec("atten_db", "ge", 37.0, "dB")])
        estimate = SurrogateYieldEstimator(
            evaluator, specs, C35,
            SurrogateConfig(n_train=80, n_mc=1500, control_samples=60,
                            refine_budget=64, seed=2008)).estimate()
        perf = monte_carlo(evaluator, C35, MCConfig(n_samples=1500,
                                                    seed=2008))
        direct = estimate_yield(perf, specs)
        assert estimate.consistent_with(direct)
        assert estimate.consistent_with_control


class TestFlowIntegration:
    def test_flow_trains_and_persists_surrogate(self, tmp_path):
        config = FlowConfig(generations=6, population=16, mc_samples=20,
                            max_pareto_points=8, corners="none",
                            surrogate_budget=48, seed=2008)
        result = run_model_build_flow(config)
        assert result.surrogate is not None
        assert result.surrogate.n_train == 48
        assert result.surrogate_reference.shape == (8,)
        assert "surrogate training" in result.ledger.stages

        written = save_flow_artifacts(result, tmp_path)
        assert (tmp_path / "surrogate_model.npz").exists()
        assert "surrogate" in written
        clone = load_surrogates(written["surrogate"])
        probe = np.zeros((2, 5))
        for name in result.surrogate.names:
            np.testing.assert_array_equal(
                result.surrogate.predict(probe)[name],
                clone.predict(probe)[name])

        import json
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["surrogate"]["n_train"] == 48
        assert set(summary["surrogate"]["cv_errors"]) == {"gain_db",
                                                          "pm_deg"}
