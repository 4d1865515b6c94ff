"""Monte-Carlo machinery tests: streams, samplers, engine, statistics."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.mc import (MCConfig, PopulationSummary, child_streams,
                      latin_hypercube_normal, monte_carlo,
                      monte_carlo_points, relative_spread_pct, stream,
                      summarize)
from repro.process import C35


class TestStreams:
    def test_same_key_same_stream(self):
        assert stream(1, "mc").random() == stream(1, "mc").random()

    def test_different_keys_differ(self):
        assert stream(1, "a").random() != stream(1, "b").random()

    def test_different_seeds_differ(self):
        assert stream(1, "mc").random() != stream(2, "mc").random()

    def test_child_streams_independent_and_reproducible(self):
        a = child_streams(7, "pts", 3)
        b = child_streams(7, "pts", 3)
        for ga, gb in zip(a, b, strict=True):
            assert ga.random() == gb.random()
        values = [g.random() for g in child_streams(7, "pts", 3)]
        assert len(set(values)) == 3


class TestLatinHypercube:
    def test_shape(self):
        rng = np.random.default_rng(0)
        samples = latin_hypercube_normal(rng, 100, 4)
        assert samples.shape == (100, 4)

    def test_stratification(self):
        # Mapping back through the normal CDF must give one sample per
        # 1/n stratum in every dimension.
        from math import erf
        rng = np.random.default_rng(1)
        n = 50
        samples = latin_hypercube_normal(rng, n, 2)
        uniforms = 0.5 * (1 + np.vectorize(erf)(samples / np.sqrt(2)))
        for dim in range(2):
            strata = np.floor(uniforms[:, dim] * n).astype(int)
            assert len(np.unique(strata)) == n

    def test_moments_better_than_iid(self):
        rng = np.random.default_rng(2)
        samples = latin_hypercube_normal(rng, 200, 1)[:, 0]
        assert abs(np.mean(samples)) < 0.02
        assert np.std(samples) == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            latin_hypercube_normal(rng, 0, 1)


class TestErf:
    def test_matches_math_erf_to_machine_precision(self):
        import math
        from repro.mc.sampler import erf
        xs = np.concatenate([
            np.linspace(-8.0, 8.0, 20001),
            [0.0, 0.46875, -0.46875, 4.0, -4.0, 1e-300, 30.0, -30.0],
        ])
        reference = np.array([math.erf(v) for v in xs])
        np.testing.assert_allclose(erf(xs), reference, rtol=0, atol=5e-16)

    def test_scalar_and_shape_preserving(self):
        from repro.mc.sampler import erf
        assert erf(0.0) == 0.0
        assert erf(np.zeros((3, 2))).shape == (3, 2)

    def test_nan_and_inf_propagate(self):
        from repro.mc.sampler import erf
        out = erf(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(out[0])
        assert out[1] == 1.0 and out[2] == -1.0

    def test_probit_roundtrip(self):
        from repro.mc.sampler import _probit, erf
        p = np.linspace(1e-9, 1 - 1e-9, 10001)
        x = _probit(p)
        back = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(back, p, rtol=0, atol=1e-12)
        assert np.all(np.diff(x) > 0)  # strictly monotone


class TestStatistics:
    def test_summarize(self):
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        s = summarize(data)
        assert isinstance(s, PopulationSummary)
        assert s.mean == 3.0
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.median == 3.0
        assert "n=5" in s.describe()

    def test_summarize_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            summarize([1.0, np.nan])

    def test_summarize_needs_two(self):
        with pytest.raises(ValueError):
            summarize([1.0])

    def test_relative_spread(self):
        rng = np.random.default_rng(0)
        data = rng.normal(100.0, 1.0, size=(3, 5000))
        spread = relative_spread_pct(data)
        np.testing.assert_allclose(spread, 3.0, rtol=0.1)

    def test_relative_spread_zero_mean_raises(self):
        # Regression: a zero-mean population used to silently return
        # +/-inf; the relative spread is undefined there.
        with pytest.raises(ValueError, match="mean is zero"):
            relative_spread_pct([-1.0, 1.0])
        with pytest.raises(ValueError, match="mean is zero"):
            # Vectorised form: one zero-mean row poisons the call.
            relative_spread_pct(np.array([[1.0, 3.0], [-1.0, 1.0]]))

    def test_relative_spread_single_sample_raises(self):
        # Regression: a length-1 axis used to return NaN from ddof=1
        # with only a RuntimeWarning; it must raise like summarize.
        with pytest.raises(ValueError, match="at least two"):
            relative_spread_pct([5.0])
        with pytest.raises(ValueError, match="at least two"):
            relative_spread_pct(np.ones((4, 1)))

    def test_relative_spread_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            relative_spread_pct([1.0, np.nan, 3.0])

    def test_relative_spread_valid_axis(self):
        # >= 2 samples on the reduced (last) axis is fine even when the
        # other axes are short.
        data = np.array([[99.0, 101.0]])
        np.testing.assert_allclose(relative_spread_pct(data),
                                   [3.0 * np.std(data, ddof=1) / 100.0
                                    * 100.0])


class TestMCConfigValidation:
    """Degenerate configurations must fail at construction, not deep
    inside the engine (a zero-lane chunk used to crash later at
    ``parts[0]`` or inside ``pdk.sample``)."""

    def test_zero_samples_rejected(self):
        with pytest.raises(ReproError, match="n_samples"):
            MCConfig(n_samples=0)

    def test_negative_samples_rejected(self):
        with pytest.raises(ReproError, match="n_samples"):
            MCConfig(n_samples=-5)

    def test_zero_chunk_lanes_rejected(self):
        with pytest.raises(ReproError, match="chunk_lanes"):
            MCConfig(chunk_lanes=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ReproError, match="workers"):
            MCConfig(workers=-1)

    def test_valid_boundaries_accepted(self):
        config = MCConfig(n_samples=1, chunk_lanes=1, workers=0)
        assert config.n_samples == 1 and config.chunk_lanes == 1


class TestEngineSingle:
    @staticmethod
    def fake_evaluator(sample):
        # A deterministic function of the die parameters.
        return {"metric": 10.0 + 100.0 * sample.dvto_n,
                "other": sample.kp_scale_n}

    def test_shapes_and_reproducibility(self):
        config = MCConfig(n_samples=64, seed=5)
        a = monte_carlo(self.fake_evaluator, C35, config)
        b = monte_carlo(self.fake_evaluator, C35, config)
        assert a["metric"].shape == (64,)
        np.testing.assert_array_equal(a["metric"], b["metric"])

    def test_seed_changes_samples(self):
        a = monte_carlo(self.fake_evaluator, C35, MCConfig(n_samples=16, seed=1))
        b = monte_carlo(self.fake_evaluator, C35, MCConfig(n_samples=16, seed=2))
        assert not np.allclose(a["metric"], b["metric"])

    def test_variation_toggles(self):
        config = MCConfig(n_samples=32, seed=3, include_global=False)
        result = monte_carlo(self.fake_evaluator, C35, config)
        np.testing.assert_allclose(result["metric"], 10.0)


class TestEnginePoints:
    @staticmethod
    def make_evaluator(offsets):
        def evaluator(point_indices, repeats, die_sample):
            # value = point offset + die-level noise, tiled point-major.
            base = np.repeat(offsets[point_indices], repeats)
            return {"metric": base + die_sample.dvto_n}
        return evaluator

    def test_point_major_reshape(self):
        offsets = np.array([0.0, 100.0, 200.0, 300.0])
        config = MCConfig(n_samples=25, seed=9, chunk_lanes=60)
        result = monte_carlo_points(self.make_evaluator(offsets), 4, C35,
                                    config)
        metric = result["metric"]
        assert metric.shape == (4, 25)
        means = metric.mean(axis=1)
        np.testing.assert_allclose(means, offsets, atol=0.05)

    def test_chunking_covers_all_points(self):
        offsets = np.arange(7, dtype=float)
        config = MCConfig(n_samples=10, seed=9, chunk_lanes=25)  # 2 pts/chunk
        result = monte_carlo_points(self.make_evaluator(offsets), 7, C35,
                                    config)
        assert result["metric"].shape == (7, 10)

    def test_progress_callback(self):
        offsets = np.zeros(3)
        seen = []
        config = MCConfig(n_samples=5, seed=1, chunk_lanes=5)
        monte_carlo_points(self.make_evaluator(offsets), 3, C35, config,
                           progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (3, 3)
        assert len(seen) == 3  # one chunk per point at 5 lanes/chunk

    def test_reproducible_for_fixed_config(self):
        offsets = np.zeros(2)
        config = MCConfig(n_samples=8, seed=4)
        a = monte_carlo_points(self.make_evaluator(offsets), 2, C35, config)
        b = monte_carlo_points(self.make_evaluator(offsets), 2, C35, config)
        np.testing.assert_array_equal(a["metric"], b["metric"])

    def test_stage_key_changes_population(self):
        offsets = np.zeros(2)
        config = MCConfig(n_samples=8, seed=4)
        a = monte_carlo_points(self.make_evaluator(offsets), 2, C35, config)
        b = monte_carlo_points(self.make_evaluator(offsets), 2, C35, config,
                               stage="direct-mc-gen0")
        assert not np.allclose(a["metric"], b["metric"])


class TestChunkLanesContract:
    """The audit of the ``chunk_lanes`` memory/reproducibility contract.

    ``chunk_lanes`` bounds the simultaneous batch lanes per stacked
    solve (the memory knob; for point sweeps the effective bound is
    ``max(chunk_lanes, n_samples)`` because a point's sample block is
    atomic) and fixes the chunk geometry.  These tests pin the
    documented behaviour: chunking *is* exercised when the lane count
    exceeds ``chunk_lanes``, results are bit-reproducible for a fixed
    chunk size, and a different chunk size yields a different (equally
    valid) population.
    """

    @staticmethod
    def make_counting_evaluator(calls):
        def evaluator(point_indices, repeats, die_sample):
            calls.append((point_indices.copy(), die_sample.size))
            return {"metric": die_sample.dvto_n}
        return evaluator

    def test_chunking_exercised_below_lane_count(self):
        # 6 points x 10 samples = 60 lanes against chunk_lanes=20:
        # the engine must split into 3 chunks of 2 points each, and no
        # chunk may exceed the lane bound.  backend pinned to serial:
        # the counting closure mutates parent state, which a process
        # backend selected via REPRO_EXEC_BACKEND would not see.
        calls = []
        config = MCConfig(n_samples=10, seed=2, chunk_lanes=20,
                          backend="serial")
        result = monte_carlo_points(self.make_counting_evaluator(calls),
                                    6, C35, config)
        assert result["metric"].shape == (6, 10)
        assert len(calls) == 3
        assert all(lanes <= config.chunk_lanes for _, lanes in calls)
        covered = np.concatenate([indices for indices, _ in calls])
        np.testing.assert_array_equal(np.sort(covered), np.arange(6))

    def test_point_block_atomic_when_samples_exceed_lanes(self):
        # A point's sample block is never split: with n_samples above
        # chunk_lanes each chunk carries exactly one full point, so the
        # effective lane bound is max(chunk_lanes, n_samples).
        calls = []
        config = MCConfig(n_samples=30, seed=2, chunk_lanes=10,
                          backend="serial")
        result = monte_carlo_points(self.make_counting_evaluator(calls),
                                    3, C35, config)
        assert result["metric"].shape == (3, 30)
        assert [lanes for _, lanes in calls] == [30, 30, 30]

    def test_single_design_chunking_exercised(self):
        sizes = []

        def evaluator(sample):
            sizes.append(sample.size)
            return {"metric": sample.dvto_n}

        result = monte_carlo(evaluator, C35,
                             MCConfig(n_samples=25, seed=2, chunk_lanes=10,
                                      backend="serial"))
        assert result["metric"].shape == (25,)
        assert sizes == [10, 10, 5]

    def test_chunk_size_changes_population_not_statistics(self):
        def evaluator(point_indices, repeats, die_sample):
            return {"metric": die_sample.dvto_n}

        coarse = monte_carlo_points(evaluator, 4, C35,
                                    MCConfig(n_samples=50, seed=8,
                                             chunk_lanes=200))
        fine = monte_carlo_points(evaluator, 4, C35,
                                  MCConfig(n_samples=50, seed=8,
                                           chunk_lanes=100))
        # Different draw -> different bits...
        assert not np.array_equal(coarse["metric"], fine["metric"])
        # ...same distribution (both are N(0, sigma_vto_n) populations).
        sigma = C35.global_variation.sigma_vto_n
        for data in (coarse["metric"], fine["metric"]):
            assert abs(np.mean(data)) < 4 * sigma / np.sqrt(data.size)
            assert np.std(data) == pytest.approx(sigma, rel=0.35)

    def test_fixed_chunk_size_is_bit_reproducible(self):
        def evaluator(point_indices, repeats, die_sample):
            return {"metric": die_sample.dvto_n}

        config = MCConfig(n_samples=10, seed=3, chunk_lanes=20)
        a = monte_carlo_points(evaluator, 5, C35, config)
        b = monte_carlo_points(evaluator, 5, C35, config)
        np.testing.assert_array_equal(a["metric"], b["metric"])
