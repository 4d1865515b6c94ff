"""Streaming Monte-Carlo subsystem tests.

Covers the mergeable accumulators (Welford moments, quantile sketches),
the shard-merge correctness contract (streaming == batch on identical
populations, bit-identical across execution backends and across a
checkpoint/resume split), adaptive stopping, and checkpoint/resume.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.mc import (AdaptiveStop, MCConfig, QuantileSketch,
                      StreamingAccumulator, StreamingMoments, YieldCounter,
                      monte_carlo, monte_carlo_streaming, summarize)
from repro.mc.streaming import CONFIDENCE
from repro.measure.specs import Spec, SpecSet
from repro.process import C35
from repro.yieldmodel import estimate_yield, estimate_yield_streaming


def metric_evaluator(sample):
    """Deterministic function of the die parameters (no simulation)."""
    return {"metric": 10.0 + 100.0 * sample.dvto_n,
            "other": sample.kp_scale_n}


def accumulator_states(result, name="metric"):
    accumulator = result.accumulators[name]
    states = [accumulator.moments.state()]
    states.extend(accumulator.sketch.state().values())
    return states


class TestStreamingMoments:
    def test_matches_batch_mean_std(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, 10007)
        moments = StreamingMoments()
        for chunk in np.array_split(data, 13):
            moments.update(chunk)
        assert moments.n == data.size
        assert moments.mean == pytest.approx(np.mean(data), rel=1e-12)
        assert moments.std == pytest.approx(np.std(data, ddof=1), rel=1e-12)
        assert moments.minimum == np.min(data)
        assert moments.maximum == np.max(data)

    def test_merge_is_exact(self):
        rng = np.random.default_rng(1)
        a_data, b_data = rng.normal(size=500), rng.normal(5.0, 3.0, 700)
        merged = StreamingMoments().update(a_data).merge(
            StreamingMoments().update(b_data))
        whole = StreamingMoments().update(np.concatenate([a_data, b_data]))
        assert merged.n == whole.n
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.std == pytest.approx(whole.std, rel=1e-12)

    def test_merge_with_empty_is_identity(self):
        moments = StreamingMoments().update([1.0, 2.0, 3.0])
        before = moments.state().copy()
        moments.merge(StreamingMoments())
        np.testing.assert_array_equal(moments.state(), before)

    def test_std_needs_two_samples(self):
        moments = StreamingMoments().update([1.0])
        with pytest.raises(ValueError, match="at least two"):
            moments.std

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            StreamingMoments().update([1.0, np.nan])

    def test_state_roundtrip(self):
        moments = StreamingMoments().update([1.0, 4.0, -2.0])
        clone = StreamingMoments.from_state(moments.state())
        np.testing.assert_array_equal(clone.state(), moments.state())


class TestQuantileSketch:
    def test_exact_below_capacity(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=300)
        sketch = QuantileSketch(512)
        for chunk in np.array_split(data, 7):
            sketch.update(chunk)
        assert not sketch.compacted
        for q in (0.01, 0.5, 0.99):
            assert sketch.quantile(q) == np.quantile(data, q)

    def test_merge_exact_below_capacity(self):
        rng = np.random.default_rng(4)
        a_data, b_data = rng.normal(size=100), rng.normal(2.0, 1.0, 150)
        merged = QuantileSketch(512).update(a_data).merge(
            QuantileSketch(512).update(b_data))
        whole = np.concatenate([a_data, b_data])
        assert merged.quantile(0.5) == np.quantile(whole, 0.5)

    def test_bounded_memory_and_approximate_beyond_capacity(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=50000)
        sketch = QuantileSketch(256)
        for chunk in np.array_split(data, 100):
            sketch.update(chunk)
        assert sketch.compacted
        assert sketch.state()["values"].size <= 256
        assert sketch.n == pytest.approx(data.size)
        for q in (0.1, 0.5, 0.9):
            assert sketch.quantile(q) == pytest.approx(
                np.quantile(data, q), abs=0.05)

    def test_deterministic_compaction(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=5000)
        runs = []
        for _ in range(2):
            sketch = QuantileSketch(64)
            for chunk in np.array_split(data, 50):
                sketch.update(chunk)
            runs.append(sketch.state())
        np.testing.assert_array_equal(runs[0]["values"], runs[1]["values"])
        np.testing.assert_array_equal(runs[0]["weights"], runs[1]["weights"])

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(4)


class TestShardMergeAgainstBatch:
    """Satellite gate: merged streaming accumulators must agree with the
    batch ``summarize`` reduction on identical populations."""

    def test_summary_matches_summarize(self):
        rng = np.random.default_rng(7)
        data = rng.normal(50.0, 4.0, 1200)
        accumulator = StreamingAccumulator()
        for chunk in np.array_split(data, 9):
            accumulator.update(chunk)
        streaming, batch = accumulator.summary(), summarize(data)
        assert streaming.n == batch.n
        assert streaming.mean == pytest.approx(batch.mean, rel=1e-12)
        assert streaming.std == pytest.approx(batch.std, rel=1e-12)
        assert streaming.minimum == batch.minimum
        assert streaming.maximum == batch.maximum
        # Exact below the sketch capacity.
        assert streaming.median == batch.median
        assert streaming.q01 == batch.q01
        assert streaming.q99 == batch.q99

    def test_sharded_merge_matches_summarize(self):
        rng = np.random.default_rng(8)
        data = rng.normal(-3.0, 0.5, 900)
        shards = [StreamingAccumulator().update(chunk)
                  for chunk in np.array_split(data, 6)]
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        batch = summarize(data)
        assert merged.summary().mean == pytest.approx(batch.mean, rel=1e-12)
        assert merged.summary().std == pytest.approx(batch.std, rel=1e-12)
        assert merged.summary().median == batch.median

    def test_relative_spread_guards_shared(self):
        accumulator = StreamingAccumulator().update([-1.0, 1.0])
        with pytest.raises(ValueError, match="mean is zero"):
            accumulator.relative_spread_pct()


class TestYieldCounter:
    SPECS = SpecSet([Spec("metric", "ge", 10.0)])

    def test_counts_match_estimate_yield(self):
        rng = np.random.default_rng(10)
        population = {"metric": rng.normal(11.0, 1.0, 500)}
        counter = YieldCounter(self.SPECS)
        for lo in range(0, 500, 100):
            counter.update({"metric": population["metric"][lo:lo + 100]})
        batch = estimate_yield(population, self.SPECS)
        assert counter.passed == batch.passed
        assert counter.total == batch.total
        assert counter.per_spec == batch.per_spec_pass
        assert counter.interval() == batch.interval

    def test_merge(self):
        rng = np.random.default_rng(11)
        data = rng.normal(10.0, 1.0, 400)
        a = YieldCounter(self.SPECS).update({"metric": data[:150]})
        b = YieldCounter(self.SPECS).update({"metric": data[150:]})
        a.merge(b)
        whole = YieldCounter(self.SPECS).update({"metric": data})
        assert (a.passed, a.total, a.per_spec) == \
            (whole.passed, whole.total, whole.per_spec)

    def test_merge_rejects_different_specs(self):
        other = SpecSet([Spec("metric", "ge", 99.0)])
        with pytest.raises(ReproError):
            YieldCounter(self.SPECS).merge(YieldCounter(other))


class TestStreamingEngine:
    def test_reduces_same_population_as_batch(self):
        # Same config => same chunk plan and streams: the streaming
        # accumulators must reproduce the batch population's statistics.
        config = MCConfig(n_samples=200, seed=5, chunk_lanes=32)
        batch = summarize(monte_carlo(metric_evaluator, C35,
                                      config)["metric"])
        streaming = monte_carlo_streaming(metric_evaluator, C35,
                                          config).summaries()["metric"]
        assert streaming.n == batch.n
        assert streaming.mean == pytest.approx(batch.mean, rel=1e-12)
        assert streaming.std == pytest.approx(batch.std, rel=1e-12)
        assert streaming.minimum == batch.minimum
        assert streaming.maximum == batch.maximum
        assert streaming.median == batch.median

    @pytest.mark.parametrize("backend", ["thread:2", "process:2"])
    def test_bit_identical_across_backends(self, backend):
        serial = monte_carlo_streaming(
            metric_evaluator, C35,
            MCConfig(n_samples=200, seed=9, chunk_lanes=16,
                     backend="serial"))
        pooled = monte_carlo_streaming(
            metric_evaluator, C35,
            MCConfig(n_samples=200, seed=9, chunk_lanes=16,
                     backend=backend))
        for a, b in zip(accumulator_states(serial),
                        accumulator_states(pooled),
                        strict=True):
            np.testing.assert_array_equal(a, b)

    def test_memory_bounded_by_chunk_lanes(self):
        seen_sizes = []

        def evaluator(sample):
            seen_sizes.append(sample.size)
            return {"metric": sample.dvto_n}

        result = monte_carlo_streaming(
            evaluator, C35,
            MCConfig(n_samples=500, seed=2, chunk_lanes=25,
                     backend="serial"),
            sketch_capacity=64)
        assert result.samples_done == 500
        assert max(seen_sizes) <= 25
        # The accumulators retain at most the sketch budget, never the
        # full population.
        sketch = result.accumulators["metric"].sketch
        assert sketch.state()["values"].size <= 64

    def test_progress_callback(self):
        seen = []
        monte_carlo_streaming(
            metric_evaluator, C35,
            MCConfig(n_samples=50, seed=1, chunk_lanes=20,
                     backend="serial"),
            progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (50, 50)


class TestAdaptiveStopping:
    SPECS = SpecSet([Spec("metric", "ge", 0.0)])

    def test_stops_early_on_easy_target(self):
        result = monte_carlo_streaming(
            metric_evaluator, C35,
            MCConfig(n_samples=4000, seed=5, chunk_lanes=32),
            specs=self.SPECS,
            adaptive=AdaptiveStop(metric="yield", ci_width=0.10,
                                  min_samples=64))
        assert result.stopped_early
        assert result.samples_done < result.samples_cap
        assert result.ci_width <= 0.10

    def test_respects_min_samples(self):
        result = monte_carlo_streaming(
            metric_evaluator, C35,
            MCConfig(n_samples=4000, seed=5, chunk_lanes=32),
            specs=self.SPECS,
            adaptive=AdaptiveStop(metric="yield", ci_width=0.10,
                                  min_samples=256))
        assert result.samples_done >= 256

    def test_runs_to_cap_on_impossible_target(self):
        result = monte_carlo_streaming(
            metric_evaluator, C35,
            MCConfig(n_samples=128, seed=5, chunk_lanes=32),
            specs=self.SPECS,
            adaptive=AdaptiveStop(metric="yield", ci_width=1e-6))
        assert not result.stopped_early
        assert result.samples_done == 128

    def test_variation_metric(self):
        result = monte_carlo_streaming(
            metric_evaluator, C35,
            MCConfig(n_samples=100000, seed=3, chunk_lanes=500),
            adaptive=AdaptiveStop(metric="variation", ci_width=2.0,
                                  min_samples=500))
        assert result.stopped_early
        assert result.samples_done < 100000
        # The achieved width honours the request for every performance.
        assert result.ci_width <= 2.0

    def test_stop_count_independent_of_backend(self):
        counts = set()
        for backend in ("serial", "thread:2"):
            result = monte_carlo_streaming(
                metric_evaluator, C35,
                MCConfig(n_samples=2000, seed=5, chunk_lanes=32,
                         backend=backend),
                specs=self.SPECS,
                adaptive=AdaptiveStop(metric="yield", ci_width=0.10,
                                      min_samples=64, check_every=2))
            counts.add(result.samples_done)
        assert len(counts) == 1

    def test_yield_metric_needs_specs(self):
        with pytest.raises(ReproError, match="spec"):
            monte_carlo_streaming(
                metric_evaluator, C35, MCConfig(n_samples=64),
                adaptive=AdaptiveStop(metric="yield"))

    def test_adaptive_validation(self):
        with pytest.raises(ReproError):
            AdaptiveStop(metric="nonsense")
        with pytest.raises(ReproError):
            AdaptiveStop(ci_width=0.0)
        with pytest.raises(ReproError):
            AdaptiveStop(check_every=0)


class TestCheckpointResume:
    SPECS = SpecSet([Spec("metric", "ge", 10.0)])

    def test_resume_bit_identical_to_uninterrupted(self, tmp_path):
        config = MCConfig(n_samples=160, seed=7, chunk_lanes=32)
        checkpoint = tmp_path / "mc.ckpt.npz"
        first = monte_carlo_streaming(metric_evaluator, C35, config,
                                      specs=self.SPECS,
                                      checkpoint=checkpoint, max_chunks=2)
        assert first.interrupted and not first.complete
        assert first.chunks_done == 2
        resumed = monte_carlo_streaming(metric_evaluator, C35, config,
                                        specs=self.SPECS,
                                        checkpoint=checkpoint)
        whole = monte_carlo_streaming(metric_evaluator, C35, config,
                                      specs=self.SPECS)
        assert resumed.complete
        # The resumed invocation reports the checkpointed work
        # separately from the work it simulated itself.
        assert resumed.samples_resumed == first.samples_done
        assert whole.samples_resumed == 0
        for a, b in zip(accumulator_states(resumed),
                        accumulator_states(whole),
                        strict=True):
            np.testing.assert_array_equal(a, b)
        assert resumed.counter.state().tolist() == \
            whole.counter.state().tolist()

    def test_many_small_shards(self, tmp_path):
        # Sharding across invocations: one chunk per call until done.
        config = MCConfig(n_samples=100, seed=4, chunk_lanes=20)
        checkpoint = tmp_path / "shards.npz"
        while True:
            result = monte_carlo_streaming(metric_evaluator, C35, config,
                                           checkpoint=checkpoint,
                                           max_chunks=1)
            if result.complete:
                break
        whole = monte_carlo_streaming(metric_evaluator, C35, config)
        for a, b in zip(accumulator_states(result),
                        accumulator_states(whole),
                        strict=True):
            np.testing.assert_array_equal(a, b)

    def test_mismatched_config_rejected(self, tmp_path):
        checkpoint = tmp_path / "mc.ckpt.npz"
        monte_carlo_streaming(metric_evaluator, C35,
                              MCConfig(n_samples=64, seed=7,
                                       chunk_lanes=32),
                              checkpoint=checkpoint, max_chunks=1)
        with pytest.raises(ReproError, match="incompatible"):
            monte_carlo_streaming(metric_evaluator, C35,
                                  MCConfig(n_samples=64, seed=8,
                                           chunk_lanes=32),
                                  checkpoint=checkpoint)

    def test_interrupted_resume_same_stop_point_with_check_every(
            self, tmp_path):
        # Regression: a max_chunks interruption mid-round used to shift
        # the stopping-check boundaries of the resumed run, so it could
        # stop at a different sample count than an uninterrupted run.
        # Checks must happen at absolute multiples of check_every.
        specs = SpecSet([Spec("metric", "ge", 0.0)])
        config = MCConfig(n_samples=4000, seed=5, chunk_lanes=32)
        adaptive = AdaptiveStop(metric="yield", ci_width=0.10,
                                min_samples=64, check_every=3)
        whole = monte_carlo_streaming(metric_evaluator, C35, config,
                                      specs=specs, adaptive=adaptive)
        checkpoint = tmp_path / "oddround.npz"
        while True:
            sharded = monte_carlo_streaming(metric_evaluator, C35, config,
                                            specs=specs, adaptive=adaptive,
                                            checkpoint=checkpoint,
                                            max_chunks=1)
            if sharded.complete:
                break
        assert sharded.stopped_early == whole.stopped_early
        assert sharded.samples_done == whole.samples_done
        for a, b in zip(accumulator_states(sharded),
                        accumulator_states(whole),
                        strict=True):
            np.testing.assert_array_equal(a, b)

    def test_mismatched_stage_rejected(self, tmp_path):
        # The stage key is part of the checkpoint identity: callers
        # (e.g. the flow's design-bound verification stage) rely on it
        # to reject a checkpoint recorded for a different population.
        checkpoint = tmp_path / "mc.ckpt.npz"
        config = MCConfig(n_samples=64, seed=7, chunk_lanes=32)
        monte_carlo_streaming(metric_evaluator, C35, config,
                              checkpoint=checkpoint, max_chunks=1,
                              stage="mc-verify-aaaa")
        with pytest.raises(ReproError, match="incompatible"):
            monte_carlo_streaming(metric_evaluator, C35, config,
                                  checkpoint=checkpoint,
                                  stage="mc-verify-bbbb")

    def test_kill_mid_write_preserves_last_checkpoint(self, tmp_path,
                                                      monkeypatch):
        # Satellite gate: checkpoint writes are atomic (temp file +
        # rename), so a process killed mid-write leaves the previous
        # checkpoint intact and the run resumable -- never a truncated
        # npz that poisons every later resume.
        config = MCConfig(n_samples=160, seed=7, chunk_lanes=32)
        checkpoint = tmp_path / "killed.npz"
        monte_carlo_streaming(metric_evaluator, C35, config,
                              specs=self.SPECS, checkpoint=checkpoint,
                              max_chunks=2)
        intact = checkpoint.read_bytes()

        real_savez = np.savez_compressed

        def killed_mid_write(handle, **arrays):
            handle.write(b"partial checkpoint bytes")
            raise KeyboardInterrupt  # the kill lands inside the write

        monkeypatch.setattr(np, "savez_compressed", killed_mid_write)
        with pytest.raises(KeyboardInterrupt):
            monte_carlo_streaming(metric_evaluator, C35, config,
                                  specs=self.SPECS, checkpoint=checkpoint,
                                  max_chunks=1)
        monkeypatch.setattr(np, "savez_compressed", real_savez)
        # The on-disk checkpoint is still the last complete one...
        assert checkpoint.read_bytes() == intact
        assert list(tmp_path.glob(".*.tmp")) == []
        # ...and the resumed run matches an uninterrupted one exactly.
        resumed = monte_carlo_streaming(metric_evaluator, C35, config,
                                        specs=self.SPECS,
                                        checkpoint=checkpoint)
        whole = monte_carlo_streaming(metric_evaluator, C35, config,
                                      specs=self.SPECS)
        assert resumed.complete
        for a, b in zip(accumulator_states(resumed),
                        accumulator_states(whole),
                        strict=True):
            np.testing.assert_array_equal(a, b)

    def test_adaptive_resume_already_settled(self, tmp_path):
        # A resumed run whose checkpoint already satisfies the stopping
        # rule must return immediately without new simulation work.
        config = MCConfig(n_samples=4000, seed=5, chunk_lanes=32)
        checkpoint = tmp_path / "settled.npz"
        adaptive = AdaptiveStop(metric="yield", ci_width=0.10,
                                min_samples=64)
        specs = SpecSet([Spec("metric", "ge", 0.0)])
        first = monte_carlo_streaming(metric_evaluator, C35, config,
                                      specs=specs, adaptive=adaptive,
                                      checkpoint=checkpoint)
        assert first.stopped_early
        calls = []

        def counting_evaluator(sample):
            calls.append(sample.size)
            return metric_evaluator(sample)

        second = monte_carlo_streaming(counting_evaluator, C35, config,
                                       specs=specs, adaptive=adaptive,
                                       checkpoint=checkpoint)
        assert second.stopped_early
        assert calls == []
        assert second.samples_done == first.samples_done


class TestEstimatorWiring:
    SPECS = SpecSet([Spec("metric", "ge", 10.0)])

    def test_matches_batch_estimate(self):
        config = MCConfig(n_samples=300, seed=6, chunk_lanes=64)
        population = monte_carlo(metric_evaluator, C35, config)
        batch = estimate_yield(population, self.SPECS)
        estimate, streaming = estimate_yield_streaming(
            metric_evaluator, C35, self.SPECS, config)
        assert estimate.passed == batch.passed
        assert estimate.total == batch.total
        assert estimate.per_spec_pass == batch.per_spec_pass
        assert estimate.interval == batch.interval
        assert streaming.samples_done == 300

    def test_adaptive_estimate(self):
        estimate, streaming = estimate_yield_streaming(
            metric_evaluator, C35, self.SPECS,
            MCConfig(n_samples=4000, seed=6, chunk_lanes=64),
            adaptive=AdaptiveStop(metric="yield", ci_width=0.12,
                                  min_samples=64))
        assert streaming.stopped_early
        assert estimate.total == streaming.samples_done
        lo, hi = estimate.interval
        assert hi - lo <= 0.12

    def test_estimate_confidence_follows_adaptive_rule(self):
        # The reported interval must be the one the run stopped on.
        estimate, streaming = estimate_yield_streaming(
            metric_evaluator, C35, self.SPECS,
            MCConfig(n_samples=4000, seed=6, chunk_lanes=64),
            adaptive=AdaptiveStop(metric="yield", ci_width=0.15,
                                  min_samples=64))
        assert estimate.confidence == streaming.confidence == CONFIDENCE
        lo, hi = estimate.interval
        assert hi - lo <= 0.15
        fixed, _ = estimate_yield_streaming(
            metric_evaluator, C35, self.SPECS,
            MCConfig(n_samples=128, seed=6, chunk_lanes=64))
        assert fixed.confidence == CONFIDENCE

    def test_describe_mentions_stop_state(self):
        _, streaming = estimate_yield_streaming(
            metric_evaluator, C35, self.SPECS,
            MCConfig(n_samples=4000, seed=6, chunk_lanes=64),
            adaptive=AdaptiveStop(metric="yield", ci_width=0.12,
                                  min_samples=64))
        text = streaming.describe()
        assert "adaptive stop" in text
        assert "yield" in text
