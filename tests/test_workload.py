"""Workload abstraction tests.

Covers the satellite gate on fingerprints -- stable across processes,
invalidated by version/seed/spec/design changes, indifferent to
execution backend -- and the cache round trip: a hit must rebuild a
value bit-identical to the fresh run's.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import ResultCache, fingerprint_key
from repro.errors import (JobCancelled, LintGateError, ParseError,
                          WorkloadError)
from repro.mc import MCConfig
from repro.measure.specs import Spec, SpecSet
from repro.process import C35
from repro.service.requests import workload_from_request
from repro.workload import (CornerSweepWorkload, LintWorkload,
                            RareEventWorkload, StreamingYieldWorkload,
                            SurrogateTrainWorkload, design_digest,
                            guarded_progress, lint_workload_from_source,
                            ota_estimate_workload, ota_rare_workload)
from repro.yieldmodel import RareEventConfig

DESIGN = {"w1": 3e-05, "l1": 1e-06, "w2": 6e-05, "l2": 1e-06,
          "w3": 1e-05, "l3": 2e-06, "w4": 2e-05, "l4": 2e-06}

SPECS = SpecSet([Spec("metric", "ge", 10.0)])


def metric_evaluator(sample):
    """Deterministic function of the die parameters (no simulation)."""
    return {"metric": 10.0 + 100.0 * sample.dvto_n}


def estimate_workload(**overrides):
    options = dict(n_samples=64, seed=7, chunk_lanes=16)
    options.update(overrides)
    return ota_estimate_workload(DESIGN, **options)


class TestFingerprintStability:
    def test_identical_across_processes(self):
        # The satellite gate: the same request must fingerprint
        # identically in a fresh interpreter (no per-process salt, no
        # dict-order dependence, no id()s leaking in).
        script = (
            "import json, sys\n"
            "from repro.workload import ota_estimate_workload\n"
            "design = json.loads(sys.argv[1])\n"
            "w = ota_estimate_workload(design, n_samples=64, seed=7, "
            "chunk_lanes=16)\n"
            "print(w.fingerprint())\n")
        import json
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(DESIGN)],
            capture_output=True, text=True, env=env, check=True)
        assert result.stdout.strip() == estimate_workload().fingerprint()

    def test_dict_and_flat_design_agree(self):
        from repro.designs.ota import OTA_DESIGN_SPACE
        flat = [DESIGN[name] for name in OTA_DESIGN_SPACE.names]
        assert ota_estimate_workload(flat, seed=7).fingerprint() == \
            ota_estimate_workload(DESIGN, seed=7).fingerprint()

    def test_key_is_digest_of_fingerprint(self):
        workload = estimate_workload()
        assert workload.key() == fingerprint_key(workload.fingerprint())


class TestFingerprintInvalidation:
    def test_version_change_invalidates(self, monkeypatch):
        before = estimate_workload().fingerprint()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert estimate_workload().fingerprint() != before

    def test_seed_and_count_invalidate(self):
        base = estimate_workload().fingerprint()
        assert estimate_workload(seed=8).fingerprint() != base
        assert estimate_workload(n_samples=65).fingerprint() != base
        assert estimate_workload(chunk_lanes=32).fingerprint() != base

    def test_specs_invalidate(self):
        base = estimate_workload().fingerprint()
        tightened = estimate_workload(
            specs=[["gain_db", "ge", 55.0, "dB"],
                   ["pm_deg", "ge", 60.0, "deg"]])
        assert tightened.fingerprint() != base

    def test_design_invalidates(self):
        other = dict(DESIGN, w1=DESIGN["w1"] * 1.01)
        assert ota_estimate_workload(other, seed=7).fingerprint() != \
            ota_estimate_workload(DESIGN, seed=7).fingerprint()

    def test_testbench_invalidates(self):
        assert estimate_workload(cl=20e-12).fingerprint() != \
            estimate_workload().fingerprint()

    def test_backend_and_workers_do_not(self):
        # The repro.exec determinism contract: parallelisation never
        # changes numbers, so it must never split the cache.
        serial = StreamingYieldWorkload(
            metric_evaluator, C35, SPECS,
            MCConfig(n_samples=64, seed=1, chunk_lanes=16,
                     backend="serial"))
        pooled = StreamingYieldWorkload(
            metric_evaluator, C35, SPECS,
            MCConfig(n_samples=64, seed=1, chunk_lanes=16,
                     backend="thread:4"))
        assert serial.fingerprint() == pooled.fingerprint()

    def test_corner_sweep_ignores_chunking_entirely(self):
        from repro.corners import CornerGrid
        grid = CornerGrid.full(C35)
        coarse = CornerSweepWorkload(metric_evaluator, 4, C35, grid,
                                     chunk_lanes=10)
        fine = CornerSweepWorkload(metric_evaluator, 4, C35, grid,
                                   chunk_lanes=1000)
        assert coarse.fingerprint() == fine.fingerprint()

    def test_design_digest_distinguishes(self):
        a = design_digest(reference=np.arange(8.0), pdk="c35")
        b = design_digest(reference=np.arange(8.0) + 1e-12, pdk="c35")
        assert a.startswith("design:")
        assert a != b
        assert a == design_digest(reference=np.arange(8.0), pdk="c35")


class TestPinnedKeys:
    """Service cache keys stay byte-stable across code changes.

    The other fingerprint tests compare two keys computed by the same
    code; these compare against literal keys recorded earlier, so a
    refactor that silently renames or drops a config field -- and with
    it every warm daemon cache -- fails here.
    """

    REQUESTS = {
        "estimate": {"kind": "estimate", "design": DESIGN,
                     "n_samples": 300, "seed": 2008, "chunk_lanes": 64},
        "estimate-adaptive": {"kind": "estimate", "design": DESIGN,
                              "n_samples": 2000, "adaptive_ci": 0.05,
                              "check_every": 2},
        "rare": {"kind": "rare", "design": DESIGN, "n_per_level": 500,
                 "n_final": 1000,
                 "specs": [["gain_db", "ge", 50.0, "dB"]]},
        "corners": {"kind": "corners", "design": DESIGN},
        "corners-explicit": {"kind": "corners", "design": DESIGN,
                             "corners": "tm,ws", "vdds": "3.0,3.3,3.6",
                             "temps": "27", "chunk_lanes": 3},
        "surrogate": {"kind": "surrogate", "design": DESIGN,
                      "n_train": 32},
        "lint": {"kind": "lint",
                 "netlist": "V1 in 0 1\nR1 in 0 1k\n.end\n"},
    }

    KEYS = {
        "estimate":
            "37a2d0e4ba35cdd1e90d208c5b79cc112dce34460abb3f68bbc56c54f5530490",
        "estimate-adaptive":
            "373566f33083922d3852dd76dd17ffbc1cd43445126f1b7ff5030290b69abdd5",
        "rare":
            "8b255336ec57b5a6a3fa57bda46c00908ed03c36654a03735833dc531c5ee66a",
        "corners":
            "9a15c6234e64750a0e9478d88dbb8995d30c81c5ac21ab043172fe4634d0f065",
        "corners-explicit":
            "cc18b61b47030803a705f2936cc925d33993c50d8da33cbd0391dfb7701861d6",
        "surrogate":
            "1628e5e71ece650ad7b646b601b223b1fcbe2f346372f7b5b946e857724a0fd3",
        "lint":
            "048599fee89bad1c97ec51f8078cdaa5e20989f71d35fcca5824d783d01c8039",
    }

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_key_matches_recorded_value(self, name):
        key = workload_from_request(self.REQUESTS[name]).key()
        assert key == self.KEYS[name], (
            f"the cache key of a {name!r} request changed; warm service "
            f"caches would miss.  If the change is deliberate (e.g. a "
            f"version bump), re-record KEYS with the new values.")


class TestCacheRoundTrip:
    def test_streaming_yield_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        workload = StreamingYieldWorkload(
            metric_evaluator, C35, SPECS,
            MCConfig(n_samples=128, seed=5, chunk_lanes=32))
        fresh = workload.run_cached(cache)
        hit = workload.run_cached(cache)
        assert not fresh.cache_hit and hit.cache_hit
        fresh_estimate, streaming = fresh.value
        hit_estimate, no_streaming = hit.value
        # YieldEstimate is a dataclass: equality is exact counts,
        # per-spec dict and confidence -- the bit-identity gate.
        assert hit_estimate == fresh_estimate
        assert streaming is not None and no_streaming is None
        assert hit.meta == fresh.meta
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_surrogate_bundle_bit_identical(self, tmp_path):
        from repro.surrogate import surrogate_arrays
        cache = ResultCache(tmp_path)
        workload = SurrogateTrainWorkload(metric_evaluator, C35,
                                          n_train=32, seed=2,
                                          chunk_lanes=16)
        fresh = workload.run_cached(cache)
        hit = workload.run_cached(cache)
        assert hit.cache_hit
        fresh_arrays = surrogate_arrays(fresh.value)
        hit_arrays = surrogate_arrays(hit.value)
        assert set(fresh_arrays) == set(hit_arrays)
        for name in fresh_arrays:
            np.testing.assert_array_equal(hit_arrays[name],
                                          fresh_arrays[name])

    def test_rare_event_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        workload = RareEventWorkload(
            metric_evaluator, C35, SPECS,
            RareEventConfig(n_per_level=48, n_final=48, max_levels=3,
                            chunk_lanes=16, include_mismatch=False))
        fresh = workload.run_cached(cache)
        hit = workload.run_cached(cache)
        assert not fresh.cache_hit and hit.cache_hit
        assert hit.value.p_fail == fresh.value.p_fail
        assert hit.value.std_error == fresh.value.std_error
        assert hit.value.effective_samples == fresh.value.effective_samples
        np.testing.assert_array_equal(hit.value.shift_sigma,
                                      fresh.value.shift_sigma)
        assert hit.value.n_levels == fresh.value.n_levels
        for rebuilt, original in zip(hit.value.levels, fresh.value.levels,
                                      strict=True):
            assert rebuilt.threshold == original.threshold
            assert rebuilt.acceptance == original.acceptance
            np.testing.assert_array_equal(rebuilt.shift_sigma,
                                          original.shift_sigma)
        # The human-readable ledger is part of the round trip too.
        assert hit.value.describe() == fresh.value.describe()

    def test_rare_event_fingerprint_semantics(self):
        def rare(**overrides):
            options = dict(n_per_level=64, n_final=64, seed=7,
                           chunk_lanes=16)
            options.update(overrides)
            return ota_rare_workload(DESIGN, **options)

        base = rare().fingerprint()
        assert rare().fingerprint() == base
        # Everything shaping the numbers invalidates...
        assert rare(seed=8).fingerprint() != base
        assert rare(n_per_level=65).fingerprint() != base
        assert rare(level_quantile=0.3).fingerprint() != base
        assert rare(chunk_lanes=32).fingerprint() != base
        assert rare(specs=[["gain_db", "ge", 55.0, "dB"]]).fingerprint() \
            != base
        # ...while execution placement does not.
        serial = RareEventWorkload(
            metric_evaluator, C35, SPECS,
            RareEventConfig(n_per_level=48, n_final=48,
                            backend="serial"))
        pooled = RareEventWorkload(
            metric_evaluator, C35, SPECS,
            RareEventConfig(n_per_level=48, n_final=48,
                            backend="thread", workers=4))
        assert serial.fingerprint() == pooled.fingerprint()

    def test_uncacheable_lint_always_runs(self, tmp_path, netlist):
        cache = ResultCache(tmp_path)
        from repro.circuit.parser import parse_netlist
        circuit = parse_netlist(netlist("good_divider"))
        workload = LintWorkload(circuit, "warn")  # no source: opaque
        assert not workload.cacheable
        for _ in range(2):
            assert not workload.run_cached(cache).cache_hit
        assert cache.stats.requests == 0


class TestLintWorkload:
    def test_source_makes_it_cacheable(self, tmp_path, netlist):
        cache = ResultCache(tmp_path)
        workload = lint_workload_from_source(netlist("good_divider"),
                                             "warn")
        assert workload.cacheable
        fresh = workload.run_cached(cache)
        hit = workload.run_cached(cache)
        assert hit.cache_hit
        assert hit.meta == fresh.meta
        assert hit.meta["ok"] is True

    def test_different_netlists_different_keys(self, netlist):
        a = lint_workload_from_source(netlist("good_divider"), "warn")
        b = lint_workload_from_source(netlist("good_rc_ladder"), "warn")
        assert a.key() != b.key()

    def test_strict_gate_raises_through_run(self, netlist):
        workload = lint_workload_from_source(netlist("bad_no_ground"),
                                             "strict")
        with pytest.raises(LintGateError):
            workload.run()

    def test_findings_in_meta(self, netlist):
        workload = lint_workload_from_source(netlist("bad_no_ground"),
                                             "warn")
        meta = workload.run().meta
        assert meta["errors"] >= 1
        assert meta["ok"] is False
        assert any(finding["rule"] == "missing-ground"
                   for finding in meta["findings"])

    def test_parse_errors_surface_at_construction(self):
        with pytest.raises(ParseError):
            lint_workload_from_source("R1 only_one_node 1k\n")


class TestRequestValidation:
    def test_missing_design_parameter(self):
        with pytest.raises(WorkloadError, match="missing parameter"):
            ota_estimate_workload({"w1": 1e-05})

    def test_wrong_design_shape(self):
        with pytest.raises(WorkloadError, match="8 parameters"):
            ota_estimate_workload([1.0, 2.0, 3.0])

    def test_unknown_pdk(self):
        with pytest.raises(WorkloadError, match="process kit"):
            ota_estimate_workload(DESIGN, pdk="sky130")

    def test_malformed_spec_entry(self):
        with pytest.raises(WorkloadError, match="spec entry"):
            ota_estimate_workload(DESIGN, specs=[["gain_db"]])


class TestGuardedProgress:
    def test_forwards_when_not_cancelled(self):
        seen = []
        guarded = guarded_progress(lambda *args: seen.append(args),
                                   lambda: False)
        guarded(3, 10)
        assert seen == [(3, 10)]

    def test_raises_on_cancel(self):
        guarded = guarded_progress(None, lambda: True)
        with pytest.raises(JobCancelled, match="job cancelled"):
            guarded(1, 2)

    def test_no_cancel_returns_progress_unwrapped(self):
        def progress(done, total):
            pass

        assert guarded_progress(progress, None) is progress
        assert guarded_progress(None, None) is None

    def test_cancel_mid_run_preserves_checkpoint(self, tmp_path):
        # Cancelling a streaming workload at a progress boundary must
        # leave the checkpoint of completed rounds behind, so the
        # resubmitted job resumes instead of restarting.
        checkpoint = tmp_path / "cancelled.npz"
        workload = StreamingYieldWorkload(
            metric_evaluator, C35, SPECS,
            MCConfig(n_samples=160, seed=7, chunk_lanes=32))
        calls = []

        def cancel_after_two():
            return len(calls) >= 2

        with pytest.raises(JobCancelled):
            workload.run(checkpoint=checkpoint,
                         progress=lambda done, total: calls.append(done),
                         cancel=cancel_after_two)
        assert checkpoint.exists()
        resumed = workload.run(checkpoint=checkpoint)
        estimate, streaming = resumed.value
        whole = workload.run()
        assert estimate == whole.value[0]
        assert streaming.samples_resumed > 0
