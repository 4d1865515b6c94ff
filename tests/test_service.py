"""Service-layer tests: the in-process job queue and the file-spool
daemon.

The tentpole gates covered here: cache-first execution (a second
identical submission is a hit), single-flight deduplication of
concurrent identical jobs, cooperative cancellation of running work,
failed-job error capture, and the daemon's full request -> status ->
result -> cancel -> stop round trip.
"""

import json
import threading
import time
from typing import ClassVar

import pytest

from repro.cache import ResultCache
from repro.errors import JobCancelled, WorkloadError
from repro.mc import MCConfig
from repro.measure.specs import Spec, SpecSet
from repro.process import C35
from repro.service import (JOB_STATES, JobQueue, job_statuses, read_status,
                           request_cancel, request_stats, request_stop,
                           serve, submit_request, workload_from_request)
from repro.workload import (StreamingYieldWorkload, Workload,
                            ota_corner_workload, ota_estimate_workload,
                            ota_rare_workload, ota_surrogate_workload)

SPECS = SpecSet([Spec("metric", "ge", 10.0)])

DESIGN = {"w1": 3e-05, "l1": 1e-06, "w2": 6e-05, "l2": 1e-06,
          "w3": 1e-05, "l3": 2e-06, "w4": 2e-05, "l4": 2e-06}

LINT_REQUEST = {"kind": "lint",
                "netlist": "V1 in 0 1\nR1 in 0 1k\n.end\n"}


def metric_evaluator(sample):
    return {"metric": 10.0 + 100.0 * sample.dvto_n}


def yield_workload(seed=5, n_samples=128):
    return StreamingYieldWorkload(
        metric_evaluator, C35, SPECS,
        MCConfig(n_samples=n_samples, seed=seed, chunk_lanes=32))


class SlowWorkload(Workload):
    """Ticks through rounds with a progress boundary after each --
    cancellable, never finishing fast."""

    kind: ClassVar[str] = "slow"
    cacheable: ClassVar[bool] = False

    def __init__(self, rounds=200, tick=0.02):
        self.rounds = rounds
        self.tick = tick

    def config(self):
        return {"rounds": self.rounds}

    def _execute(self, *, checkpoint, progress):
        for done in range(self.rounds):
            time.sleep(self.tick)
            if progress is not None:
                progress(done + 1, self.rounds)
        return self._result(meta={"rounds": self.rounds})


class FailingWorkload(Workload):
    kind: ClassVar[str] = "failing"
    cacheable: ClassVar[bool] = False

    def config(self):
        return {}

    def _execute(self, *, checkpoint, progress):
        raise ValueError("numerics exploded")


class TestJobQueue:
    def test_submit_result_roundtrip(self):
        with JobQueue(workers=2) as jobs:
            job_id = jobs.submit(yield_workload())
            result = jobs.result(job_id, timeout=30)
            estimate, streaming = result.value
            assert estimate.total == 128
            assert streaming is not None
            status = jobs.status(job_id)
            assert status["state"] == "done"
            assert status["kind"] == "yield-streaming"
            assert status["meta"]["samples_done"] == 128
            assert status["progress"] == [128, 128]

    def test_cache_hit_on_second_identical_submit(self, tmp_path):
        cache = ResultCache(tmp_path)
        with JobQueue(workers=1, cache=cache) as jobs:
            first = jobs.result(jobs.submit(yield_workload()), timeout=30)
            second = jobs.result(jobs.submit(yield_workload()), timeout=30)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.value[0] == first.value[0]
        assert cache.stats.stores == 1

    def test_fingerprint_computed_once_per_job(self, tmp_path,
                                               monkeypatch):
        # One canonicalisation per job serves the single-flight key, the
        # cache lookup, the result stamp and the telemetry event.
        from repro import telemetry
        from repro.workload import base

        calls = []
        original = base.canonical_fingerprint

        def spy(kind, *args, **kwargs):
            calls.append(kind)
            return original(kind, *args, **kwargs)

        monkeypatch.setattr(base, "canonical_fingerprint", spy)
        cache = ResultCache(tmp_path / "cache")
        with telemetry.session(tmp_path / "events.jsonl"), \
                JobQueue(workers=1, cache=cache,
                         checkpoint_dir=tmp_path / "checkpoints") as jobs:
            cold = jobs.result(jobs.submit(yield_workload()), timeout=30)
            assert calls == ["yield-streaming"]
            hit = jobs.result(jobs.submit(yield_workload()), timeout=30)
            assert len(calls) == 2
        assert not cold.cache_hit and hit.cache_hit
        assert hit.fingerprint == cold.fingerprint == \
            yield_workload().fingerprint()

    def test_single_flight_dedup(self, tmp_path):
        # Concurrent identical submissions: one computes, the rest wait
        # and serve the stored result -- never N independent runs.
        cache = ResultCache(tmp_path)
        with JobQueue(workers=4, cache=cache) as jobs:
            ids = [jobs.submit(yield_workload(seed=9, n_samples=256))
                   for _ in range(4)]
            results = [jobs.result(job_id, timeout=60) for job_id in ids]
        assert cache.stats.stores == 1
        assert sum(result.cache_hit for result in results) == 3
        estimates = [result.value[0] for result in results]
        assert all(estimate == estimates[0] for estimate in estimates)

    def test_cancel_running_job(self):
        with JobQueue(workers=1) as jobs:
            job_id = jobs.submit(SlowWorkload())
            deadline = time.monotonic() + 5
            while jobs.status(job_id)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert jobs.cancel(job_id)
            with pytest.raises(JobCancelled):
                jobs.result(job_id, timeout=10)
            assert jobs.status(job_id)["state"] == "cancelled"

    def test_cancel_queued_job_never_runs(self):
        with JobQueue(workers=1) as jobs:
            blocker = jobs.submit(SlowWorkload(rounds=20))
            queued = jobs.submit(SlowWorkload())
            assert jobs.cancel(queued)
            with pytest.raises(JobCancelled):
                jobs.result(queued, timeout=10)
            jobs.cancel(blocker)

    def test_cancel_finished_job_is_false(self):
        with JobQueue(workers=1) as jobs:
            job_id = jobs.submit(yield_workload())
            jobs.result(job_id, timeout=30)
            assert not jobs.cancel(job_id)

    def test_failed_job_captures_traceback(self):
        with JobQueue(workers=1) as jobs:
            job_id = jobs.submit(FailingWorkload())
            with pytest.raises(WorkloadError, match="numerics exploded"):
                jobs.result(job_id, timeout=10)
            status = jobs.status(job_id)
            assert status["state"] == "failed"
            assert "ValueError" in status["error"]

    def test_duplicate_and_unknown_ids_rejected(self):
        with JobQueue(workers=1) as jobs:
            jobs.submit(yield_workload(), job_id="mine")
            with pytest.raises(WorkloadError, match="duplicate"):
                jobs.submit(yield_workload(), job_id="mine")
            with pytest.raises(WorkloadError, match="unknown"):
                jobs.status("nope")

    def test_counts_and_states(self):
        with JobQueue(workers=1) as jobs:
            jobs.result(jobs.submit(yield_workload()), timeout=30)
            counts = jobs.counts()
        assert set(counts) == set(JOB_STATES)
        assert counts["done"] == 1

    def test_submit_after_shutdown_rejected(self):
        jobs = JobQueue(workers=1)
        jobs.shutdown()
        with pytest.raises(WorkloadError, match="shut down"):
            jobs.submit(yield_workload())

    def test_workers_validation(self):
        with pytest.raises(WorkloadError):
            JobQueue(workers=0)

    def test_checkpoint_survives_cancel_for_resume(self, tmp_path):
        # The per-job checkpoint is named by content-address: the
        # resubmitted identical job resumes the cancelled one's work.
        with JobQueue(workers=1, checkpoint_dir=tmp_path) as jobs:
            workload = yield_workload(seed=3, n_samples=100000)
            job_id = jobs.submit(workload)
            deadline = time.monotonic() + 20
            while jobs.status(job_id).get("progress", [0])[0] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            jobs.cancel(job_id)
            with pytest.raises(JobCancelled):
                jobs.result(job_id, timeout=20)
        assert (tmp_path / f"{workload.key()}.npz").exists()


class TestRequests:
    def test_estimate_request_builds_workload(self):
        workload = workload_from_request(
            {"kind": "estimate", "design": DESIGN, "n_samples": 64})
        assert workload.kind == "yield-streaming"

    def test_identical_requests_share_a_key(self):
        a = workload_from_request({"kind": "estimate", "design": DESIGN})
        b = workload_from_request(
            {"kind": "estimate", "design": dict(DESIGN)})
        assert a.key() == b.key()

    def test_lint_request(self):
        workload = workload_from_request(LINT_REQUEST)
        assert workload.kind == "lint"
        assert workload.run().meta["ok"] is True

    def test_rejections(self):
        for request, match in (
                ("not a dict", "JSON object"),
                ({"kind": "nope"}, "unknown request kind"),
                ({"kind": "estimate"}, "design"),
                ({"kind": "estimate", "design": DESIGN,
                  "backend": "thread:2"}, "unknown estimate field"),
                ({"kind": "lint"}, "netlist")):
            with pytest.raises(WorkloadError, match=match):
                workload_from_request(request)

    def test_rare_request_builds_workload(self):
        workload = workload_from_request(
            {"kind": "rare", "design": DESIGN, "n_per_level": 64,
             "n_final": 64, "max_levels": 2, "chunk_lanes": 32})
        assert workload.kind == "yield-rare"
        assert workload.cacheable

    def test_corners_request_builds_workload(self):
        workload = workload_from_request(
            {"kind": "corners", "design": DESIGN, "corners": "tm,ws",
             "vdds": "3.3", "temps": "27"})
        assert workload.kind == "corner-sweep"
        assert workload.grid.size == 2

    def test_surrogate_request_builds_workload(self):
        workload = workload_from_request(
            {"kind": "surrogate", "design": DESIGN, "n_train": 32,
             "surrogate_kind": "linear"})
        assert workload.kind == "surrogate-train"
        assert workload.surrogate_kind == "linear"

    @pytest.mark.parametrize("request_dict", [
        {"kind": "rare", "design": None, "n_per_level": 64, "n_final": 64,
         "max_levels": 2, "chunk_lanes": 32},
        {"kind": "corners", "design": None, "corners": "tm", "vdds": "3.3",
         "temps": "27"},
        {"kind": "surrogate", "design": None, "n_train": 32},
    ])
    def test_new_kinds_share_cache_keys(self, request_dict):
        # Identity: same design + config from different request objects
        # must address one cache entry; a changed design must not.
        request_dict = dict(request_dict, design=DESIGN)
        a = workload_from_request(request_dict)
        b = workload_from_request(
            dict(request_dict, design=dict(DESIGN)))
        assert a.key() == b.key()
        other = dict(DESIGN, w1=DESIGN["w1"] * 1.5)
        c = workload_from_request(dict(request_dict, design=other))
        assert c.key() != a.key()

    def test_new_kind_rejections(self):
        for request, match in (
                ({"kind": "rare"}, "design"),
                ({"kind": "rare", "design": DESIGN, "bogus": 1},
                 "unknown rare field"),
                ({"kind": "rare", "design": DESIGN, "n_final": 0},
                 "n_per_level and n_final"),
                ({"kind": "corners", "design": DESIGN,
                  "corners": "nope"}, "unknown corner"),
                ({"kind": "corners", "design": DESIGN, "vdds": "abc"},
                 "bad PVT grid"),
                ({"kind": "surrogate", "design": DESIGN,
                  "surrogate_kind": "cubic"}, "unknown surrogate kind"),
                ({"kind": "surrogate", "design": DESIGN, "n_train": 1},
                 "n_train")):
            with pytest.raises(WorkloadError, match=match):
                workload_from_request(request)

    @pytest.mark.parametrize("kind,constructor", [
        ("estimate", ota_estimate_workload), ("rare", ota_rare_workload),
        ("corners", ota_corner_workload),
        ("surrogate", ota_surrogate_workload)])
    def test_kind_accepts_exactly_its_constructor_keywords(
            self, kind, constructor):
        # A request names every keyword of its workload constructor (here
        # each at its default, so the key equals the bare request's) and
        # nothing else.
        defaults = constructor.__kwdefaults__
        assert defaults, constructor
        full = workload_from_request(
            {"kind": kind, "design": DESIGN, **defaults})
        bare = workload_from_request({"kind": kind, "design": DESIGN})
        assert full.key() == bare.key()
        with pytest.raises(WorkloadError, match=f"unknown {kind} field"):
            workload_from_request(
                {"kind": kind, "design": DESIGN, **defaults, "bogus": 1})

    @pytest.mark.parametrize("kind,chunk_lanes", [
        ("surrogate", 0), ("surrogate", -5), ("corners", -5)])
    def test_chunk_lanes_below_bound_rejected(self, kind, chunk_lanes):
        # corners keeps its documented 0 = one stack.
        with pytest.raises(WorkloadError, match="chunk_lanes"):
            workload_from_request({"kind": kind, "design": DESIGN,
                                   "chunk_lanes": chunk_lanes})

    def test_rare_request_with_estimate_above_one_completes(self):
        # A design that fails almost every die: the unbiased weighted
        # estimate overshoots 1, and the sigma readout in the result's
        # metadata used to raise "p_fail must lie in [0, 1]".
        design = [4.509053750751453e-05, 2.1045708921051414e-06,
                  3.2346603520669236e-05, 2.0600673736482e-06,
                  3.8116403744904865e-05, 9.576846458965628e-07,
                  2.4582118024797017e-05, 2.126314984422653e-06]
        result = workload_from_request(
            {"kind": "rare", "design": design, "n_per_level": 200,
             "n_final": 400, "chunk_lanes": 200, "seed": 7000}).run()
        assert result.value.p_fail > 1.0
        assert result.meta["sigma_level"] == result.value.sigma_level
        assert "p_fail" in result.meta["describe"]

    def test_rare_request_round_trips_through_cache(self, tmp_path):
        from repro.cache import ResultCache
        request = {"kind": "rare", "design": DESIGN, "n_per_level": 48,
                   "n_final": 48, "max_levels": 2, "chunk_lanes": 24,
                   "include_mismatch": False}
        cache = ResultCache(tmp_path)
        fresh = workload_from_request(request).run_cached(cache)
        hit = workload_from_request(dict(request)).run_cached(cache)
        assert fresh.cache_hit is False and hit.cache_hit is True
        assert hit.value.p_fail == fresh.value.p_fail
        assert hit.value.total_simulations == fresh.value.total_simulations
        assert hit.value.describe() == fresh.value.describe()


class TestDaemon:
    def serve_in_thread(self, root, **options):
        options.setdefault("workers", 2)
        options.setdefault("poll", 0.01)
        outcome = {}

        def run():
            outcome["processed"] = serve(root, **options)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, outcome

    def wait_for_state(self, root, job_id, states, timeout=30):
        deadline = time.monotonic() + timeout
        while True:
            try:
                status = read_status(root, job_id)
            except WorkloadError:
                status = None  # daemon has not published it yet
            if status is not None and status["state"] in states:
                return status
            assert time.monotonic() < deadline, \
                f"job {job_id} stuck in {status and status['state']}"
            time.sleep(0.02)

    def test_full_round_trip(self, tmp_path):
        thread, outcome = self.serve_in_thread(tmp_path)
        first = submit_request(tmp_path, LINT_REQUEST)
        status = self.wait_for_state(tmp_path, first, ("done",))
        assert status["meta"]["ok"] is True
        assert not status["cache_hit"]
        second = submit_request(tmp_path, dict(LINT_REQUEST))
        status = self.wait_for_state(tmp_path, second, ("done",))
        assert status["cache_hit"]
        assert status["key"] == read_status(tmp_path, first)["key"]
        request_stop(tmp_path)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome["processed"] == 2
        assert not (tmp_path / "stop").exists()  # consumed for next serve

    def test_cancel_running_job(self, tmp_path):
        thread, _ = self.serve_in_thread(tmp_path)
        job_id = submit_request(
            tmp_path, {"kind": "estimate", "design": DESIGN,
                       "n_samples": 100000, "chunk_lanes": 64})
        self.wait_for_state(tmp_path, job_id, ("running",))
        request_cancel(tmp_path, job_id)
        status = self.wait_for_state(tmp_path, job_id, ("cancelled",))
        assert status["state"] == "cancelled"
        request_stop(tmp_path)
        thread.join(timeout=30)

    def test_stats_round_trip(self, tmp_path):
        thread, _ = self.serve_in_thread(tmp_path, sample_every=0.02)
        job_id = submit_request(tmp_path, LINT_REQUEST)
        self.wait_for_state(tmp_path, job_id, ("done",))
        time.sleep(0.1)  # at least two gauge-sample intervals
        payload = request_stats(tmp_path, timeout=30)
        # Live cache figures: the lint job was a miss then a store.
        assert payload["cache"]["misses"] >= 1
        assert payload["cache"]["stores"] >= 1
        assert payload["cache"]["entries"] >= 1
        assert payload["jobs"]["done"] >= 1
        # The registry snapshot mirrors the cache counters...
        counters = payload["metrics"]["counters"]
        assert counters.get("cache.misses", 0) >= 1
        assert counters.get("jobs.done", 0) >= 1
        # ...and carries a timestamped cache-size gauge history.
        samples = payload["metrics"]["gauges"]["cache.bytes"]["samples"]
        assert len(samples) >= 2
        assert all(t > 0 and value >= 0 for t, value in samples)
        # The request/response files are consumed.
        assert list((tmp_path / "stats").iterdir()) == []
        request_stop(tmp_path)
        thread.join(timeout=30)

    def test_stats_times_out_without_daemon(self, tmp_path):
        with pytest.raises(WorkloadError, match="no stats response"):
            request_stats(tmp_path, timeout=0.2, poll=0.02)

    def test_bad_queue_file_becomes_failed_status(self, tmp_path):
        # A request written behind submit_request's back (no client-side
        # validation) must fail visibly, not crash the daemon.
        (tmp_path / "queue").mkdir(parents=True)
        (tmp_path / "queue" / "job-bad.json").write_text(
            json.dumps({"kind": "nope"}))
        thread, outcome = self.serve_in_thread(tmp_path)
        status = self.wait_for_state(tmp_path, "job-bad", ("failed",))
        assert "unknown request kind" in status["error"]
        request_stop(tmp_path)
        thread.join(timeout=30)

    def test_client_side_validation(self, tmp_path):
        with pytest.raises(WorkloadError, match="design"):
            submit_request(tmp_path, {"kind": "estimate"})
        assert list((tmp_path / "queue").glob("*")) == [] \
            if (tmp_path / "queue").is_dir() else True

    def test_idle_exit(self, tmp_path):
        processed = serve(tmp_path, idle_exit=0.05, poll=0.01)
        assert processed == 0

    def test_job_statuses_listing(self, tmp_path):
        thread, _ = self.serve_in_thread(tmp_path)
        first = submit_request(tmp_path, LINT_REQUEST)
        self.wait_for_state(tmp_path, first, ("done",))
        second = submit_request(tmp_path, dict(LINT_REQUEST))
        self.wait_for_state(tmp_path, second, ("done",))
        listed = job_statuses(tmp_path)
        assert [status["id"] for status in listed] == [first, second]
        request_stop(tmp_path)
        thread.join(timeout=30)

    def test_unknown_job_id(self, tmp_path):
        with pytest.raises(WorkloadError, match="unknown job"):
            read_status(tmp_path, "job-missing")
