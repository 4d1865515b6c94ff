"""E-X2: service-layer throughput and cache-hit speedup.

The tentpole's operational gate: serving a repeated yield estimate from
the content-addressed result cache must be at least 10x faster than
computing it, and the worker-pool queue must complete a 32-job burst of
small estimates (with realistic duplication across users) end to end,
reporting jobs/sec.  Results land in
``benchmarks/results/service_throughput.txt``.
"""

import time

from repro.cache import ResultCache
from repro.service import JobQueue
from repro.workload import ota_estimate_workload

from conftest import FULL_SCALE

#: The OTA design every request perturbs (natural units, W1 L1 .. W4 L4).
BASE_DESIGN = {"w1": 3e-05, "l1": 1e-06, "w2": 6e-05, "l2": 1e-06,
               "w3": 1e-05, "l3": 2e-06, "w4": 2e-05, "l4": 2e-06}

SPEEDUP_SAMPLES = 5000 if FULL_SCALE else 1000
BURST_JOBS = 32          # the gate: >= 32 concurrent small estimates
DISTINCT_DESIGNS = 8     # 4 "users" per design -> dedup + cache hits
BURST_SAMPLES = 200
WORKERS = 4


def _design(index: int) -> dict:
    design = dict(BASE_DESIGN)
    design["w1"] = BASE_DESIGN["w1"] * (1.0 + 0.02 * index)
    return design


def test_cache_hit_speedup(emit, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    workload = ota_estimate_workload(BASE_DESIGN,
                                     n_samples=SPEEDUP_SAMPLES,
                                     seed=2008, chunk_lanes=256)
    start = time.perf_counter()
    cold = workload.run_cached(cache)
    cold_time = time.perf_counter() - start
    start = time.perf_counter()
    warm = workload.run_cached(cache)
    warm_time = time.perf_counter() - start

    assert not cold.cache_hit and warm.cache_hit
    assert warm.value[0] == cold.value[0]  # bit-identical estimate
    speedup = cold_time / max(warm_time, 1e-9)
    lines = [
        f"estimate: {SPEEDUP_SAMPLES} MC samples of the section-5 OTA",
        "hit estimate bit-identical: True",
    ]
    emit("service_throughput", "\n".join(lines), [
        f"cold (compute + store): {cold_time * 1e3:8.1f} ms",
        f"warm (cache hit)      : {warm_time * 1e3:8.2f} ms",
        f"cache-hit speedup     : {speedup:.0f}x",
    ])
    assert speedup >= 10.0, \
        f"cache-hit speedup gate: expected >= 10x, got {speedup:.1f}x"


def test_burst_throughput(emit, tmp_path):
    # Appends a section to the artefact the speedup test started.
    cache = ResultCache(tmp_path / "cache")
    requests = [_design(index % DISTINCT_DESIGNS)
                for index in range(BURST_JOBS)]
    start = time.perf_counter()
    with JobQueue(workers=WORKERS, cache=cache) as jobs:
        ids = [jobs.submit(ota_estimate_workload(
                   design, n_samples=BURST_SAMPLES, seed=2008,
                   chunk_lanes=128))
               for design in requests]
        results = [jobs.result(job_id, timeout=600) for job_id in ids]
    elapsed = time.perf_counter() - start

    assert len(results) == BURST_JOBS
    hits = sum(result.cache_hit for result in results)
    # Every duplicated design beyond its first submission must be served
    # from the cache (single-flight + cache-first execution).
    assert cache.stats.stores == DISTINCT_DESIGNS
    assert hits == BURST_JOBS - DISTINCT_DESIGNS
    jobs_per_sec = BURST_JOBS / elapsed

    lines = [
        f"burst: {BURST_JOBS} estimate jobs ({DISTINCT_DESIGNS} distinct "
        f"designs x {BURST_JOBS // DISTINCT_DESIGNS} users), "
        f"{BURST_SAMPLES} samples each, {WORKERS} workers",
        f"cache                 : {cache.stats.describe()}",
    ]
    emit("service_throughput", "\n".join(lines), [
        f"wall time             : {elapsed * 1e3:8.1f} ms",
        f"throughput            : {jobs_per_sec:.1f} jobs/sec",
    ])
