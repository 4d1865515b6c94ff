"""File-spool daemon: ``repro serve`` over a service root directory.

The wire protocol is the filesystem -- no sockets, no serialisation
framework, and atomic by construction (every file appears via the
cache layer's temp-file + rename writers):

.. code-block:: text

    <root>/
      queue/<id>.json    requests awaiting pickup (written by clients)
      jobs/<id>.json     status snapshots (written by the daemon)
      cancel/<id>        cancellation markers (written by clients)
      stats/<n>.request  metrics-snapshot requests (written by clients)
      stats/<n>.json     metrics-snapshot responses (written by the daemon)
      stop               shutdown sentinel (written by clients)
      cache/             the content-addressed result cache
      checkpoints/       per-job resumable state

Clients (:func:`submit_request`, :func:`job_statuses`,
:func:`request_cancel`, :func:`request_stats`, :func:`request_stop` --
or the ``repro submit`` / ``repro jobs`` / ``repro stats`` CLI verbs)
only ever touch ``queue/``, ``cancel/``, ``stats/*.request`` and
``stop``; the daemon owns ``jobs/`` and consumes the rest.  A request's
results live in the cache under the workload's content-address (the
``key`` field of its status), so resubmitting the same request -- even
after the daemon restarts -- is a cache hit.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path

from .. import telemetry
from ..cache import ResultCache, atomic_write_text
from ..errors import WorkloadError
from .queue import JobQueue
from .requests import workload_from_request

__all__ = ["serve", "submit_request", "job_statuses", "read_status",
           "request_cancel", "request_stats", "request_stop"]

#: How often [s] the daemon samples the cache-size gauges while serving.
STATS_SAMPLE_INTERVAL = 1.0


def _dirs(root) -> dict[str, Path]:
    root = Path(root)
    return {"root": root, "queue": root / "queue", "jobs": root / "jobs",
            "cancel": root / "cancel", "cache": root / "cache",
            "checkpoints": root / "checkpoints", "stats": root / "stats",
            "stop": root / "stop"}


def _ensure_layout(root) -> dict[str, Path]:
    layout = _dirs(root)
    for name in ("queue", "jobs", "cancel", "stats"):
        layout[name].mkdir(parents=True, exist_ok=True)
    return layout


def _write_status(layout: dict, job_id: str, snapshot: dict) -> None:
    atomic_write_text(layout["jobs"] / f"{job_id}.json",
                      json.dumps(snapshot, indent=2, sort_keys=True))


# -- client side ----------------------------------------------------------
def submit_request(root, request: dict) -> str:
    """Drop a request into the service root's queue; returns the job id.

    The request is validated client-side (built into a workload and
    discarded), so malformed submissions fail here with a readable
    :class:`~repro.errors.WorkloadError` instead of as a failed job.
    """
    workload = workload_from_request(request)
    layout = _ensure_layout(root)
    job_id = f"job-{uuid.uuid4().hex[:12]}"
    _write_status(layout, job_id, {
        "id": job_id, "kind": workload.kind, "key": workload.key(),
        "state": "queued", "cache_hit": False})
    atomic_write_text(layout["queue"] / f"{job_id}.json",
                      json.dumps(request, indent=2, sort_keys=True))
    return job_id


def read_status(root, job_id: str) -> dict:
    """The current status snapshot of one job."""
    path = _dirs(root)["jobs"] / f"{job_id}.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise WorkloadError(f"unknown job id {job_id!r}") from None


def job_statuses(root) -> list[dict]:
    """Status snapshots of every job under the root, oldest first."""
    jobs_dir = _dirs(root)["jobs"]
    if not jobs_dir.is_dir():
        return []
    entries = []
    for path in jobs_dir.glob("*.json"):
        try:
            entries.append((path.stat().st_mtime, path.stem,
                            json.loads(path.read_text())))
        except (OSError, ValueError):
            continue  # being rewritten; the next listing will see it
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return [snapshot for _, _, snapshot in entries]


def request_cancel(root, job_id: str) -> None:
    """Ask the daemon to cancel a job (cooperative; may land too late)."""
    layout = _ensure_layout(root)
    (layout["cancel"] / job_id).touch()


def request_stop(root) -> None:
    """Ask the daemon to finish running jobs and exit."""
    _dirs(root)["stop"].touch()


def request_stats(root, *, timeout: float = 10.0,
                  poll: float = 0.05) -> dict:
    """Ask a running daemon for a metrics snapshot (blocking).

    Drops a ``stats/<nonce>.request`` marker; the daemon answers with an
    atomically-written ``stats/<nonce>.json`` carrying its metrics
    registry snapshot (counters and gauges with timestamped samples),
    live cache figures and per-state job counts.

    Raises
    ------
    WorkloadError
        No response within ``timeout`` seconds (daemon not running, or
        stalled).
    """
    layout = _ensure_layout(root)
    nonce = uuid.uuid4().hex[:12]
    response = layout["stats"] / f"{nonce}.json"
    (layout["stats"] / f"{nonce}.request").touch()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            payload = json.loads(response.read_text())
        except (FileNotFoundError, ValueError):
            time.sleep(poll)
            continue
        response.unlink(missing_ok=True)
        return payload
    raise WorkloadError(
        f"no stats response from {layout['root']} within {timeout:g}s "
        "(is the daemon running?)")


# -- daemon side ----------------------------------------------------------
def _stats_payload(cache: ResultCache, jobs: JobQueue) -> dict:
    """The daemon's answer to one stats request."""
    return {
        "t": time.time(),
        "metrics": telemetry.snapshot(),
        "cache": {
            "hits": cache.stats.hits,
            "memory_hits": cache.stats.memory_hits,
            "misses": cache.stats.misses,
            "stores": cache.stats.stores,
            "evictions": cache.stats.evictions,
            "bytes": cache.total_bytes(),
            "entries": len(cache),
        },
        "jobs": jobs.counts(),
    }


def serve(root, *, workers: int = 2, poll: float = 0.05,
          idle_exit: float | None = None, max_bytes: int | None = None,
          sample_every: float = STATS_SAMPLE_INTERVAL,
          progress=None) -> int:
    """Run the service daemon over ``root`` until stopped.

    Parameters
    ----------
    workers:
        Concurrent jobs (the underlying :class:`JobQueue`'s pool size).
    poll:
        Spool scan interval [s].
    idle_exit:
        Exit after this many seconds with no queued or running work
        (``None`` = run until the ``stop`` sentinel appears).
    max_bytes:
        Byte budget of the result cache (``None`` = the cache default).
    sample_every:
        Interval [s] between cache-size gauge samples
        (``cache.bytes`` / ``cache.entries`` in the metrics registry --
        what :func:`request_stats` reports as timestamped history).
    progress:
        Optional ``callable(str)`` for lifecycle announcements.

    Returns the number of jobs processed.  The ``stop`` sentinel is
    consumed on exit so the next ``serve`` starts clean.
    """
    layout = _ensure_layout(root)
    say = telemetry.announcer(progress)
    cache = ResultCache(layout["cache"], **(
        {"max_bytes": max_bytes} if max_bytes is not None else {}))
    processed = 0
    active: dict[str, object] = {}
    last_activity = time.monotonic()
    last_sample = float("-inf")
    say(f"serving {layout['root']} ({workers} worker(s))")
    with JobQueue(workers=workers, cache=cache,
                  checkpoint_dir=layout["checkpoints"]) as jobs:
        while True:
            if layout["stop"].exists():
                say("stop requested")
                break

            # Sample the cache-size gauges on a fixed cadence, so the
            # registry carries a timestamped history (``repro stats``).
            if time.monotonic() - last_sample >= sample_every:
                telemetry.gauge_set("cache.bytes", cache.total_bytes())
                telemetry.gauge_set("cache.entries", len(cache))
                last_sample = time.monotonic()

            # Answer metrics-snapshot requests.
            for marker in layout["stats"].glob("*.request"):
                atomic_write_text(
                    marker.with_suffix(".json"),
                    json.dumps(_stats_payload(cache, jobs), indent=2,
                               sort_keys=True))
                marker.unlink(missing_ok=True)

            # Pick up new requests.
            for path in sorted(layout["queue"].glob("*.json")):
                job_id = path.stem
                try:
                    request = json.loads(path.read_text())
                    workload = workload_from_request(request)
                    jobs.submit(workload, job_id=job_id)
                except (OSError, ValueError, WorkloadError) as exc:
                    _write_status(layout, job_id, {
                        "id": job_id, "state": "failed",
                        "error": str(exc)})
                    say(f"{job_id}: rejected ({exc})")
                else:
                    active[job_id] = workload
                    _write_status(layout, job_id, jobs.status(job_id))
                    say(f"{job_id}: queued ({workload.kind})")
                path.unlink(missing_ok=True)
                last_activity = time.monotonic()

            # Relay cancellation markers.
            for marker in layout["cancel"].iterdir():
                if marker.name in active:
                    jobs.cancel(marker.name)
                    say(f"{marker.name}: cancel requested")
                marker.unlink(missing_ok=True)

            # Publish progress and reap finished jobs.
            for job_id in list(active):
                snapshot = jobs.status(job_id)
                _write_status(layout, job_id, snapshot)
                if snapshot["state"] in ("done", "failed", "cancelled"):
                    say(f"{job_id}: {snapshot['state']}"
                        + (" (cache hit)" if snapshot["cache_hit"] else ""))
                    del active[job_id]
                    processed += 1
                    last_activity = time.monotonic()

            if active:
                last_activity = time.monotonic()
            elif idle_exit is not None and \
                    time.monotonic() - last_activity > idle_exit:
                say(f"idle for {idle_exit:g}s, exiting")
                break
            time.sleep(poll)

        # Drain: mark whatever is still active as cancelled-by-shutdown.
        for job_id in active:
            jobs.cancel(job_id)
    for job_id in active:
        _write_status(layout, job_id, jobs.status(job_id))
        processed += 1
    layout["stop"].unlink(missing_ok=True)
    say(f"served {processed} job(s); {cache.stats.describe()}")
    return processed
