"""The in-process job queue: workloads over a worker-thread pool.

Threads, not processes: the heavy lifting inside every workload is
stacked LAPACK solves, which release the GIL, so a thread pool reaches
real parallelism without pickling evaluator closures.  (The engines'
*own* ``backend``/``workers`` knobs still apply inside each job; the
queue's workers set how many jobs run concurrently.)

Execution is cache-first when a :class:`repro.cache.ResultCache` is
attached: a job whose fingerprint is already stored completes without
simulating.  With a checkpoint directory, resumable workloads write
their checkpoint under their own content-address, so a cancelled or
crashed job's successor -- even from a different queue instance --
resumes instead of restarting.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .. import telemetry
from ..errors import JobCancelled, WorkloadError
from ..workload import WorkloadResult

__all__ = ["Job", "JobQueue", "JOB_STATES"]

#: Lifecycle of a job:
#: ``queued -> running -> done | failed | cancelled``
#: (a queued job can also move straight to ``cancelled``).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclass
class Job:
    """One submitted workload and its lifecycle state."""

    id: str
    workload: object
    state: str = "queued"
    result: WorkloadResult | None = None
    error: str = ""
    cache_hit: bool = False
    submitted: float = field(default_factory=time.monotonic, init=False)
    started: float | None = None
    finished: float | None = None
    progress_done: int = 0
    progress_total: int = 0
    _cancel: threading.Event = field(default_factory=threading.Event,
                                     repr=False)
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def snapshot(self) -> dict:
        """JSON-able status view (what the daemon writes to ``jobs/``)."""
        out = {
            "id": self.id,
            "kind": self.workload.kind,
            "key": self.workload.key(),
            "state": self.state,
            "cache_hit": self.cache_hit,
        }
        if self.progress_total:
            out["progress"] = [self.progress_done, self.progress_total]
        if self.error:
            out["error"] = self.error
        if self.state == "done" and self.result is not None:
            out["meta"] = self.result.meta
        return out


class JobQueue:
    """Submit/status/result/cancel over a pool of worker threads.

    Parameters
    ----------
    workers:
        Concurrent jobs (worker threads).
    cache:
        Optional :class:`repro.cache.ResultCache` for cache-first
        execution; its counters double as the queue's hit metrics.
    checkpoint_dir:
        Optional directory for per-job checkpoints, named by each
        workload's content-address so identical resubmissions resume.

    Usable as a context manager (``with JobQueue(...) as jobs:``);
    exit shuts the pool down after draining queued work.
    """

    def __init__(self, *, workers: int = 2, cache=None,
                 checkpoint_dir=None) -> None:
        if workers < 1:
            raise WorkloadError("JobQueue.workers must be >= 1")
        self.cache = cache
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._inflight: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._todo: _queue.Queue = _queue.Queue()
        self._counter = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-job-worker-{index}")
            for index in range(workers)]
        for thread in self._threads:
            thread.start()

    # -- submission -------------------------------------------------------
    def submit(self, workload, *, job_id: str | None = None) -> str:
        """Enqueue a workload; returns its job id."""
        with self._lock:
            if self._shutdown:
                raise WorkloadError("queue is shut down")
            if job_id is None:
                self._counter += 1
                job_id = f"job-{self._counter:06d}"
            if job_id in self._jobs:
                raise WorkloadError(f"duplicate job id {job_id!r}")
            job = Job(id=job_id, workload=workload)
            self._jobs[job_id] = job
            self._order.append(job_id)
        self._todo.put(job)
        return job_id

    # -- inspection -------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise WorkloadError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> dict:
        """Status snapshot of one job."""
        return self._job(job_id).snapshot()

    def jobs(self) -> list[dict]:
        """Status snapshots of every job, in submission order."""
        with self._lock:
            ordered = [self._jobs[job_id] for job_id in self._order]
        return [job.snapshot() for job in ordered]

    def counts(self) -> dict[str, int]:
        """Jobs per lifecycle state."""
        out = dict.fromkeys(JOB_STATES, 0)
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            out[job.state] += 1
        return out

    # -- results ----------------------------------------------------------
    def result(self, job_id: str, timeout: float | None = None
               ) -> WorkloadResult:
        """Block until a job finishes; return (or re-raise) its outcome.

        Raises
        ------
        WorkloadError
            Unknown id, timeout, or the job failed (carrying the
            worker-side traceback text).
        JobCancelled
            The job was cancelled before completing.
        """
        job = self._job(job_id)
        if not job._done.wait(timeout):
            raise WorkloadError(f"timed out waiting for job {job_id!r}")
        if job.state == "cancelled":
            raise JobCancelled(job_id=job_id)
        if job.state == "failed":
            raise WorkloadError(
                f"job {job_id!r} failed:\n{job.error}")
        assert job.result is not None
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``True`` unless the job already finished.

        A queued job is cancelled before it starts; a running job stops
        cooperatively at its next checkpoint/progress boundary.
        """
        job = self._job(job_id)
        if job._done.is_set():
            return False
        job._cancel.set()
        return True

    # -- lifecycle --------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers after draining the queue."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._threads:
            self._todo.put(None)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- worker loop ------------------------------------------------------
    def _checkpoint_for(self, job: Job):
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / f"{job.workload.key()}.npz"

    def _worker(self) -> None:
        while True:
            job = self._todo.get()
            if job is None:
                return
            if job.cancel_requested:
                self._finish(job, "cancelled")
                continue
            job.state = "running"
            job.started = time.monotonic()

            def progress(done=0, total=0, *, _job=job):
                # Engine progress signatures vary; only the numeric
                # (done, total) form is recorded.
                if isinstance(done, (int, float)) and total:
                    _job.progress_done = int(done)
                    _job.progress_total = int(total)

            workload = job.workload
            # Single-flight: when an identical cacheable workload is
            # already running, wait for it instead of recomputing -- the
            # follower's run_cached then serves the leader's stored
            # result.  (Concurrent identical submissions are exactly the
            # many-users case the cache exists for.)
            key = leader = None
            if self.cache is not None and workload.cacheable:
                key = workload.key()
                with self._lock:
                    leader = self._inflight.get(key)
                    if leader is None:
                        self._inflight[key] = job
            try:
                with telemetry.span("job.run", id=job.id,
                                    kind=workload.kind):
                    if leader is not None:
                        while not leader._done.wait(0.05):
                            if job.cancel_requested:
                                raise JobCancelled(job_id=job.id)
                    kwargs = {"checkpoint": self._checkpoint_for(job),
                              "progress": progress,
                              "cancel": job._cancel.is_set}
                    if self.cache is not None:
                        result = workload.run_cached(self.cache, **kwargs)
                    else:
                        result = workload.run(**kwargs)
                job.result = result
                job.cache_hit = result.cache_hit
                self._finish(job, "done")
            except JobCancelled:
                self._finish(job, "cancelled")
            except Exception:
                job.error = traceback.format_exc()
                self._finish(job, "failed")
            finally:
                if key is not None and leader is None:
                    with self._lock:
                        self._inflight.pop(key, None)

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.finished = time.monotonic()
        telemetry.counter_add(f"jobs.{state}")
        job._done.set()
