"""Pluggable execution backends for chunked Monte-Carlo work.

The Monte-Carlo engine decomposes every sweep into independent *chunks*
(see :mod:`repro.mc.engine`): each chunk owns a private random stream, so
chunks may execute in any order, on any worker, and still produce
bit-identical results.  A :class:`Backend` is the strategy that runs
those chunk tasks:

* :class:`SerialBackend`  -- in-process loop (the reference semantics);
* :class:`ThreadBackend`  -- :class:`~concurrent.futures.ThreadPoolExecutor`;
  effective because the heavy lifting is NumPy linear algebra that
  releases the GIL;
* :class:`ProcessBackend` -- a ``fork``-started multiprocessing pool.
  Chunk closures (evaluators capture design matrices, PDKs, circuit
  builders) are *inherited* by the forked workers rather than pickled,
  so the engine's closure-based evaluator contract works unchanged.

Backends are selected by name -- ``"serial"``, ``"thread"``,
``"process"``, ``"auto"``, optionally with a worker count suffix such as
``"process:8"`` -- via :func:`resolve_backend`.  The selection cascades
``MCConfig.backend`` -> the ``REPRO_EXEC_BACKEND`` environment variable
-> ``"serial"``, so a whole pipeline can be parallelised from the shell
without touching code.

The chunked sweeps (Monte-Carlo and corner engines, sigma-coordinate
batches, the yield ladder's escalation rungs) plan, dispatch, report
progress and gather through :func:`chunk_bounds` and :func:`run_chunks`.

Determinism contract
--------------------
A backend never influences numeric results.  It receives fully-formed
task objects (chunk bounds + a dedicated RNG each) and must only control
*where* and *when* they run.  ``run`` returns results in task-submission
order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Protocol, runtime_checkable

import numpy as np

from .. import telemetry
from ..errors import ReproError

__all__ = [
    "BACKEND_ENV_VAR", "Backend", "SerialBackend", "ThreadBackend",
    "ProcessBackend", "available_backends", "chunk_bounds",
    "default_workers", "resolve_backend", "run_chunks",
]

#: Environment variable consulted when no backend is selected explicitly.
BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"

#: Progress callback: ``(task_index)`` of each finished task.
ProgressFn = Callable[[int], None]

#: Result sink of a worker mapping: ``(task_index, result)``.
_Sink = Callable[[int, object], None]


def default_workers() -> int:
    """Default worker count: the machine's CPU count (at least 1)."""
    return os.cpu_count() or 1


@runtime_checkable
class Backend(Protocol):
    """Strategy for executing independent chunk tasks.

    Implementations must return results in task order and call
    ``progress(index)`` once per completed task (in completion order).
    They must not reorder, duplicate, or drop tasks: the caller owns all
    randomness and result assembly.
    """

    name: str
    workers: int

    def run(self, fn: Callable, tasks: Sequence,
            progress: ProgressFn | None = None) -> list:
        """Apply ``fn`` to every task, returning results in task order."""
        ...  # pragma: no cover


def _map_serial(fn: Callable, tasks: list, workers: int,
                sink: _Sink) -> None:
    for index, task in enumerate(tasks):
        sink(index, fn(task))


class _Backend:
    """The ``run`` body every backend shares: one ``exec.run`` span, the
    ``exec.tasks`` counter, the telemetry-bound task and the serial
    fallback for one task or one worker.  Backends differ only in
    ``_map``, which spreads tasks over ``workers`` and hands each result
    to a sink as it finishes."""

    name: str
    _map = staticmethod(_map_serial)

    def __init__(self, workers: int = 0) -> None:
        self.workers = int(workers) if workers else default_workers()
        if self.workers < 1:
            raise ReproError(f"{self.name} backend needs at least one worker")

    def run(self, fn: Callable, tasks: Sequence,
            progress: ProgressFn | None = None) -> list:
        tasks = list(tasks)
        total = len(tasks)
        workers = min(self.workers, total)
        results: list = [None] * total

        def sink(index: int, value) -> None:
            results[index] = value
            if progress is not None:
                progress(index)

        with telemetry.span("exec.run", backend=self.name, workers=workers,
                            tasks=total):
            telemetry.counter_add("exec.tasks", total)
            # Captured *here*, inside the exec.run span: pool threads run
            # tasks in an empty contextvar context, and forked workers
            # inherit the bound callable's serialisable SpanContext, so
            # chunk spans re-parent onto this span instead of becoming
            # roots.
            fn = telemetry.bind_task(fn)
            mapper = self._map if workers > 1 else _map_serial
            mapper(fn, tasks, workers, sink)
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(_Backend):
    """Single-process, in-order execution (the reference backend)."""

    name = "serial"

    def __init__(self) -> None:
        self.workers = 1


def _map_threads(fn: Callable, tasks: list, workers: int,
                 sink: _Sink) -> None:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = {pool.submit(fn, task): index
                   for index, task in enumerate(tasks)}
        while pending:
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                sink(pending.pop(future), future.result())


class ThreadBackend(_Backend):
    """Thread-pool execution.

    Chunk evaluation is dominated by NumPy batched linear algebra, which
    releases the GIL, so threads give real concurrency without any
    serialisation cost.  Each task carries its own
    :class:`numpy.random.Generator`, so no RNG state is shared between
    threads.
    """

    name = "thread"
    _map = staticmethod(_map_threads)


# The fork-inheritance channel of ProcessBackend: the parent stashes the
# (fn, tasks) payload here immediately before forking the pool; workers
# inherit the binding through the copied address space, so closures and
# their captured arrays never cross a pickle boundary.  Results still
# return through the normal pool pipe (plain arrays pickle fine).
# _FORK_LOCK serialises parent-side pools so two threads can't clobber
# each other's payload between assignment and fork; _FORK_OWNER records
# which process set the payload, so a forked child (different PID) can
# recognise a nested region without confusing it with a sibling pool in
# the parent (same PID), which simply waits its turn on the lock.
_FORK_PAYLOAD: tuple[Callable, list] | None = None
_FORK_OWNER = 0
_FORK_LOCK = threading.Lock()


def _invoke_inherited(index: int):
    fn, tasks = _FORK_PAYLOAD
    return index, fn(tasks[index])


def _map_forked(fn: Callable, tasks: list, workers: int,
                sink: _Sink) -> None:
    global _FORK_PAYLOAD, _FORK_OWNER
    if "fork" not in multiprocessing.get_all_start_methods():
        _map_threads(fn, tasks, workers, sink)
        return
    if _FORK_PAYLOAD is not None and os.getpid() != _FORK_OWNER:
        # Nested parallel region: this process is itself a forked worker
        # (it inherited another pool's payload), so run the inner level
        # serially rather than oversubscribing.  A sibling pool in the
        # same process instead queues on the lock below and keeps its
        # parallelism.
        _map_serial(fn, tasks, workers, sink)
        return
    context = multiprocessing.get_context("fork")
    with _FORK_LOCK:
        _FORK_OWNER = os.getpid()
        _FORK_PAYLOAD = (fn, tasks)
        try:
            with context.Pool(processes=workers) as pool:
                for index, value in pool.imap_unordered(
                        _invoke_inherited, range(len(tasks))):
                    sink(index, value)
        finally:
            _FORK_PAYLOAD = None


class ProcessBackend(_Backend):
    """Multiprocessing execution via a ``fork``-started pool.

    Falls back to a thread pool where the ``fork`` start method is
    unavailable (non-POSIX platforms), and to serial execution for
    degenerate work loads (one task or one worker) where a pool would be
    pure overhead.
    """

    name = "process"
    _map = staticmethod(_map_forked)


def available_backends() -> dict[str, type]:
    """Name -> class mapping of the built-in backends."""
    return {"serial": SerialBackend, "thread": ThreadBackend,
            "process": ProcessBackend}


def _auto_backend(workers: int) -> "Backend":
    cpus = default_workers()
    if cpus <= 1 and not workers:
        return SerialBackend()
    if "fork" in multiprocessing.get_all_start_methods():
        return ProcessBackend(workers)
    return ThreadBackend(workers)


def resolve_backend(spec: "str | Backend | None" = None,
                    workers: int = 0) -> "Backend":
    """Resolve a backend selection to a live backend instance.

    Parameters
    ----------
    spec:
        ``None`` (consult :data:`BACKEND_ENV_VAR`, default ``"serial"``),
        an already-constructed :class:`Backend` (returned as-is), or a
        name: ``"serial"``, ``"thread"``, ``"process"``, ``"auto"``.  A
        ``":N"`` suffix pins the worker count (``"process:8"``).
    workers:
        Worker count used when the name carries no suffix; ``0`` means
        "one per CPU".

    >>> resolve_backend("serial").name
    'serial'
    >>> resolve_backend("thread:3").workers
    3
    """
    if spec is not None and not isinstance(spec, str):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, "") or "serial"
    name, _, count = spec.partition(":")
    name = name.strip().lower()
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ReproError(
                f"bad worker count in backend spec {spec!r}") from None
        if workers < 1:
            raise ReproError(f"worker count must be >= 1 in {spec!r}")
    if name == "auto":
        return _auto_backend(workers)
    try:
        cls = available_backends()[name]
    except KeyError:
        known = ", ".join(sorted(available_backends()) + ["auto"])
        raise ReproError(
            f"unknown execution backend {spec!r} (known: {known})") from None
    if cls is SerialBackend:
        if count:
            raise ReproError(
                f"the serial backend takes no worker count ({spec!r}); "
                "did you mean thread or process?")
        return SerialBackend()
    return cls(workers)


def chunk_bounds(total: int, size: int) -> list[tuple[int, int]]:
    """``[start, stop)`` rows splitting ``total`` rows into chunks of at
    most ``size`` rows (none when ``total`` is 0).

    >>> chunk_bounds(5, 2)
    [(0, 2), (2, 4), (4, 5)]
    """
    if size < 1:
        raise ReproError(f"chunk size must be >= 1, got {size}")
    return [(start, min(start + size, total))
            for start in range(0, total, size)]


def run_chunks(backend: Backend, run_chunk: Callable, tasks: Sequence,
               progress: Callable[[int, int], None] | None = None
               ) -> dict[str, np.ndarray]:
    """Run chunk tasks on ``backend`` and gather their rows.

    Every task starts with its ``start, stop`` rows; ``run_chunk(task)``
    returns a mapping name -> array with ``stop - start`` leading rows.
    ``progress`` (if given) is called with ``(rows_done, rows_total)`` as
    chunks finish -- monotone whatever order they finish in.

    Returns
    -------
    Mapping name -> the chunks' arrays concatenated row-wise in task
    order (``{}`` when there are no tasks).
    """
    tasks = list(tasks)
    on_done = None
    if progress is not None:
        sizes = [task[1] - task[0] for task in tasks]
        total = sum(sizes)
        done = 0

        def on_done(index: int) -> None:
            nonlocal done
            done += sizes[index]
            progress(done, total)

    parts = backend.run(run_chunk, tasks, progress=on_done)
    if not parts:
        return {}
    return {name: np.concatenate([part[name] for part in parts])
            for name in parts[0]}
