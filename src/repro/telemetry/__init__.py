"""Unified telemetry: tracing spans, a metrics registry, a JSONL sink.

One subsystem sees every layer end to end:

* **Spans** (:mod:`.tracer`) -- hierarchical timed regions
  (``telemetry.span("mc.chunk", lanes=...)``) that nest via contextvars
  across serial and threaded execution and re-parent across the forked
  process backend through a serialisable :class:`~.tracer.SpanContext`
  handoff (:func:`bind_task`).
* **Metrics** (:mod:`.metrics`) -- process-wide counters and gauges
  behind one :func:`snapshot`.  The registry is always on; it never
  affects numeric results.
* **Ledger** (:mod:`.ledger`) -- the per-stage simulation-cost ledger
  behind Table 5; each row is recorded on its ``flow.stage`` span.
* **Events** (:mod:`.events`) -- an opt-in JSONL sink recording span
  open/close, metric deltas, progress announcements and periodic gauge
  samples; crash-safe single-write appends with size-capped rotation.
* **Renderers** (:mod:`.render`) -- ``repro trace`` rebuilds the span
  tree with self/cumulative time and the flow ledger's per-stage
  simulation counts from the stage spans; ``repro stats`` asks a live
  daemon for a snapshot.

Off by default and near-free when disabled: :func:`span` returns a
shared no-op, :func:`bind_task` returns its argument unchanged, and no
sink is ever allocated (``benchmarks/test_telemetry_overhead.py`` gates
the disabled-path overhead).  Enable via the ``REPRO_TELEMETRY``
environment variable (a JSONL path), ``FlowConfig.telemetry``, or
``repro ... --telemetry events.jsonl``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .events import DEFAULT_MAX_BYTES, EventSink, load_events
from .ledger import SimulationLedger, StageRecord
from .metrics import Counter, Gauge, MetricsRegistry
from .render import render_trace, span_tree
from .tracer import NULL_SPAN, Span, SpanContext, Tracer

__all__ = [
    "TELEMETRY_ENV_VAR", "REGISTRY", "configure", "shutdown", "enabled",
    "session", "span", "current_context", "bind_task", "emit",
    "counter_add", "gauge_set", "snapshot", "announcer",
    # submodule surface
    "Counter", "Gauge", "MetricsRegistry", "EventSink", "load_events",
    "SimulationLedger", "StageRecord", "Span", "SpanContext", "Tracer",
    "NULL_SPAN", "render_trace", "span_tree", "DEFAULT_MAX_BYTES",
]

#: Environment variable enabling telemetry process-wide: its value is
#: the JSONL events path.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: The process-wide metrics registry (always on).
REGISTRY = MetricsRegistry()

_SINK: EventSink | None = None
_TRACER: Tracer | None = None


# -- lifecycle ------------------------------------------------------------
def configure(path, *, max_bytes: int | None = DEFAULT_MAX_BYTES,
              fresh: bool = True) -> None:
    """Enable telemetry: open a JSONL sink at ``path`` and start tracing.

    ``fresh=True`` truncates the file, so one run's trace is one file.
    """
    global _SINK, _TRACER
    sink = EventSink(path, max_bytes=max_bytes, fresh=fresh)
    _SINK = sink
    _TRACER = Tracer(sink.emit)


def shutdown() -> None:
    """Disable telemetry (the registry keeps its counts)."""
    global _SINK, _TRACER
    sink = _SINK
    _SINK = None
    _TRACER = None
    if sink is not None:
        sink.close()


def enabled() -> bool:
    """Whether spans and events are being recorded."""
    return _TRACER is not None


@contextmanager
def session(path=None, *, fresh: bool = True):
    """Scoped enablement: configure for the block, then restore.

    With a falsy ``path`` the ambient state (e.g. env-enabled
    telemetry) is left untouched -- the flows pass
    ``config.telemetry`` straight in.
    """
    if not path:
        yield
        return
    previous = (_SINK, _TRACER)
    configure(path, fresh=fresh)
    try:
        yield
    finally:
        _restore(previous)


def _restore(previous) -> None:
    global _SINK, _TRACER
    _SINK, _TRACER = previous


# -- tracing --------------------------------------------------------------
def span(name: str, **attributes):
    """An open span context manager (a shared no-op when disabled)."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, attributes)


def current_context() -> SpanContext | None:
    """The ambient span context, serialisable across process forks."""
    tracer = _TRACER
    return tracer.current_context() if tracer is not None else None


def bind_task(fn):
    """Wrap a task callable so spans it opens parent onto the caller.

    The identity function when telemetry is disabled or no span is
    open; otherwise the current :class:`SpanContext` is captured *now*
    (at submission) and re-attached around every invocation -- exactly
    what thread pools (empty worker context) and forked workers
    (cross-process events) need for correct nesting.
    """
    tracer = _TRACER
    if tracer is None:
        return fn
    context = tracer.current_context()
    if context is None:
        return fn

    def bound(task):
        with tracer.attach(context):
            return fn(task)

    return bound


# -- events ---------------------------------------------------------------
def emit(event_type: str, **fields) -> None:
    """Record one free-form event (dropped when disabled)."""
    sink = _SINK
    if sink is not None:
        fields["type"] = event_type
        fields.setdefault("t", time.time())
        sink.emit(fields)


def announcer(progress):
    """A ``say(message)`` callable: forward to ``progress`` + record.

    The printed output is byte-identical to the old
    ``progress or (lambda message: None)`` plumbing; when telemetry is
    enabled each announcement is additionally recorded as a
    ``progress`` event.
    """

    def say(message):
        if progress is not None:
            progress(message)
        sink = _SINK
        if sink is not None:
            sink.emit({"type": "progress", "t": time.time(),
                       "message": str(message)})

    return say


# -- metrics --------------------------------------------------------------
def counter_add(name: str, amount: int = 1) -> None:
    """Bump a registry counter; record the delta when a sink is open."""
    REGISTRY.counter_add(name, amount)
    sink = _SINK
    if sink is not None:
        sink.emit({"type": "metric", "t": time.time(), "name": name,
                   "delta": int(amount)})


def gauge_set(name: str, value: float) -> None:
    """Set a registry gauge; record the sample when a sink is open."""
    REGISTRY.gauge_set(name, value)
    sink = _SINK
    if sink is not None:
        sink.emit({"type": "gauge", "t": time.time(), "name": name,
                   "value": float(value)})


def snapshot() -> dict:
    """The registry's full counters/gauges snapshot."""
    return REGISTRY.snapshot()


def _init_from_environment() -> None:
    import os

    path = os.environ.get(TELEMETRY_ENV_VAR, "").strip()
    if path:
        # Appending (fresh=False) rather than truncating: every process
        # of a pipeline run under one REPRO_TELEMETRY shares the file.
        configure(path, fresh=False)


_init_from_environment()
