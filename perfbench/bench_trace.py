"""Per-layer tracing from outside the program.

:func:`instrumented` wraps the public functions at the layer boundaries
in ``repro.telemetry`` spans -- the names ``repro.designs.ota``
resolves (circuit build, DC, AC, measurements), the process-kit
samplers, the corner sweep, the estimator ladder, the result cache and
workload fingerprinting -- and restores the originals on exit.  Spans
the program already opens (``mc.chunk``, ``exec.run``, ``job.run``,
``yield.*``, ``rare.*``, ``surrogate.*``) land in the same event file,
so :func:`layer_metrics` can take self time from one span tree.

The untraced runs that produce the end-to-end metrics never call this.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager

from repro import telemetry
from repro.cache.store import ResultCache
from repro.designs import ota as ota_module
from repro.optimize import ladder as ladder_module
from repro.optimize.ladder import EstimatorLadder
from repro.process.pdk import ProcessKit
from repro.telemetry import span_tree
from repro.workload import units as units_module
from repro.workload.base import Workload

#: Per-layer metrics in ``BENCHMARK.json`` order.  Seconds and counts are
#: per repeat of the workload's unit of work.
LAYER_METRICS = (
    ("circuit.build.s", "s"),
    ("analysis.dc.s", "s"), ("analysis.dc.calls", "count"),
    ("analysis.dc.lanes", "count"), ("analysis.dc.newton_iters", "count"),
    ("analysis.dc.fallbacks", "count"),
    ("analysis.ac.s", "s"), ("analysis.ac.calls", "count"),
    ("analysis.ac.lanes", "count"), ("analysis.ac.lanes_per_s", "1/s"),
    ("measure.s", "s"),
    ("process.sample.s", "s"),
    ("mc.chunk.count", "count"), ("mc.chunk.self_s", "s"),
    ("mc.lanes", "count"),
    ("exec.run.s", "s"), ("exec.tasks", "count"), ("exec.idle_s", "s"),
    ("corners.lanes", "count"), ("corners.s", "s"),
    ("surrogate.train.s", "s"), ("surrogate.evaluations", "count"),
    ("yieldmodel.importance.s", "s"), ("yieldmodel.streaming.s", "s"),
    ("yieldmodel.rare.s", "s"), ("estimator.simulations", "count"),
    ("optimize.ladder.s", "s"), ("optimize.ladder.sims.f0", "count"),
    ("optimize.ladder.sims.f1", "count"),
    ("optimize.ladder.sims.f2", "count"),
    ("optimize.ladder.escalated_ratio", "ratio"),
    ("moo.ga.self_s", "s"),
    ("workload.fingerprint.s", "s"),
    ("cache.get.s", "s"), ("cache.get.calls", "count"),
    ("cache.put.s", "s"), ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "B"),
    ("service.queue_wait_ms", "ms"), ("service.job.s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
)

#: Span the benchmark opens around each traced repeat.
REPEAT_SPAN = "bench.repeat"


def _lanes(value) -> int:
    shape = getattr(value, "shape", ())
    return int(shape[0]) if shape else 1


def _wrap(name, fn, lanes_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {"lanes": lanes_of(*args, **kwargs)} if lanes_of else {}
        with telemetry.span(name, **attrs):
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
    return wrapper


def _dc_counters(op) -> None:
    telemetry.counter_add("analysis.dc.newton_iters", int(op.iterations))
    if op.strategy != "newton":
        telemetry.counter_add("analysis.dc.fallbacks")


def _build_lanes(params, **kwargs) -> int:
    variations = kwargs.get("variations")
    return variations.size if variations is not None else params.batch()


def _corner_lanes(evaluator, n_points, pdk, grid, **kwargs) -> int:
    return int(n_points) * grid.size


def _patches():
    """``(owner, attribute, replacement)`` for every boundary wrapper."""
    ota = ota_module
    patches = [
        (ota, "build_ota", _wrap("circuit.build", ota.build_ota,
                                 _build_lanes)),
        (ota, "dc_operating_point",
         _wrap("analysis.dc", ota.dc_operating_point,
               lambda circuit, **kw: circuit.batch, _dc_counters)),
        (ota, "ac_analysis",
         _wrap("analysis.ac", ota.ac_analysis,
               lambda circuit, freqs, **kw: kw["op"].batch)),
        (ProcessKit, "sample", _wrap("process.sample", ProcessKit.sample,
                                     lambda self, size, *a, **kw: size)),
        (ProcessKit, "sample_from_sigma",
         _wrap("process.sample", ProcessKit.sample_from_sigma,
               lambda self, x, **kw: _lanes(x))),
        (ladder_module, "corner_sweep_points",
         _wrap("corners.sweep", ladder_module.corner_sweep_points,
               _corner_lanes)),
        (units_module, "corner_sweep_points",
         _wrap("corners.sweep", units_module.corner_sweep_points,
               _corner_lanes)),
        (EstimatorLadder, "estimate_batch",
         _wrap("optimize.ladder", EstimatorLadder.estimate_batch,
               lambda self, unit, **kw: _lanes(unit))),
        (ResultCache, "get", _wrap("cache.get", ResultCache.get)),
        (ResultCache, "put", _wrap("cache.put", ResultCache.put)),
        (Workload, "fingerprint",
         _wrap("workload.fingerprint", Workload.fingerprint)),
    ]
    for name in ("dc_gain_db", "phase_margin", "unity_gain_frequency",
                 "f3db"):
        fn = getattr(ota, name)
        patches.append((ota, name, _wrap(
            "measure", fn, lambda *args, **kw: _lanes(args[-1]))))
    return patches


@contextmanager
def instrumented(events_path):
    """Append spans to ``events_path`` with the boundary wrappers on."""
    patches = _patches()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    telemetry.configure(events_path, max_bytes=None, fresh=False)
    try:
        yield
    finally:
        telemetry.shutdown()
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _walk(roots):
    """Every span node with the names of its ancestors."""
    stack = [(root, frozenset()) for root in roots]
    while stack:
        node, above = stack.pop()
        yield node, above
        below = above | {node.name}
        stack.extend((child, below) for child in node.children)


def span_table(events) -> dict[str, dict]:
    """Count, busy, self time and lanes/s per span name.

    Busy time counts only the outermost span of a name (a nested
    ``exec.run`` inside a pooled task is not counted twice).
    """
    table: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0, "lanes": 0})
    for node, above in _walk(span_tree(events)):
        row = table[node.name]
        row["count"] += 1
        row["self_s"] += node.self_time
        if node.name not in above:
            row["busy_s"] += node.cumulative
            row["lanes"] += int(node.attrs.get("lanes", 0) or 0)
    for row in table.values():
        row["lanes_per_s"] = (row["lanes"] / row["busy_s"]
                              if row["busy_s"] > 0 else 0.0)
    return dict(sorted(table.items()))


def _exec_idle(events) -> float:
    """Workers x ``exec.run`` time minus the time of its task spans."""
    idle = 0.0
    for node, above in _walk(span_tree(events)):
        if node.name == "exec.run" and "exec.run" not in above:
            workers = int(node.attrs.get("workers", 1) or 1)
            busy = sum(child.cumulative for child in node.children)
            idle += max(0.0, workers * node.cumulative - busy)
    return idle


def _counters(events) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for event in events:
        if event.get("type") == "metric":
            totals[event["name"]] += int(event.get("delta", 0))
    return totals


def layer_metrics(events, repeats, *, overhead_ratio: float,
                  attempted: int, failed: int) -> dict[str, float]:
    """The per-layer metrics of one traced phase.

    ``repeats`` are the traced :class:`~bench_workloads.Repeat` objects;
    sums over the phase are divided by their number.
    """
    n = max(1, len(repeats))
    spans = span_table(events)
    counts = _counters(events)

    def busy(*names):
        return sum(spans[name]["busy_s"] for name in names
                   if name in spans) / n

    def calls(name):
        return spans[name]["count"] / n if name in spans else 0.0

    def lanes(name):
        return spans[name]["lanes"] / n if name in spans else 0.0

    def extra(key):
        return [repeat.extras[key] for repeat in repeats
                if key in repeat.extras]

    ac_s = busy("analysis.ac")
    ladder_sims = [sum(values) for values in zip(*extra("ladder_sims"))]
    resolved = [sum(values) for values in zip(*extra("ladder_resolved"))]
    lookups = counts["cache.hits"] + counts["cache.misses"]
    waits = []
    submitted = {}
    for mapping in extra("submitted"):
        submitted.update(mapping)
    for node, _ in _walk(span_tree(events)):
        if node.name == "job.run" and node.attrs.get("id") in submitted:
            waits.append(node.opened - submitted[node.attrs["id"]])
    cache_bytes = extra("cache_bytes")
    metrics = {
        "circuit.build.s": busy("circuit.build"),
        "analysis.dc.s": busy("analysis.dc"),
        "analysis.dc.calls": calls("analysis.dc"),
        "analysis.dc.lanes": lanes("analysis.dc"),
        "analysis.dc.newton_iters": counts["analysis.dc.newton_iters"] / n,
        "analysis.dc.fallbacks": counts["analysis.dc.fallbacks"] / n,
        "analysis.ac.s": ac_s,
        "analysis.ac.calls": calls("analysis.ac"),
        "analysis.ac.lanes": lanes("analysis.ac"),
        "analysis.ac.lanes_per_s": (lanes("analysis.ac") / ac_s
                                    if ac_s > 0 else 0.0),
        "measure.s": busy("measure"),
        "process.sample.s": busy("process.sample"),
        "mc.chunk.count": calls("mc.chunk"),
        "mc.chunk.self_s": (spans["mc.chunk"]["self_s"] / n
                            if "mc.chunk" in spans else 0.0),
        "mc.lanes": counts["mc.lanes"] / n,
        "exec.run.s": busy("exec.run"),
        "exec.tasks": counts["exec.tasks"] / n,
        "exec.idle_s": _exec_idle(events) / n,
        "corners.lanes": lanes("corners.sweep"),
        "corners.s": busy("corners.sweep"),
        "surrogate.train.s": (busy("surrogate.train")
                              + sum(extra("surrogate_s")) / n),
        "surrogate.evaluations": counts["surrogate.evaluations"] / n,
        "yieldmodel.importance.s": busy("yield.importance.pilot",
                                        "yield.importance.main"),
        "yieldmodel.streaming.s": busy("yield.streaming"),
        "yieldmodel.rare.s": busy("rare.level", "rare.final"),
        "estimator.simulations": counts["estimator.simulations"] / n,
        "optimize.ladder.s": busy("optimize.ladder"),
        "optimize.ladder.sims.f0": ladder_sims[0] / n if ladder_sims else 0,
        "optimize.ladder.sims.f1": ladder_sims[1] / n if ladder_sims else 0,
        "optimize.ladder.sims.f2": ladder_sims[2] / n if ladder_sims else 0,
        "optimize.ladder.escalated_ratio": (resolved[2] / sum(resolved)
                                            if resolved and sum(resolved)
                                            else 0.0),
        "moo.ga.self_s": (spans[REPEAT_SPAN]["self_s"] / n
                          if ladder_sims and REPEAT_SPAN in spans else 0.0),
        "workload.fingerprint.s": busy("workload.fingerprint"),
        "cache.get.s": busy("cache.get"),
        "cache.get.calls": calls("cache.get"),
        "cache.put.s": busy("cache.put"),
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "cache.bytes": sum(cache_bytes) / len(cache_bytes)
        if cache_bytes else 0.0,
        "service.queue_wait_ms": 1e3 * sum(waits) / len(waits)
        if waits else 0.0,
        "service.job.s": busy("job.run"),
        "telemetry.overhead_ratio": overhead_ratio,
        "failed_ratio": failed / attempted if attempted else 0.0,
    }
    return {name: float(metrics[name]) for name, _ in LAYER_METRICS}
