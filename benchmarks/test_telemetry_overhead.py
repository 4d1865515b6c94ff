"""Telemetry overhead gate: disabled instrumentation must be near-free.

The telemetry call sites (``telemetry.span`` / ``telemetry.counter_add``
/ ``telemetry.bind_task``) sit inside the engines' chunk loops, so they
run on every Monte-Carlo chunk of every flow.  This benchmark times the
same corner-sweep-scale Monte-Carlo run three ways:

* **stripped** -- the telemetry facade monkeypatched to bare stubs, the
  closest measurable stand-in for code with no instrumentation at all;
* **disabled** -- the shipped default (no sink configured);
* **enabled** -- a live JSONL sink recording every span and metric.

The hard gate: the disabled path costs at most 2 % over stripped (plus
a small absolute floor that absorbs timer noise on busy CI runners).
The enabled overhead is only *recorded* -- tracing is opt-in and pays
for the events it writes.

Writes ``benchmarks/results/telemetry_overhead.txt``.
"""

import gc
import time

import numpy as np

from repro import telemetry
from repro.designs.ota import OTAParameters, evaluate_ota
from repro.mc import MCConfig, monte_carlo_points
from repro.process import C35
from repro.telemetry import NULL_SPAN

from conftest import FULL_SCALE

POINTS = 32 if FULL_SCALE else 12
SAMPLES = 50 if FULL_SCALE else 25
CHUNK_LANES = 100  # many chunks => many span/counter call sites hit
REPEATS = 7
#: Relative gate on the disabled-vs-stripped overhead.
MAX_DISABLED_OVERHEAD = 0.02
#: Absolute slack [s] absorbing scheduler/timer noise at reduced scale.
NOISE_FLOOR = 0.005


def _sweep():
    points = OTAParameters.from_normalized(
        np.linspace(0.15, 0.85, POINTS)[:, None]
        * np.ones((POINTS, 8))).to_array()

    def evaluator(point_indices, repeats, die_sample):
        tiled = OTAParameters.from_array(
            np.repeat(points[point_indices], repeats, axis=0))
        performance = evaluate_ota(tiled, variations=die_sample)
        return {"gain_db": performance["gain_db"],
                "pm_deg": performance["pm_deg"]}

    config = MCConfig(n_samples=SAMPLES, seed=2008,
                      chunk_lanes=CHUNK_LANES)
    return monte_carlo_points(evaluator, POINTS, C35, config)


def _best_of(fn, repeats=REPEATS):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _stripped(monkeypatch):
    """Patch the facade the call sites resolve at run time to stubs."""
    monkeypatch.setattr(telemetry, "span",
                        lambda name, **attributes: NULL_SPAN)
    monkeypatch.setattr(telemetry, "counter_add",
                        lambda name, amount=1: None)
    monkeypatch.setattr(telemetry, "gauge_set", lambda name, value: None)
    monkeypatch.setattr(telemetry, "bind_task", lambda fn: fn)
    monkeypatch.setattr(telemetry, "emit",
                        lambda event_type, **fields: None)
    monkeypatch.setattr(telemetry, "enabled", lambda: False)


def test_disabled_overhead_under_gate(emit, monkeypatch, tmp_path):
    telemetry.shutdown()  # the shipped default: no sink
    _sweep()  # warm-up: page in the kernels before any timing

    # Pair the gated modes round by round and gate on the *median*
    # per-round delta: slow drift (thermal, noisy-neighbour CI load)
    # lands on both halves of a pair equally, and the median shrugs
    # off the odd descheduled round that would sink a min-of-runs
    # comparison.  GC stays off during timed regions -- a collection
    # landing in one half of a pair is pure noise.
    stripped_times, deltas = [], []
    stripped = disabled = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(REPEATS):
            gc.collect()
            gc.disable()
            with monkeypatch.context() as patch:
                _stripped(patch)
                start = time.perf_counter()
                stripped = _sweep()
                t_stripped = time.perf_counter() - start
            start = time.perf_counter()
            disabled = _sweep()
            t_disabled = time.perf_counter() - start
            if gc_was_enabled:
                gc.enable()
            stripped_times.append(t_stripped)
            deltas.append(t_disabled - t_stripped)
    finally:
        if gc_was_enabled:
            gc.enable()

    events = tmp_path / "overhead_events.jsonl"
    with telemetry.session(events):
        t_enabled, enabled = _best_of(_sweep)

    # Telemetry never changes numeric results, in any mode.
    for name in stripped:
        np.testing.assert_array_equal(stripped[name], disabled[name])
        np.testing.assert_array_equal(stripped[name], enabled[name])

    t_stripped = float(np.median(stripped_times))
    delta = float(np.median(deltas))
    disabled_overhead = delta / t_stripped
    enabled_overhead = (t_enabled - t_stripped) / t_stripped
    n_chunks = POINTS // max(1, CHUNK_LANES // SAMPLES) + 1
    emit("telemetry_overhead", "\n".join([
        f"sweep: {POINTS} points x {SAMPLES} samples, "
        f"chunk_lanes={CHUNK_LANES} (~{n_chunks} chunks), "
        f"median of {REPEATS} paired rounds",
        f"gate: disabled overhead <= {100 * MAX_DISABLED_OVERHEAD:.0f}% "
        f"(+{NOISE_FLOOR * 1e3:.0f} ms noise floor)",
    ]), [
        f"stripped (no instrumentation) : {t_stripped * 1e3:8.1f} ms",
        f"disabled (shipped default)    : {(t_stripped + delta) * 1e3:8.1f}"
        f" ms  ({100 * disabled_overhead:+.2f}%)",
        f"enabled  (JSONL sink)         : {t_enabled * 1e3:8.1f} ms  "
        f"({100 * enabled_overhead:+.2f}%)",
        f"events recorded               : {len(events.read_bytes())} bytes",
    ])

    assert delta <= t_stripped * MAX_DISABLED_OVERHEAD + NOISE_FLOOR, (
        f"disabled telemetry costs {100 * disabled_overhead:.2f}% "
        f"(gate {100 * MAX_DISABLED_OVERHEAD:.0f}%)")
