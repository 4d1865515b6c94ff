"""Thread-safe counters and gauges behind one ``snapshot()``.

The registry gathers operational counters from every layer -- cache
hits and stores (mirroring each ``ResultCache``'s ``CacheStats``),
backend chunk/lane tallies, estimator simulation-call counts -- into a
single process-wide namespace.  It is
always on (an increment is a dict lookup plus an integer add under one
lock, far below the cost of the array work it counts), while the event
*sink* (:mod:`repro.telemetry.events`) stays strictly opt-in.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["Counter", "Gauge", "MetricsRegistry", "GAUGE_HISTORY"]

#: Timestamped samples retained per gauge (a bounded ring, so a
#: long-lived daemon's registry never grows without bound).
GAUGE_HISTORY = 512


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value with a bounded timestamped history.

    Every :meth:`set` appends a ``(unix_time, value)`` sample to the
    ring, so a periodically-sampled gauge (the daemon's cache size, the
    queue's per-state counts) carries its recent trajectory -- the
    ROADMAP's "cache-size telemetry over time" -- not just the latest
    reading.
    """

    __slots__ = ("name", "value", "updated", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updated = 0.0
        self.samples: deque = deque(maxlen=GAUGE_HISTORY)

    def set(self, value: float) -> None:
        now = time.time()
        self.value = float(value)
        self.updated = now
        self.samples.append((now, float(value)))


class MetricsRegistry:
    """Named counters/gauges behind one lock and snapshot.

    All mutation goes through :meth:`counter_add` / :meth:`gauge_set`,
    which create instruments on first use -- call sites never
    pre-register anything.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    # -- mutation ---------------------------------------------------------
    def counter_add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.add(amount)

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            gauge.set(value)

    # -- inspection -------------------------------------------------------
    def counter_value(self, name: str) -> int:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def gauge_samples(self, name: str) -> list[tuple[float, float]]:
        with self._lock:
            gauge = self._gauges.get(name)
            return list(gauge.samples) if gauge is not None else []

    def snapshot(self) -> dict:
        """One JSON-able view of every instrument.

        ``{"counters": {name: int},
           "gauges": {name: {"value", "updated", "samples"}}}``
        """
        with self._lock:
            return {
                "counters": {name: counter.value
                             for name, counter in
                             sorted(self._counters.items())},
                "gauges": {name: {"value": gauge.value,
                                  "updated": gauge.updated,
                                  "samples": [list(sample) for sample
                                              in gauge.samples]}
                           for name, gauge in sorted(self._gauges.items())},
            }

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
