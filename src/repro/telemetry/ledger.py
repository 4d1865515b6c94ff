"""Simulation-cost accounting.

The paper's efficiency claim (Table 5: 4 CPU-hours vs a previously
reported 7 hours; behavioural reuse amortising the one-time model cost) is
about *simulator work*.  :class:`SimulationLedger` records, per flow
stage, how many circuit evaluations were spent and how long they took, so
every benchmark can report the proposed-vs-conventional cost ratio on the
same footing as the paper.

Every row is recorded through :meth:`SimulationLedger.timed`, which runs
the block inside the stage's ``flow.stage`` span and stamps the block's
``simulations`` and ``seconds`` onto it: ``repro trace`` rebuilds the
ledger table from those spans alone
(:func:`repro.telemetry.render.render_trace`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .. import telemetry

__all__ = ["StageRecord", "SimulationLedger"]


@dataclass
class StageRecord:
    """Cost of one flow stage (or of one timed block of it)."""

    name: str
    simulations: int = 0
    wall_seconds: float = 0.0

    def add(self, simulations: int, wall_seconds: float) -> None:
        self.simulations += simulations
        self.wall_seconds += wall_seconds


@dataclass
class SimulationLedger:
    """Ordered collection of per-stage cost records."""

    stages: dict[str, StageRecord] = field(default_factory=dict, init=False)

    @contextmanager
    def timed(self, stage: str, simulations: int = 0):
        """Run a block of ``stage`` inside its span and record its cost.

        Yields the block's :class:`StageRecord`, starting at
        ``simulations``; the caller adds what it simulates inside the
        block to its ``simulations``.  On exit the block's count and wall
        time are added to the stage's row (created on first use) and
        stamped onto the ``flow.stage`` span.  Blocks must not nest, so
        no second is counted twice.
        """
        row = self.stages.setdefault(stage, StageRecord(stage))
        block = StageRecord(stage, simulations)
        with telemetry.span("flow.stage", stage=stage) as span:
            start = time.perf_counter()
            try:
                yield block
            finally:
                block.wall_seconds = time.perf_counter() - start
                row.add(block.simulations, block.wall_seconds)
                span.set(simulations=int(block.simulations),
                         seconds=block.wall_seconds)

    @property
    def total_simulations(self) -> int:
        return sum(record.simulations for record in self.stages.values())

    @property
    def total_seconds(self) -> float:
        return sum(record.wall_seconds for record in self.stages.values())

    def as_rows(self) -> list[tuple[str, int, float]]:
        """``(stage, simulations, seconds)`` rows plus a total row."""
        rows = [(record.name, record.simulations, record.wall_seconds)
                for record in self.stages.values()]
        rows.append(("TOTAL", self.total_simulations, self.total_seconds))
        return rows

    def table(self) -> str:
        """Aligned text table (the Table-5 style summary)."""
        lines = [f"{'stage':<32} {'simulations':>12} {'seconds':>10}"]
        for name, sims, seconds in self.as_rows():
            lines.append(f"{name:<32} {sims:>12d} {seconds:>10.2f}")
        return "\n".join(lines)
