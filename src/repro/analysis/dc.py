"""DC operating-point analysis: batched Newton-Raphson with homotopies.

The solver runs damped Newton-Raphson on the whole circuit batch at once.
If plain iteration fails it escalates through the two classic SPICE
continuation strategies:

1. **gmin stepping** -- a large conductance to ground is added to every
   node and decades are peeled off until only the floor ``GMIN`` remains;
2. **source stepping** -- all independent sources are ramped from a small
   fraction to 100 %.

Only if both fail does :class:`~repro.errors.ConvergenceError` escape.
Convergence is tracked per lane and converged lanes are frozen so
late-converging lanes cannot disturb them; each iteration stamps and
solves only the lanes still moving, and each fallback runs only on the
lanes the previous strategy left unconverged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, SingularMatrixError
from .mna import Assembler, format_lanes, solve_batched

__all__ = ["OperatingPoint", "dc_operating_point"]

#: Conductance floor always present on node diagonals (SPICE GMIN).
GMIN_FLOOR = 1e-12

#: Iteration budget per Newton attempt.
MAX_ITERATIONS = 200
#: Per-unknown convergence test ``|dx| <= RELTOL*|x| + VABSTOL``.
RELTOL = 1e-6
VABSTOL = 1e-9
#: Per-iteration per-unknown update clamp [V]: the damping that keeps
#: exponential device models from overshooting.
DV_LIMIT = 0.5
#: gmin stepping walks ``GMIN_STEPS`` decades-spaced conductances from
#: ``10**-GMIN_START_EXPONENT`` down to 1e-12.
GMIN_START_EXPONENT = 2
GMIN_STEPS = 11
#: Number of source-stepping ramp points.
SOURCE_STEPS = 12


@dataclass
class OperatingPoint:
    """Result of a DC operating-point analysis.

    Attributes
    ----------
    x:
        Solution vector, shape ``(B, N)`` -- node voltages followed by
        auxiliary branch currents.
    iterations:
        Total Newton iterations spent (all strategies).
    strategy:
        The strongest strategy any lane needed: ``"newton"``, ``"gmin"``
        or ``"source"``.
    """

    circuit: object
    assembler: Assembler
    x: np.ndarray
    iterations: int
    strategy: str

    @property
    def batch(self) -> int:
        return self.x.shape[0]

    def v(self, node: str) -> np.ndarray:
        """Node voltage(s), shape ``(B,)``; ground returns zeros."""
        index = self.assembler.topology.index_of(node)
        if index < 0:
            return np.zeros(self.batch)
        return self.x[:, index]

    def branch_current(self, source_name: str) -> np.ndarray:
        """Branch current of a voltage source, shape ``(B,)``.

        Sign convention: positive current flows from the ``plus`` node
        through the source to ``minus`` (SPICE).
        """
        element = self.circuit.element(source_name)
        return self.x[:, element.branch_index]

    def device(self, name: str) -> dict[str, np.ndarray]:
        """Operating-point report of a (nonlinear) device."""
        return self.circuit.element(name).op_info(self.x)

    def report(self) -> str:
        """Human-readable OP table (first batch lane)."""
        lines = [f"* operating point ({self.strategy}, {self.iterations} iterations)"]
        for name in self.assembler.topology.node_names:
            lines.append(f"  V({name}) = {self.v(name)[0]: .6g} V")
        for element in self.circuit.nonlinear_elements():
            info = element.op_info(self.x)
            if not info:
                continue
            parts = ", ".join(
                f"{key}={np.asarray(val).reshape(-1)[0]:.4g}"
                for key, val in info.items())
            lines.append(f"  {element.name}: {parts}")
        return "\n".join(lines)


def _newton_attempt(assembler: Assembler, x0: np.ndarray, *, gmin: float,
                    source_scale: float, lanes: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """One damped-Newton run; returns ``(x, converged, iterations)``.

    ``converged`` is the per-row convergence mask.  A lane is frozen once
    its step is within tolerance, and later iterations stamp and solve
    only the lanes still moving, so the cost follows the lanes' total
    iterations rather than the slowest lane's.  With ``lanes`` (batch
    indices), ``x0`` holds those lanes of the batch only.  Each lane's
    arithmetic is the same as in a whole-batch solve.
    """
    x = x0.copy()
    rows = x.shape[0]
    batch = rows if lanes is None else assembler.batch
    moving = np.arange(rows)  # rows still iterating
    converged = np.zeros(rows, dtype=bool)
    for iteration in range(1, MAX_ITERATIONS + 1):
        whole = lanes is None and moving.size == rows
        x_moving = x if whole else x[moving]
        subset = moving if lanes is None else lanes[moving]
        G, rhs = assembler.newton_system(
            x_moving, gmin=gmin + GMIN_FLOOR, source_scale=source_scale,
            lanes=None if whole else subset)
        try:
            x_new = solve_batched(G, rhs)
        except SingularMatrixError as exc:
            if whole or exc.lane_indices is None:
                raise
            bad = [int(subset[i]) for i in exc.lane_indices]
            raise SingularMatrixError(
                f"singular MNA matrix in lane(s) {bad} of {batch} "
                "(floating node or voltage-source loop?)",
                lane_indices=bad) from exc
        dx = np.clip(x_new - x_moving, -DV_LIMIT, DV_LIMIT)
        tol = RELTOL * np.abs(x_moving) + VABSTOL
        done = np.all(np.abs(dx) <= tol, axis=1)
        if whole:
            x = x_moving + dx
        else:
            x[moving] = x_moving + dx
        converged[moving[done]] = True
        moving = moving[~done]
        if not moving.size:
            return x, converged, iteration
    return x, converged, MAX_ITERATIONS


def _continuation(assembler: Assembler, x: np.ndarray, lanes: np.ndarray,
                  steps) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk ``lanes`` (starting at rows ``x``) through the continuation
    ``steps`` (``(gmin, source_scale)`` pairs), then a clean solve at
    full source scale.  A lane that fails any step drops out; returns
    ``(x, lanes, iterations)`` of the lanes that converged."""
    iterations = 0
    for gmin, scale in [*steps, (0.0, 1.0)]:
        if not lanes.size:
            break
        x, ok, used = _newton_attempt(assembler, x, gmin=gmin,
                                      source_scale=scale, lanes=lanes)
        iterations += used
        x, lanes = x[ok], lanes[ok]
    return x, lanes, iterations


def dc_operating_point(circuit, *,
                       x0: np.ndarray | None = None) -> OperatingPoint:
    """Solve the DC operating point of ``circuit``.

    Plain Newton runs on the whole batch; only the lanes it leaves
    unconverged go on to gmin stepping, and only the lanes gmin stepping
    cannot solve go on to source stepping, so a hard lane never changes
    the other lanes' solutions.  :attr:`OperatingPoint.strategy` is the
    strongest strategy any lane needed.

    Parameters
    ----------
    circuit:
        The circuit to solve; may be batched.
    x0:
        Optional initial guess ``(B, N)``, or one ``(N,)`` row for every
        lane (warm start).  Plain Newton and gmin stepping start from
        it; source stepping always starts from zero.

    Raises
    ------
    ConvergenceError
        If Newton, gmin stepping and source stepping all fail on some
        lane; the error names those lanes and carries the per-lane
        ``converged_mask``.
    """
    assembler = Assembler(circuit)
    n, batch = assembler.n, assembler.batch
    x = np.zeros((batch, n)) if x0 is None else np.array(x0, dtype=float)
    if x.ndim == 1:
        x = np.broadcast_to(x, (batch, n)).copy()

    # Strategy 1: plain Newton from the initial guess.
    x_sol, converged, total_iterations = _newton_attempt(
        assembler, x, gmin=0.0, source_scale=1.0)
    strategy = "newton"

    # Strategy 2: gmin stepping from the initial guess; strategy 3:
    # source stepping from zero (with a light gmin safety net removed
    # at the final full-scale clean solve).
    gmin_steps = [(10.0 ** exponent, 1.0) for exponent in
                  np.linspace(-GMIN_START_EXPONENT, -12, GMIN_STEPS)]
    source_steps = [(1e-9, scale) for scale in
                    np.linspace(1.0 / SOURCE_STEPS, 1.0, SOURCE_STEPS)]
    for name, steps in (("gmin", gmin_steps), ("source", source_steps)):
        pending = np.flatnonzero(~converged)
        if not pending.size:
            break
        start = x[pending] if name == "gmin" else np.zeros((pending.size, n))
        x_lanes, solved, used = _continuation(
            assembler, start, pending, steps)
        total_iterations += used
        x_sol[solved] = x_lanes
        converged[solved] = True
        if solved.size:
            strategy = name

    if not converged.all():
        raise ConvergenceError(
            f"DC operating point of {circuit.title!r} failed to converge "
            f"in lane(s) {format_lanes(np.flatnonzero(~converged))} of "
            f"{batch} after {total_iterations} Newton iterations "
            "(tried plain Newton, gmin stepping and source stepping)",
            converged_mask=converged)
    return OperatingPoint(circuit, assembler, x_sol, total_iterations,
                          strategy)
