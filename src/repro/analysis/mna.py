"""Batched Modified Nodal Analysis (MNA) assembly.

The assembler turns a compiled :class:`~repro.circuit.netlist.Circuit` into
stacked dense matrices

* ``G`` -- conductance/Jacobian matrix, shape ``(B, N, N)``,
* ``C`` -- dynamic (capacitance/inductance) matrix, shape ``(B, N, N)``,
* ``rhs`` -- excitation vector, shape ``(B, N)``,

where ``B`` is the circuit batch length (Monte-Carlo samples or GA
individuals solved simultaneously) and ``N`` the unknown count (non-ground
nodes + auxiliary branch currents).  Matrices are dense because analogue
cells are small (the paper's OTA compiles to ~13 unknowns); stacking across
``B`` and using ``numpy.linalg.solve`` on the stack is what makes the
paper's 10,000-individual optimisation and 200-sample-per-point Monte Carlo
runs practical in Python.
"""

from __future__ import annotations

import numpy as np

from ..errors import NetlistError, SingularMatrixError

__all__ = ["StampContext", "ACExcitationContext", "Assembler", "solve_batched"]


class StampContext:
    """Accumulator for element stamps.

    ``add_g``/``add_c``/``add_rhs`` silently drop ground rows/columns
    (index ``-1``), which keeps element stamping code branch-free.
    """

    def __init__(self, n_unknowns: int, batch: int, *, time: float | None = None,
                 source_scale: float = 1.0) -> None:
        self.G = np.zeros((batch, n_unknowns, n_unknowns))
        self.C = np.zeros((batch, n_unknowns, n_unknowns))
        self.rhs = np.zeros((batch, n_unknowns))
        #: Multiplier applied by independent sources (source stepping).
        self.source_scale = source_scale
        #: Transient time; ``None`` outside transient analysis.
        self.time = time

    def add_g(self, i: int, j: int, value) -> None:
        """Add ``value`` to the conductance matrix entry ``(i, j)``."""
        if i < 0 or j < 0:
            return
        self.G[:, i, j] += value

    def add_c(self, i: int, j: int, value) -> None:
        """Add ``value`` to the dynamic matrix entry ``(i, j)``."""
        if i < 0 or j < 0:
            return
        self.C[:, i, j] += value

    def add_rhs(self, i: int, value) -> None:
        """Add ``value`` to the excitation vector entry ``i``."""
        if i < 0:
            return
        self.rhs[:, i] += value


class _JacobianContext:
    """Context handed to nonlinear ``load``: shares G/rhs with a parent."""

    def __init__(self, G: np.ndarray, rhs: np.ndarray,
                 source_scale: float = 1.0, time: float | None = None) -> None:
        self.G = G
        self.rhs = rhs
        self.source_scale = source_scale
        self.time = time

    def add_g(self, i: int, j: int, value) -> None:
        if i < 0 or j < 0:
            return
        self.G[:, i, j] += value

    def add_c(self, i: int, j: int, value) -> None:  # capacitors open in DC
        pass

    def add_rhs(self, i: int, value) -> None:
        if i < 0:
            return
        self.rhs[:, i] += value


class ACExcitationContext:
    """Collects the complex AC excitation vector from source ``ac_rhs``."""

    def __init__(self, n_unknowns: int, batch: int) -> None:
        self.rhs = np.zeros((batch, n_unknowns), dtype=complex)

    def add_rhs(self, i: int, value) -> None:
        if i < 0:
            return
        self.rhs[:, i] += value


class Assembler:
    """Stamps a circuit into batched MNA matrices, caching the linear part.

    The linear stamps (R, C, L, controlled sources, source *topology*) never
    change during Newton iteration, so they are built once; each Newton step
    copies them and adds the nonlinear device loads.
    """

    def __init__(self, circuit) -> None:
        self.circuit = circuit
        self.topology = circuit.compile()
        self.n = self.topology.n_unknowns
        self.batch = self.topology.batch
        self._resolve_current_controls()
        self._linear_cache: StampContext | None = None
        self._takes_lanes: bool | None = None

    def _resolve_current_controls(self) -> None:
        """Bind CCCS/CCVS control branches to voltage-source aux rows."""
        for element in self.circuit:
            control_name = getattr(element, "control_source", None)
            if control_name is None:
                continue
            source = self.circuit.element(control_name)
            branch = getattr(source, "branch_index", None)
            if branch is None:
                raise NetlistError(
                    f"{element.name!r}: control element {control_name!r} "
                    "has no branch current (must be a voltage source)")
            element.bind_control(branch)

    # -- linear part ---------------------------------------------------------
    def linear(self, *, time: float | None = None) -> StampContext:
        """Linear stamps at unit source scale (cached for ``time is None``)."""
        if time is None and self._linear_cache is not None:
            return self._linear_cache
        ctx = StampContext(self.n, self.batch, time=time, source_scale=1.0)
        for element in self.circuit:
            element.stamp(ctx)
        if time is None:
            self._linear_cache = ctx
        return ctx

    # -- Newton iteration ---------------------------------------------------------
    def takes_lanes(self) -> bool:
        """Whether :meth:`newton_system` accepts a ``lanes`` subset: every
        nonlinear element can be restricted to a subset of the batch."""
        if self._takes_lanes is None:
            lanes = np.arange(self.batch)
            self._takes_lanes = all(
                element.take_lanes(lanes) is not None
                for element in self.circuit.nonlinear_elements())
        return self._takes_lanes

    def newton_system(self, voltages: np.ndarray, *, gmin: float = 0.0,
                      source_scale: float = 1.0,
                      time: float | None = None,
                      lanes: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian and right-hand side linearised at ``voltages``.

        ``gmin`` is added to the *node* diagonal entries only (never the
        auxiliary branch rows, whose equations are not KCL).  With
        ``lanes`` (batch indices; see :meth:`takes_lanes`), ``voltages``
        and the returned system hold those lanes only, and every lane is
        stamped exactly as in the full batch.
        """
        lin = self.linear(time=time)
        elements = self.circuit.nonlinear_elements()
        if lanes is None:
            G = lin.G.copy()
            rhs = lin.rhs * source_scale
        else:
            G = lin.G[lanes]
            rhs = lin.rhs[lanes] * source_scale
            elements = [element.take_lanes(lanes) for element in elements]
        ctx = _JacobianContext(G, rhs, source_scale=source_scale, time=time)
        for element in elements:
            element.load(voltages, ctx)
        n_nodes = self.topology.n_nodes
        if gmin:
            idx = np.arange(n_nodes)
            G[:, idx, idx] += gmin
        return G, rhs

    # -- small-signal (AC) system -----------------------------------------------------
    def ac_system(self, op_voltages: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Small-signal ``(G, C, excitation)`` at the DC solution.

        ``G``/``C`` are real ``(B, N, N)``: copies of the cached linear
        stamps plus the devices' linearised ``stamp_ac`` loads.  The
        excitation is :meth:`ac_excitation`.
        """
        lin = self.linear()
        ctx = StampContext(self.n, self.batch, source_scale=1.0)
        ctx.G[...] = lin.G
        ctx.C[...] = lin.C
        for element in self.circuit.nonlinear_elements():
            element.stamp_ac(op_voltages, ctx)
        return ctx.G, ctx.C, self.ac_excitation()

    def ac_excitation(self) -> np.ndarray:
        """Complex ``(B, N)`` excitation from the sources' AC values."""
        ac = ACExcitationContext(self.n, self.batch)
        for element in self.circuit:
            element.ac_rhs(ac)
        return ac.rhs


def _singular_lanes(matrices: np.ndarray) -> list[int]:
    """Flat indices of the singular systems within a stacked batch.

    Runs only on the error path (the batched solve already failed), so a
    per-lane factorisation probe is affordable; it uses the same LAPACK
    LU the batched solve does, so a lane is flagged iff it is what made
    the stack fail.
    """
    n = matrices.shape[-1]
    flat = matrices.reshape(-1, n, n)
    probe = np.zeros(n)
    lanes = []
    for index in range(flat.shape[0]):
        try:
            np.linalg.solve(flat[index], probe)
        except np.linalg.LinAlgError:
            lanes.append(index)
    return lanes


def solve_batched(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve stacked linear systems ``matrices @ x = rhs``.

    Parameters
    ----------
    matrices:
        Shape ``(..., N, N)``.
    rhs:
        Shape ``(..., N)``.

    Raises
    ------
    SingularMatrixError
        If any system in the stack is singular (typically a floating node
        or a loop of ideal voltage sources).  The exception carries the
        flat indices of the offending lanes as ``lane_indices``, so one
        bad Monte-Carlo sample no longer kills a chunk opaquely: callers
        can report, drop, or re-draw exactly those lanes.
    """
    matrices = np.asarray(matrices)
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        lanes = _singular_lanes(matrices)
        total = int(np.prod(matrices.shape[:-2], dtype=int))
        if lanes:
            shown = ", ".join(str(lane) for lane in lanes[:8])
            if len(lanes) > 8:
                shown += f", ... ({len(lanes)} total)"
            where = f" in stack lane(s) {shown} of {total}"
        else:  # LAPACK refused the whole stack without naming a lane
            where = ""
        raise SingularMatrixError(
            f"singular MNA matrix{where} "
            f"(floating node or voltage-source loop?): {exc}",
            lane_indices=lanes or None) from exc
