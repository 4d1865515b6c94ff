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

import functools

import numpy as np

from ..errors import NetlistError, SingularMatrixError

__all__ = ["StampContext", "ACExcitationContext", "DeviceStamps", "Assembler",
           "solve_batched"]


class StampContext:
    """Accumulator for element stamps.

    ``add_g``/``add_c``/``add_rhs`` silently drop ground rows/columns
    (index ``-1``), which keeps element stamping code branch-free.
    """

    def __init__(self, n_unknowns: int, batch: int) -> None:
        self.G = np.zeros((batch, n_unknowns, n_unknowns))
        self.C = np.zeros((batch, n_unknowns, n_unknowns))
        self.rhs = np.zeros((batch, n_unknowns))

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


class ACExcitationContext:
    """Collects the complex AC excitation vector from source ``ac_rhs``."""

    def __init__(self, n_unknowns: int, batch: int) -> None:
        self.rhs = np.zeros((batch, n_unknowns), dtype=complex)

    def add_rhs(self, i: int, value) -> None:
        if i < 0:
            return
        self.rhs[:, i] += value


#: Lanes per block of :meth:`DeviceStamps.system`.  Keeps the
#: ``(devices, lanes)`` temporaries of the device math and the block's
#: matrices in cache; the math is elementwise, so the block size changes
#: no result.
LANE_BLOCK = 512


class _Pattern:
    """One mode's stamp pattern: the target entries the devices touch and
    the rounds that add the device values to them.

    Entries are ``(target, flat index)`` keys, in the order of their
    first contribution, followed by ``extra`` keys that receive none
    (the node diagonals gmin is added to); ``targets`` maps each target
    to its keys' positions and flat indices.  ``ops`` apply the rounds
    in order; each adds (or, for a negative stamp, subtracts)
    ``values[rows]`` at ``positions``.
    """

    def __init__(self, per_round: list, targets, extra=()) -> None:
        # Round 0 touches each entry once; its additions go first so that
        # both halves address a contiguous run of entries.
        first = sorted(per_round[0], key=lambda stamp: stamp[2] < 0) \
            if per_round else []
        keys = [key for key, _, _ in first]
        position = {key: k for k, key in enumerate(keys)}
        self.ops = []
        for r, stamps in enumerate(per_round):
            for subtract in (False, True):
                chosen = [(position[key], row) for key, row, sign in stamps
                          if (sign < 0) == subtract]
                if not chosen:
                    continue
                positions, rows = (np.array(column) for column in zip(*chosen))
                # Views instead of gathers where possible: round 0 is a
                # contiguous run, and a lone stamp is a single row.
                if r == 0:
                    positions = slice(positions[0], positions[-1] + 1)
                elif len(chosen) == 1:
                    positions, rows = chosen[0]
                self.ops.append((positions, rows, subtract))
        keys += [key for key in extra if key not in position]
        position = {key: k for k, key in enumerate(keys)}
        self.size = len(keys)
        self.extra = np.array([position[key] for key in extra], dtype=int)
        self.targets = {
            target: (np.array([k for k, key in enumerate(keys)
                               if key[0] == target], dtype=int),
                     np.array([key[1] for key in keys if key[0] == target],
                              dtype=int))
            for target in targets}


#: Stamp plans kept by :func:`_stamp_plan`, one per circuit topology.
PLAN_MEMO_SIZE = 64


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _stamp_plan(n: int, n_nodes: int, layout: tuple, order: tuple) -> tuple:
    """The value-independent stamp plan of a topology: per mode, each
    bank's first value row (``offsets``), the value rows in all
    (``rows``) and the :class:`_Pattern`.

    ``layout`` holds per bank its class, each device's node indices and
    each mode's per-device stamps; ``order`` is every device's ``(bank,
    index)`` in circuit element order.  The key is the whole input, so
    circuits of one topology share one plan whatever their values.
    """
    offsets: dict[str, list[int]] = {}
    rows: dict[str, int] = {}
    patterns: dict[str, _Pattern] = {}
    diagonal = [("G", i * n + i) for i in range(n_nodes)]
    for m, (mode, targets) in enumerate((("newton", ("G", "rhs")),
                                         ("ac", ("G", "C")))):
        sizes = [bank.ROWS[mode] * len(nodes) for bank, nodes, _ in layout]
        offsets[mode] = np.cumsum([0] + sizes[:-1]).tolist()
        rows[mode] = sum(sizes)
        # Round ``r`` holds every entry's ``r``-th ((target, entry),
        # value row, sign) stamp.
        rounds: list[list] = []
        seen: dict[tuple[str, int], int] = {}
        for position, index in order:
            _, nodes, stamps = layout[position]
            for target, a, b, value, sign in stamps[m][index]:
                i, j = nodes[index][a], nodes[index][b]
                if i < 0 or j < 0:  # ground
                    continue
                key = (target, i if target == "rhs" else i * n + j)
                r = seen.get(key, 0)
                seen[key] = r + 1
                if r == len(rounds):
                    rounds.append([])
                row = offsets[mode][position] + value * len(nodes) + index
                rounds[r].append((key, row, sign))
        patterns[mode] = _Pattern(rounds, targets,
                                  diagonal if mode == "newton" else ())
    return offsets, rows, patterns


class DeviceStamps:
    """A circuit's nonlinear devices compiled for batched stamping.

    Devices of one type form a bank (``element.bank``) that evaluates all
    of them over a block of lanes in one vectorised call, writing its
    stamp values into rows of a ``(rows, lanes)`` array.  The static
    stamp pattern lists every device's contributions in circuit element
    order, split into *rounds*: round ``r`` adds every matrix entry's
    ``r``-th contribution.  Adding the rounds in order therefore
    accumulates each entry in the same order as stamping the devices one
    after another, and the result is bit-identical to it.  The rounds
    run on a lane-minor copy of the touched entries, where each is a
    contiguous row, one block of lanes at a time.  The pattern depends
    on the topology only, so circuits of one topology share it
    (:func:`_stamp_plan`); the banks' values are per instance.
    """

    def __init__(self, circuit, topology) -> None:
        self.n = topology.n_unknowns
        self.batch = topology.batch
        self._buffers: tuple | None = None
        elements = circuit.nonlinear_elements()
        groups: dict[type, list] = {}
        for element in elements:
            groups.setdefault(element.bank, []).append(element)
        self.banks = [bank(devices, topology.batch)
                      for bank, devices in groups.items()]
        where = {id(device): (position, index)
                 for position, devices in enumerate(groups.values())
                 for index, device in enumerate(devices)}
        layout = tuple(
            (type(bank), tuple(map(tuple, bank.nodes.T.tolist())),
             tuple(tuple(bank.stamps(mode, index)
                         for index in range(bank.size))
                   for mode in ("newton", "ac")))
            for bank in self.banks)
        self.offsets, self.rows, self.patterns = _stamp_plan(
            self.n, topology.n_nodes, layout,
            tuple(where[id(element)] for element in elements))

    def _workspace(self) -> tuple:
        """Per-block buffers, shared by the modes: the voltages with the
        ground row last, the stamp values, and the touched entries.

        Kept between calls: allocating them afresh made the allocator
        hand memory back to the system and fault it in again each call.
        An assembler therefore builds one system at a time.
        """
        if self._buffers is None:
            width = min(self.batch, LANE_BLOCK)
            self._buffers = tuple(
                np.zeros((rows, width)) for rows in (
                    self.n + 1, max(self.rows.values()),
                    max(p.size for p in self.patterns.values())))
        return self._buffers

    def _values(self, mode: str, xT: np.ndarray, lanes,
                values: np.ndarray) -> None:
        """Fill ``values`` (``(rows, b)``) with every bank's stamp values
        at the voltages ``xT`` (``(N + 1, b)``, ground row last)."""
        b = xT.shape[1]
        for bank, offset in zip(self.banks, self.offsets[mode]):
            rows = bank.ROWS[mode]
            out = values[offset:offset + rows * bank.size]
            bank.values(mode, xT, lanes, out.reshape(rows, bank.size, b))

    def system(self, mode: str, voltages: np.ndarray, linear: dict, *,
               lanes: np.ndarray | None = None, source_scale: float = 1.0,
               gmin: float = 0.0) -> dict:
        """The ``mode`` system at ``voltages``: for each target of
        ``linear`` (``"G"``/``"C"``: ``(B, N, N)``, ``"rhs"``: ``(B, N)``,
        the linear part of the whole batch), that part plus the device
        stamps, for ``lanes`` only when given.

        ``source_scale`` multiplies the linear ``rhs``; ``gmin`` is added
        to the node diagonals of ``G`` after the device stamps.
        """
        b = voltages.shape[0]
        out = {target: np.empty((b,) + array.shape[1:])
               for target, array in linear.items()}
        pattern = self.patterns[mode]
        xT, values, touched = self._workspace()
        for start in range(0, b, LANE_BLOCK):
            block = slice(start, min(start + LANE_BLOCK, b))
            w = block.stop - start
            param_lanes = block if lanes is None else lanes[block]
            xT[:-1, :w] = voltages[block].T
            self._values(mode, xT[:, :w], param_lanes, values[:, :w])
            part = touched[:pattern.size, :w]
            flats = {}
            for target, array in out.items():
                array[block] = linear[target][param_lanes]
                if target == "rhs":
                    array[block] *= source_scale
                positions, entries = pattern.targets[target]
                flats[target] = array[block].reshape(w, -1)
                part[positions] = flats[target][:, entries].T
            for positions, rows, subtract in pattern.ops:
                if subtract:
                    part[positions] -= values[rows, :w]
                else:
                    part[positions] += values[rows, :w]
            if gmin:
                part[pattern.extra] += gmin
            for target, flat in flats.items():
                positions, entries = pattern.targets[target]
                flat[:, entries] = part[positions].T
        return out


class Assembler:
    """Stamps a circuit into batched MNA matrices, caching the linear part.

    The linear stamps (R, C, L, controlled sources, source *topology*) never
    change during Newton iteration, so they are built once; each Newton step
    copies them and adds the nonlinear device stamps from the compiled
    :class:`DeviceStamps`.
    """

    def __init__(self, circuit) -> None:
        self.circuit = circuit
        self.topology = circuit.compile()
        self.n = self.topology.n_unknowns
        self.batch = self.topology.batch
        self._resolve_current_controls()
        self._linear_cache: StampContext | None = None
        self._devices: DeviceStamps | None = None

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
    def linear(self) -> StampContext:
        """Linear stamps at unit source scale (cached)."""
        if self._linear_cache is None:
            ctx = StampContext(self.n, self.batch)
            for element in self.circuit:
                element.stamp(ctx)
            self._linear_cache = ctx
        return self._linear_cache

    def devices(self) -> DeviceStamps:
        """The compiled nonlinear devices (built on first use)."""
        if self._devices is None:
            self._devices = DeviceStamps(self.circuit, self.topology)
        return self._devices

    # -- Newton iteration ---------------------------------------------------------
    def newton_system(self, voltages: np.ndarray, *, gmin: float = 0.0,
                      source_scale: float = 1.0,
                      lanes: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian and right-hand side linearised at ``voltages``.

        ``gmin`` is added to the *node* diagonal entries only (never the
        auxiliary branch rows, whose equations are not KCL).  With
        ``lanes`` (batch indices), ``voltages`` and the returned system
        hold those lanes only, and every lane is stamped exactly as in
        the full batch.
        """
        lin = self.linear()
        system = self.devices().system(
            "newton", voltages, {"G": lin.G, "rhs": lin.rhs}, lanes=lanes,
            source_scale=source_scale, gmin=gmin)
        return system["G"], system["rhs"]

    # -- small-signal (AC) system -----------------------------------------------------
    def ac_system(self, op_voltages: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Small-signal ``(G, C, excitation)`` at the DC solution.

        ``G``/``C`` are real ``(B, N, N)``: copies of the cached linear
        stamps plus the devices' small-signal conductances and
        capacitances.  The excitation is :meth:`ac_excitation`.
        """
        lin = self.linear()
        system = self.devices().system("ac", op_voltages,
                                       {"G": lin.G, "C": lin.C})
        return system["G"], system["C"], self.ac_excitation()

    def ac_excitation(self) -> np.ndarray:
        """Complex ``(B, N)`` excitation from the sources' AC values."""
        ac = ACExcitationContext(self.n, self.batch)
        for element in self.circuit:
            element.ac_rhs(ac)
        return ac.rhs


def format_lanes(lanes) -> str:
    """Comma list of lane indices for error messages (first eight)."""
    shown = ", ".join(str(lane) for lane in lanes[:8])
    if len(lanes) > 8:
        shown += f", ... ({len(lanes)} total)"
    return shown


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
            where = f" in stack lane(s) {format_lanes(lanes)} of {total}"
        else:  # LAPACK refused the whole stack without naming a lane
            where = ""
        raise SingularMatrixError(
            f"singular MNA matrix{where} "
            f"(floating node or voltage-source loop?): {exc}",
            lane_indices=lanes or None) from exc
