"""Small-signal AC analysis by per-lane modal factorisation.

Linearised at a DC operating point, the circuit obeys

``(G + s*C) x(s) = u``,  ``s = j*omega``,

batched across the circuit's batch axis.  Rather than one stacked
complex solve per frequency, every lane is factorised once:

1. Nodes pinned by grounded independent voltage sources are removed,
   together with the sources' branch rows.  Their AC values move to the
   right-hand side, which becomes ``g + s*c``.  Without this step the
   branch rows give the pencil a defective zero eigenvalue (4-fold on
   the OTA) and the eigenvector matrix is singular.
2. Around a real expansion point ``s0`` at the geometric centre of the
   sweep, ``M = (G_r + s0*C_r)^-1 C_r = V diag(lam) V^-1``, so that with
   ``sigma = s - s0``

   ``x_r(s) = V (I + sigma*diag(lam))^-1 V^-1 (G_r + s0*C_r)^-1
   (g + s0*c + sigma*c)``.

   ``s0 = 0`` gives the plain ``G_r^-1 C_r`` form.  The shift has the
   same eigenvectors but compresses the spectrum: the OTA's 1 MH / 1 F
   DC servo puts eigenvalues of ``G_r^-1 C_r`` 13 decades apart, which
   cost up to 3e-3 relative error at 1 GHz; around ``s0`` the error is
   below 1e-9 over the whole sweep.

Each unknown is then a sum of first-order modal terms
``(a_m + sigma*b_m) / (1 + sigma*lam_m)``, evaluated on request in
``O(B * F * modes)`` and accumulated mode by mode into a ``(B, F)``
array, so no ``(B, F, N)`` or ``(B, F, modes)`` array is built.

A lane falls back to the per-frequency direct solve of the full system
(:func:`direct_solve`) when its reduced matrices are non-finite or
singular, or when its conditioning estimate ``||V||_1 * ||V^-1||_1`` is
non-finite or above :data:`COND_LIMIT`.  Every lane of a circuit with a
floating voltage source, a VCVS or a CCVS falls back, as their branch
rows cannot be eliminated.  Fallback lanes are counted as
``analysis.ac.direct_lanes``.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..errors import SingularMatrixError
from .dc import OperatingPoint, dc_operating_point
from .mna import Assembler, solve_batched

__all__ = ["ACResult", "ac_analysis", "log_frequencies"]

#: Largest eigenvector conditioning estimate ``||V||_1 * ||V^-1||_1`` a
#: lane may have and stay on the modal path.  The modal error relative
#: to the peak response grows as about 3e-16 times the estimate, so the
#: limit bounds it near 3e-8.  OTA lanes read 1e6-7e6, a defective
#: (Jordan-block) lane 1e15.
COND_LIMIT = 1e8


def log_frequencies(f_start: float, f_stop: float,
                    points_per_decade: int = 20) -> np.ndarray:
    """Logarithmically spaced frequency grid, inclusive of both endpoints.

    Mirrors the SPICE ``.ac dec`` sweep specification.
    """
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), count)


def direct_solve(G: np.ndarray, C: np.ndarray, rhs: np.ndarray,
                 freqs: np.ndarray) -> np.ndarray:
    """Solve ``(G + j*omega*C) x = rhs`` one frequency at a time.

    ``rhs`` is ``(B, N)``, or ``(B, K, N)`` for K right-hand sides per
    lane; the result is ``(B, F, N)`` or ``(B, F, K, N)``.
    """
    x = np.empty((rhs.shape[0], freqs.size) + rhs.shape[1:], dtype=complex)
    for k, freq in enumerate(freqs):
        Y = G + 2j * np.pi * freq * C
        x[:, k] = solve_batched(Y if rhs.ndim == 2 else Y[:, None], rhs)
    return x


def source_pins(circuit) -> list[tuple[int, int, float]] | None:
    """``(node, branch, sign)`` of every grounded voltage source.

    ``sign`` is +1 when the source pins its ``plus`` node and -1 when it
    pins ``minus``, so ``x[node] = sign * u[branch]``.  ``None`` when the
    circuit has a branch row that cannot be eliminated: a floating
    voltage source, a VCVS or CCVS, a source whose branch current
    controls another element, or a node pinned twice.
    """
    from ..circuit.elements import CCVS, VCVS, VoltageSource

    controls = {getattr(element, "control_source", None)
                for element in circuit}
    pins, pinned = [], set()
    for element in circuit:
        if isinstance(element, (VCVS, CCVS)):
            return None
        if not isinstance(element, VoltageSource):
            continue
        a, b = element._node_idx
        if (a < 0) == (b < 0) or element.name in controls:
            return None
        node, sign = (a, 1.0) if b < 0 else (b, -1.0)
        if node in pinned:
            return None
        pinned.add(node)
        pins.append((node, element.branch_index, sign))
    return pins


def expansion_point(freqs: np.ndarray) -> float:
    """Real shift ``s0`` [rad/s] at the geometric centre of the sweep."""
    positive = freqs[freqs > 0]
    if not positive.size:
        return 0.0
    return 2.0 * np.pi * float(np.sqrt(positive.min() * positive.max()))


def _lanewise(fn, stack: np.ndarray, direct: np.ndarray):
    """``fn`` over a stack of matrices.  Lanes where LAPACK fails are
    marked in ``direct`` and replaced by the identity (in place)."""
    try:
        return fn(stack)
    except np.linalg.LinAlgError:
        for lane in range(stack.shape[0]):
            try:
                fn(stack[lane])
            except np.linalg.LinAlgError:
                direct[lane] = True
                stack[lane] = np.eye(stack.shape[-1])
        return fn(stack)


def _norm1(stack: np.ndarray) -> np.ndarray:
    """Per-lane matrix 1-norm (largest absolute column sum)."""
    return np.abs(stack).sum(axis=-2).max(axis=-1)


def modal_sum(a: np.ndarray, b: np.ndarray | None, lam: np.ndarray,
              sigma: np.ndarray) -> np.ndarray:
    """``sum_m (a_m + sigma*b_m) / (1 + sigma*lam_m)``, shape ``(B, F)``.

    ``a``/``b``/``lam`` are ``(B, modes)`` and ``sigma`` is ``(F,)``; the
    sum is accumulated one mode at a time.
    """
    out = np.zeros((a.shape[0], sigma.size), dtype=complex)
    denominator = np.empty_like(out)
    term = np.empty_like(out)
    for m in range(lam.shape[1]):
        np.multiply(lam[:, m, None], sigma, out=denominator)
        denominator += 1.0
        if b is None:
            np.divide(a[:, m, None], denominator, out=term)
        else:
            np.multiply(b[:, m, None], sigma, out=term)
            term += a[:, m, None]
            term /= denominator
        out += term
    return out


class ModalFactors:
    """Per-lane modal factorisation of ``circuit``'s small-signal ``G +
    s*C``, expanded around the centre of ``freqs`` (see the module notes).

    Lanes listed in ``direct_lanes`` use :func:`direct_solve`
    (:meth:`solve_direct`); their modal factors are zero, so
    :meth:`response` returns zeros there.
    """

    def __init__(self, circuit, G: np.ndarray, C: np.ndarray,
                 freqs: np.ndarray) -> None:
        self.batch, self.n = G.shape[0], G.shape[-1]
        self.shift = expansion_point(freqs)
        pins = source_pins(circuit)
        self.pin_nodes = np.array([p[0] for p in pins or ()], dtype=int)
        self.pin_branches = np.array([p[1] for p in pins or ()], dtype=int)
        self.pin_signs = np.array([p[2] for p in pins or ()], dtype=float)
        #: Reduced-system row of every unknown (-1 when eliminated).
        self.position = np.full(self.n, -1)
        direct = (np.ones(self.batch, dtype=bool) if pins is None
                  else self._factorise(G, C))
        self.direct_lanes = np.flatnonzero(direct)
        self._G_direct = G[self.direct_lanes]
        self._C_direct = C[self.direct_lanes]
        if self.direct_lanes.size:
            telemetry.counter_add("analysis.ac.direct_lanes",
                                  int(self.direct_lanes.size))

    def _factorise(self, G: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Eliminate the pins and factor the reduced pencil; returns the
        per-lane fallback mask."""
        removed = np.zeros(self.n, dtype=bool)
        removed[self.pin_nodes] = removed[self.pin_branches] = True
        keep = np.flatnonzero(~removed)
        self.position[keep] = np.arange(keep.size)
        self.keep = keep
        nodes = self.pin_nodes
        self.G_pinned = G[:, keep[:, None], nodes]
        self.C_pinned = C[:, keep[:, None], nodes]

        G_r = G[:, keep[:, None], keep]
        C_r = C[:, keep[:, None], keep]
        direct = ~(np.isfinite(G_r).all(axis=(1, 2))
                   & np.isfinite(C_r).all(axis=(1, 2)))
        G_r[direct] = np.eye(keep.size)
        C_r[direct] = 0.0
        A_inv = _lanewise(np.linalg.inv, G_r + self.shift * C_r, direct)
        lam, V = _lanewise(np.linalg.eig, A_inv @ C_r, direct)
        lam, V = np.asarray(lam, dtype=complex), np.asarray(V, dtype=complex)
        V_inv = _lanewise(np.linalg.inv, V, direct)
        with np.errstate(over="ignore", invalid="ignore"):
            cond = _norm1(V) * _norm1(V_inv)
        direct |= ~(cond <= COND_LIMIT)
        lam[direct] = 0.0
        V[direct] = 0.0
        self.lam, self.V = lam, V
        self.W = V_inv @ A_inv            # V^-1 (G_r + s0*C_r)^-1
        return direct

    @property
    def modal(self) -> bool:
        """Whether any lane is on the modal path."""
        return self.direct_lanes.size < self.batch

    def pinned_values(self, rhs: np.ndarray) -> np.ndarray:
        """AC voltages of the pinned nodes, ``(B, P)``."""
        return rhs[:, self.pin_branches] * self.pin_signs

    def weights(self, rhs: np.ndarray):
        """Modal weights ``(alpha, beta, pinned)`` of a ``(B, N)`` (or
        ``(N,)``) right-hand side, such that
        ``x_r = V (I + sigma*Lambda)^-1 (alpha + sigma*beta)``.  ``beta``
        is ``None`` when no pinned node carries an AC value."""
        rhs = np.broadcast_to(rhs, (self.batch, self.n))
        pinned = self.pinned_values(rhs)
        if not self.modal:
            return None, None, pinned
        g = rhs[:, self.keep] - np.einsum("bkp,bp->bk", self.G_pinned, pinned)
        if not np.any(pinned):
            return np.einsum("bmk,bk->bm", self.W, g), None, pinned
        c = -np.einsum("bkp,bp->bk", self.C_pinned, pinned)
        return (np.einsum("bmk,bk->bm", self.W, g + self.shift * c),
                np.einsum("bmk,bk->bm", self.W, c), pinned)

    def response(self, index: int, weights, s: np.ndarray) -> np.ndarray:
        """``x[index](s)`` on the modal lanes, ``(B, F)``, for a kept
        unknown or a pinned node (zeros on the fallback lanes)."""
        alpha, beta, pinned = weights
        row = self.position[index]
        if row >= 0 and self.modal:
            v_row = self.V[:, row, :]
            return modal_sum(v_row * alpha,
                             None if beta is None else v_row * beta,
                             self.lam, s - self.shift)
        if index in self.pin_nodes:
            column = pinned[:, list(self.pin_nodes).index(index)]
            return np.repeat(column[:, None], s.size, axis=1)
        return np.zeros((self.batch, s.size), dtype=complex)

    def solve_direct(self, rhs: np.ndarray, freqs: np.ndarray) -> np.ndarray:
        """:func:`direct_solve` on the fallback lanes of ``rhs`` (full
        batch, ``(B, N)`` or ``(B, K, N)``).  A singular system is reported
        with its lane index in the full batch.  With no fallback lane the
        empty ``(0, F, ...)`` result comes back without a solve."""
        lanes = self.direct_lanes
        if not lanes.size:
            return np.empty((0, freqs.size) + rhs.shape[1:], dtype=complex)
        try:
            return direct_solve(self._G_direct, self._C_direct, rhs[lanes],
                                freqs)
        except SingularMatrixError as exc:
            if exc.lane_indices is None:
                raise
            bad = [int(lanes[i]) for i in exc.lane_indices]
            raise SingularMatrixError(
                f"singular AC system in lane(s) {bad} of {self.batch} "
                "(floating node or voltage-source loop?)",
                lane_indices=bad) from exc


class ACResult:
    """Result of an AC sweep.

    Node voltages are evaluated on demand from the modal factors and
    cached per node.

    Attributes
    ----------
    freqs:
        Frequency grid, shape ``(F,)`` [Hz].
    op:
        The DC operating point the sweep was linearised at.
    """

    def __init__(self, circuit, assembler: Assembler, op: OperatingPoint,
                 freqs: np.ndarray, G: np.ndarray, C: np.ndarray,
                 excitation: np.ndarray) -> None:
        self.circuit = circuit
        self.assembler = assembler
        self.op = op
        self.freqs = freqs
        self._s = 2j * np.pi * freqs
        self._factors = factors = ModalFactors(circuit, G, C, freqs)
        self._excitation = excitation
        self._weights = factors.weights(excitation)
        self._direct_x = factors.solve_direct(excitation, freqs)
        # KCL rows of the pinned nodes, for the eliminated branch currents.
        self._pin_rows = (G[:, factors.pin_nodes], C[:, factors.pin_nodes])
        self._cache: dict[int, np.ndarray] = {}
        self._x: np.ndarray | None = None

    @property
    def batch(self) -> int:
        return self._factors.batch

    def _response(self, index: int) -> np.ndarray:
        if index in self._cache:
            return self._cache[index]
        factors = self._factors
        if index in factors.pin_branches:
            out = self._branch_current(list(factors.pin_branches).index(index))
        else:
            out = factors.response(index, self._weights, self._s)
        out[factors.direct_lanes] = self._direct_x[:, :, index]
        self._cache[index] = out
        return out

    def _branch_current(self, pin: int) -> np.ndarray:
        """Current of an eliminated source, from its node's KCL row:
        ``sign * i = u[node] - sum_(j != branch) Y[node, j] x_j``."""
        factors = self._factors
        node, branch = factors.pin_nodes[pin], factors.pin_branches[pin]
        G_row, C_row = self._pin_rows[0][:, pin], self._pin_rows[1][:, pin]
        total = np.repeat(self._excitation[:, node, None], self.freqs.size,
                          axis=1)
        coupled = np.flatnonzero(np.any(G_row != 0, axis=0)
                                 | np.any(C_row != 0, axis=0))
        for j in coupled[coupled != branch]:
            total -= ((G_row[:, j, None] + self._s * C_row[:, j, None])
                      * self._response(int(j)))
        return total * factors.pin_signs[pin]

    @property
    def x(self) -> np.ndarray:
        """Complex solution of every unknown, shape ``(B, F, N)``, built on
        first access (:meth:`v` builds only the ``(B, F)`` it needs)."""
        if self._x is None:
            n = self._factors.n
            x = np.empty((self.batch, self.freqs.size, n), dtype=complex)
            for index in range(n):
                x[:, :, index] = self._response(index)
            self._x = x
        return self._x

    def v(self, node: str) -> np.ndarray:
        """Complex node voltage(s), shape ``(B, F)``; ground is zeros."""
        index = self.assembler.topology.index_of(node)
        if index < 0:
            return np.zeros((self.batch, self.freqs.size), dtype=complex)
        return self._response(index)

    def magnitude_db(self, out_node: str) -> np.ndarray:
        """``20*log10 |V(out)|``, shape ``(B, F)``: the transfer function
        when the stimulus has unit AC magnitude (the testbench
        convention)."""
        h = np.abs(self.v(out_node))
        return 20.0 * np.log10(np.maximum(h, 1e-300))

    def phase_deg(self, out_node: str) -> np.ndarray:
        """Phase of ``V(out)`` in degrees, shape ``(B, F)``; unwrapped
        along frequency."""
        return np.degrees(np.unwrap(np.angle(self.v(out_node)), axis=-1))


def ac_analysis(circuit, freqs, *,
                op: OperatingPoint | None = None) -> ACResult:
    """Run an AC sweep of ``circuit`` over ``freqs``.

    Parameters
    ----------
    freqs:
        Frequency grid [Hz]; see :func:`log_frequencies`.
    op:
        Pre-computed operating point (skips the DC solve when given --
        essential inside Monte-Carlo loops where the caller wants one DC
        solve reused across measurements).
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if op is None:
        op = dc_operating_point(circuit)
    G, C, excitation = op.assembler.ac_system(op.x)
    return ACResult(circuit, op.assembler, op, freqs, G, C, excitation)
