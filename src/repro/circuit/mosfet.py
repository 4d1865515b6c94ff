"""MOSFET device model.

The paper simulates its OTA with foundry BSim3v3 models in Spectre.  We
replace that with a smooth long-channel model -- a square-law (SPICE
level-1) core expressed in the numerically robust EKV-style form

``Id = beta/2 * (sp(Vgs - Vth)^2 - sp(Vgs - Vth - Vds)^2) * (1 + lambda*Vds)``

where ``sp`` is the soft-plus function ``n*vt*ln(1 + exp(x/(n*vt)))``.
Because ``sp(x) -> x`` for ``x >> 0`` and ``-> 0`` exponentially for
``x << 0`` this single expression reproduces

* the level-1 triode current ``beta*(Vov - Vds/2)*Vds``
  (note ``Vov^2 - (Vov-Vds)^2 = 2*Vov*Vds - Vds^2``),
* the saturation current ``beta/2*Vov^2`` with channel-length modulation,
* an exponential subthreshold tail (EKV interpolation),

and is infinitely differentiable, which keeps the batched Newton solver
honest.  Channel-length modulation scales as ``lambda = klambda / Leff`` so
longer channels yield higher intrinsic gain -- the physics behind the
paper's gain/phase-margin trade-off.  Meyer gate capacitances and
bias-dependent junction capacitances provide the non-dominant poles that
limit phase margin.

Statistical hooks
-----------------
``delta_vto`` (threshold shift, V) and ``beta_scale`` (multiplicative
current-factor error) accept batch arrays; the Monte-Carlo engine drives
them with Pelgrom-law mismatch samples (:mod:`repro.process.mismatch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NetlistError
from ..units import parse_si
from .netlist import Element, _column, _param_batch

__all__ = ["MOSModel", "Mosfet"]

_THERMAL_VOLTAGE = 0.025852  # kT/q at 300 K
#: Minimum conductance added to gds; keeps matrices regular when off.
_GDS_MIN = 1e-12


@dataclass(frozen=True)
class MOSModel:
    """A MOSFET model card (one per device polarity per process).

    Parameters follow SPICE level-1 conventions with two additions:
    ``klambda`` (the channel-length-modulation coefficient with
    ``lambda = klambda / Leff``) and ``n_sub`` (subthreshold slope factor
    used by the soft-plus smoothing).
    """

    name: str
    polarity: str  # 'n' or 'p'
    vto: float = 0.5          # threshold voltage [V]; negative for PMOS
    kp: float = 170e-6        # transconductance parameter [A/V^2]
    gamma: float = 0.58       # body-effect coefficient [sqrt(V)]
    phi: float = 0.7          # surface potential [V]
    klambda: float = 0.10e-6  # CLM coefficient [m/V]; lambda = klambda/Leff
    ld: float = 0.05e-6       # lateral diffusion [m]; Leff = L - 2*ld
    cox: float = 4.54e-3      # gate oxide capacitance [F/m^2]
    cgso: float = 1.2e-10     # G-S overlap capacitance [F/m]
    cgdo: float = 1.2e-10     # G-D overlap capacitance [F/m]
    cgbo: float = 1.0e-10     # G-B overlap capacitance [F/m]
    cj: float = 9.4e-4        # junction area capacitance [F/m^2]
    cjsw: float = 2.5e-10     # junction sidewall capacitance [F/m]
    pb: float = 0.69          # junction built-in potential [V]
    mj: float = 0.34          # junction grading coefficient
    mjsw: float = 0.23        # sidewall grading coefficient
    ldiff: float = 0.85e-6    # source/drain diffusion extent [m]
    n_sub: float = 1.5        # subthreshold slope factor
    kf: float = 1.0e-24       # flicker-noise coefficient [C^2/m^2-ish]
    af: float = 1.0           # flicker-noise frequency exponent
    tnom: float = 300.15      # nominal model temperature [K] (27 C)
    tcv: float = 2.0e-3       # |VT| temperature coefficient [V/K], |VT| falls with T
    bex: float = -1.5         # mobility temperature exponent, kp ~ (T/tnom)^bex

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise NetlistError(f"model {self.name!r}: polarity must be 'n' or 'p'")
        if self.kp <= 0 or self.cox <= 0:
            raise NetlistError(f"model {self.name!r}: kp and cox must be positive")

    def temperature_shift(self, temp_k) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane ``(dvto, kp_scale)`` equivalent of operating at ``temp_k``.

        First-order SPICE temperature model: the threshold magnitude falls
        linearly (``|VT|(T) = |VT| - tcv*(T - tnom)``) and mobility follows
        the power law ``kp(T) = kp * (T/tnom)**bex``.  Returned in the
        NMOS-frame sign convention of the :class:`Mosfet` statistical
        hooks (positive ``dvto`` = higher ``|VT|``), so temperature lanes
        stack directly onto process-variation lanes.
        """
        temp_k = np.asarray(temp_k, dtype=float)
        dvto = -self.tcv * (temp_k - self.tnom)
        kp_scale = (temp_k / self.tnom) ** self.bex
        return dvto, kp_scale


@dataclass
class _OperatingPoint:
    """Small-signal quantities of one MOSFET at a DC solution."""

    ids: np.ndarray
    gm: np.ndarray
    gds: np.ndarray
    gmb: np.ndarray
    vgs: np.ndarray
    vds: np.ndarray
    vbs: np.ndarray
    vth: np.ndarray
    vov: np.ndarray


def _softplus(x: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """Soft-plus ``width*ln(1+exp(x/width))`` and its derivative (sigmoid).

    Overflow-safe: for large positive arguments the identity
    ``sp(x) = x + sp(-x)`` is used.
    """
    z = x / width
    # log1p(exp(z)) = max(z,0) + log1p(exp(-|z|)) is stable for all z.
    value = width * (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
    deriv = 0.5 * (1.0 + np.tanh(0.5 * z))  # sigmoid(z), overflow-free
    return value, deriv


def _per_lane(values, batch: int) -> np.ndarray:
    """Per-device scalars or batch arrays stacked to ``(D, batch)``."""
    return np.stack([np.broadcast_to(np.asarray(value, dtype=float), (batch,))
                     for value in values])


class MosfetBank:
    """``D`` MOSFETs compiled for evaluation over many lanes at once.

    Model parameters are ``(D, 1)`` columns and per-lane parameters
    ``(D, B)`` arrays (``B`` the circuit batch), so one call evaluates a
    ``(D, b)`` block of terminal voltages; ``lanes`` picks the block's
    columns of the per-lane arrays.  The arithmetic is elementwise, so a
    device's result does not depend on which devices or lanes share the
    call.  This is the only copy of the device equations:
    :meth:`Mosfet.evaluate` and :meth:`Mosfet.capacitances` run it with
    ``D = 1``.

    ``STAMPS`` lists each device's matrix contributions in stamping
    order as ``(target, row terminal, column terminal, value row,
    sign)``; terminals index ``(drain, gate, source, bulk)``, value rows
    index what :meth:`values` fills, and a negative stamp subtracts the
    value.  ``rhs`` stamps ignore the column.
    """

    #: Newton value rows: gm, gds, gmb, gsum, i_eq.  AC: gm, gds, gmb,
    #: gsum, then cgs, cgd, cgb, cdb, csb.
    STAMPS = {
        "newton": (("G", 0, 1, 0, 1), ("G", 0, 0, 1, 1), ("G", 0, 3, 2, 1),
                   ("G", 0, 2, 3, -1), ("G", 2, 1, 0, -1), ("G", 2, 0, 1, -1),
                   ("G", 2, 3, 2, -1), ("G", 2, 2, 3, 1),
                   ("rhs", 0, 0, 4, -1), ("rhs", 2, 2, 4, 1)),
    }
    # Each capacitance between its terminal pair.
    STAMPS["ac"] = STAMPS["newton"][:8] + tuple(
        stamp
        for k, (a, b) in enumerate(((1, 2), (1, 0), (1, 3), (0, 3), (2, 3)))
        for stamp in (("C", a, a, 4 + k, 1), ("C", b, b, 4 + k, 1),
                      ("C", a, b, 4 + k, -1), ("C", b, a, 4 + k, -1)))
    ROWS = {"newton": 5, "ac": 9}

    def __init__(self, devices, batch: int) -> None:
        models = [device.model for device in devices]
        self.size = len(devices)
        #: ``(4, D)`` node rows; ground (-1) indexes the zero row that
        #: callers append to the voltages.
        self.nodes = np.array([device._node_idx for device in devices]).T
        self.sign = _column([1.0 if m.polarity == "n" else -1.0
                             for m in models])
        for name in ("phi", "gamma", "cox", "cgso", "cgdo", "cgbo", "cj",
                     "cjsw", "pb", "mj", "mjsw", "ldiff"):
            setattr(self, name, _column([getattr(m, name) for m in models]))
        self.sqrt_phi = np.sqrt(self.phi)
        self.width = _column([m.n_sub * _THERMAL_VOLTAGE for m in models])

        def lanes(values):
            return _per_lane(values, batch)

        self.vto_n = lanes([abs(m.vto) + np.asarray(d.delta_vto, dtype=float)
                            for d, m in zip(devices, models)])
        self.beta = lanes([d.beta for d in devices])
        self.lam = lanes([d.lam for d in devices])
        self.w = lanes([np.asarray(d.w, dtype=float) * d.m for d in devices])
        self.leff = lanes([d.leff for d in devices])

    def stamps(self, mode: str, device: int):
        """Stamps of ``device`` in ``mode`` (``"newton"`` or ``"ac"``)."""
        return self.STAMPS[mode]

    def _threshold(self, vbs, lanes) -> tuple[np.ndarray, np.ndarray]:
        """Body-effect threshold and ``-dVth/dVbs`` (NMOS frame)."""
        raw = self.phi - vbs
        clamped = raw < 1e-3  # strongly forward-biased bulk junction
        sqrt_term = np.sqrt(np.maximum(raw, 1e-3))
        vth = self.vto_n[:, lanes] + self.gamma * (sqrt_term - self.sqrt_phi)
        # In the clamped region vth is constant, so its derivative must be
        # zero too -- otherwise Newton sees a slope the residual lacks.
        dvth_dvbs = np.where(clamped, 0.0, -self.gamma / (2.0 * sqrt_term))
        return vth, -dvth_dvbs

    def evaluate(self, vgs, vds, vbs, lanes=slice(None)):
        """``(ids, gm, gds, gmb, vth, vov)`` at physical terminal voltages.

        PMOS devices see negative ``vgs``/``vds`` in normal operation;
        polarity mirroring and drain/source reversal happen here, and
        every partial is with respect to the physical voltages.
        """
        # Map to the NMOS frame.
        nvgs, nvds, nvbs = self.sign * vgs, self.sign * vds, self.sign * vbs
        reverse = nvds < 0.0
        swapped = reverse.any()
        # Forward evaluation arguments, drain and source swapped if needed.
        vgs = np.where(reverse, nvgs - nvds, nvgs) if swapped else nvgs
        vds = np.abs(nvds)
        vbs = np.where(reverse, nvbs - nvds, nvbs) if swapped else nvbs

        vth, gmb_factor = self._threshold(vbs, lanes)
        beta, lam = self.beta[:, lanes], self.lam[:, lanes]
        vov_arg = vgs - vth
        a, sa = _softplus(vov_arg, self.width)
        b, sb = _softplus(vov_arg - vds, self.width)
        clm = np.maximum(1.0 + lam * vds, 0.05)
        core = 0.5 * beta * (a * a - b * b)
        ids = core * clm
        f_g = beta * (a * sa - b * sb) * clm
        f_d = beta * b * sb * clm + core * lam
        f_b = f_g * gmb_factor

        if swapped:
            # Chain rule back through the swap:
            #   Id = -f(vgs - vds, -vds, vbs - vds) in reverse mode, hence
            #   dId/dvgs = -f_g ; dId/dvds = f_g + f_d + f_b ; dId/dvbs = -f_b.
            ids, f_g, f_d, f_b = (np.where(reverse, -ids, ids),
                                  np.where(reverse, -f_g, f_g),
                                  np.where(reverse, f_g + f_d + f_b, f_d),
                                  np.where(reverse, -f_b, f_b))
        # Back in the physical frame Id_phys = sign * Id_nmos, and each
        # conductance d(sign*Id)/d(sign*V) is unchanged.
        return self.sign * ids, f_g, f_d + _GDS_MIN, f_b, self.sign * vth, a

    def capacitances(self, vgs, vds, vbs, lanes=slice(None)):
        """Meyer gate and junction capacitances ``(cgs, cgd, cgb, cdb, csb)``."""
        nvgs, nvds, nvbs = self.sign * vgs, self.sign * vds, self.sign * vbs
        vth, _ = self._threshold(nvbs, lanes)
        vov, s_on = _softplus(nvgs - vth, self.width)

        # Meyer model with the drain saturation voltage clamp.
        w, leff = self.w[:, lanes], self.leff[:, lanes]
        cox_total = self.cox * w * leff
        vde = np.clip(nvds, 0.0, vov)
        denom = np.maximum(2.0 * vov - vde, 1e-9)
        cgs_i = (2.0 / 3.0) * cox_total * (1.0 - ((vov - vde) / denom) ** 2)
        cgd_i = (2.0 / 3.0) * cox_total * (1.0 - (vov / denom) ** 2)
        # Below threshold the channel disappears: fade the intrinsic parts
        # with the inversion sigmoid and hand the oxide cap to the bulk.
        cgs = cgs_i * s_on + self.cgso * w
        cgd = cgd_i * s_on + self.cgdo * w
        cgb = cox_total * (1.0 - s_on) + self.cgbo * leff

        # Junction capacitances (reverse-bias dependent, forward clamped).
        area = w * self.ldiff
        perim = 2.0 * (w + self.ldiff)

        def junction(v_junction):
            ratio = np.maximum(1.0 - v_junction / self.pb, 0.4)
            return (self.cj * area * ratio ** (-self.mj)
                    + self.cjsw * perim * ratio ** (-self.mjsw))

        return cgs, cgd, cgb, junction(nvbs - nvds), junction(nvbs)

    def values(self, mode: str, xT: np.ndarray, lanes, out: np.ndarray
               ) -> None:
        """Fill ``out`` (``(ROWS[mode], D, b)``) with the stamp values at
        the voltages ``xT`` (``(N + 1, b)``, ground row last)."""
        vd, vg, vs, vb = xT[self.nodes]
        vgs, vds, vbs = vg - vs, vd - vs, vb - vs
        ids, gm, gds, gmb, _, _ = self.evaluate(vgs, vds, vbs, lanes)
        out[0], out[1], out[2] = gm, gds, gmb
        out[3] = gm + gds + gmb
        if mode == "newton":
            out[4] = ids - gm * vgs - gds * vds - gmb * vbs
        else:
            for k, cap in enumerate(self.capacitances(vgs, vds, vbs, lanes)):
                out[4 + k] = cap


class Mosfet(Element):
    """Four-terminal MOSFET ``(drain, gate, source, bulk)``.

    Parameters
    ----------
    w, l:
        Drawn width and length [m]; scalars or batch arrays.  Engineering
        strings (``"10u"``) are accepted.
    model:
        The :class:`MOSModel` card.
    m:
        Parallel-device multiplier.
    delta_vto, beta_scale:
        Per-device statistical perturbations (see module docstring).
    """

    bank = MosfetBank
    GDS_MIN = _GDS_MIN

    def __init__(self, name: str, drain: str, gate: str, source: str, bulk: str,
                 model: MOSModel, w, l, *, m: float = 1.0,
                 delta_vto=0.0, beta_scale=1.0) -> None:
        super().__init__(name, (drain, gate, source, bulk))
        self.model = model
        self.w = parse_si(w) if isinstance(w, str) else w
        self.l = parse_si(l) if isinstance(l, str) else l
        self.m = m
        self.delta_vto = delta_vto
        self.beta_scale = beta_scale
        if np.any(np.asarray(self.w, dtype=float) <= 0):
            raise NetlistError(f"mosfet {name!r}: width must be positive")
        leff = np.asarray(self.l, dtype=float) - 2.0 * model.ld
        if np.any(leff <= 0):
            raise NetlistError(
                f"mosfet {name!r}: length must exceed 2*ld = {2 * model.ld:g} m")

    # -- geometry ------------------------------------------------------------
    @property
    def leff(self) -> np.ndarray:
        """Effective channel length ``L - 2*ld``."""
        return np.asarray(self.l, dtype=float) - 2.0 * self.model.ld

    @property
    def beta(self) -> np.ndarray:
        """Current factor ``kp * m * W/Leff * beta_scale``."""
        w = np.asarray(self.w, dtype=float)
        return (self.model.kp * self.m * w / self.leff
                * np.asarray(self.beta_scale, dtype=float))

    @property
    def lam(self) -> np.ndarray:
        """Channel-length modulation ``klambda / Leff`` [1/V]."""
        return self.model.klambda / self.leff

    def batch_size(self) -> int:
        return _param_batch(self.w, self.l, self.delta_vto, self.beta_scale)

    # -- single-device evaluation ----------------------------------------------
    def _single(self, method, vgs, vds, vbs) -> list[np.ndarray]:
        """Run a :class:`MosfetBank` method for this device alone (D=1)."""
        bank = MosfetBank([self], self.batch_size())
        lanes = bank.beta.shape[1]
        shape = np.broadcast_shapes(np.shape(vgs), np.shape(vds),
                                    np.shape(vbs), (lanes,) if lanes > 1 else ())
        voltages = (np.asarray(v, dtype=float)[None] for v in (vgs, vds, vbs))
        return [value[0].reshape(shape) for value in method(bank, *voltages)]

    def evaluate(self, vgs, vds, vbs) -> _OperatingPoint:
        """Evaluate ``Id`` and small-signal conductances at a bias point.

        Voltages are the *physical* terminal voltages (PMOS devices receive
        negative ``vgs``/``vds`` in normal operation); polarity mirroring and
        drain/source reversal are handled internally.  All partials are with
        respect to the physical ``(vgs, vds, vbs)``.
        """
        ids, gm, gds, gmb, vth, vov = self._single(MosfetBank.evaluate,
                                                   vgs, vds, vbs)
        return _OperatingPoint(ids=ids, gm=gm, gds=gds, gmb=gmb,
                               vgs=np.asarray(vgs, dtype=float),
                               vds=np.asarray(vds, dtype=float),
                               vbs=np.asarray(vbs, dtype=float),
                               vth=vth, vov=vov)

    def capacitances(self, vgs, vds, vbs) -> dict[str, np.ndarray]:
        """Meyer gate capacitances + junction capacitances at a bias point.

        Returns a dict with keys ``cgs, cgd, cgb, cdb, csb`` [F].
        """
        return dict(zip(("cgs", "cgd", "cgb", "cdb", "csb"),
                        self._single(MosfetBank.capacitances, vgs, vds, vbs)))

    def _terminal_voltages(self, x: np.ndarray):
        """Extract (vgs, vds, vbs) from the unknown vector ``x`` (..., N)."""
        d, g, s, b = self._node_idx
        vd = x[..., d] if d >= 0 else np.zeros(x.shape[:-1])
        vg = x[..., g] if g >= 0 else np.zeros(x.shape[:-1])
        vs = x[..., s] if s >= 0 else np.zeros(x.shape[:-1])
        vb = x[..., b] if b >= 0 else np.zeros(x.shape[:-1])
        return vg - vs, vd - vs, vb - vs

    # -- reporting -----------------------------------------------------------
    def op_info(self, op: np.ndarray) -> dict[str, np.ndarray]:
        vgs, vds, vbs = self._terminal_voltages(op)
        point = self.evaluate(vgs, vds, vbs)
        saturated = np.abs(vds) >= np.maximum(point.vov, 1e-3)
        return {
            "ids": point.ids, "gm": point.gm, "gds": point.gds,
            "gmb": point.gmb, "vgs": vgs, "vds": vds, "vbs": vbs,
            "vth": point.vth, "vov": point.vov,
            "saturated": saturated,
            "intrinsic_gain": point.gm / point.gds,
        }
