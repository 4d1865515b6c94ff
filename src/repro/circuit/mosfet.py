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

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import NetlistError
from ..units import parse_si
from .netlist import Element, _param_batch

__all__ = ["MOSModel", "Mosfet"]

_THERMAL_VOLTAGE = 0.025852  # kT/q at 300 K


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

    def with_variation(self, *, dvto: float = 0.0, kp_scale: float = 1.0) -> "MOSModel":
        """A copy with global process variation applied (corner/MC).

        ``dvto`` shifts the threshold (same sign convention as ``vto``) and
        ``kp_scale`` scales the transconductance parameter.
        """
        sign = 1.0 if self.polarity == "n" else -1.0
        return replace(self, vto=self.vto + sign * dvto, kp=self.kp * kp_scale)

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
    capacitances: dict[str, np.ndarray] = field(default_factory=dict)


def _softplus(x: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Soft-plus ``width*ln(1+exp(x/width))`` and its derivative (sigmoid).

    Overflow-safe: for large positive arguments the identity
    ``sp(x) = x + sp(-x)`` is used.
    """
    z = x / width
    # log1p(exp(z)) = max(z,0) + log1p(exp(-|z|)) is stable for all z.
    value = width * (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
    deriv = 0.5 * (1.0 + np.tanh(0.5 * z))  # sigmoid(z), overflow-free
    return value, deriv


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

    nonlinear = True

    #: Minimum conductance added to gds; keeps matrices regular when off.
    GDS_MIN = 1e-12

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

    def take_lanes(self, lanes: np.ndarray) -> Mosfet:
        """A shallow copy of this device holding the per-lane parameters
        of ``lanes`` only; scalar and length-1 parameters are shared."""
        view = copy.copy(self)
        for name in ("w", "l", "delta_vto", "beta_scale"):
            value = getattr(self, name)
            if np.ndim(value) == 1 and np.shape(value)[0] > 1:
                setattr(view, name, np.asarray(value)[lanes])
        return view

    def gate_area(self) -> np.ndarray:
        """``W * Leff`` -- the area entering the Pelgrom mismatch law."""
        return np.asarray(self.w, dtype=float) * self.leff

    # -- core I-V evaluation ---------------------------------------------------
    def _threshold(self, vbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Body-effect threshold (NMOS convention) and ``-dVth/dVbs``.

        ``vbs`` here is already polarity-normalised (NMOS convention).
        """
        model = self.model
        vto_n = abs(model.vto) + np.asarray(self.delta_vto, dtype=float)
        raw = model.phi - vbs
        clamped = raw < 1e-3  # strongly forward-biased bulk junction
        phi_minus_vbs = np.maximum(raw, 1e-3)
        sqrt_term = np.sqrt(phi_minus_vbs)
        vth = vto_n + model.gamma * (sqrt_term - np.sqrt(model.phi))
        # In the clamped region vth is constant, so its derivative must be
        # zero too -- otherwise Newton sees a slope the residual lacks.
        dvth_dvbs = np.where(clamped, 0.0,
                             -model.gamma / (2.0 * sqrt_term))
        return vth, -dvth_dvbs

    def _forward_iv(self, vgs, vds, vbs):
        """Current and partial derivatives for ``vds >= 0`` (NMOS frame).

        Returns ``(id, d/dvgs, d/dvds, d/dvbs, vth, vov)``.
        """
        model = self.model
        width = model.n_sub * _THERMAL_VOLTAGE
        vth, gmb_factor = self._threshold(vbs)
        beta = self.beta
        lam = self.lam
        a, sa = _softplus(vgs - vth, width)
        b, sb = _softplus(vgs - vth - vds, width)
        clm = np.maximum(1.0 + lam * vds, 0.05)
        core = 0.5 * beta * (a * a - b * b)
        ids = core * clm
        d_vgs = beta * (a * sa - b * sb) * clm
        d_vds = beta * b * sb * clm + core * lam
        d_vbs = d_vgs * gmb_factor
        return ids, d_vgs, d_vds, d_vbs, vth, a

    def evaluate(self, vgs, vds, vbs) -> _OperatingPoint:
        """Evaluate ``Id`` and small-signal conductances at a bias point.

        Voltages are the *physical* terminal voltages (PMOS devices receive
        negative ``vgs``/``vds`` in normal operation); polarity mirroring and
        drain/source reversal are handled internally.  All partials are with
        respect to the physical ``(vgs, vds, vbs)``.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vbs = np.asarray(vbs, dtype=float)
        sign = 1.0 if self.model.polarity == "n" else -1.0
        # Map to the NMOS frame.
        nvgs, nvds, nvbs = sign * vgs, sign * vds, sign * vbs

        reverse = nvds < 0.0
        # Forward evaluation arguments, with drain/source swapped where needed.
        e_vgs = np.where(reverse, nvgs - nvds, nvgs)
        e_vds = np.abs(nvds)
        e_vbs = np.where(reverse, nvbs - nvds, nvbs)
        ids_f, f_g, f_d, f_b, vth, vov = self._forward_iv(e_vgs, e_vds, e_vbs)

        # Chain rule back through the swap:
        #   Id = -f(vgs - vds, -vds, vbs - vds) in reverse mode, hence
        #   dId/dvgs = -f_g ; dId/dvds = f_g + f_d + f_b ; dId/dvbs = -f_b.
        ids_n = np.where(reverse, -ids_f, ids_f)
        gm_n = np.where(reverse, -f_g, f_g)
        gds_n = np.where(reverse, f_g + f_d + f_b, f_d)
        gmb_n = np.where(reverse, -f_b, f_b)

        # Map back to the physical frame: Id_phys = sign * Id_nmos and each
        # conductance is d(sign*Id)/d(sign*V) = unchanged.
        ids = sign * ids_n
        return _OperatingPoint(
            ids=ids, gm=gm_n, gds=gds_n + self.GDS_MIN, gmb=gmb_n,
            vgs=vgs, vds=vds, vbs=vbs, vth=sign * vth, vov=vov)

    # -- terminal voltage helpers ------------------------------------------------
    def _terminal_voltages(self, x: np.ndarray):
        """Extract (vgs, vds, vbs) from the unknown vector ``x`` (..., N)."""
        d, g, s, b = self._node_idx
        vd = x[..., d] if d >= 0 else np.zeros(x.shape[:-1])
        vg = x[..., g] if g >= 0 else np.zeros(x.shape[:-1])
        vs = x[..., s] if s >= 0 else np.zeros(x.shape[:-1])
        vb = x[..., b] if b >= 0 else np.zeros(x.shape[:-1])
        return vg - vs, vd - vs, vb - vs

    # -- stamping -----------------------------------------------------------------
    def _stamp_conductances(self, ctx, gm, gds, gmb) -> None:
        """Stamp the linearised transistor (drain-source current source)."""
        d, g, s, b = self._node_idx
        gsum = gm + gds + gmb
        ctx.add_g(d, g, gm)
        ctx.add_g(d, d, gds)
        ctx.add_g(d, b, gmb)
        ctx.add_g(d, s, -gsum)
        ctx.add_g(s, g, -gm)
        ctx.add_g(s, d, -gds)
        ctx.add_g(s, b, -gmb)
        ctx.add_g(s, s, gsum)

    def load(self, voltages: np.ndarray, ctx) -> None:
        vgs, vds, vbs = self._terminal_voltages(voltages)
        op = self.evaluate(vgs, vds, vbs)
        d, g, s, b = self._node_idx
        self._stamp_conductances(ctx, op.gm, op.gds, op.gmb)
        i_eq = op.ids - op.gm * vgs - op.gds * vds - op.gmb * vbs
        ctx.add_rhs(d, -i_eq)
        ctx.add_rhs(s, i_eq)

    # -- capacitances -----------------------------------------------------------
    def capacitances(self, vgs, vds, vbs) -> dict[str, np.ndarray]:
        """Meyer gate capacitances + junction capacitances at a bias point.

        Returns a dict with keys ``cgs, cgd, cgb, cdb, csb`` [F].
        """
        model = self.model
        sign = 1.0 if model.polarity == "n" else -1.0
        nvgs = sign * np.asarray(vgs, dtype=float)
        nvds = sign * np.asarray(vds, dtype=float)
        nvbs = sign * np.asarray(vbs, dtype=float)

        w = np.asarray(self.w, dtype=float) * self.m
        leff = self.leff
        cox_total = model.cox * w * leff
        width = model.n_sub * _THERMAL_VOLTAGE
        vth, _ = self._threshold(nvbs)
        vov, s_on = _softplus(nvgs - vth, width)

        # Meyer model with the drain saturation voltage clamp.
        vde = np.clip(nvds, 0.0, vov)
        denom = np.maximum(2.0 * vov - vde, 1e-9)
        cgs_i = (2.0 / 3.0) * cox_total * (1.0 - ((vov - vde) / denom) ** 2)
        cgd_i = (2.0 / 3.0) * cox_total * (1.0 - (vov / denom) ** 2)
        # Below threshold the channel disappears: fade the intrinsic parts
        # with the inversion sigmoid and hand the oxide cap to the bulk.
        cgs = cgs_i * s_on + model.cgso * w
        cgd = cgd_i * s_on + model.cgdo * w
        cgb = cox_total * (1.0 - s_on) + model.cgbo * leff

        # Junction capacitances (reverse-bias dependent, forward clamped).
        area = w * model.ldiff
        perim = 2.0 * (w + model.ldiff)

        def junction(v_junction):
            ratio = np.maximum(1.0 - v_junction / model.pb, 0.4)
            return (model.cj * area * ratio ** (-model.mj)
                    + model.cjsw * perim * ratio ** (-model.mjsw))

        vbd = nvbs - nvds
        cdb = junction(vbd)
        csb = junction(nvbs)
        return {"cgs": cgs, "cgd": cgd, "cgb": cgb, "cdb": cdb, "csb": csb}

    def stamp_ac(self, op: np.ndarray, ctx) -> None:
        vgs, vds, vbs = self._terminal_voltages(op)
        point = self.evaluate(vgs, vds, vbs)
        self._stamp_conductances(ctx, point.gm, point.gds, point.gmb)

        caps = self.capacitances(vgs, vds, vbs)
        d, g, s, b = self._node_idx
        for (na, nb), key in (((g, s), "cgs"), ((g, d), "cgd"), ((g, b), "cgb"),
                              ((d, b), "cdb"), ((s, b), "csb")):
            c = caps[key]
            ctx.add_c(na, na, c)
            ctx.add_c(nb, nb, c)
            ctx.add_c(na, nb, -c)
            ctx.add_c(nb, na, -c)

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
