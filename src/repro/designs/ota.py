"""The paper's benchmark circuit: a symmetrical OTA (Figure 5).

Topology
--------
A classic three-current-mirror ("symmetrical") OTA on a 3.3 V supply:

* ``M1/M2``   -- NMOS differential pair (dimensions fixed, as in the paper);
* ``M3/M6``   -- left PMOS mirror: diode ``M3`` on M1's drain, output
  device ``M6`` driving ``out`` (shared ``W4/L4`` -> Table 1 pair);
* ``M4/M5``   -- right PMOS mirror: diode ``M4`` on M2's drain, output
  device ``M5`` feeding the NMOS mirror (shared ``W1/L1``);
* ``M7/M9``   -- NMOS mirror folding M5's current to ``out`` (``W2/L2``);
* ``M10/M8``  -- NMOS bias mirror setting the tail current (``W3/L3``);
* ``CL``      -- load capacitance at ``out``.

Small-signal behaviour: DC gain ``gm1/(gds6 + gds9)`` (channel-length
modulation falls with L, so *long* output devices raise gain), dominant
pole at ``out`` from ``CL``, non-dominant poles at the three mirror diodes
(``gm_diode / C_gate``; *large* gate areas lower these poles and erode
phase margin).  That opposition is exactly the gain-vs-phase-margin
trade-off the paper's Figure 7 Pareto front captures.

Table 1 design space: ``W1..W4`` in [10, 60] um and ``L1..L4`` in
[0.35, 4] um, eight designable parameters in total.

Testbench
---------
Open-loop AC gain measurement with a DC servo loop: a huge inductor closes
unity feedback from ``out`` to the inverting input so the operating point
stays biased (essential once Monte-Carlo mismatch introduces offset), while
a huge capacitor grounds the inverting input for AC.  The loop corner sits
at micro-hertz, so measured gain/phase above 1 Hz are the open-loop values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from ..analysis import ac_analysis, dc_operating_point, log_frequencies
from ..circuit import (Capacitor, Circuit, CurrentSource, Inductor, Mosfet,
                       VoltageSource)
from ..errors import ConvergenceError, ReproError
from ..measure.acmeas import (dc_gain_db, f3db, phase_margin,
                              unity_gain_frequency)
from ..process import C35, ProcessKit, ProcessSample

__all__ = ["OTA_DESIGN_SPACE", "OTAParameters", "OTADesignSpace",
           "add_ota_devices", "build_ota", "evaluate_ota",
           "default_frequency_grid", "OTA_OBJECTIVES",
           "ota_points_evaluator", "ota_reference_evaluator"]

#: The two performance functions the paper optimises (section 4.1).
OTA_OBJECTIVES = ("gain_db", "pm_deg")


class OTADesignSpace:
    """Table 1: designable parameter ranges for the symmetrical OTA."""

    w_min = 10e-6
    w_max = 60e-6
    l_min = 0.35e-6
    l_max = 4e-6

    #: Parameter order matches the paper's GA string (Figure 6):
    #: W1 L1 W2 L2 W3 L3 W4 L4.
    names = ("w1", "l1", "w2", "l2", "w3", "l3", "w4", "l4")

    def bounds(self) -> dict[str, tuple[float, float]]:
        """Lower/upper bound for each designable parameter [m]."""
        out: dict[str, tuple[float, float]] = {}
        for name in self.names:
            if name.startswith("w"):
                out[name] = (self.w_min, self.w_max)
            else:
                out[name] = (self.l_min, self.l_max)
        return out

    def table1_rows(self) -> list[tuple[str, str]]:
        """The rows of the paper's Table 1 (parameter, range)."""
        device_of = {"1": "(M5,M4)", "2": "(M7,M9)", "3": "(M10,M8)",
                     "4": "(M3,M6)"}
        rows = []
        for name in self.names:
            kind, index = name[0], name[1]
            lo, hi = self.bounds()[name]
            rows.append((f"{kind.upper()}{index} {device_of[index]}",
                         f"{lo * 1e6:g}um - {hi * 1e6:g}um"))
        rows.append(("Wg1 (Gain weight)", "0 - 1 (normalised)"))
        rows.append(("Wg2 (Phase weight)", "0 - 1 (normalised)"))
        return rows


#: Shared design-space instance (the paper's Table 1).
OTA_DESIGN_SPACE = OTADesignSpace()

#: Input common-mode voltage of the open-loop testbench [V].
VCM = 1.2

#: The fixed M1/M2 differential-pair dimensions [m].
DIFF_PAIR_W = 20e-6
DIFF_PAIR_L = 1.0e-6


def add_ota_devices(circuit: Circuit, *, prefix: str,
                    inp: str, inn: str, out: str, vdd: str,
                    params: "OTAParameters", pdk: ProcessKit = C35,
                    variations: ProcessSample | None = None,
                    ibias: float = 20e-6) -> None:
    """Instantiate the ten OTA transistors + bias source into ``circuit``.

    The embeddable core of the OTA: internal nodes (``d1``, ``d2``,
    ``n5``, ``tail``, ``nbias``) are prefixed with ``prefix``; the signal
    ports ``inp``/``inn``/``out`` and the supply ``vdd`` attach to the
    caller's nodes.  Used both by the open-loop testbench
    (:func:`build_ota`) and by the section-5 filter, which embeds two of
    these cores.

    The differential pair M1/M2 is fixed at :data:`DIFF_PAIR_W` x
    :data:`DIFF_PAIR_L`, as in the paper.  Devices are instantiated in
    fixed M1..M10 order: the :class:`ProcessSample` mismatch stream
    depends on this order (bit-reproducibility of Monte Carlo).
    """
    p = prefix
    nmos, pmos = pdk.nmos, pdk.pmos

    def variation(model, w, length):
        if variations is None:
            return {}
        dvto, beta_scale = variations.device_variation(model, w, length)
        return {"delta_vto": dvto, "beta_scale": beta_scale}

    circuit.add(CurrentSource(f"{p}IBIAS", vdd, f"{p}nbias", ibias))
    circuit.add(Mosfet(f"{p}M1", f"{p}d1", inp, f"{p}tail", "0",
                       nmos, DIFF_PAIR_W, DIFF_PAIR_L,
                       **variation(nmos, DIFF_PAIR_W, DIFF_PAIR_L)))
    circuit.add(Mosfet(f"{p}M2", f"{p}d2", inn, f"{p}tail", "0",
                       nmos, DIFF_PAIR_W, DIFF_PAIR_L,
                       **variation(nmos, DIFF_PAIR_W, DIFF_PAIR_L)))
    circuit.add(Mosfet(f"{p}M3", f"{p}d1", f"{p}d1", vdd, vdd,
                       pmos, params.w4, params.l4,
                       **variation(pmos, params.w4, params.l4)))
    circuit.add(Mosfet(f"{p}M4", f"{p}d2", f"{p}d2", vdd, vdd,
                       pmos, params.w1, params.l1,
                       **variation(pmos, params.w1, params.l1)))
    circuit.add(Mosfet(f"{p}M5", f"{p}n5", f"{p}d2", vdd, vdd,
                       pmos, params.w1, params.l1,
                       **variation(pmos, params.w1, params.l1)))
    circuit.add(Mosfet(f"{p}M6", out, f"{p}d1", vdd, vdd,
                       pmos, params.w4, params.l4,
                       **variation(pmos, params.w4, params.l4)))
    circuit.add(Mosfet(f"{p}M7", f"{p}n5", f"{p}n5", "0", "0",
                       nmos, params.w2, params.l2,
                       **variation(nmos, params.w2, params.l2)))
    circuit.add(Mosfet(f"{p}M9", out, f"{p}n5", "0", "0",
                       nmos, params.w2, params.l2,
                       **variation(nmos, params.w2, params.l2)))
    circuit.add(Mosfet(f"{p}M10", f"{p}nbias", f"{p}nbias", "0", "0",
                       nmos, params.w3, params.l3,
                       **variation(nmos, params.w3, params.l3)))
    circuit.add(Mosfet(f"{p}M8", f"{p}tail", f"{p}nbias", "0", "0",
                       nmos, params.w3, params.l3,
                       **variation(nmos, params.w3, params.l3)))


@dataclass
class OTAParameters:
    """One (possibly batched) point in the OTA design space.

    Each field is the shared W or L of a matched pair, in metres:
    ``w1/l1`` -> (M5, M4), ``w2/l2`` -> (M7, M9), ``w3/l3`` -> (M10, M8),
    ``w4/l4`` -> (M3, M6).  Fields accept scalars or ``(B,)`` arrays.
    """

    w1: object = 30e-6
    l1: object = 1.0e-6
    w2: object = 30e-6
    l2: object = 1.0e-6
    w3: object = 30e-6
    l3: object = 1.0e-6
    w4: object = 30e-6
    l4: object = 1.0e-6

    @classmethod
    def from_array(cls, values) -> "OTAParameters":
        """Build from an array ``(..., 8)`` ordered like the GA string."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != 8:
            raise ReproError(f"expected 8 parameters, got {values.shape}")
        columns = [values[..., i] for i in range(8)]
        if values.ndim == 1:
            columns = [float(c) for c in columns]
        return cls(*columns)

    @classmethod
    def from_normalized(cls, unit_values) -> "OTAParameters":
        """Build from normalised ``[0, 1]`` values (the GA encoding)."""
        unit_values = np.asarray(unit_values, dtype=float)
        if np.any(unit_values < -1e-9) or np.any(unit_values > 1 + 1e-9):
            raise ReproError("normalised parameters must lie in [0, 1]")
        bounds = OTA_DESIGN_SPACE.bounds()
        scaled = np.empty_like(unit_values)
        for i, name in enumerate(OTA_DESIGN_SPACE.names):
            lo, hi = bounds[name]
            scaled[..., i] = lo + unit_values[..., i] * (hi - lo)
        return cls.from_array(scaled)

    def to_array(self) -> np.ndarray:
        """Stack to ``(B, 8)`` (or ``(8,)`` for scalar parameters)."""
        columns = [getattr(self, f.name) for f in fields(self)]
        batched = any(np.ndim(c) == 1 for c in columns)
        if not batched:
            return np.array([float(c) for c in columns])
        batch = max(np.size(c) for c in columns)
        return np.stack([np.broadcast_to(np.asarray(c, float), (batch,))
                         for c in columns], axis=-1)

    def to_normalized(self) -> np.ndarray:
        """Inverse of :meth:`from_normalized`."""
        values = self.to_array()
        bounds = OTA_DESIGN_SPACE.bounds()
        unit = np.empty_like(values)
        for i, name in enumerate(OTA_DESIGN_SPACE.names):
            lo, hi = bounds[name]
            unit[..., i] = (values[..., i] - lo) / (hi - lo)
        return unit

    def batch(self) -> int:
        """Batch length across the fields (1 when all scalar)."""
        return max((np.size(getattr(self, f.name)) for f in fields(self)),
                   default=1)

    def tile(self, repeats: int) -> "OTAParameters":
        """Repeat every lane ``repeats`` times (for per-point Monte Carlo)."""
        arr = np.atleast_2d(self.to_array())
        return OTAParameters.from_array(np.repeat(arr, repeats, axis=0))


def build_ota(params: OTAParameters, *, pdk: ProcessKit = C35,
              variations: ProcessSample | None = None,
              ibias: float = 20e-6, cl: float = 10e-12) -> Circuit:
    """Build the symmetrical-OTA open-loop testbench circuit.

    The non-inverting input sits at :data:`VCM` with a unit AC drive.

    Parameters
    ----------
    params:
        The designable W/L values (Table 1); may be batched.
    variations:
        Optional :class:`ProcessSample` carrying global + mismatch
        variation.  Its batch must equal / broadcast with the parameter
        batch.
    ibias:
        Bias reference current into the M10 diode (the tail mirrors it).
    cl:
        Load capacitance at ``out``.

    Returns
    -------
    A ready-to-simulate :class:`Circuit`; batch = max(params, variations).
    """
    circuit = Circuit("symmetrical OTA testbench")
    supply = pdk.supply if variations is None or variations.vdd is None \
        else variations.vdd
    circuit.add(VoltageSource("VDD", "vdd", "0", supply))
    circuit.add(VoltageSource("VINP", "inp", "0", VCM, ac_mag=1.0))
    add_ota_devices(circuit, prefix="", inp="inp", inn="inn", out="out",
                    vdd="vdd", params=params, pdk=pdk,
                    variations=variations, ibias=ibias)

    cl_effective = cl if variations is None else cl * variations.cap_scale
    circuit.add(Capacitor("CL", "out", "0", cl_effective))

    # DC servo: unity feedback through a huge inductor keeps the output
    # biased (handles Monte-Carlo offset); the huge capacitor makes the
    # inverting input an AC ground.  Loop corner ~ 1/(2*pi*sqrt(L*C)) Hz.
    circuit.add(Inductor("LSERVO", "out", "inn", 1e6))
    circuit.add(Capacitor("CSERVO", "inn", "0", 1.0))
    return circuit


def default_frequency_grid() -> np.ndarray:
    """The standard OTA measurement sweep: 10 Hz to 1 GHz, 12 points per
    decade."""
    return log_frequencies(10.0, 1e9, 12)


#: Reference operating points kept by :func:`_reference_point`.
REFERENCE_MEMO_SIZE = 16


@functools.lru_cache(maxsize=REFERENCE_MEMO_SIZE)
def _reference_point(nmos, pmos, supply: float, cl: float,
                     ibias: float) -> np.ndarray | None:
    """DC start point of every OTA solve: the operating point of the
    mid-box design (every normalised parameter 0.5), solved cold once
    per kit, ``cl`` and ``ibias``; ``None`` (a cold start) when that
    solve does not converge.

    The kit is keyed by the fields the nominal testbench reads, and the
    solve runs on a kit made of them only, so a row is never stale.
    """
    kit = ProcessKit("reference", nmos, pmos, supply)
    circuit = build_ota(OTAParameters.from_normalized(np.full(8, 0.5)),
                        pdk=kit, cl=cl, ibias=ibias)
    try:
        x = dc_operating_point(circuit).x[0]
    except ConvergenceError:
        return None
    x.flags.writeable = False
    return x


def evaluate_ota(params: OTAParameters, *, pdk: ProcessKit = C35,
                 variations: ProcessSample | None = None,
                 cl: float = 10e-12,
                 ibias: float = 20e-6) -> dict[str, np.ndarray]:
    """Simulate the OTA and extract its performance functions.

    Returns a dict of shape-``(B,)`` arrays, measured over
    :func:`default_frequency_grid`:

    * ``gain_db``  -- open-loop low-frequency gain [dB],
    * ``pm_deg``   -- phase margin [deg],
    * ``ugf_hz``   -- unity-gain frequency [Hz],
    * ``f3db_hz``  -- open-loop -3 dB bandwidth [Hz].

    This is the "testbench netlist simulation" of the paper's section 3.1,
    and the fitness evaluation inside its WBGA loop.

    DC Newton starts from the kit's reference operating point
    (:func:`_reference_point`) rather than from zero, whatever the design
    and its dies; results match the cold start within 1e-7 relative.
    """
    freqs = default_frequency_grid()
    circuit = build_ota(params, pdk=pdk, variations=variations,
                        cl=cl, ibias=ibias)
    x0 = _reference_point(pdk.nmos, pdk.pmos, pdk.supply, cl, ibias)
    op = dc_operating_point(circuit, x0=x0)
    result = ac_analysis(circuit, freqs, op=op)
    mag = result.magnitude_db("out")
    phase = result.phase_deg("out")
    return {
        "gain_db": dc_gain_db(mag),
        "pm_deg": phase_margin(freqs, mag, phase),
        "ugf_hz": unity_gain_frequency(freqs, mag),
        "f3db_hz": f3db(freqs, mag),
    }


def ota_points_evaluator(natural_params, *, pdk: ProcessKit = C35,
                         cl: float = 10e-12, ibias: float = 20e-6):
    """Chunked many-points evaluator over a ``(K, 8)`` parameter stack.

    Follows the :func:`repro.mc.engine.monte_carlo_points` contract
    (``(point_indices, repeats, die_sample) -> dict`` of the
    :data:`OTA_OBJECTIVES`); the same
    callable also serves :func:`repro.corners.corner_sweep_points`, and
    it is the one OTA closure behind :func:`ota_reference_evaluator` and
    :func:`repro.optimize.ota_evaluator_factory`.
    """
    natural_params = np.asarray(natural_params, dtype=float)

    def evaluator(point_indices, repeats, die_sample):
        tiled = OTAParameters.from_array(
            np.repeat(natural_params[point_indices], repeats, axis=0))
        performance = evaluate_ota(tiled, pdk=pdk, variations=die_sample,
                                   cl=cl, ibias=ibias)
        return {name: performance[name] for name in OTA_OBJECTIVES}

    return evaluator


def ota_reference_evaluator(reference, *, pdk: ProcessKit = C35,
                            cl: float = 10e-12, ibias: float = 20e-6):
    """Streaming-MC evaluator of one OTA design point.

    ``reference`` is the natural-unit parameter vector ``(8,)``
    (W1 L1 ... W4 L4).  The returned callable follows the
    :func:`repro.mc.engine.monte_carlo` contract: every die lane runs
    :func:`ota_points_evaluator`'s one-point stack.
    """
    points = ota_points_evaluator(np.asarray(reference, dtype=float)[None, :],
                                  pdk=pdk, cl=cl, ibias=ibias)
    return lambda die_sample: points([0], die_sample.size, die_sample)
