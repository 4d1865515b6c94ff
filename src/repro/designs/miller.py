"""A second benchmark topology: the Miller (two-stage) OTA.

The paper demonstrates its flow on one circuit; this module provides a
second, structurally different amplifier so the library can show the flow
is topology-agnostic (the "given analogue circuit topology" of the
abstract really is a parameter):

* stage 1 -- PMOS differential pair ``M1/M2`` with NMOS mirror load
  ``M3/M4``;
* stage 2 -- NMOS common-source ``M6`` with PMOS current-source load
  ``M7``;
* ``Cc`` -- Miller compensation capacitor across stage 2;
* ``M5/M8`` -- PMOS tail / bias mirror.

Design space (6 parameters): the stage-1 pair ``W1/L1``, mirror ``W2/L2``,
and the stage-2 driver ``W3/L3``; the compensation capacitor is fixed.
Gain is two-stage (much higher than the symmetrical OTA); phase margin is
set by the Miller pole split, trading against gain through the same
channel-length mechanism.

Use with the generic flow machinery::

    problem = MillerOTAProblem()
    result = run_wbga(problem, GAConfig(...))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import ac_analysis, dc_operating_point
from ..circuit import (Capacitor, Circuit, CurrentSource, Inductor, Mosfet,
                       VoltageSource)
from ..errors import ReproError
from ..measure.acmeas import dc_gain_db, phase_margin, unity_gain_frequency
from ..moo.problem import Objective, OptimizationProblem
from ..process import C35
from .ota import default_frequency_grid

__all__ = ["MILLER_DESIGN_SPACE", "MillerParameters", "build_miller_ota",
           "evaluate_miller_ota", "MillerOTAProblem"]

#: Designable-parameter names (pair W/L, mirror W/L, driver W/L) and
#: their bounds [m]; widths 5-80 um, lengths 0.35-4 um.
MILLER_DESIGN_SPACE: dict[str, tuple[float, float]] = {
    "w1": (5e-6, 80e-6), "l1": (0.35e-6, 4e-6),
    "w2": (5e-6, 80e-6), "l2": (0.35e-6, 4e-6),
    "w3": (5e-6, 80e-6), "l3": (0.35e-6, 4e-6),
}

#: Testbench constants: input common mode [V], bias current [A], Miller
#: compensation and load capacitance [F].
VCM = 1.65
IBIAS = 25e-6
CC = 6e-12
CL = 10e-12


@dataclass
class MillerParameters:
    """Designable W/L values of the Miller OTA (scalars or ``(B,)``)."""

    w1: object = 30e-6
    l1: object = 1.0e-6
    w2: object = 20e-6
    l2: object = 1.0e-6
    w3: object = 40e-6
    l3: object = 0.7e-6

    @classmethod
    def from_normalized(cls, unit_values) -> "MillerParameters":
        unit_values = np.asarray(unit_values, dtype=float)
        if unit_values.shape[-1] != 6:
            raise ReproError(f"expected 6 parameters, got {unit_values.shape}")
        columns = []
        for j, (lo, hi) in enumerate(MILLER_DESIGN_SPACE.values()):
            columns.append(lo + unit_values[..., j] * (hi - lo))
        if unit_values.ndim == 1:
            columns = [float(c) for c in columns]
        return cls(*columns)

    def to_array(self) -> np.ndarray:
        columns = [self.w1, self.l1, self.w2, self.l2, self.w3, self.l3]
        batched = any(np.ndim(c) == 1 for c in columns)
        if not batched:
            return np.array([float(c) for c in columns])
        batch = max(np.size(c) for c in columns)
        return np.stack([np.broadcast_to(np.asarray(c, float), (batch,))
                         for c in columns], axis=-1)


def build_miller_ota(params: MillerParameters) -> Circuit:
    """Build the two-stage Miller OTA open-loop testbench (nominal
    :data:`~repro.process.C35` process).

    Same testbench pattern as the symmetrical OTA: unit AC drive on the
    non-inverting input at :data:`VCM`, DC servo closing unity feedback
    through a huge inductor.
    """
    nmos, pmos = C35.nmos, C35.pmos

    c = Circuit("miller OTA testbench")
    c.add(VoltageSource("VDD", "vdd", "0", C35.supply))
    c.add(VoltageSource("VINP", "inp", "0", VCM, ac_mag=1.0))
    c.add(CurrentSource("IBIAS", "nbias", "0", IBIAS))

    # Bias mirror (PMOS): diode M8 sets the gate line for M5 and M7.
    c.add(Mosfet("M8", "nbias", "nbias", "vdd", "vdd", pmos, 20e-6, 1e-6))
    c.add(Mosfet("M5", "tail", "nbias", "vdd", "vdd", pmos, 40e-6, 1e-6))
    # Stage 1: PMOS pair, NMOS mirror load.
    # M1's gate is the *inverting* input of this two-stage topology
    # (inp -> I(M1) -> mirror -> d2 -> M6 -> out flips sign twice plus the
    # mirror fold), so the DC servo closes on M1 and the AC drive sits on
    # M2's gate.
    c.add(Mosfet("M1", "d1", "inn", "tail", "vdd", pmos,
                 params.w1, params.l1))
    c.add(Mosfet("M2", "d2", "inp", "tail", "vdd", pmos,
                 params.w1, params.l1))
    c.add(Mosfet("M3", "d1", "d1", "0", "0", nmos, params.w2, params.l2))
    c.add(Mosfet("M4", "d2", "d1", "0", "0", nmos, params.w2, params.l2))
    # Stage 2: NMOS common source with PMOS current-source load.
    c.add(Mosfet("M6", "out", "d2", "0", "0", nmos, params.w3, params.l3))
    c.add(Mosfet("M7", "out", "nbias", "vdd", "vdd", pmos, 40e-6, 1e-6))

    c.add(Capacitor("CC", "d2", "out", CC))
    c.add(Capacitor("CL", "out", "0", CL))
    c.add(Inductor("LSERVO", "out", "inn", 1e6))
    c.add(Capacitor("CSERVO", "inn", "0", 1.0))
    return c


def evaluate_miller_ota(params: MillerParameters
                        ) -> dict[str, np.ndarray]:
    """Gain / phase margin / UGF of the Miller OTA (batched, nominal
    process)."""
    freqs = default_frequency_grid()
    circuit = build_miller_ota(params)
    op = dc_operating_point(circuit)
    result = ac_analysis(circuit, freqs, op=op)
    mag = result.magnitude_db("out")
    phase = result.phase_deg("out")
    return {
        "gain_db": dc_gain_db(mag),
        "pm_deg": phase_margin(freqs, mag, phase),
        "ugf_hz": unity_gain_frequency(freqs, mag),
    }


class MillerOTAProblem(OptimizationProblem):
    """Maximise gain and phase margin of the Miller OTA -- the same
    problem shape as :class:`repro.designs.problems.OTAProblem`, on a
    different topology."""

    parameter_names = tuple(MILLER_DESIGN_SPACE)
    objectives = (Objective("gain_db", "maximize", "dB"),
                  Objective("pm_deg", "maximize", "deg"))

    def evaluate_batch(self, unit_params: np.ndarray) -> np.ndarray:
        params = MillerParameters.from_normalized(unit_params)
        performance = evaluate_miller_ota(params)
        return np.stack([performance["gain_db"], performance["pm_deg"]],
                        axis=1)
