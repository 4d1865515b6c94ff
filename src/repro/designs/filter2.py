"""The paper's application example: a 2nd-order OTA-C low-pass filter.

Section 5 of the paper demonstrates the behavioural model by designing a
2nd-order low-pass (anti-aliasing) filter built from the modelled OTA
(Figure 9), with capacitors ``C1``, ``C2``, ``C3`` as the filter's own
design variables (30 individuals x 40 generations of MOO) and a
specification mask (Figure 10).

Topology
--------
The classic two-OTA Gm-C biquad with a bridging capacitor::

    vin --(+ OTA1 -)--- v1 ---(+ OTA2 -)--- v2 (= output)
               ^         |        ^          |
               |        C1        |         C2      C3 bridges v1 - v2
               +---- v2 feedback --+---- v2 feedback

    OTA1: non-inverting input vin, inverting input v2, output v1 (onto C1)
    OTA2: non-inverting input v1,  inverting input v2, output v2 (onto C2)

With ideal transconductors (``gm = gain/ro``) and ``C3 = 0`` the transfer
function is the textbook Gm-C biquad

``H(s) = gm1*gm2 / (s^2 C1 C2 + s C1 gm2 + gm1 gm2)``

giving ``w0 = sqrt(gm1 gm2 / C1 C2)`` and ``Q = sqrt(gm1 C2 / (gm2 C1))``;
``C3`` bridges the integrator nodes and provides the third degree of
freedom the paper optimises.  Unity DC gain follows from the v2 feedback.

The filter exists in two fidelities sharing one measurement path:

* **behavioural** -- two :class:`~repro.behavioral.ota.BehavioralOTA`
  macromodels whose (gain, ro) come from the combined yield model: the
  fast simulation the paper's flow enables;
* **transistor** -- two embedded 10-transistor OTA cores
  (:func:`repro.designs.ota.add_ota_devices`): the verification reference.

Specification (Figure 10 equivalent)
------------------------------------
The paper states "typical anti-aliasing filter specification" without
numbers; we fix (documented in DESIGN.md): unity passband gain with at
most 1 dB ripple up to 1 MHz, and at least 30 dB attenuation beyond
10 MHz.  The OTA requirement quoted by the paper -- open-loop gain > 50 dB
and phase margin > 60 degrees -- is applied when selecting the OTA from
the combined model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import ac_analysis, dc_operating_point, log_frequencies
from ..behavioral.ota import BehavioralOTA
from ..circuit import Capacitor, Circuit, VoltageSource
from ..errors import ReproError
from ..measure.acmeas import (dc_gain_db, f3db, passband_ripple_db,
                              stopband_attenuation_db)
from ..measure.specs import Spec, SpecSet
from ..process import C35, ProcessKit, ProcessSample
from ..units import from_db20
from .ota import VCM, OTAParameters, add_ota_devices

__all__ = ["FilterSpec", "DEFAULT_FILTER_SPEC", "FilterCaps",
           "build_filter_behavioral", "build_filter_transistor",
           "evaluate_filter", "filter_frequency_grid", "FILTER_OBJECTIVES"]

#: The filter optimisation objectives (minimise ripple, maximise rejection).
FILTER_OBJECTIVES = ("ripple_db", "atten_db")


class FilterSpec:
    """The Figure-10 anti-aliasing mask plus the OTA requirements.

    Attributes
    ----------
    f_pass:
        Passband edge [Hz].
    max_ripple_db:
        Maximum gain deviation from DC inside the passband [dB].
    f_stop:
        Stopband edge [Hz].
    min_atten_db:
        Minimum attenuation (below DC gain) beyond ``f_stop`` [dB].
    ota_gain_db, ota_pm_deg:
        The OTA open-loop requirements of the paper's section 5
        ("50 dB and 60 degrees respectively").
    """

    f_pass = 1.0e6
    max_ripple_db = 1.0
    f_stop = 10.0e6
    min_atten_db = 30.0
    ota_gain_db = 50.0
    ota_pm_deg = 60.0

    def mask_specs(self) -> SpecSet:
        """The filter mask as a :class:`SpecSet` over filter measures."""
        return SpecSet([
            Spec("ripple_db", "le", self.max_ripple_db, "dB",
                 label="passband ripple"),
            Spec("atten_db", "ge", self.min_atten_db, "dB",
                 label="stopband attenuation"),
        ])

    def ota_specs(self) -> SpecSet:
        """The OTA requirement as a :class:`SpecSet` over OTA measures."""
        return SpecSet([
            Spec("gain_db", "ge", self.ota_gain_db, "dB",
                 label="open-loop gain"),
            Spec("pm_deg", "ge", self.ota_pm_deg, "deg",
                 label="phase margin"),
        ])

    def mask_points(self) -> list[tuple[float, float, str]]:
        """Corner points of the graphical mask (for the Figure-10 bench):
        ``(frequency, level_dB, 'upper'|'lower')`` relative to DC gain."""
        return [
            (self.f_pass, +self.max_ripple_db, "upper"),
            (self.f_pass, -self.max_ripple_db, "lower"),
            (self.f_stop, -self.min_atten_db, "upper"),
        ]


#: The specification used throughout the reproduction.
DEFAULT_FILTER_SPEC = FilterSpec()


@dataclass
class FilterCaps:
    """The filter's designable capacitors (Figure 9's C1, C2, C3).

    Values in farads; scalars or ``(B,)`` batch arrays.  The default is a
    Butterworth-ish starting point for ``gm ~ 275 uS`` OTAs.
    """

    c1: object = 60e-12
    c2: object = 30e-12
    c3: object = 2e-12

    #: MOO search range per capacitor [F] (the paper does not quote one;
    #: these are sensible design windows: the integrator capacitors span
    #: around the gm/(2*pi*f0) sizing, the bridge capacitor stays small
    #: relative to them).
    BOUNDS = (
        (5e-12, 120e-12),   # C1
        (5e-12, 120e-12),   # C2
        (0.5e-12, 10e-12),  # C3 (bridge)
    )

    @classmethod
    def from_normalized(cls, unit_values) -> "FilterCaps":
        """Map ``[0, 1]^3`` GA genes to capacitor values (log scale --
        capacitors are ratio-metric quantities)."""
        unit_values = np.asarray(unit_values, dtype=float)
        if unit_values.shape[-1] != 3:
            raise ReproError(f"expected 3 capacitor genes, got "
                             f"{unit_values.shape}")
        caps = np.empty_like(unit_values)
        for j, (lo, hi) in enumerate(cls.BOUNDS):
            log_lo, log_hi = np.log10(lo), np.log10(hi)
            caps[..., j] = 10.0 ** (log_lo + unit_values[..., j]
                                    * (log_hi - log_lo))
        if caps.ndim == 1:
            return cls(float(caps[0]), float(caps[1]), float(caps[2]))
        return cls(caps[..., 0], caps[..., 1], caps[..., 2])

    def to_array(self) -> np.ndarray:
        columns = [self.c1, self.c2, self.c3]
        batched = any(np.ndim(c) == 1 for c in columns)
        if not batched:
            return np.array([float(c) for c in columns])
        batch = max(np.size(c) for c in columns)
        return np.stack([np.broadcast_to(np.asarray(c, float), (batch,))
                         for c in columns], axis=-1)

    def scaled(self, factor) -> "FilterCaps":
        """All three capacitors scaled (process variation)."""
        return FilterCaps(self.c1 * factor, self.c2 * factor,
                          self.c3 * factor)


def filter_frequency_grid(points_per_decade: int = 20) -> np.ndarray:
    """Measurement sweep for the filter: 1 kHz to 100 MHz."""
    return log_frequencies(1e3, 1e8, points_per_decade)


def build_filter_behavioral(caps: FilterCaps, *, ota_gain_db, ota_ro,
                            parasitic_pole_hz=None) -> Circuit:
    """Build the biquad from two behavioural OTA macromodels.

    ``ota_gain_db``/``ota_ro`` may be scalars or batch arrays (e.g. one
    per Monte-Carlo sample of the OTA's modelled variation).
    """
    gain = from_db20(np.asarray(ota_gain_db, dtype=float))
    circuit = Circuit("2nd-order OTA-C low-pass filter (behavioural)")
    circuit.add(VoltageSource("VIN", "vin", "0", 0.0, ac_mag=1.0))
    circuit.add(BehavioralOTA("OTA1", "v1", "vin", "v2",
                              gain=gain, ro=ota_ro,
                              parasitic_pole_hz=parasitic_pole_hz))
    circuit.add(BehavioralOTA("OTA2", "v2", "v1", "v2",
                              gain=gain, ro=ota_ro,
                              parasitic_pole_hz=parasitic_pole_hz))
    circuit.add(Capacitor("C1", "v1", "0", caps.c1))
    circuit.add(Capacitor("C2", "v2", "0", caps.c2))
    circuit.add(Capacitor("C3", "v1", "v2", caps.c3))
    return circuit


def build_filter_transistor(caps: FilterCaps, ota_params: OTAParameters, *,
                            pdk: ProcessKit = C35,
                            variations: ProcessSample | None = None
                            ) -> Circuit:
    """Build the biquad with two embedded transistor-level OTA cores.

    The same ``ota_params`` (typically the yield-targeted design from the
    combined model) is used for both OTAs; process ``variations`` apply
    die-consistently across the whole filter, including the capacitor
    process scale on C1-C3.
    """
    circuit = Circuit("2nd-order OTA-C low-pass filter (transistor)")
    supply = pdk.supply if variations is None or variations.vdd is None \
        else variations.vdd
    circuit.add(VoltageSource("VDD", "vdd", "0", supply))
    circuit.add(VoltageSource("VIN", "vin", "0", VCM, ac_mag=1.0))
    add_ota_devices(circuit, prefix="ota1.", inp="vin", inn="v2", out="v1",
                    vdd="vdd", params=ota_params, pdk=pdk,
                    variations=variations)
    add_ota_devices(circuit, prefix="ota2.", inp="v1", inn="v2", out="v2",
                    vdd="vdd", params=ota_params, pdk=pdk,
                    variations=variations)
    scale = 1.0 if variations is None else variations.cap_scale
    circuit.add(Capacitor("C1", "v1", "0", caps.c1 * scale))
    circuit.add(Capacitor("C2", "v2", "0", caps.c2 * scale))
    circuit.add(Capacitor("C3", "v1", "v2", caps.c3 * scale))
    return circuit


def evaluate_filter(circuit: Circuit, *,
                    spec: FilterSpec = DEFAULT_FILTER_SPEC,
                    freqs: np.ndarray | None = None
                    ) -> dict[str, np.ndarray]:
    """Simulate a filter circuit and extract the mask measures at its
    output node ``v2``.

    Returns shape-``(B,)`` arrays:

    * ``dcgain_db``  -- passband (DC) gain [dB],
    * ``ripple_db``  -- worst in-band deviation from DC gain [dB],
    * ``atten_db``   -- worst stopband attenuation beyond ``f_stop`` [dB],
    * ``f3db_hz``    -- -3 dB corner [Hz].
    """
    if freqs is None:
        freqs = filter_frequency_grid()
    op = dc_operating_point(circuit)
    result = ac_analysis(circuit, freqs, op=op)
    mag = result.magnitude_db("v2")
    return {
        "dcgain_db": dc_gain_db(mag),
        "ripple_db": passband_ripple_db(freqs, mag, spec.f_pass),
        "atten_db": stopband_attenuation_db(freqs, mag, spec.f_stop),
        "f3db_hz": f3db(freqs, mag),
    }
