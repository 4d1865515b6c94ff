"""Small-signal noise analysis.

Computes the output noise power spectral density of a circuit at a DC
operating point, per frequency, with per-element contribution breakdown
and input-referral -- the standard SPICE ``.noise`` analysis.

Method: the small-signal system ``G + j*omega*C`` is factorised once per
lane by the AC analysis' modal core (:class:`repro.analysis.ac.
ModalFactors`, with its per-lane direct-solve fallback).  Every
elementary noise source (a current PSD between two nodes) is a
unit-current right-hand side whose transfer ``H_k`` to the output is a
modal sum over the whole sweep, and the output PSD is
``sum_k |H_k|^2 * S_k(f)``.  Independent sources are quiet; noise comes
from:

* resistors -- thermal, ``S_i = 4kT/R``;
* diodes -- shot, ``S_i = 2qI``;
* MOSFETs -- channel thermal ``S_i = 4kT * gamma_n * gm`` (long-channel
  ``gamma_n = 2/3``) plus flicker ``S_i = KF * gm^2 / (Cox W Leff f)``.

Noise is not required by the paper's flow, but an analogue-model library
without ``.noise`` would not be credible; the example designs use it for
sanity numbers (e.g. the classic integrated kT/C of an RC filter, which
the test suite verifies to four digits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .ac import ModalFactors
from .dc import OperatingPoint, dc_operating_point

__all__ = ["NoiseResult", "noise_analysis", "BOLTZMANN", "TEMPERATURE"]

BOLTZMANN = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19
#: Analysis temperature [K] (300 K, matching the device model's kT/q).
TEMPERATURE = 300.0

#: Long-channel MOSFET thermal-noise coefficient.
_GAMMA_THERMAL = 2.0 / 3.0


@dataclass
class _NoiseSource:
    """One elementary noise current source between two matrix rows, with
    PSD ``level / f**exponent`` [A^2/Hz]."""

    element: str
    label: str
    node_a: int
    node_b: int
    level: np.ndarray  # (B,)
    exponent: float = 0.0

    def psd(self, freqs: np.ndarray) -> np.ndarray:
        """PSD over the sweep, shape ``(B, F)``."""
        level = self.level[:, None]
        if not self.exponent:
            return np.broadcast_to(level, (level.shape[0], freqs.size))
        return level / np.maximum(freqs, 1e-3) ** self.exponent


def _collect_sources(circuit, op: OperatingPoint) -> list[_NoiseSource]:
    """Enumerate the elementary noise sources of every element."""
    from ..circuit.elements import Diode, Resistor
    from ..circuit.mosfet import Mosfet

    four_kt = 4.0 * BOLTZMANN * TEMPERATURE

    def lanes(value) -> np.ndarray:
        return np.broadcast_to(np.asarray(value, dtype=float), (op.batch,))

    sources: list[_NoiseSource] = []
    for element in circuit:
        if isinstance(element, Resistor):
            a, b = element._node_idx
            resistance = np.asarray(element.resistance, dtype=float)
            sources.append(_NoiseSource(element.name, "thermal", a, b,
                                        lanes(four_kt / resistance)))
        elif isinstance(element, Diode):
            a, b = element._node_idx
            info = element.op_info(op.x)
            shot = 2.0 * ELEMENTARY_CHARGE * np.abs(info["id"])
            sources.append(_NoiseSource(element.name, "shot", a, b,
                                        lanes(shot)))
        elif isinstance(element, Mosfet):
            d_idx, _, s_idx, _ = element._node_idx
            vgs, vds, vbs = element._terminal_voltages(op.x)
            point = element.evaluate(vgs, vds, vbs)
            gm = np.abs(point.gm)
            sources.append(_NoiseSource(
                element.name, "thermal", d_idx, s_idx,
                lanes(four_kt * _GAMMA_THERMAL * gm)))

            model = element.model
            if model.kf > 0.0:
                area_cap = model.cox * np.asarray(element.w, float) \
                    * element.leff
                flicker_k = model.kf * gm * gm / np.maximum(area_cap, 1e-30)
                sources.append(_NoiseSource(
                    element.name, "flicker", d_idx, s_idx,
                    lanes(flicker_k), model.af))
    return sources


@dataclass
class NoiseResult:
    """Result of a noise analysis.

    Attributes
    ----------
    freqs:
        Frequency grid ``(F,)``.
    output_psd:
        Output noise voltage PSD, shape ``(B, F)`` [V^2/Hz].
    gain:
        |transfer| from the designated input source to the output,
        shape ``(B, F)`` (only when an input was named).
    contributions:
        Mapping ``"element:kind"`` -> ``(B, F)`` output-referred PSD.
    """

    freqs: np.ndarray
    output_psd: np.ndarray
    gain: np.ndarray | None
    contributions: dict[str, np.ndarray]

    @property
    def input_referred_psd(self) -> np.ndarray:
        """Input-referred noise PSD ``output_psd / |gain|^2``."""
        if self.gain is None:
            raise AnalysisError("no input source was designated")
        return self.output_psd / np.maximum(self.gain ** 2, 1e-300)

    def integrated_output_rms(self) -> np.ndarray:
        """RMS output noise over the sweep, by trapezoidal integration of
        the PSD (``sqrt(integral S df)``), shape ``(B,)``."""
        if self.freqs.size < 2:
            raise AnalysisError("integration band contains <2 sweep points")
        return np.sqrt(np.trapezoid(self.output_psd, self.freqs, axis=1))

    def dominant_contributor(self, frequency_index: int = 0) -> str:
        """Name of the largest contributor at a sweep point (lane 0)."""
        return max(self.contributions,
                   key=lambda k: self.contributions[k][0, frequency_index])


def noise_analysis(circuit, freqs, *, output_node: str,
                   input_source: str | None = None) -> NoiseResult:
    """Run a ``.noise``-style analysis.

    Parameters
    ----------
    output_node:
        Node whose voltage noise PSD is reported.
    input_source:
        Optional independent-source name for input referral; its transfer
        to the output is computed from its AC excitation topology (a unit
        AC magnitude is assumed).

    Raises
    ------
    AnalysisError
        If the circuit has no noisy elements or the output is ground.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    op = dc_operating_point(circuit)
    assembler = op.assembler

    out_index = assembler.topology.index_of(output_node)
    if out_index < 0:
        raise AnalysisError("output node must not be ground")

    G, C, _ = assembler.ac_system(op.x)
    batch, n = op.x.shape
    sources = _collect_sources(circuit, op)
    if not sources:
        raise AnalysisError(f"circuit {circuit.title!r} has no noisy elements")

    # Unit-current injection vector per source (shared across batch).
    injections = np.zeros((len(sources), n))
    for idx, source in enumerate(sources):
        if source.node_a >= 0:
            injections[idx, source.node_a] += 1.0
        if source.node_b >= 0:
            injections[idx, source.node_b] -= 1.0

    rhs = [np.broadcast_to(injection, (batch, n)) for injection in injections]
    if input_source is not None:
        element = circuit.element(input_source)
        saved = element.ac_mag
        element.ac_mag = 1.0
        try:
            rhs.append(assembler.ac_excitation())
        finally:
            element.ac_mag = saved

    factors = ModalFactors(circuit, G, C, freqs)
    s = 2j * np.pi * freqs
    transfers = [factors.response(out_index, factors.weights(vector), s)
                 for vector in rhs]
    if factors.direct_lanes.size:
        direct = factors.solve_direct(np.stack(rhs, axis=1), freqs)
        for k, transfer in enumerate(transfers):
            transfer[factors.direct_lanes] = direct[:, :, k, out_index]

    output_psd = np.zeros((batch, freqs.size))
    contributions = {}
    for source, transfer in zip(sources, transfers, strict=False):
        term = np.abs(transfer) ** 2 * source.psd(freqs)
        output_psd += term
        contributions[f"{source.element}:{source.label}"] = term
    gain = np.abs(transfers[-1]) if input_source is not None else None

    return NoiseResult(freqs=freqs, output_psd=output_psd, gain=gain,
                       contributions=contributions)
