"""Noise analysis tests against closed-form results."""

import numpy as np
import pytest

from repro import telemetry
from repro.analysis import dc_operating_point, log_frequencies, noise_analysis
from repro.analysis.noise import BOLTZMANN, TEMPERATURE, _collect_sources
from repro.circuit import (VCVS, Capacitor, Circuit, Diode, Mosfet, Resistor,
                           VoltageSource)
from repro.designs import OTAParameters, build_ota
from repro.errors import AnalysisError
from repro.process import C35

FOUR_KT = 4.0 * BOLTZMANN * TEMPERATURE


def rc_circuit(r=1e3, c=1e-9):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("V1", "in", "0", 0.0))
    ckt.add(Resistor("R1", "in", "out", r))
    ckt.add(Capacitor("C1", "out", "0", c))
    return ckt


class TestResistorNoise:
    def test_flat_band_psd_is_4ktr(self):
        res = noise_analysis(rc_circuit(), [1.0], output_node="out")
        assert res.output_psd[0, 0] == pytest.approx(FOUR_KT * 1e3, rel=1e-6)

    def test_integrated_ktc(self):
        """The classic: total output noise of an RC filter is kT/C,
        independent of R."""
        for r in (1e2, 1e4):
            c = 1e-9
            freqs = log_frequencies(1e-1, 1e11, 40)
            res = noise_analysis(rc_circuit(r=r, c=c), freqs,
                                 output_node="out")
            rms = res.integrated_output_rms()[0]
            expected = np.sqrt(BOLTZMANN * TEMPERATURE / c)
            assert rms == pytest.approx(expected, rel=2e-3), f"R={r}"

    def test_divider_noise_is_parallel_resistance(self):
        ckt = Circuit("div")
        ckt.add(VoltageSource("V1", "in", "0", 0.0))
        ckt.add(Resistor("R1", "in", "out", 2e3))
        ckt.add(Resistor("R2", "out", "0", 2e3))
        res = noise_analysis(ckt, [1e3], output_node="out")
        assert res.output_psd[0, 0] == pytest.approx(FOUR_KT * 1e3, rel=1e-6)

    def test_contributions_sum_to_total(self):
        ckt = Circuit("div")
        ckt.add(VoltageSource("V1", "in", "0", 0.0))
        ckt.add(Resistor("R1", "in", "out", 1e3))
        ckt.add(Resistor("R2", "out", "0", 3e3))
        res = noise_analysis(ckt, [1e3, 1e6], output_node="out")
        total = sum(res.contributions.values())
        np.testing.assert_allclose(total, res.output_psd, rtol=1e-12)


class TestInputReferral:
    def test_unity_gain_input_referred_equals_output(self):
        # Output taken directly at the source node through a tiny R.
        ckt = Circuit("t")
        ckt.add(VoltageSource("V1", "in", "0", 0.0))
        ckt.add(Resistor("R1", "in", "out", 1.0))
        ckt.add(Resistor("R2", "out", "0", 1e9))
        res = noise_analysis(ckt, [1e3], output_node="out",
                             input_source="V1")
        assert res.gain[0, 0] == pytest.approx(1.0, rel=1e-6)
        np.testing.assert_allclose(res.input_referred_psd, res.output_psd,
                                   rtol=1e-6)

    def test_no_input_source_raises_on_referral(self):
        res = noise_analysis(rc_circuit(), [1.0], output_node="out")
        with pytest.raises(AnalysisError):
            _ = res.input_referred_psd


class TestDeviceNoise:
    def cs_amp(self):
        ckt = Circuit("cs")
        ckt.add(VoltageSource("VDD", "vdd", "0", 3.3))
        ckt.add(VoltageSource("VG", "g", "0", 0.9, ac_mag=1.0))
        ckt.add(Resistor("RD", "vdd", "d", 1e4))
        ckt.add(Mosfet("M1", "d", "g", "0", "0", C35.nmos, 20e-6, 1e-6))
        return ckt

    def test_mosfet_thermal_noise_present(self):
        res = noise_analysis(self.cs_amp(), [1e6], output_node="d")
        assert "M1:thermal" in res.contributions
        assert res.contributions["M1:thermal"][0, 0] > 0

    def test_flicker_dominates_low_frequency(self):
        res = noise_analysis(self.cs_amp(), [1.0, 1e8], output_node="d")
        flicker = res.contributions["M1:flicker"][0]
        thermal = res.contributions["M1:thermal"][0]
        assert flicker[0] > thermal[0]     # 1 Hz: 1/f wins
        assert flicker[1] < thermal[1]     # 100 MHz: thermal wins

    def test_flicker_slope_is_one_over_f(self):
        res = noise_analysis(self.cs_amp(), [10.0, 100.0], output_node="d")
        flicker = res.contributions["M1:flicker"][0]
        assert flicker[0] / flicker[1] == pytest.approx(10.0, rel=0.05)

    def test_input_referred_of_amplifier(self):
        res = noise_analysis(self.cs_amp(), [1e6], output_node="d",
                             input_source="VG")
        # Input-referred thermal floor ~ 4kT*gamma/gm: order nV/rtHz.
        vn = np.sqrt(res.input_referred_psd[0, 0])
        assert 1e-10 < vn < 1e-7

    def test_diode_shot_noise(self):
        ckt = Circuit("d")
        ckt.add(VoltageSource("V1", "in", "0", 3.0))
        ckt.add(Resistor("R1", "in", "a", 1e4))
        ckt.add(Diode("D1", "a", "0"))
        res = noise_analysis(ckt, [1e3], output_node="a")
        assert "D1:shot" in res.contributions
        assert res.contributions["D1:shot"][0, 0] > 0

    def test_dominant_contributor(self):
        res = noise_analysis(self.cs_amp(), [1.0], output_node="d")
        assert res.dominant_contributor(0) == "M1:flicker"


class TestValidationAndBatch:
    def test_noiseless_circuit_rejected(self):
        ckt = Circuit("quiet")
        ckt.add(VoltageSource("V1", "a", "0", 1.0))
        ckt.add(Capacitor("C1", "a", "0", 1e-9))
        with pytest.raises(AnalysisError, match="no noisy"):
            noise_analysis(ckt, [1.0], output_node="a")

    def test_ground_output_rejected(self):
        with pytest.raises(AnalysisError, match="ground"):
            noise_analysis(rc_circuit(), [1.0], output_node="0")

    def test_batched_circuit(self):
        ckt = rc_circuit(c=np.array([1e-9, 2e-9]))
        freqs = log_frequencies(1e-1, 1e11, 30)
        res = noise_analysis(ckt, freqs, output_node="out")
        rms = res.integrated_output_rms()
        expected = np.sqrt(BOLTZMANN * TEMPERATURE / np.array([1e-9, 2e-9]))
        np.testing.assert_allclose(rms, expected, rtol=5e-3)

    def test_integration_band_validation(self):
        res = noise_analysis(rc_circuit(), [10.0], output_node="out")
        with pytest.raises(AnalysisError):
            res.integrated_output_rms()


#: Gates of the modal noise analysis against the per-frequency solve:
#: relative to the lane's peak over the sweep (of the output PSD, for a
#: contribution), and pointwise, where a 1 GHz roll-off leaves a PSD
#: 1e-11 below its peak.
PEAK_RTOL = 1e-9
POINT_RTOL = 1e-6


def _assert_close(actual, desired, peak, name=""):
    peak = peak.max(axis=1, keepdims=True)
    assert np.max(np.abs(actual - desired) / peak) <= PEAK_RTOL, name
    np.testing.assert_allclose(actual, desired, rtol=POINT_RTOL,
                               err_msg=name)


def _per_frequency_noise(circuit, freqs, output_node, input_source=None):
    """The per-frequency solve the modal noise analysis replaced, kept as
    its oracle: ``(G + j*omega*C)`` is solved at every frequency for all
    unit injections, plus the input excitation."""
    op = dc_operating_point(circuit)
    assembler = op.assembler
    G, C, _ = assembler.ac_system(op.x)
    out = assembler.topology.index_of(output_node)
    sources = _collect_sources(circuit, op)
    batch, n = op.x.shape
    rhs = np.zeros((batch, len(sources) + 1, n), dtype=complex)
    for k, source in enumerate(sources):
        if source.node_a >= 0:
            rhs[:, k, source.node_a] += 1.0
        if source.node_b >= 0:
            rhs[:, k, source.node_b] -= 1.0
    if input_source is not None:
        element = circuit.element(input_source)
        saved, element.ac_mag = element.ac_mag, 1.0
        rhs[:, -1] = assembler.ac_excitation()
        element.ac_mag = saved
    transfer = np.empty((batch, freqs.size, len(sources) + 1), dtype=complex)
    for k, freq in enumerate(freqs):
        Y = G + 2j * np.pi * freq * C
        transfer[:, k] = np.linalg.solve(
            Y[:, None], rhs[..., None])[:, :, out, 0]
    contributions = {
        f"{source.element}:{source.label}":
            np.abs(transfer[:, :, k]) ** 2 * source.psd(freqs)
        for k, source in enumerate(sources)}
    return contributions, np.abs(transfer[:, :, -1])


class TestModalAgainstPerFrequencySolve:
    def check(self, circuit, freqs, output_node, input_source=None):
        res = noise_analysis(circuit, freqs, output_node=output_node,
                             input_source=input_source)
        contributions, gain = _per_frequency_noise(
            circuit, freqs, output_node, input_source)
        assert res.contributions.keys() == contributions.keys()
        total = sum(contributions.values())
        for name, reference in contributions.items():
            _assert_close(res.contributions[name], reference, total, name)
        _assert_close(res.output_psd, total, total)
        if input_source is not None:
            _assert_close(res.gain, gain, gain)

    def test_ota_with_input_referral(self):
        rng = np.random.default_rng(4)
        params = OTAParameters.from_normalized(rng.uniform(0.1, 0.9, (6, 8)))
        circuit = build_ota(params, variations=C35.sample(6, rng))
        self.check(circuit, log_frequencies(10.0, 1e9, 4), "out", "VINP")

    def test_vcvs_circuit_takes_the_direct_fallback(self):
        ckt = Circuit("buffered divider")
        ckt.add(VoltageSource("V1", "in", "0", 0.0))
        ckt.add(Resistor("R1", "in", "a", np.array([1e3, 3e3])))
        ckt.add(Resistor("R2", "a", "0", 2e3))
        ckt.add(Capacitor("C1", "a", "0", 1e-9))
        ckt.add(VCVS("E1", "out", "0", "a", "0", 4.0))
        ckt.add(Resistor("RL", "out", "0", 1e4))
        before = telemetry.REGISTRY.counter_value("analysis.ac.direct_lanes")
        self.check(ckt, log_frequencies(1e2, 1e8, 5), "out", "V1")
        assert telemetry.REGISTRY.counter_value(
            "analysis.ac.direct_lanes") - before == 2
