"""AC analysis tests: known transfer functions, batching, linearity, and
the modal factorisation against the per-frequency solve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.analysis import (ac_analysis, dc_operating_point, log_frequencies,
                            noise_analysis)
from repro.analysis.mna import ACExcitationContext, StampContext
from repro.circuit import (CCVS, VCCS, VCVS, Capacitor, Circuit,
                           CurrentSource, Inductor, Mosfet, Resistor,
                           VoltageSource)
from repro.designs import (FilterCaps, MillerParameters, OTAParameters,
                           build_filter_transistor, build_miller_ota,
                           build_ota, default_frequency_grid,
                           filter_frequency_grid)
from repro.designs.ota import ota_points_evaluator
from repro.mc import MCConfig, monte_carlo_points
from repro.measure.acmeas import (dc_gain_db, f3db, passband_ripple_db,
                                  phase_margin, stopband_attenuation_db,
                                  unity_gain_frequency)
from repro.process import C35
from stamp_oracle import oracle_stamp_ac


def rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit("rc")
    circuit.add(VoltageSource("V1", "in", "0", 0.0, ac_mag=1.0))
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", "0", c))
    return circuit


class TestFrequencyGrid:
    def test_log_frequencies_endpoints(self):
        freqs = log_frequencies(10.0, 1e6, 10)
        assert freqs[0] == pytest.approx(10.0)
        assert freqs[-1] == pytest.approx(1e6)

    def test_points_per_decade(self):
        freqs = log_frequencies(1.0, 1e3, 10)
        assert freqs.size == 31

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            log_frequencies(0.0, 1e3)
        with pytest.raises(ValueError):
            log_frequencies(1e3, 1e3)


class TestRCLowpass:
    def test_matches_analytic_everywhere(self):
        r, c = 1e3, 1e-9
        circuit = rc_lowpass(r, c)
        freqs = log_frequencies(1e2, 1e8, 15)
        res = ac_analysis(circuit, freqs)
        measured = res.v("out")[0]
        analytic = 1.0 / (1.0 + 2j * np.pi * freqs * r * c)
        np.testing.assert_allclose(measured, analytic, rtol=1e-9)

    def test_phase_at_corner(self):
        r, c = 1e3, 1e-9
        f0 = 1.0 / (2 * np.pi * r * c)
        res = ac_analysis(rc_lowpass(r, c), [f0])
        assert res.phase_deg("out")[0, 0] == pytest.approx(-45.0, abs=0.01)

    def test_magnitude_db(self):
        res = ac_analysis(rc_lowpass(), [1.0])
        assert res.magnitude_db("out")[0, 0] == pytest.approx(0.0, abs=1e-5)


class TestSecondOrder:
    def test_rlc_bandpass_peak(self):
        circuit = Circuit("rlc")
        circuit.add(CurrentSource("I1", "0", "n", 0.0, ac_mag=1.0))
        circuit.add(Resistor("R1", "n", "0", 1e3))
        circuit.add(Inductor("L1", "n", "0", 1e-6))
        circuit.add(Capacitor("C1", "n", "0", 1e-9))
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-6 * 1e-9))
        freqs = np.array([f0 / 10, f0, f0 * 10])
        res = ac_analysis(circuit, freqs)
        mags = np.abs(res.v("n")[0])
        # At resonance, L || C is open: |Z| = R.
        assert mags[1] == pytest.approx(1e3, rel=1e-6)
        assert mags[0] < mags[1] and mags[2] < mags[1]


class TestTransferAccessors:
    def test_transfer_ratio(self):
        circuit = rc_lowpass()
        circuit.add(Resistor("Rsrc", "in", "0", 1e6))  # extra load on in
        res = ac_analysis(circuit, [1e3])
        # Unit AC drive: |V(out)| is the transfer magnitude.
        h = res.v("out") / res.v("in")
        assert np.abs(h[0, 0]) <= 1.0
        np.testing.assert_allclose(res.magnitude_db("out"),
                                   20 * np.log10(np.abs(h)), rtol=1e-12)

    def test_ground_node_zero(self):
        res = ac_analysis(rc_lowpass(), [1e3])
        assert np.all(res.v("0") == 0)

    def test_unwrapped_phase_monotone_for_lowpass(self):
        res = ac_analysis(rc_lowpass(), log_frequencies(10, 1e8, 10))
        phase = res.phase_deg("out")[0]
        assert np.all(np.diff(phase) <= 1e-9)
        assert phase[-1] > -95.0  # single pole: never beyond -90


class TestLinearity:
    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=100.0))
    def test_response_scales_with_excitation(self, scale):
        base = ac_analysis(rc_lowpass(), [1e5]).v("out")[0, 0]
        circuit = rc_lowpass()
        circuit.element("V1").ac_mag = scale
        scaled = ac_analysis(circuit, [1e5]).v("out")[0, 0]
        assert scaled == pytest.approx(scale * base, rel=1e-9)

    def test_superposition(self):
        def build(ac1, ac2):
            c = Circuit("sum")
            c.add(VoltageSource("V1", "a", "0", 0.0, ac_mag=ac1))
            c.add(CurrentSource("I1", "0", "out", 0.0, ac_mag=ac2))
            c.add(Resistor("R1", "a", "out", 1e3))
            c.add(Resistor("R2", "out", "0", 1e3))
            return ac_analysis(c, [1e4]).v("out")[0, 0]

        both = build(1.0, 1e-3)
        only_v = build(1.0, 0.0)
        only_i = build(0.0, 1e-3)
        assert both == pytest.approx(only_v + only_i, rel=1e-12)


class TestWithTransistors:
    def test_cs_amplifier_gain_matches_small_signal(self):
        c = Circuit("cs")
        c.add(VoltageSource("VDD", "vdd", "0", 3.3))
        c.add(VoltageSource("VG", "g", "0", 0.9, ac_mag=1.0))
        c.add(Resistor("RD", "vdd", "d", 1e4))
        c.add(Mosfet("M1", "d", "g", "0", "0", C35.nmos, 10e-6, 1e-6))
        op = dc_operating_point(c)
        info = op.device("M1")
        expected = float(info["gm"][0]) / (1e-4 + float(info["gds"][0]))
        res = ac_analysis(c, [1e3], op=op)
        assert np.abs(res.v("d")[0, 0]) == pytest.approx(expected, rel=1e-3)

    def test_op_reuse_gives_same_answer(self):
        c = Circuit("cs")
        c.add(VoltageSource("VDD", "vdd", "0", 3.3))
        c.add(VoltageSource("VG", "g", "0", 0.9, ac_mag=1.0))
        c.add(Resistor("RD", "vdd", "d", 1e4))
        c.add(Mosfet("M1", "d", "g", "0", "0", C35.nmos, 10e-6, 1e-6))
        op = dc_operating_point(c)
        a = ac_analysis(c, [1e6], op=op).v("d")
        b = ac_analysis(c, [1e6]).v("d")
        np.testing.assert_allclose(a, b, rtol=1e-9)


class TestBatchedAC:
    def test_batch_matches_scalars(self):
        caps = np.array([1e-9, 2e-9, 5e-9])
        circuit = rc_lowpass(c=caps)
        freqs = log_frequencies(1e3, 1e7, 5)
        batched = ac_analysis(circuit, freqs)
        for lane, c in enumerate(caps):
            single = ac_analysis(rc_lowpass(c=float(c)), freqs)
            np.testing.assert_allclose(batched.v("out")[lane],
                                       single.v("out")[0], rtol=1e-12)

    def test_result_shapes(self):
        circuit = rc_lowpass(c=np.array([1e-9, 2e-9]))
        freqs = log_frequencies(1e3, 1e6, 4)
        res = ac_analysis(circuit, freqs)
        assert res.batch == 2
        assert res.v("out").shape == (2, freqs.size)


# ---------------------------------------------------------------------------
# modal factorisation against the per-frequency solve
# ---------------------------------------------------------------------------

#: Gate on measured quantities (gain, phase margin, UGF, f3dB, ...).
MEASURE_RTOL = 1e-6
#: Gate on a filter response, relative to its peak |H|.
FILTER_PEAK_RTOL = 1e-9


def _oracle(result):
    """The per-frequency stacked complex solve of the full MNA system:
    the reference every modal result is checked against."""
    G, C, u = result.assembler.ac_system(result.op.x)
    x = np.empty((u.shape[0], result.freqs.size, u.shape[1]), dtype=complex)
    for k, freq in enumerate(result.freqs):
        Y = G + 2j * np.pi * freq * C
        x[:, k] = np.linalg.solve(Y, u[..., None])[..., 0]
    return x


def _oracle_node(result, node):
    return _oracle(result)[:, :, result.assembler.topology.index_of(node)]


def _amplifier_measures(freqs, h):
    mag = 20.0 * np.log10(np.abs(h))
    phase = np.degrees(np.unwrap(np.angle(h), axis=-1))
    return {"gain_db": dc_gain_db(mag),
            "pm_deg": phase_margin(freqs, mag, phase),
            "ugf_hz": unity_gain_frequency(freqs, mag),
            "f3db_hz": f3db(freqs, mag)}


def _filter_measures(freqs, h):
    mag = 20.0 * np.log10(np.abs(h))
    return {"dcgain_db": dc_gain_db(mag),
            "ripple_db": passband_ripple_db(freqs, mag, 1e5),
            "atten_db": stopband_attenuation_db(freqs, mag, 1e7),
            "f3db_hz": f3db(freqs, mag)}


def _assert_measures_close(modal, reference):
    for name, value in reference.items():
        assert np.all(np.isfinite(value)), name
        np.testing.assert_allclose(modal[name], value, rtol=MEASURE_RTOL,
                                   atol=0.0, err_msg=name)


def _direct_lanes(result):
    return result._factors.direct_lanes.tolist()


def cascade(r2):
    """Two RC sections joined by a unidirectional VCCS.  Equal time
    constants (``r2 == 1e3``) give a Jordan block: a defective lane."""
    circuit = Circuit("cascade")
    circuit.add(VoltageSource("V1", "in", "0", 0.0, ac_mag=1.0))
    circuit.add(Resistor("R1", "in", "a", 1e3))
    circuit.add(Capacitor("C1", "a", "0", 1e-9))
    circuit.add(VCCS("G1", "0", "b", "a", "0", 1e-3))
    circuit.add(Resistor("R2", "b", "0", r2))
    circuit.add(Capacitor("C2", "b", "0", 1e-9))
    return circuit


class TestModalAgainstDirect:
    def test_ota_with_dc_servo(self):
        # The 1 MH / 1 F servo puts the pencil's eigenvalues 13 decades
        # apart; every lane must still stay modal and match everywhere.
        rng = np.random.default_rng(7)
        params = OTAParameters.from_normalized(rng.uniform(0.1, 0.9, (24, 8)))
        circuit = build_ota(params, variations=C35.sample(24, rng))
        freqs = default_frequency_grid()
        result = ac_analysis(circuit, freqs)
        assert _direct_lanes(result) == []
        modal, reference = result.v("out"), _oracle_node(result, "out")
        np.testing.assert_allclose(modal, reference, rtol=MEASURE_RTOL)
        _assert_measures_close(_amplifier_measures(freqs, modal),
                               _amplifier_measures(freqs, reference))

    def test_miller_ota(self):
        rng = np.random.default_rng(8)
        params = MillerParameters.from_normalized(rng.uniform(0, 1, (24, 6)))
        circuit = build_miller_ota(params)
        freqs = default_frequency_grid()
        result = ac_analysis(circuit, freqs)
        assert _direct_lanes(result) == []
        _assert_measures_close(
            _amplifier_measures(freqs, result.v("out")),
            _amplifier_measures(freqs, _oracle_node(result, "out")))

    def test_transistor_filter(self):
        rng = np.random.default_rng(9)
        ota = OTAParameters.from_array(
            np.broadcast_to(OTAParameters().to_array(), (16, 8)))
        circuit = build_filter_transistor(
            FilterCaps(47e-12, 33e-12, 2e-12), ota,
            variations=C35.sample(16, rng))
        freqs = filter_frequency_grid()
        result = ac_analysis(circuit, freqs)
        assert _direct_lanes(result) == []
        modal, reference = result.v("v2"), _oracle_node(result, "v2")
        peak = np.abs(reference).max(axis=1, keepdims=True)
        assert np.max(np.abs(modal - reference) / peak) <= FILTER_PEAK_RTOL
        _assert_measures_close(_filter_measures(freqs, modal),
                               _filter_measures(freqs, reference))

    def test_rlc(self):
        # Series R-L into a shunt C, driven by a grounded source, batched
        # over the inductance: a resonant pair of complex modes per lane.
        inductance = np.array([1e-6, 2e-6, 5e-6])
        circuit = Circuit("rlc")
        circuit.add(VoltageSource("V1", "in", "0", 0.0, ac_mag=1.0))
        circuit.add(Resistor("R1", "in", "m", 10.0))
        circuit.add(Inductor("L1", "m", "out", inductance))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        freqs = log_frequencies(1e4, 1e9, 40)
        result = ac_analysis(circuit, freqs)
        assert _direct_lanes(result) == []
        modal = result.v("out")
        np.testing.assert_allclose(modal, _oracle_node(result, "out"),
                                   rtol=1e-9)
        s = 2j * np.pi * freqs
        analytic = 1.0 / (1.0 + s * 10.0 * 1e-9
                          + s * s * inductance[:, None] * 1e-9)
        np.testing.assert_allclose(modal, analytic, rtol=1e-9)

    def test_x_matches_direct_including_source_currents(self):
        circuit = cascade(np.array([500.0, 2e3]))
        circuit.add(VoltageSource("VB", "0", "bias", 1.0))
        circuit.add(Resistor("RB", "bias", "b", 1e4))
        freqs = log_frequencies(1e3, 1e8, 5)
        result = ac_analysis(circuit, freqs)
        assert _direct_lanes(result) == []
        reference = _oracle(result)
        scale = np.abs(reference).max(axis=(1, 2), keepdims=True)
        assert np.max(np.abs(result.x - reference) / scale) < 1e-12

    @pytest.mark.parametrize("extra", [
        VoltageSource("VF", "b", "c", 0.0),
        VCVS("E1", "c", "0", "b", "0", 2.0),
    ], ids=["floating-source", "vcvs"])
    def test_unreducible_branch_rows_fall_back(self, extra):
        circuit = cascade(np.array([500.0, 2e3]))
        circuit.add(extra)
        circuit.add(Resistor("RC", "c", "0", 1e3))
        result = ac_analysis(circuit, log_frequencies(1e3, 1e8, 5))
        assert _direct_lanes(result) == [0, 1]
        np.testing.assert_allclose(result.v("c"), _oracle_node(result, "c"),
                                   rtol=1e-12)

    def test_ccvs_falls_back(self):
        circuit = rc_lowpass()
        circuit.add(CCVS("H1", "h", "0", "V1", 100.0))
        circuit.add(Resistor("RH", "h", "0", 1e3))
        result = ac_analysis(circuit, log_frequencies(1e3, 1e8, 5))
        assert _direct_lanes(result) == [0]
        np.testing.assert_allclose(result.v("h"), _oracle_node(result, "h"),
                                   rtol=1e-12)

    def test_only_the_ill_conditioned_lane_falls_back(self):
        freqs = log_frequencies(1e3, 1e8, 10)
        good = np.array([500.0, 2e3, 4e3])
        mixed = ac_analysis(cascade(np.insert(good, 1, 1e3)), freqs)
        alone = ac_analysis(cascade(good), freqs)
        assert _direct_lanes(mixed) == [1]
        assert _direct_lanes(alone) == []
        np.testing.assert_array_equal(mixed.v("b")[[0, 2, 3]],
                                      alone.v("b"))
        np.testing.assert_allclose(mixed.v("b"), _oracle_node(mixed, "b"),
                                   rtol=1e-12)

    def test_no_fallback_lane_skips_the_direct_sweep(self, monkeypatch):
        # With every lane modal, the per-frequency fallback must not run
        # at all (it used to loop over the grid with zero lanes), and
        # the AC and noise outputs stay bitwise equal.
        rng = np.random.default_rng(7)
        params = OTAParameters.from_normalized(rng.uniform(0.1, 0.9, (6, 8)))
        circuit = build_ota(params, variations=C35.sample(6, rng))
        freqs = default_frequency_grid()
        op = dc_operating_point(circuit)

        def run():
            result = ac_analysis(circuit, freqs, op=op)
            noise = noise_analysis(circuit, freqs, output_node="out",
                                   input_source="VINP")
            return result, noise

        reference, reference_noise = run()
        assert _direct_lanes(reference) == []

        def forbidden(*args):
            raise AssertionError("direct_solve called with no fallback lane")

        monkeypatch.setattr("repro.analysis.ac.direct_solve", forbidden)
        result, noise = run()
        assert result.x.tobytes() == reference.x.tobytes()
        assert result.v("out").tobytes() == reference.v("out").tobytes()
        assert noise.output_psd.tobytes() == \
            reference_noise.output_psd.tobytes()
        assert noise.gain.tobytes() == reference_noise.gain.tobytes()

    def test_fallback_lanes_are_counted(self):
        name = "analysis.ac.direct_lanes"
        before = telemetry.REGISTRY.counter_value(name)
        ac_analysis(cascade(np.array([1e3, 2e3, 1e3])), [1e4]).v("b")
        assert telemetry.REGISTRY.counter_value(name) - before == 2

    def test_monte_carlo_points_bit_identical_across_backends(self):
        rng = np.random.default_rng(11)
        natural = OTAParameters.from_normalized(
            rng.uniform(0.2, 0.8, (3, 8))).to_array()

        def run(backend):
            config = MCConfig(n_samples=8, seed=5, chunk_lanes=16,
                              backend=backend)
            return monte_carlo_points(ota_points_evaluator(natural), 3, C35,
                                      config)

        serial = run("serial")
        for backend in ("thread:2", "process:2"):
            other = run(backend)
            for name, values in serial.items():
                assert values.tobytes() == other[name].tobytes(), \
                    f"{backend} diverged from serial on {name}"


class TestSmallSignalAssembly:
    def test_ac_system_bit_identical_to_full_restamp(self):
        rng = np.random.default_rng(3)
        params = OTAParameters.from_normalized(rng.uniform(0, 1, (5, 8)))
        circuit = build_ota(params, variations=C35.sample(5, rng))
        op = dc_operating_point(circuit)
        G, C, excitation = op.assembler.ac_system(op.x)

        # The restamping the cached linear part and the device banks
        # replaced: every element stamped one after another.
        assembler = op.assembler
        ctx = StampContext(assembler.n, assembler.batch)
        for element in circuit:
            element.stamp(ctx)
        for element in circuit.nonlinear_elements():
            oracle_stamp_ac(element, op.x, ctx)
        ac = ACExcitationContext(assembler.n, assembler.batch)
        for element in circuit:
            element.ac_rhs(ac)
        assert G.tobytes() == ctx.G.tobytes()
        assert C.tobytes() == ctx.C.tobytes()
        assert excitation.tobytes() == ac.rhs.tobytes()

    def test_ac_system_leaves_the_linear_cache_untouched(self):
        circuit = Circuit("cs")
        circuit.add(VoltageSource("VDD", "vdd", "0", 3.3))
        circuit.add(VoltageSource("VG", "g", "0", 0.9, ac_mag=1.0))
        circuit.add(Resistor("RD", "vdd", "d", 1e4))
        circuit.add(Mosfet("M1", "d", "g", "0", "0", C35.nmos, 10e-6, 1e-6))
        op = dc_operating_point(circuit)
        linear = op.assembler.linear()
        saved = linear.G.copy(), linear.C.copy()
        op.assembler.ac_system(op.x)
        np.testing.assert_array_equal(linear.G, saved[0])
        np.testing.assert_array_equal(linear.C, saved[1])
